import base64
import codecs
import gc
import hashlib
import json
import os
import random
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import helpers
from helpers import finite_diff_check, forward
from qcmine import models, nn_core
from qcmine.models import (
    CheckpointMismatch,
    ConfigInvalid,
    EmptyCode,
    Variant,
    VariantConfig,
    forward_graph,
    init_model,
    label_of,
    load_model,
    look_up,
    predict_label,
    predict_scores,
    save_model,
)
from qcmine.nn_core import NonFiniteInput, backward, softmax, softmax_xent, softmax_xent_rows
from qcmine.train_eval import _slice_backward
from qcmine import tokenize
from qcmine.post_parser import CodeContextInstance
from qcmine.tokenize import Language, Tokenizer, default_python_keep_list
from qcmine.vocab_embed import Vocabulary, build_vocab

WORDS = ["try", "this", "works", "you", "can", "how", "to", "sort", "output", "is", "shown"]
CODE = ["VAR", "=", "NUMBER", "print", "(", ")", "STRING", ">>>", "def", ":"]


@pytest.fixture(scope="module")
def vocabs():
    return build_vocab([WORDS]), build_vocab([CODE])


def tiny_cfg(variant=Variant.BIV_HNN, seed=0, **kw):
    base = dict(variant=variant, d_embed=5, d_token_gru=3, d_block=4, seed=seed)
    base.update(kw)
    return VariantConfig(**base)


def random_instance(rng, allow_empty_context=True):
    def pick(pool, lo, hi):
        return [rng.choice(pool) for _ in range(rng.randint(lo, hi))]

    pre = pick(WORDS, 0 if allow_empty_context else 1, 4)
    post = pick(WORDS, 0 if allow_empty_context else 1, 4)
    return CodeContextInstance(
        question_tokens=pick(WORDS, 1, 5),
        pre_tokens=pre,
        code_tokens=pick(CODE, 1, 6),
        post_tokens=post,
        position=1,
    )


class TestInitModel:
    def test_identical_checkpoints_per_seed(self, vocabs, tmp_path):
        wv, cv = vocabs
        for i, path in enumerate([tmp_path / "a.json", tmp_path / "b.json"]):
            save_model(init_model(tiny_cfg(seed=7), wv, cv), path)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_default_embedding_dimension_is_150(self):
        assert VariantConfig().d_embed == 150

    def test_text_hnn_has_no_code_encoder(self, vocabs):
        model = init_model(tiny_cfg(Variant.TEXT_HNN), *vocabs)
        names = set(model.params)
        assert not any(n.startswith("code_token") for n in names)
        assert "code_embeddings" not in names

    def test_shared_question_encoder_name_audit(self, vocabs):
        model = init_model(tiny_cfg(Variant.BIV_HNN), *vocabs)
        encoders = {n.split(".")[0] for n in model.params if "token" in n.split(".")[0]}
        assert encoders == {"text_token", "code_token"}

    def test_separate_question_encoder_when_unshared(self, vocabs):
        cfg = tiny_cfg(Variant.BIV_HNN, share_text_question_encoder=False)
        model = init_model(cfg, *vocabs)
        assert any(n.startswith("question_token") for n in model.params)

    def test_config_invalid(self, vocabs):
        with pytest.raises(ConfigInvalid):
            init_model(tiny_cfg(d_embed=0), *vocabs)

    def test_pretrained_word_embeddings_loaded(self, vocabs, tmp_path):
        wv, cv = vocabs
        path = tmp_path / "vec.txt"
        path.write_text("try " + " ".join(["0.25"] * 5) + "\n")
        model = init_model(tiny_cfg(), wv, cv, word_embedding_file=path)
        np.testing.assert_array_equal(
            model.word_emb.value[wv.token_to_id["try"]], [0.25] * 5
        )


class TestCheckJsonType:
    """The one finite-number rule: a float default takes any int or float
    within +-sys.float_info.max, and nothing beyond it, NaN or a bool."""

    MAX = sys.float_info.max

    @pytest.mark.parametrize("value", [MAX, -MAX, 0, 1, 0.5], ids=["max", "-max", "0", "1", "0.5"])
    def test_float_default_takes_finite_numbers(self, value):
        models.check_json_type("f.json", "lr", value, 0.1)

    @pytest.mark.parametrize(
        "value, why",
        [(float("nan"), "finite"), (float("inf"), "finite"), (float("-inf"), "finite"),
         (10**309, "finite"), (-10**309, "finite"), (True, "JSON type")],
        ids=["nan", "inf", "-inf", "10**309", "-10**309", "true"],
    )
    def test_float_default_refuses_the_rest(self, value, why):
        with pytest.raises(ConfigInvalid, match=f"f.json: key 'lr' must .*{why}"):
            models.check_json_type("f.json", "lr", value, 0.1)

    def test_int_default_takes_ints_beyond_float_range(self):
        models.check_json_type("f.json", "seed", 10**400, 0)


class TestForward:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_probabilities_sum_to_one(self, vocabs, variant):
        model = init_model(tiny_cfg(variant, seed=3), *vocabs)
        rng = random.Random(11)
        for _ in range(10):
            y, z = forward(model, random_instance(rng))
            assert y.shape == (2,)
            assert abs(float(y.sum()) - 1.0) < 1e-12
            assert np.all(y > 0)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_all_zero_parameters_give_half_half(self, vocabs, variant):
        model = init_model(tiny_cfg(variant, seed=1), *vocabs)
        for node in model.params.values():
            node.value[...] = 0.0
        rng = random.Random(5)
        for _ in range(5):
            y, _ = forward(model, random_instance(rng))
            np.testing.assert_array_equal(y, [0.5, 0.5])

    def test_predict_label_reads_solution_probability(self, vocabs):
        # with zero weights the logits equal the output bias, so softmax of
        # (ln .3, ln .7) yields y = [0.3, 0.7] -> label 1, score 0.7
        model = init_model(tiny_cfg(), *vocabs)
        for node in model.params.values():
            node.value[...] = 0.0
        model.output.b.value[...] = np.log([0.3, 0.7])
        rng = random.Random(2)
        label, score = predict_label(model, random_instance(rng))
        assert label == 1
        assert score == pytest.approx(0.7, rel=1e-12)

    def test_all_zero_model_predicts_label_one(self, vocabs):
        # tie rule: y1 = 0.5 -> label 1
        model = init_model(tiny_cfg(), *vocabs)
        for node in model.params.values():
            node.value[...] = 0.0
        rng = random.Random(6)
        labels = [predict_label(model, random_instance(rng)) for _ in range(8)]
        assert all(label == 1 and score == 0.5 for label, score in labels)

    def test_empty_code_rejected(self, vocabs):
        model = init_model(tiny_cfg(), *vocabs)
        inst = CodeContextInstance(["how"], ["try"], [], ["works"], position=1)
        with pytest.raises(EmptyCode):
            forward(model, inst)

    def test_unknown_tokens_fall_back_to_unk(self, vocabs):
        model = init_model(tiny_cfg(), *vocabs)
        inst = CodeContextInstance(
            ["zzz-not-in-vocab"], ["qqq"], ["WWW"], [], position=1
        )
        y, _ = forward(model, inst)
        assert abs(float(y.sum()) - 1.0) < 1e-12

    def test_dummy_blocks_use_learned_vector(self, vocabs):
        model = init_model(tiny_cfg(), *vocabs)
        inst = CodeContextInstance(["how"], [], ["VAR"], [], position=1)
        y1, _ = forward(model, inst)
        model.empty_block.value[...] += 0.5
        y2, _ = forward(model, inst)
        assert not np.array_equal(y1, y2)


def mixed_batch(rng):
    """Instances of varying lengths with empty pre, post and question
    blocks, unknown tokens, shared blocks and repeated instances."""
    pool_w, pool_c = WORDS + ["qqq-unknown"], CODE + ["WWW-unknown"]

    def pick(pool, lo, hi):
        return [rng.choice(pool) for _ in range(rng.randint(lo, hi))]

    shared_block = pick(WORDS, 3, 6)
    insts = []
    for i in range(30):
        insts.append(
            CodeContextInstance(
                question_tokens=[] if i % 7 == 0 else pick(pool_w, 1, 6),
                pre_tokens=shared_block if i % 5 == 0 else pick(pool_w, 0, 12),
                code_tokens=pick(pool_c, 1, 20),
                post_tokens=[] if i % 3 == 0 else pick(pool_w, 0, 12),
                position=1 + i % 4,
            )
        )
    return insts + insts[:4]


# every variant with the shared question encoder, and those with a question
# encoder also with their own
VARIANTS = (
    [(v, True) for v in Variant]
    + [(v, False) for v in (Variant.BIV_HNN, Variant.CODE_HNN, Variant.BIV_HFF)]
)


class TestBatchedInference:
    """predict_scores against the per-timestep reference graph."""

    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_matches_tape(self, vocabs, variant, shared):
        model = init_model(
            tiny_cfg(variant, seed=4, d_token_gru=5, d_block=6, share_text_question_encoder=shared),
            *vocabs,
        )
        bias_rng = np.random.default_rng(2)
        for node in model.params.values():
            if node.value.ndim == 1:  # biases start at zero; move them
                node.value[...] = bias_rng.uniform(-1, 1, node.value.shape)
        insts = mixed_batch(random.Random(23))
        scores = predict_scores(model, insts)
        reference = np.array([softmax(helpers.forward_graph(model, i)[0].value)[1] for i in insts])
        np.testing.assert_allclose(scores, reference, rtol=0, atol=1e-12)
        assert list(scores >= 0.5) == list(reference >= 0.5)
        for inst, ref in zip(insts[:5], reference):
            label, score = predict_label(model, inst)
            assert abs(score - ref) <= 1e-12 and label == int(ref >= 0.5)
            y, z = forward(model, inst)
            logits, z_ref = helpers.forward_graph(model, inst)
            np.testing.assert_allclose(y, softmax(logits.value), rtol=0, atol=1e-12)
            np.testing.assert_allclose(z, z_ref.value, rtol=0, atol=1e-12)

    def test_empty_batch(self, vocabs):
        model = init_model(tiny_cfg(), *vocabs)
        assert predict_scores(model, []).shape == (0,)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_nan_embedding_row_rejected(self, vocabs, variant):
        wv, cv = vocabs
        model = init_model(tiny_cfg(variant), wv, cv)
        model.word_emb.value[wv.token_to_id["try"]] = np.nan
        insts = mixed_batch(random.Random(1))
        insts.append(CodeContextInstance(["try"], ["try"], ["VAR"], ["try"], position=1))
        with pytest.raises(NonFiniteInput):
            predict_scores(model, insts)

    def test_empty_code_rejected(self, vocabs):
        model = init_model(tiny_cfg(), *vocabs)
        insts = mixed_batch(random.Random(1))
        insts.append(CodeContextInstance(["how"], ["try"], [], ["works"], position=1))
        with pytest.raises(EmptyCode):
            predict_scores(model, insts)


    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_every_lookup_made_before_the_forward(self, vocabs, variant, shared, monkeypatch):
        """``look_up`` makes every vocabulary lookup and its forward none, so
        the forward may run on a voter thread (``ensemble_batch``)."""
        model = init_model(tiny_cfg(variant, share_text_question_encoder=shared), *vocabs)
        insts = mixed_batch(random.Random(5))
        calls, lookup_all = [], Vocabulary.lookup_all

        def counted(vocab, tokens):
            calls.append(vocab)
            return lookup_all(vocab, tokens)

        monkeypatch.setattr(Vocabulary, "lookup_all", counted)
        forward = look_up(model, insts)
        assert calls and {id(v) for v in calls} <= {id(model.word_vocab), id(model.code_vocab)}
        calls.clear()
        for grad in (False, True):
            forward(grad)
            assert calls == []


def gather_then_project(table, ids, fwd_spans, bwd_spans, gru, grad=True):
    """The Bi-GRU fed an already-gathered copy of the rows it reads."""
    gathered = nn_core.take_rows(table, ids)
    return nn_core.bigru_final_states(gathered, np.arange(len(ids)), fwd_spans, bwd_spans, gru, grad)


class TestIndexedEncoders:
    """The model reading embedding rows through token ids against the same
    model gathering them first. Numeric contract: scores, code vectors and
    gradients within 1e-12, labels identical."""

    def model(self, vocabs, variant, shared):
        model = init_model(
            tiny_cfg(variant, seed=5, d_token_gru=4, d_block=5, share_text_question_encoder=shared),
            *vocabs,
        )
        rng = np.random.default_rng(8)
        for node in model.params.values():
            if node.value.ndim == 1:  # biases start at zero; move them
                node.value[...] = rng.uniform(-1, 1, node.value.shape)
        return model

    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_scores_match_gather_then_project(self, vocabs, variant, shared, monkeypatch):
        model = self.model(vocabs, variant, shared)
        insts = mixed_batch(random.Random(31))  # tokens repeat within and across blocks
        scores = predict_scores(model, insts)
        _, z = look_up(model, insts)(False)
        with monkeypatch.context() as m:
            m.setattr(models, "bigru_final_states", gather_then_project)
            ref_scores = predict_scores(model, insts)
            _, ref_z = look_up(model, insts)(False)
        np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-12)
        np.testing.assert_allclose(z.value, ref_z.value, rtol=0, atol=1e-12)
        assert [label_of(s) for s in scores] == [label_of(s) for s in ref_scores]

    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_gradients_match_gather_then_project(self, vocabs, variant, shared, monkeypatch):
        model = self.model(vocabs, variant, shared)
        insts = mixed_batch(random.Random(32))[:16]
        for i, inst in enumerate(insts):
            inst.label = i % 2
        model.zero_grad()
        loss = _slice_backward(model, insts, 1.0 / 40)
        got = model.named_grads()
        model.zero_grad()
        with monkeypatch.context() as m:
            m.setattr(models, "bigru_final_states", gather_then_project)
            ref_loss = _slice_backward(model, insts, 1.0 / 40)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name, ref in model.named_grads().items():
            if ref is None:
                assert got[name] is None, name
                continue
            np.testing.assert_allclose(got[name], ref, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_non_finite_rows_never_read_are_harmless(self, vocabs, variant):
        wv, cv = vocabs
        model = init_model(tiny_cfg(variant, seed=3), wv, cv)
        insts = [
            CodeContextInstance(["how", "to"], ["try", "this"], ["VAR", "=", "NUMBER"], ["works"], 1),
            CodeContextInstance(["how"], [], ["print", "(", ")"], ["try"], 2),
        ]
        before = predict_scores(model, insts)
        model.word_emb.value[wv.token_to_id["shown"]] = np.nan
        if model.code_emb is not None:
            model.code_emb.value[cv.token_to_id["def"]] = np.inf
        np.testing.assert_allclose(predict_scores(model, insts), before, rtol=0, atol=1e-12)


class TestConcurrentDirections:
    """Training runs the two directions of each Bi-GRU at once, forward and
    backward. Numeric contract: the loss and every parameter gradient are
    bit for bit those of the directions run in turn."""

    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_gradients_match_directions_in_turn(
        self, vocabs, variant, shared, blas_two_threads, monkeypatch
    ):
        model = TestIndexedEncoders().model(vocabs, variant, shared)
        insts = mixed_batch(random.Random(33))[:16]
        for i, inst in enumerate(insts):
            inst.label = i % 2

        def grads():
            model.zero_grad()
            loss = _slice_backward(model, insts, 1.0 / 40)
            return loss, {name: g.tobytes() for name, g in model.named_grads().items() if g is not None}

        with monkeypatch.context() as m:
            m.setattr(nn_core, "blas_thread_control", lambda: None)
            expected = grads()
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
        threads, kernel = set(), nn_core._gru_kernel

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return kernel(*args, **kwargs)

        monkeypatch.setattr(nn_core, "_gru_kernel", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert grads() == expected
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) >= 2

    @pytest.mark.parametrize("variant", list(Variant))
    def test_inference_starts_no_thread(self, vocabs, variant, monkeypatch):
        """Inference runs the directions in turn, so the ensemble's voter
        threads never start direction threads of their own."""
        model = init_model(tiny_cfg(variant, seed=6), *vocabs)
        insts = mixed_batch(random.Random(34))
        expected = predict_scores(model, insts)

        def no_pool(*args, **kwargs):
            raise AssertionError("inference started a thread pool")

        monkeypatch.setattr(nn_core, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(nn_core, "blas_thread_control", lambda: (lambda: 2, lambda n: None))
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
        assert predict_scores(model, insts).tobytes() == expected.tobytes()


class TestVariantInvariances:
    def substituted(self, rng, inst, what):
        new = CodeContextInstance(
            list(inst.question_tokens), list(inst.pre_tokens),
            list(inst.code_tokens), list(inst.post_tokens), inst.position,
        )
        if what == "code":
            new.code_tokens = [rng.choice(CODE) for _ in range(rng.randint(1, 8))]
        elif what == "context":
            new.pre_tokens = [rng.choice(WORDS) for _ in range(rng.randint(0, 5))]
            new.post_tokens = [rng.choice(WORDS) for _ in range(rng.randint(0, 5))]
        elif what == "question":
            new.question_tokens = [rng.choice(WORDS) for _ in range(rng.randint(1, 5))]
        return new

    @pytest.mark.parametrize(
        "variant,what",
        [
            (Variant.TEXT_HNN, "code"),
            (Variant.CODE_HNN, "context"),
            (Variant.BIV_HNN_NQ, "question"),
        ],
    )
    def test_invariance(self, vocabs, variant, what):
        model = init_model(tiny_cfg(variant, seed=9), *vocabs)
        rng = random.Random(17)
        for _ in range(25):
            inst = random_instance(rng)
            y1, _ = forward(model, inst)
            y2, _ = forward(model, self.substituted(rng, inst, what))
            np.testing.assert_array_equal(y1, y2)


class TestEndToEndGradients:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_full_graph_finite_differences(self, vocabs, variant):
        model = init_model(tiny_cfg(variant, seed=21), *vocabs)
        inst = CodeContextInstance(
            question_tokens=["how", "to"],
            pre_tokens=["try", "this"],
            code_tokens=["VAR", "=", "NUMBER"],
            post_tokens=["works"],
            position=1,
        )

        def loss_fn():
            logits, _ = forward_graph(model, inst)
            _, loss = softmax_xent(logits, 1)
            return loss

        err = finite_diff_check(loss_fn, list(model.params.values()))
        assert err < 1e-4, f"{variant}: max rel err {err}"


def tape_nodes(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


class TestTrainingGraph:
    """The batched training graph against the per-timestep reference."""

    def labeled_slice(self, seed, n=16):
        rng, insts = random.Random(seed), []
        while len(insts) < n - 2:
            insts += mixed_batch(rng)
        insts = insts[:n - 2]
        insts += insts[:2]  # repeated instances within a slice
        for i, inst in enumerate(insts):
            inst.label = (i * 7 + seed) % 3 % 2
        return insts

    def model(self, vocabs, variant, shared=True):
        model = init_model(
            tiny_cfg(variant, seed=6, d_token_gru=4, d_block=5, share_text_question_encoder=shared),
            *vocabs,
        )
        rng = np.random.default_rng(3)
        for node in model.params.values():
            if node.value.ndim == 1:  # biases start at zero; move them
                node.value[...] = rng.uniform(-1, 1, node.value.shape)
        return model

    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_slice_gradients_match_per_step_reference(self, vocabs, variant, shared):
        self.check_per_step_reference(vocabs, variant, shared, self.labeled_slice(1), 1.0 / 40)

    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_mini_batch_gradients_match_per_step_reference(self, vocabs, variant, shared):
        # a whole paper-size mini-batch, as training runs it: one forward and
        # one backward over 100 instances
        self.check_per_step_reference(vocabs, variant, shared, self.labeled_slice(9, 100), 0.01)

    def check_per_step_reference(self, vocabs, variant, shared, insts, seed):
        model = self.model(vocabs, variant, shared)
        model.zero_grad()
        loss = _slice_backward(model, insts, seed)
        batched = model.named_grads()

        model.zero_grad()
        ref_loss = 0.0
        for inst in insts:
            logits, _ = helpers.forward_graph(model, inst)
            _, single = softmax_xent(logits, inst.label)
            backward(single, seed=seed)
            ref_loss += float(single.value)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name, ref in model.named_grads().items():
            got = batched[name]
            if ref is None:
                assert got is None or not got.any(), name
                continue
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("rule", sorted(helpers.STEP_BLOCK_RULES))
    @pytest.mark.parametrize("variant,shared", VARIANTS)
    def test_gradients_do_not_depend_on_step_blocks(self, vocabs, variant, shared, rule, monkeypatch):
        insts = self.labeled_slice(5, 100)
        runs = []
        for blocks in (nn_core._step_blocks, helpers.STEP_BLOCK_RULES[rule]):
            monkeypatch.setattr(nn_core, "_step_blocks", blocks)
            model = self.model(vocabs, variant, shared)
            model.zero_grad()
            runs.append((_slice_backward(model, insts, 0.01), model.named_grads()))
        (loss, got), (ref_loss, ref) = runs
        assert loss == ref_loss  # the forward does not block
        for name, g in ref.items():
            if g is None:
                assert got[name] is None, name
                continue
            np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_batched_loss_finite_differences(self, vocabs, variant):
        model = init_model(tiny_cfg(variant, seed=21, d_embed=3, d_token_gru=2, d_block=2), *vocabs)
        insts = [
            CodeContextInstance(["how", "to"], ["try", "this"], ["VAR", "=", "NUMBER"], ["works"], 1, 1),
            CodeContextInstance(["how"], [], ["print", "(", ")"], ["try", "this"], 2, 0),
            CodeContextInstance([], ["try", "this"], ["VAR"], [], 1, 1),
        ]

        def loss_fn():
            logits, _ = look_up(model, insts)(True)
            return softmax_xent_rows(logits, [inst.label for inst in insts])[1]

        err = finite_diff_check(loss_fn, list(model.params.values()))
        assert err < 1e-4, f"{variant}: max rel err {err}"

    @pytest.mark.parametrize("variant", list(Variant))
    def test_node_count_does_not_grow_with_token_length(self, vocabs, variant):
        model = init_model(tiny_cfg(variant), *vocabs)
        counts = []
        for code_length in (5, 50):
            insts = self.labeled_slice(2)
            for i, inst in enumerate(insts):
                inst.code_tokens = [CODE[(i + k) % len(CODE)] for k in range(code_length)]
            logits, _ = look_up(model, insts)(True)
            counts.append(tape_nodes(softmax_xent_rows(logits, [i.label for i in insts])[1]))
        assert counts[0] == counts[1] < 100  # per-step graphs have thousands

    @pytest.mark.parametrize("variant", list(Variant))
    def test_node_count_does_not_grow_with_batch_size(self, vocabs, variant):
        model = init_model(tiny_cfg(variant), *vocabs)
        rng = random.Random(4)
        counts = []
        for n in (16, 64):
            insts = [random_instance(rng) for _ in range(n)]
            logits, _ = look_up(model, insts)(True)
            counts.append(tape_nodes(softmax_xent_rows(logits, [i % 2 for i in range(n)])[1]))
        assert counts[0] == counts[1], counts

    def test_forward_graph_wraps_the_batched_forward(self, vocabs):
        model = self.model(vocabs, Variant.BIV_HNN)
        inst = self.labeled_slice(3)[0]
        logits, z = forward_graph(model, inst)
        assert logits.value.shape == (2,)
        batch_logits, batch_z = look_up(model, [inst])(False)
        np.testing.assert_array_equal(logits.value, batch_logits.value[0])
        np.testing.assert_array_equal(z.value, batch_z.value[0])


class TestCheckpoints:
    def test_round_trip_lossless(self, vocabs, tmp_path):
        model = init_model(tiny_cfg(seed=13), *vocabs)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.word_vocab.token_to_id == model.word_vocab.token_to_id
        for name, node in model.params.items():
            np.testing.assert_array_equal(node.value, loaded.params[name].value)
        rng = random.Random(3)
        inst = random_instance(rng)
        np.testing.assert_array_equal(forward(model, inst)[0], forward(loaded, inst)[0])

    def test_streamed_save_matches_json_dump(self, tmp_path):
        """The file is ``json.dumps`` of the v2 head and base64 tensors."""
        words = ["try", "naïve", "日本語", 'quote"d', "back\\slash", "emoji\U0001F600"]
        wv, cv = build_vocab([words]), build_vocab([CODE + ["ünïcode"]])
        for variant in Variant:
            model = init_model(tiny_cfg(variant, seed=2), wv, cv)
            model.output.b.value[...] = [np.nan, -np.inf]
            path = tmp_path / f"{variant.value}.json"
            save_model(model, path)
            preprocessing = Tokenizer().fingerprint()
            head = {"config": model.config.to_dict(), "preprocessing": preprocessing}
            obj = {
                "format": "qcmine-checkpoint-v2",
                "config": model.config.to_dict(),
                "config_hash": hashlib.sha256(
                    json.dumps(head, sort_keys=True).encode()
                ).hexdigest()[:16],
                "preprocessing": preprocessing,
                "word_vocab": model.word_vocab.token_to_id,
                "code_vocab": model.code_vocab.token_to_id,
                "params": {
                    name: {
                        "shape": list(n.value.shape),
                        "data": base64.b64encode(n.value.astype("<f8").tobytes()).decode(),
                    }
                    for name, n in model.params.items()
                },
            }
            expected = json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")
            assert path.read_bytes() == expected, variant

    def test_tensors_written_in_slices_match_json_dump(self, tmp_path, monkeypatch):
        """Slices of 3 and 6 bytes put slice boundaries inside every
        tensor; arrays in nested dicts are tensors too."""
        arrays = {"a": np.arange(7.0).reshape(7, 1), "empty": np.zeros((0, 2)), "one": np.ones(1)}
        parts = {"vocab": {"tensor": 0, "x": 1}, "params": arrays, "n": [1.5, None, "tensor"]}
        expected = json.dumps(
            {"format": "f", **parts, "params": {k: nn_core.tensor_to_obj(a) for k, a in arrays.items()}},
            sort_keys=True, ensure_ascii=False,
        ).encode("utf-8")
        for chunk in (3, 6, 3 << 15):
            monkeypatch.setattr(nn_core, "_ENCODE_CHUNK", chunk)
            models.write_model_file(tmp_path / "m.json", "f", parts)
            assert (tmp_path / "m.json").read_bytes() == expected, chunk
        models.write_model_file(tmp_path / "nested.json", "f", {"params": {"deep": {"w": np.ones(2)}}})
        assert json.loads((tmp_path / "nested.json").read_text())["params"] == {
            "deep": {"w": nn_core.tensor_to_obj(np.ones(2))}
        }
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            models.write_model_file(tmp_path / "bad.json", "f", {"params": {1, 2}})

    def test_save_holds_no_full_size_base64_copy(self, tmp_path):
        """Saving an 8 MiB tensor once took a traced peak of 21.3 MiB: the
        base64 bytes and their str, each 4/3 of the tensor."""
        arr = np.random.default_rng(0).standard_normal(1 << 20)
        gc.collect()
        tracemalloc.start()
        try:
            models.write_model_file(tmp_path / "big.json", "f", {"params": {"w": arr}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        obj = json.loads((tmp_path / "big.json").read_text())
        assert nn_core.tensor_from_obj(obj["params"]["w"]).tobytes() == arr.tobytes()

    def test_saved_file_is_pinned(self, vocabs, tmp_path):
        """The bytes ``save_model`` writes for a fixed seeded model, with a
        Fortran-order and a big-endian parameter, stay what they were when
        tensors were encoded through ``tobytes()``."""
        model = init_model(tiny_cfg(seed=11), *vocabs)
        model.output.w.value = np.asfortranarray(model.output.w.value)
        model.output.b.value = model.output.b.value.astype(">f8")
        path = tmp_path / "m.json"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d584014cdbea535ee6b54db043a9f8910160bb085e231fa1ecbf40548c99c838"
        )

    def test_save_load_save_byte_identical(self, vocabs, tmp_path):
        keep = Tokenizer(keep=frozenset({"print"}))
        for variant in Variant:
            model = init_model(tiny_cfg(variant, seed=4), *vocabs, tokenizer=keep)
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            save_model(model, first)
            save_model(load_model(first), second)
            assert first.read_bytes() == second.read_bytes(), variant

    def test_special_values_bitwise_round_trip(self, vocabs, tmp_path):
        model = init_model(tiny_cfg(), *vocabs)
        special = np.array(
            [0x7FF8000000000123, 0xFFF0000000000000, 0x8000000000000000, 0x0000000000000001,
             0x7FF0000000000000, 0xFFF8000000000000],
            dtype=np.uint64,
        ).view(np.float64)
        model.empty_block.value[...] = special
        model.output.b.value[...] = special[:2]
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        for name, node in model.params.items():
            assert node.value.view(np.uint64).tolist() == (
                loaded.params[name].value.view(np.uint64).tolist()
            ), name

    def test_loaded_arrays_writable_c_contiguous_float64(self, vocabs, tmp_path):
        path = tmp_path / "m.json"
        save_model(init_model(tiny_cfg(), *vocabs), path)
        loaded = load_model(path)
        for name, node in loaded.params.items():
            arr = node.value
            assert arr.dtype == np.float64, name
            assert arr.flags.c_contiguous and arr.flags.writeable, name
        loaded.restore({name: np.zeros_like(n.value) for name, n in loaded.params.items()})

    def edited(self, vocabs, tmp_path, edit):
        path = tmp_path / "m.json"
        save_model(init_model(tiny_cfg(), *vocabs), path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        return path

    def test_v1_file_refused(self, vocabs, tmp_path):
        def to_v1(obj):
            obj["format"] = "qcmine-checkpoint-v1"
            for t in obj["params"].values():
                t["data"] = np.frombuffer(base64.b64decode(t["data"])).tolist()

        path = self.edited(vocabs, tmp_path, to_v1)
        with pytest.raises(CheckpointMismatch, match="qcmine-checkpoint-v1") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("data", [
        lambda d: d[:-1],  # truncated base64
        lambda d: base64.b64encode(base64.b64decode(d)[:-8]).decode(),  # one value short
    ])
    def test_bad_tensor_data_refused(self, vocabs, tmp_path, data):
        def edit(obj):
            t = obj["params"]["output.w"]
            t["data"] = data(t["data"])

        path = self.edited(vocabs, tmp_path, edit)
        with pytest.raises(CheckpointMismatch, match="output.w") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("decoder", helpers.DECODERS)
    @pytest.mark.parametrize("damage", [
        lambda d: d[:len(d) // 2] + "=" + d[len(d) // 2 + 1:],  # "=", which OpenSSL reads as zero bits
        lambda d: " " + d[1:],  # a leading space, which OpenSSL skips
    ], ids=["padding_inside", "leading_space"])
    def test_damaged_tensor_data_refused(self, vocabs, tmp_path, damage, decoder):
        """A same-length edit of the largest tensor's data, as its view of
        the file's bytes decodes through either decoder."""
        largest = []

        def edit(obj):
            largest.append(max(obj["params"], key=lambda name: len(obj["params"][name]["data"])))
            t = obj["params"][largest[0]]
            t["data"] = damage(t["data"])

        path = self.edited(vocabs, tmp_path, edit)
        with helpers.decoding_with(decoder), pytest.raises(
            CheckpointMismatch, match=re.escape(str(path)) + f".*part '{re.escape(largest[0])}'"
        ):
            load_model(path)

    @pytest.mark.parametrize("tensor", [
        {"shape": [2], "data": [0.0, 1.0]},
        {"shape": [2], "data": 7},
        {"shape": [2], "data": None},
        {"shape": [10**12], "data": "AAAAAAAAAAA="},
        {"shape": [-1], "data": "AAAAAAAAAAA="},
        {"shape": [2.5], "data": base64.b64encode(bytes(20)).decode()},
    ], ids=["list_data", "int_data", "null_data", "huge_shape", "negative_shape", "float_shape"])
    def test_bad_tensor_refused_naming_the_part(self, vocabs, tmp_path, tensor):
        """Refused before any array is allocated, so a huge shape is a
        CheckpointMismatch and not a MemoryError."""
        def edit(obj):
            obj["params"]["output.b"] = tensor

        path = self.edited(vocabs, tmp_path, edit)
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + ".*part 'output.b'"):
            load_model(path)

    def test_edited_preprocessing_refused_by_hash(self, vocabs, tmp_path):
        def edit(obj):
            obj["preprocessing"]["language"] = "sql"

        with pytest.raises(CheckpointMismatch, match="hash"):
            load_model(self.edited(vocabs, tmp_path, edit))

    @pytest.mark.parametrize("mismatch", ["language", "keep", "normalizer"])
    def test_other_tokenizer_refused(self, vocabs, tmp_path, monkeypatch, mismatch):
        path = tmp_path / "m.json"
        save_model(init_model(tiny_cfg(), *vocabs), path)
        assert load_model(path, Tokenizer()).preprocessing == Tokenizer().fingerprint()
        tokenizer = Tokenizer()
        if mismatch == "language":
            tokenizer = Tokenizer(Language.SQL)
        elif mismatch == "keep":
            tokenizer = Tokenizer(keep=default_python_keep_list() | {"frob"})
        else:
            monkeypatch.setattr(tokenize, "NORMALIZER_VERSION", "qcmine-tokenize-0")
        with pytest.raises(CheckpointMismatch, match="trained on tokens"):
            load_model(path, tokenizer)

    @pytest.mark.parametrize("key, value", [
        ("share_text_question_encoder", "false"), ("share_text_question_encoder", 0),
        ("d_token_gru", 3.9), ("d_token_gru", 3.0), ("d_embed", True), ("seed", None),
        ("variant", 1),
    ])
    def test_config_value_of_wrong_type_refused(self, vocabs, tmp_path, key, value):
        path = self.edited(vocabs, tmp_path, lambda obj: obj["config"].update({key: value}))
        refused = re.escape(str(path)) + f".*part 'config'.*{key}"
        with pytest.raises(CheckpointMismatch, match=refused):
            load_model(path)

    def test_sql_file_ignores_the_keep_list(self, vocabs, tmp_path, monkeypatch):
        """A SQL file's tokenizer record names no keep-list, so a keep-list
        SQL never reads cannot refuse it; language and normalizer still do."""
        path = tmp_path / "m.json"
        sql = Tokenizer(Language.SQL)
        save_model(init_model(tiny_cfg(), *vocabs, tokenizer=sql), path)
        other_keep = Tokenizer(Language.SQL, frozenset({"print"}))
        assert load_model(path, other_keep).preprocessing == sql.fingerprint()
        with pytest.raises(CheckpointMismatch, match="trained on tokens"):
            load_model(path, Tokenizer())
        monkeypatch.setattr(tokenize, "NORMALIZER_VERSION", "qcmine-tokenize-0")
        with pytest.raises(CheckpointMismatch, match="trained on tokens"):
            load_model(path, sql)

    @pytest.mark.parametrize("part", ["word_vocab", "code_vocab"])
    @pytest.mark.parametrize("token_id, new_id", [
        (3, 10**6), (3, -1), (3, 0), ("last", 0), (3, "3"), (3, 3.0), (3, None), (1, True), (1, 1.0),
        (1, "swap with 3"),
    ], ids=["out_of_range", "negative", "duplicate", "duplicate_last", "string", "float", "null", "bool",
            "float_one", "unk_swapped_with_a_word"])
    def test_vocabulary_ids_not_a_range_refused(self, vocabs, tmp_path, part, token_id, new_id):
        """An id the embedding tables cannot index is refused on load, not
        met as an IndexError once a dump is being mined; so are specials
        moved off their fixed ids, which every unknown token and the zero
        padding row read."""
        def edit(obj):
            vocab = obj[part]
            old = len(vocab) - 1 if token_id == "last" else token_id
            token = next(t for t, i in vocab.items() if i == old)
            if new_id == "swap with 3":
                vocab[next(t for t, i in vocab.items() if i == 3)] = old
                vocab[token] = 3
            else:
                vocab[token] = new_id

        path = self.edited(vocabs, tmp_path, edit)
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + f".*part '{part}'"):
            load_model(path)

    def test_checkpoint_carries_variant(self, vocabs, tmp_path):
        path = tmp_path / "m.json"
        save_model(init_model(tiny_cfg(Variant.TEXT_RNN), *vocabs), path)
        assert load_model(path).config.variant is Variant.TEXT_RNN

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointMismatch):
            load_model(path)

    def test_missing_parameter_rejected(self, vocabs, tmp_path):
        model = init_model(tiny_cfg(), *vocabs)
        path = tmp_path / "m.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        del obj["params"]["output.w"]
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointMismatch):
            load_model(path)


# A "data" member as save_model writes it; group 1 is its string's bytes
DATA_MEMBER = re.compile(rb'"data": "([^"]*)"')

# Bytes put into a "data" string: base64 padding, control characters, a
# DEL, UTF-8 and bytes that are not UTF-8 (a lone byte, a surrogate), a
# quote, backslashes and escapes, and whole base64 quanta
STRING_BYTES = [
    b"=", b"\x00", b"\x01", b"\t", b"\n", b"\r", b"\x1f", b"\x7f", "é".encode(), b"\xff",
    b"\xed\xa0\x80", b'"', b"\\", b"\\n", b"\\u00e9", b"\\/", b"AAAA",
]


def outcome(read, path):
    """(result, None) of ``read(path)``, or (None, the ValueError it raised)."""
    try:
        return read(path), None
    except ValueError as e:
        return None, e


def as_text(obj):
    """``obj`` with each memoryview replaced by its UTF-8 text."""
    if isinstance(obj, memoryview):
        return str(obj, "utf-8")
    if isinstance(obj, dict):
        return {key: as_text(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_text(value) for value in obj]
    return obj


def json_refuses(data: memoryview) -> bool:
    """Whether ``json`` refuses ``data`` as the bytes of a string in a UTF-8
    text (``json.loads`` of bytes would let an encoded surrogate through)."""
    try:
        json.loads('"' + str(data, "utf-8") + '"')
    except ValueError:
        return True
    return False


def named_part(e: CheckpointMismatch) -> str:
    """The file and part a CheckpointMismatch names, without the cause."""
    return str(e).split(" does not fit")[0]


@pytest.fixture(scope="module")
def reader_base(vocabs, tmp_path_factory):
    """A small checkpoint, whose preprocessing holds a "data" string too,
    and the path its edited copies are written to."""
    model = init_model(tiny_cfg(seed=5), *vocabs)
    model.preprocessing = {**model.preprocessing, "data": "Zm9vL2Jhcg=="}
    path = tmp_path_factory.mktemp("reader") / "m.json"
    save_model(model, path)
    return path.read_bytes(), path


class TestCheckpointReader:
    """``models.parse_model_file`` cuts each tensor's base64 out of the
    file's bytes; ``helpers.reference_parse_model_file`` is ``json.load``
    of the whole text. The two read the same files alike, but for tensor
    data JSON refuses, which fails at decode instead."""

    @staticmethod
    def edit_string(data, text):
        """``text`` with one "data" string edited: a character escaped, or
        one of STRING_BYTES put in or over one."""
        spans = [m.span(1) for m in DATA_MEMBER.finditer(text)]
        if not spans:
            return text
        start, end = data.draw(st.sampled_from(spans))
        at = data.draw(st.integers(start, end))
        kind = data.draw(st.sampled_from(["insert", "replace", "escape"]))
        if kind == "escape":
            char = text[at:min(at + 1, end)]
            escaped = b"\\/" if char == b"/" else b"".join(b"\\u%04x" % c for c in char)
            return text[:at] + escaped + text[at + len(char):]
        return text[:at] + data.draw(st.sampled_from(STRING_BYTES)) + text[at + (kind == "replace"):]

    @staticmethod
    def edit_file(data, text):
        """``text`` with one edit of its layout or members."""
        kind = data.draw(st.sampled_from(
            ["bom", "crlf", "spaced_key", "config_member", "duplicate_data", "format"]
        ))
        members = [m.start() for m in DATA_MEMBER.finditer(text)]
        if not members:
            return text
        if kind == "bom":
            return codecs.BOM_UTF8 + text
        if kind == "crlf":
            return text.replace(b', "', b',\r\n"') + b"\r\n"
        if kind == "spaced_key":
            at = data.draw(st.sampled_from(members))
            return text[:at] + b'"data" \r\n:\t"' + text[at + len(b'"data": "'):]
        value = data.draw(st.sampled_from([b"", b"Zm9v", b"a\\/b", b"\\u0041", b"\x01", "é".encode()]))
        if kind == "config_member":  # under "data", or a key that ends in an escaped quote and data
            key = data.draw(st.sampled_from([b'"data"', b'"x\\"data"']))
            return text.replace(b'"config": {', b'"config": {' + key + b': "' + value + b'", ', 1)
        if kind == "duplicate_data":
            # the first of two "data" keys is dropped, the last is read
            member = DATA_MEMBER.match(text, data.draw(st.sampled_from(members)))
            value = data.draw(st.sampled_from([value, member[1]]))
            if data.draw(st.booleans()):
                return text[:member.start()] + b'"data": "' + value + b'", ' + text[member.start():]
            return text[:member.end()] + b', "data": "' + value + b'"' + text[member.end():]
        return text.replace(b'"qcmine-checkpoint-v2"', b'"qcmine-linear-v2"')

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reads_what_json_load_of_the_text_reads(self, reader_base, data):
        base, path = reader_base
        text = base
        for _ in range(data.draw(st.integers(0, 3))):
            edit = data.draw(st.sampled_from([self.edit_string, self.edit_file]))
            text = edit(data, text)
        if data.draw(st.booleans()):
            text = text[:data.draw(st.integers(0, len(text) - 1))]  # cut short
        path.write_bytes(text)

        want, want_err = outcome(helpers.reference_parse_model_file, path)
        got, got_err = outcome(models.parse_model_file, path)
        if want_err is None:
            assert got_err is None
            assert as_text(got) == want
        elif got_err is None:
            # the one difference: a checkpoint tensor's data that JSON refuses
            assert any(
                isinstance(t["data"], memoryview) and json_refuses(t["data"])
                for t in got["params"].values()
            )

        want, want_err = outcome(helpers.reference_load_model, path)
        got, got_err = outcome(load_model, path)
        event(f"reference: {type(want_err).__name__}, reader: {type(got_err).__name__}")
        if want_err is None:
            assert got_err is None
            assert got.config == want.config
            assert got.preprocessing == want.preprocessing
            assert got.word_vocab.token_to_id == want.word_vocab.token_to_id
            assert got.code_vocab.token_to_id == want.code_vocab.token_to_id
            assert {k: n.value.tobytes() for k, n in got.params.items()} == {
                k: n.value.tobytes() for k, n in want.params.items()
            }
        else:
            assert got_err is not None
            if isinstance(want_err, CheckpointMismatch):
                assert isinstance(got_err, CheckpointMismatch)
                assert named_part(got_err) == named_part(want_err)

    def test_escaped_tensor_data_loads(self, reader_base, tmp_path):
        """JSON escapes in tensor data leave the string to ``json``."""
        base, _ = reader_base
        path = tmp_path / "m.json"
        path.write_bytes(DATA_MEMBER.sub(
            lambda m: m[0].replace(b"/", b"\\/").replace(b"A", b"\\u0041"), base
        ))
        assert b"\\/" in path.read_bytes() and b"\\u0041" in path.read_bytes()
        (tmp_path / "base.json").write_bytes(base)
        want = load_model(tmp_path / "base.json")
        got = load_model(path)
        for name, node in want.params.items():
            assert got.params[name].value.tobytes() == node.value.tobytes(), name

    def test_tensor_data_json_refuses_fails_at_decode(self, reader_base, tmp_path):
        """A raw control character in tensor data fails ``json.load`` of
        the text, and the tensor's decode here, naming it."""
        base, _ = reader_base
        path = tmp_path / "m.json"
        path.write_bytes(base.replace(b'"output.b": {"data": "', b'"output.b": {"data": "\n', 1))
        with pytest.raises(json.JSONDecodeError):
            helpers.reference_load_model(path)
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + ".*part 'output.b'"):
            load_model(path)

    @pytest.mark.parametrize("member, refused", [
        (b'"data": "\x01", ', True),  # a "data" value a later one replaces
        (b'"x\\"data": "AAAA", ', False),  # a key that ends in an escaped quote and data
    ], ids=["replaced_data", "escaped_quote_key"])
    def test_members_json_reads_alike(self, reader_base, tmp_path, member, refused):
        """A "data" string no tensor reads is still JSON's to accept or
        refuse, and one under another key keeps its value."""
        base, _ = reader_base
        path = tmp_path / "m.json"
        path.write_bytes(base.replace(b'"output.b": {', b'"output.b": {' + member, 1))
        if refused:
            with pytest.raises(json.JSONDecodeError):
                helpers.reference_parse_model_file(path)
            with pytest.raises(json.JSONDecodeError):
                models.parse_model_file(path)
        else:
            assert as_text(models.parse_model_file(path)) == helpers.reference_parse_model_file(path)

    @pytest.mark.parametrize("fmt", ["f", "qcmine-linear-v2"])
    def test_other_files_get_tensor_strings_checked_by_json(self, tmp_path, fmt):
        """Only a checkpoint's reader decodes every tensor in ``params``,
        so another file's "data" strings are checked as JSON when read."""
        path = tmp_path / "m.json"
        path.write_bytes(b'{"format": "%s", "params": {"w": {"data": "\x01", "shape": [1]}}}' % fmt.encode())
        with pytest.raises(json.JSONDecodeError):
            models.parse_model_file(path)
        path.write_bytes(b'{"format": "%s", "params": {"w": {"data": "AAAA", "shape": [1]}}}' % fmt.encode())
        assert models.parse_model_file(path) == helpers.reference_parse_model_file(path)

    def test_load_holds_no_second_copy(self, tmp_path):
        """The traced peak of loading a checkpoint holding an 8 MiB tensor
        is the arrays: the file is mapped, not read, and no copy of the
        base64 is made. It was 21.4 MiB when the file was parsed whole as
        text, and 19.0 MiB when its bytes were read."""
        words = build_vocab([[f"w{i}" for i in range(1021)]])
        model = init_model(tiny_cfg(Variant.TEXT_RNN, d_embed=1024, d_token_gru=1, d_block=1),
                           words, build_vocab([CODE]))
        assert model.params["word_embeddings"].value.shape == (1024, 1024)
        path = tmp_path / "big.json"
        save_model(model, path)
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.params["word_embeddings"].value.tobytes() == (
            model.params["word_embeddings"].value.tobytes()
        )
        assert peak <= (8 << 20) + (1 << 20)

    @staticmethod
    def saved(tmp_path):
        """The path of a saved checkpoint whose word table, about 700 KB of
        base64, is larger than a pipe's buffer."""
        words = build_vocab([[f"w{i}" for i in range(1021)]])
        model = init_model(tiny_cfg(Variant.TEXT_RNN, d_embed=64, d_token_gru=1, d_block=1),
                           words, build_vocab([CODE]))
        path = tmp_path / "m.json"
        save_model(model, path)
        return path

    def test_empty_file_refused_as_json_load_refuses_it(self, tmp_path):
        """An empty file cannot be mapped, so it is read."""
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(json.JSONDecodeError) as want:
            helpers.reference_parse_model_file(path)
        with pytest.raises(json.JSONDecodeError) as got:
            models.parse_model_file(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_checkpoint_through_a_pipe_loads_as_the_file(self, tmp_path):
        """A pipe's size reads 0 and it cannot be mapped, so it is read."""
        path = self.saved(tmp_path)
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            piped = load_model(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        want = load_model(path)
        assert {k: n.value.tobytes() for k, n in piped.params.items()} == {
            k: n.value.tobytes() for k, n in want.params.items()
        }
        assert piped.word_vocab.token_to_id == want.word_vocab.token_to_id

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_no_mapping_outlives_the_load(self, tmp_path):
        """The tensors' data are views of a mapping of the file, which is
        unmapped once the parsed object is dropped."""
        path = os.path.realpath(self.saved(tmp_path))

        def mapped():
            with open("/proc/self/maps") as f:
                return any(line.rstrip("\n").endswith(" " + path) for line in f)

        obj = models.parse_model_file(path)
        assert isinstance(obj["params"]["word_embeddings"]["data"], memoryview)
        assert mapped()
        del obj
        assert not mapped()
        load_model(path)
        assert not mapped()
