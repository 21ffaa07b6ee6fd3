"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criterion 8's quality-reproduction half needs externally
released annotated datasets (see README) and is skipped without them."""

import itertools
import os
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from helpers import build_workspace, finite_diff_check, forward, make_cue_dataset, random_post
from qcmine import cli
from qcmine.models import (
    Variant,
    VariantConfig,
    forward_graph,
    init_model,
    predict_label,
)
from qcmine.nn_core import (
    LINEAR,
    TANH,
    AdamState,
    Node,
    adam_update,
    backward,
    bigru_encode,
    concat,
    dense,
    init_dense,
    init_gru,
    gru_step,
    softmax_xent,
)
from qcmine.post_parser import (
    BlockKind,
    CodeContextInstance,
    EmptyPost,
    extract_instances,
    parse_answer_post,
)
from qcmine.tokenize import Language, Tokenizer
from qcmine.train_eval import (
    Decision,
    TrainConfig,
    cohens_kappa,
    combine_votes,
    evaluate,
    mrr,
    select_all,
    select_first,
    train,
)
from qcmine.vocab_embed import build_vocab


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


# -------------------------------------------------------------------------
# 1. Gradient correctness
# -------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness"):
        started = time.monotonic()
        for seed in range(5):
            rng = np.random.default_rng(seed)

            # GRU cell
            p = init_gru(3, 4, rng)
            x, h0 = Node(rng.uniform(-1, 1, 3)), Node(rng.uniform(-1, 1, 4))
            mix = init_dense(4, 2, LINEAR, rng)
            fn = lambda: softmax_xent(dense(gru_step(x, h0, p), mix), 1)[1]
            nodes = [n for _, n in p.nodes() + mix.nodes()] + [x, h0]
            assert finite_diff_check(fn, nodes) < 1e-4

            # Bi-GRU encoder over a short sequence
            T = int(rng.integers(1, 6))
            fwd, bwd = init_gru(3, 3, rng), init_gru(3, 3, rng)
            xs = [Node(rng.uniform(-1, 1, 3)) for _ in range(T)]
            out = init_dense(6, 2, LINEAR, rng)

            def bigru_fn():
                f, b, _ = bigru_encode(xs, fwd, bwd)
                return softmax_xent(dense(concat(f, b), out), 0)[1]

            nodes = [n for _, n in fwd.nodes() + bwd.nodes() + out.nodes()] + xs
            assert finite_diff_check(bigru_fn, nodes) < 1e-4

            # fusion (tanh) and output layers
            fusion = init_dense(6, 4, TANH, rng)
            head = init_dense(4, 2, LINEAR, rng)
            xf = Node(rng.uniform(-1, 1, 6))
            fn = lambda: softmax_xent(dense(dense(xf, fusion), head), 1)[1]
            nodes = [n for _, n in fusion.nodes() + head.nodes()] + [xf]
            assert finite_diff_check(fn, nodes) < 1e-4

        # full BivHnn graph at tiny dimensions, 5 seeds
        word_vocab = build_vocab([["try", "this", "works", "how", "to"]])
        code_vocab = build_vocab([["VAR", "=", "NUMBER", "(", ")"]])
        inst = CodeContextInstance(
            question_tokens=["how", "to"],
            pre_tokens=["try", "this"],
            code_tokens=["VAR", "=", "NUMBER"],
            post_tokens=["works"],
            position=1,
        )
        for seed in range(5):
            cfg = VariantConfig(
                variant=Variant.BIV_HNN, d_embed=4, d_token_gru=3, d_block=4, seed=seed
            )
            model = init_model(cfg, word_vocab, code_vocab)

            def model_fn():
                logits, _ = forward_graph(model, inst)
                return softmax_xent(logits, 1)[1]

            assert finite_diff_check(model_fn, list(model.params.values())) < 1e-4

        elapsed = time.monotonic() - started
        assert elapsed < 60, f"gradient checks took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# 2. Metric oracle equivalence
# -------------------------------------------------------------------------


def test_criterion_2_metric_oracles():
    with criterion(2, "metric oracle equivalence"):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 60)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            m = evaluate(preds, golds)
            tp = sum(p == g == 1 for p, g in zip(preds, golds))
            fp = sum(p == 1 and g == 0 for p, g in zip(preds, golds))
            fn = sum(p == 0 and g == 1 for p, g in zip(preds, golds))
            tn = n - tp - fp - fn
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert abs(m.precision - precision) <= 1e-12
            assert abs(m.recall - recall) <= 1e-12
            assert abs(m.f1 - f1) <= 1e-12
            assert abs(m.accuracy - (tp + tn) / n) <= 1e-12

            ranks = [rng.randint(1, 50) for _ in range(rng.randint(1, 25))]
            assert abs(mrr(ranks) - sum(1.0 / r for r in ranks) / len(ranks)) <= 1e-12

            a = [rng.randint(0, 1) for _ in range(n)]
            b = [rng.randint(0, 1) for _ in range(n)]
            p_o = sum(x == y for x, y in zip(a, b)) / n
            pa, pb = sum(a) / n, sum(b) / n
            p_e = pa * pb + (1 - pa) * (1 - pb)
            if p_e == 1.0:
                expected = 1.0 if p_o == 1.0 else 0.0
            else:
                expected = (p_o - p_e) / (1 - p_e)
            assert abs(cohens_kappa(a, b) - expected) <= 1e-12


# -------------------------------------------------------------------------
# 3. Heuristic baseline identities
# -------------------------------------------------------------------------


def test_criterion_3_select_all_identities():
    with criterion(3, "heuristic baseline identities"):
        rng = random.Random(3)
        for _ in range(100):
            golds = [rng.randint(0, 1) for _ in range(rng.randint(1, 50))]
            m = evaluate([1] * len(golds), golds)
            if any(golds):
                assert m.recall == 1.0
            assert m.precision == sum(golds) / len(golds)

        # Select-All on sets shaped like the annotated test sets:
        # 976 instances at 47.23% positive and 727 at 58.32% positive
        python_golds = [1] * 461 + [0] * (976 - 461)
        sql_golds = [1] * 424 + [0] * (727 - 424)
        m_py = evaluate([1] * 976, python_golds)
        m_sql = evaluate([1] * 727, sql_golds)
        assert round(m_py.precision, 3) == 0.472
        assert round(m_sql.precision, 3) == 0.583
        assert m_py.recall == m_sql.recall == 1.0

        # the heuristics themselves operate on the instances of parsed posts
        seq = parse_answer_post("".join(f"<pre><code>c{i}=1</code></pre>" for i in range(3)))
        assert select_first(extract_instances("t", seq)) == [1, 0, 0]
        assert select_all(extract_instances("t", seq)) == [1, 1, 1]


# -------------------------------------------------------------------------
# 4. Capacity / overfit
# -------------------------------------------------------------------------


def _train_to_accuracy(variant, instances, word_vocab, code_vocab, target=0.98, epochs=200):
    cfg = VariantConfig(variant=variant, d_embed=16, d_token_gru=16, d_block=32, seed=11)
    model = init_model(cfg, word_vocab, code_vocab)
    adam = AdamState(lr=0.05)
    rng = np.random.default_rng(0)
    acc = 0.0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(instances))
        for start in range(0, len(order), 10):
            batch = order[start : start + 10]
            model.zero_grad()
            for idx in batch:
                inst = instances[idx]
                logits, _ = forward_graph(model, inst)
                _, loss = softmax_xent(logits, inst.label)
                backward(loss, seed=1.0 / len(batch))
            adam_update(model.named_values(), model.named_grads(), adam)
        preds = [predict_label(model, inst)[0] for inst in instances]
        acc = sum(p == inst.label for p, inst in zip(preds, instances)) / len(instances)
        if acc >= target:
            return epoch, acc
    return epochs, acc


def test_criterion_4_capacity():
    with criterion(4, "capacity/overfit on synthetic cues"):
        instances, word_vocab, code_vocab = make_cue_dataset(n=50, seed=7)
        for variant in Variant:
            started = time.monotonic()
            epoch, acc = _train_to_accuracy(variant, instances, word_vocab, code_vocab)
            elapsed = time.monotonic() - started
            print(f"  {variant.value}: accuracy {acc:.3f} at epoch {epoch} ({elapsed:.1f}s)")
            assert acc >= 0.98, f"{variant.value} reached only {acc}"
            assert elapsed < 120, f"{variant.value} took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# 5. Variant invariance suite
# -------------------------------------------------------------------------

_WORDS = ["try", "this", "works", "you", "can", "how", "to", "sort", "output", "is"]
_CODE = ["VAR", "=", "NUMBER", "print", "(", ")", "STRING", ">>>"]


def _random_instance(rng):
    pick = lambda pool, lo, hi: [rng.choice(pool) for _ in range(rng.randint(lo, hi))]
    return CodeContextInstance(
        question_tokens=pick(_WORDS, 1, 5),
        pre_tokens=pick(_WORDS, 0, 5),
        code_tokens=pick(_CODE, 1, 6),
        post_tokens=pick(_WORDS, 0, 5),
        position=1,
    )


def test_criterion_5_variant_invariances():
    with criterion(5, "variant invariance suite"):
        word_vocab = build_vocab([_WORDS])
        code_vocab = build_vocab([_CODE])
        cases = [
            (Variant.TEXT_HNN, "code"),
            (Variant.CODE_HNN, "context"),
            (Variant.BIV_HNN_NQ, "question"),
        ]
        for variant, what in cases:
            cfg = VariantConfig(variant=variant, d_embed=5, d_token_gru=3, d_block=4, seed=31)
            model = init_model(cfg, word_vocab, code_vocab)
            rng = random.Random(hash(what) & 0xFFFF)
            for _ in range(100):
                inst = _random_instance(rng)
                altered = CodeContextInstance(
                    list(inst.question_tokens), list(inst.pre_tokens),
                    list(inst.code_tokens), list(inst.post_tokens), inst.position,
                )
                if what == "code":
                    altered.code_tokens = [rng.choice(_CODE) for _ in range(rng.randint(1, 8))]
                elif what == "context":
                    altered.pre_tokens = [rng.choice(_WORDS) for _ in range(rng.randint(0, 6))]
                    altered.post_tokens = [rng.choice(_WORDS) for _ in range(rng.randint(0, 6))]
                else:
                    altered.question_tokens = [rng.choice(_WORDS) for _ in range(rng.randint(1, 6))]
                y1, _ = forward(model, inst)
                y2, _ = forward(model, altered)
                assert np.array_equal(y1, y2), f"{variant.value} not invariant to {what}"


# -------------------------------------------------------------------------
# 6. Parser property suite
# -------------------------------------------------------------------------


def test_criterion_6_parser_properties():
    with criterion(6, "parser property suite"):
        rng = random.Random(60606)
        parsed = 0
        for _ in range(500):
            html, visible, n_code = random_post(rng)
            try:
                seq = parse_answer_post(html)
            except EmptyPost:
                assert not visible.strip()
                continue
            parsed += 1
            kinds = [b.kind for b in seq.blocks]
            assert kinds[0] is BlockKind.TEXT and kinds[-1] is BlockKind.TEXT
            assert all(a is not b for a, b in zip(kinds, kinds[1:]))
            code_blocks = [b for b in seq.blocks if b.kind is BlockKind.CODE]
            text_blocks = [b for b in seq.blocks if b.kind is BlockKind.TEXT]
            assert len(code_blocks) == n_code
            assert len(text_blocks) == max(n_code + 1, 1)
            assert len(extract_instances("how to q", seq)) == n_code
        assert parsed >= 450  # the generator rarely produces empty posts

        # Figure-1 shape: four text and four code blocks -> four instances
        html = "".join(f"<p>s{i}</p><pre><code>c{i} = {i}</code></pre>" for i in range(1, 5))
        seq = parse_answer_post(html)
        kinds = [b.kind for b in seq.blocks]
        assert kinds.count(BlockKind.CODE) == 4
        assert kinds.count(BlockKind.TEXT) == 5  # incl. trailing dummy
        assert len(extract_instances("q", seq)) == 4


# -------------------------------------------------------------------------
# 7. Ensemble logic
# -------------------------------------------------------------------------


def test_criterion_7_ensemble_logic():
    with criterion(7, "ensemble unanimity semantics"):
        for votes in itertools.product((0, 1), repeat=3):
            got = combine_votes(votes)
            expected = (
                (Decision.LABEL1 if votes[0] == 1 else Decision.LABEL0)
                if votes[0] == votes[1] == votes[2]
                else Decision.ABSTAIN
            )
            assert got is expected, f"votes {votes}: {got} != {expected}"


# -------------------------------------------------------------------------
# 8. Paper-number reproduction (conditional) + internal consistency
# -------------------------------------------------------------------------


def test_criterion_8_internal_consistency(tmp_path):
    with criterion(8, "dataset internal consistency"):
        ws = build_workspace(tmp_path)
        config = cli.load_config(ws["config"])
        filter_path = tmp_path / "filter.json"
        cli.main(
            [
                "filter-train", "--dump", str(ws["dump"]), "--labels", str(ws["qlabels"]),
                "--out", str(filter_path), "--config", str(ws["config"]),
            ]
        )
        checkpoints = {}
        for variant in ("biv_hnn", "text_hnn", "code_hnn"):
            out = tmp_path / f"{variant}.json"
            cli.main(
                [
                    "train", "--dump", str(ws["dump"]),
                    "--train-labels", str(ws["train"]), "--valid-labels", str(ws["valid"]),
                    "--variant", variant, "--out", str(out), "--config", str(ws["config"]),
                ]
            )
            checkpoints[variant] = out
        mined = tmp_path / "pairs.jsonl"
        report = cli.mine(
            ws["dump"], checkpoints["biv_hnn"], checkpoints["text_hnn"],
            checkpoints["code_hnn"], filter_path, mined, config,
        )
        merged = tmp_path / "merged.jsonl"
        merge_report = cli.merge_annotated(mined, ws["train"], ws["dump"], merged)
        stats = cli.dataset_stats(merged, config.tokenizer)

        # totals = single-code + ensemble-mined + annotated
        by = stats["by_provenance"]
        assert stats["pairs"] == by["single_code"] + by["ensemble_mined"] + by["annotated"]
        assert stats["provenance_sum_matches_total"]
        assert merge_report["total"] == stats["pairs"]
        assert by["single_code"] == report["single_code_pairs"]
        assert by["annotated"] == merge_report["annotated_added"]


@pytest.mark.skipif(
    not os.environ.get("QCMINE_PAPER_DATA"),
    reason="needs the released annotated datasets (set QCMINE_PAPER_DATA)",
)
@pytest.mark.parametrize(
    "language,f1_target,coverage_target",
    [("python", 0.841, 0.692), ("sql", 0.888, 0.787)],
)
def test_criterion_8_reference_quality(language, f1_target, coverage_target, tmp_path):
    """Soft reproduction gate over the released annotated sets.

    Expects QCMINE_PAPER_DATA to contain {language}_dump.jsonl and
    {language}_{train,valid,test}.csv (plus optional {language}_word_vectors.txt
    and {language}_code_vectors.txt). Trains over the dimension grid and
    checks test F1 within +/-0.05 of the reference, ensemble coverage within
    10 points, and ensemble F1 >= 0.88.
    """
    with criterion(8, f"reference quality ({language})"):
        data_dir = os.environ["QCMINE_PAPER_DATA"]
        paths = {
            name: os.path.join(data_dir, f"{language}_{name}")
            for name in ("dump.jsonl", "train.csv", "valid.csv", "test.csv")
        }
        for p in paths.values():
            assert os.path.exists(p), f"missing {p}"
        word_vec = os.path.join(data_dir, f"{language}_word_vectors.txt")
        code_vec = os.path.join(data_dir, f"{language}_code_vectors.txt")

        base = replace(
            cli.load_config(),
            tokenizer=Tokenizer(Language(language)),
            word_embedding_file=word_vec if os.path.exists(word_vec) else None,
            code_embedding_file=code_vec if os.path.exists(code_vec) else None,
        )

        from qcmine.train_eval import evaluate_model

        train_insts, valid_insts, test_insts = cli.load_labeled_instances(
            paths["dump.jsonl"],
            [cli.read_annotation_csv(paths[name]) for name in ("train.csv", "valid.csv", "test.csv")],
            base.tokenizer,
        )
        word_vocab, code_vocab = cli.build_vocabs(train_insts)

        def fit(variant, d_token, d_block):
            cfg = VariantConfig(
                variant=variant, d_token_gru=d_token, d_block=d_block,
                seed=base.model.seed,
            )
            model = init_model(
                cfg, word_vocab, code_vocab, base.word_embedding_file, base.code_embedding_file,
            )
            model, history = train(model, train_insts, valid_insts, TrainConfig())
            return model, max(h.valid.f1 for h in history)

        best_by_variant = {}
        for variant in (Variant.BIV_HNN, Variant.TEXT_HNN, Variant.CODE_HNN):
            candidates = [
                fit(variant, d_token, d_block)
                for d_token in (64, 128)
                for d_block in (128, 256)
            ]
            best_by_variant[variant] = max(candidates, key=lambda mv: mv[1])[0]

        biv = best_by_variant[Variant.BIV_HNN]
        test_metrics = evaluate_model(biv, test_insts)
        print(f"  {language} BivHnn test F1 = {test_metrics.f1:.3f}")
        assert abs(test_metrics.f1 - f1_target) <= 0.05

        from qcmine.train_eval import ensemble as run_ensemble

        decided, golds = [], []
        for inst in test_insts:
            decision = run_ensemble(
                biv, best_by_variant[Variant.TEXT_HNN], best_by_variant[Variant.CODE_HNN], inst
            )
            if decision.decision is not Decision.ABSTAIN:
                decided.append(decision.decision.value)
                golds.append(inst.label)
        coverage = len(decided) / len(test_insts)
        ensemble_f1 = evaluate(decided, golds).f1
        print(f"  {language} ensemble coverage {coverage:.3f}, F1 {ensemble_f1:.3f}")
        assert abs(coverage - coverage_target) <= 0.10
        assert ensemble_f1 >= 0.88


# -------------------------------------------------------------------------
# 9. Determinism
# -------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "train and mine determinism"):
        ws = build_workspace(tmp_path)
        outs = []
        for run in range(2):
            out = tmp_path / f"model_run{run}.json"
            cli.main(
                [
                    "train", "--dump", str(ws["dump"]),
                    "--train-labels", str(ws["train"]), "--valid-labels", str(ws["valid"]),
                    "--variant", "biv_hnn", "--out", str(out), "--config", str(ws["config"]),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], "train runs differ byte-for-byte"

        filter_path = tmp_path / "filter.json"
        cli.main(
            [
                "filter-train", "--dump", str(ws["dump"]), "--labels", str(ws["qlabels"]),
                "--out", str(filter_path), "--config", str(ws["config"]),
            ]
        )
        checkpoints = {}
        for variant in ("biv_hnn", "text_hnn", "code_hnn"):
            out = tmp_path / f"{variant}.json"
            cli.main(
                [
                    "train", "--dump", str(ws["dump"]),
                    "--train-labels", str(ws["train"]), "--valid-labels", str(ws["valid"]),
                    "--variant", variant, "--out", str(out), "--config", str(ws["config"]),
                ]
            )
            checkpoints[variant] = out
        mined = []
        for run in range(2):
            out = tmp_path / f"pairs_run{run}.jsonl"
            cli.mine(
                ws["dump"], checkpoints["biv_hnn"], checkpoints["text_hnn"],
                checkpoints["code_hnn"], filter_path, out, cli.load_config(ws["config"]),
            )
            mined.append(out.read_bytes())
        assert mined[0] == mined[1], "mine runs differ byte-for-byte"
