import itertools
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_ensemble_matches_voters_in_turn, make_cue_dataset
from qcmine import models, nn_core, train_eval
from qcmine.models import Variant, VariantConfig, VocabMissing, init_model, predict_label
from qcmine.nn_core import NonFiniteInput
from qcmine.post_parser import extract_instances, parse_answer_post
from qcmine.train_eval import (
    Decision,
    EmptyInput,
    EmptySplit,
    LengthMismatch,
    TrainConfig,
    cohens_kappa,
    combine_votes,
    ensemble,
    ensemble_batch,
    evaluate,
    mrr,
    select_all,
    select_first,
    train,
)
from qcmine.vocab_embed import CODEBLOCK_ID


def brute_force_metrics(preds, golds):
    tp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(preds, golds) if p == 0 and g == 1)
    tn = sum(1 for p, g in zip(preds, golds) if p == 0 and g == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / len(preds) if preds else 0.0
    return precision, recall, f1, accuracy


class TestEvaluate:
    def test_all_correct(self):
        m = evaluate([1, 0, 1], [1, 0, 1])
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_direct_arithmetic(self):
        # tp=2, fp=1, fn=1, tn=0
        m = evaluate([1, 1, 1, 0], [1, 1, 0, 1])
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)
        assert m.accuracy == pytest.approx(1 / 2)

    def test_predict_all_ones_on_sql_distribution(self):
        # 727 instances, 424 positive: the positive fraction is 58.32%
        golds = [1] * 424 + [0] * (727 - 424)
        m = evaluate([1] * 727, golds)
        assert round(m.precision, 3) == 0.583
        assert m.recall == 1.0

    def test_zero_division_yields_zero(self):
        m = evaluate([0, 0], [1, 0])
        assert m.precision == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([1], [1, 0])

    def test_matches_brute_force_on_random_vectors(self):
        rng = random.Random(123)
        for _ in range(300):
            n = rng.randint(1, 40)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            m = evaluate(preds, golds)
            p, r, f1, acc = brute_force_metrics(preds, golds)
            assert abs(m.precision - p) < 1e-12
            assert abs(m.recall - r) < 1e-12
            assert abs(m.f1 - f1) < 1e-12
            assert abs(m.accuracy - acc) < 1e-12


THREE_CODE_HTML = "".join(f"<pre><code>c{i}=1</code></pre>" for i in range(3))


class TestHeuristics:
    def test_select_first(self):
        insts = extract_instances("t", parse_answer_post(THREE_CODE_HTML))
        assert select_first(insts) == [1, 0, 0]

    def test_select_all(self):
        insts = extract_instances("t", parse_answer_post(THREE_CODE_HTML))
        assert select_all(insts) == [1, 1, 1]

    def test_no_code(self):
        insts = extract_instances("t", parse_answer_post("<p>prose</p>"))
        assert select_first(insts) == []
        assert select_all(insts) == []

    def test_labeled_subset_reads_positions(self):
        # position 1 unlabeled: no instance of the subset is its answer's first
        labeled = [
            inst for inst in extract_instances("t", parse_answer_post(THREE_CODE_HTML), {2: 1, 3: 0})
            if inst.label is not None
        ]
        assert select_first(labeled) == [0, 0]
        assert select_all(labeled) == [1, 1]
        # two answers in one list: each answer's first block is selected
        every = extract_instances("t", parse_answer_post(THREE_CODE_HTML))
        assert select_first(labeled + every) == [0, 0, 1, 0, 0]

    def test_select_all_recall_one_precision_base_rate(self):
        rng = random.Random(7)
        for _ in range(50):
            golds = [rng.randint(0, 1) for _ in range(rng.randint(1, 30))]
            m = evaluate([1] * len(golds), golds)
            if any(golds):
                assert m.recall == 1.0
            assert m.precision == sum(golds) / len(golds)


class TestMrr:
    def test_all_rank_one(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_hand_arithmetic(self):
        assert mrr([2, 4]) == pytest.approx(0.375)

    def test_fifty_candidate_protocol(self):
        assert mrr([1, 50]) == pytest.approx(0.51)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mrr([])

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            mrr([0])

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(200):
            ranks = [rng.randint(1, 50) for _ in range(rng.randint(1, 20))]
            expected = sum(1.0 / r for r in ranks) / len(ranks)
            assert abs(mrr(ranks) - expected) < 1e-12


class TestCohensKappa:
    def test_identical_nonconstant(self):
        assert cohens_kappa([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0

    def test_identical_constant(self):
        assert cohens_kappa([1, 1, 1], [1, 1, 1]) == 1.0

    def test_independent_random_near_zero(self):
        rng = random.Random(99)
        n = 100_000
        a = [rng.randint(0, 1) for _ in range(n)]
        b = [rng.randint(0, 1) for _ in range(n)]
        assert abs(cohens_kappa(a, b)) < 0.05

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cohens_kappa([1], [1, 0])

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 30)
            a = [rng.randint(0, 1) for _ in range(n)]
            b = [rng.randint(0, 1) for _ in range(n)]
            p_o = sum(x == y for x, y in zip(a, b)) / n
            pa, pb = sum(a) / n, sum(b) / n
            p_e = pa * pb + (1 - pa) * (1 - pb)
            expected = 1.0 if p_e == 1.0 and p_o == 1.0 else (
                0.0 if p_e == 1.0 else (p_o - p_e) / (1 - p_e)
            )
            assert abs(cohens_kappa(a, b) - expected) < 1e-12


class TestEnsemble:
    def test_unanimity_over_all_vote_combinations(self):
        for votes in itertools.product((0, 1), repeat=3):
            decision = combine_votes(votes)
            if len(set(votes)) == 1:
                assert decision is (Decision.LABEL1 if votes[0] else Decision.LABEL0)
            else:
                assert decision is Decision.ABSTAIN

    def test_with_real_models_never_contradicts_voters(self):
        insts, wv, cv = make_cue_dataset(n=12, seed=2)
        trio = [
            init_model(
                VariantConfig(variant=v, d_embed=4, d_token_gru=3, d_block=3, seed=s),
                wv, cv,
            )
            for v, s in [(Variant.BIV_HNN, 0), (Variant.TEXT_HNN, 1), (Variant.CODE_HNN, 2)]
        ]
        for inst in insts:
            decision = ensemble(*trio, inst)
            votes = tuple(predict_label(m, inst)[0] for m in trio)
            assert decision.votes == votes
            if decision.decision is not Decision.ABSTAIN:
                assert decision.decision.value == votes[0] == votes[1] == votes[2]


def pulled_runs(counts, chunk):
    """``chunked``'s runs over a generator of (index, count) items at an
    INFERENCE_CHUNK of ``chunk``, each with the number of items the
    generator had given when the run came out."""
    pulled = 0

    def items():
        nonlocal pulled
        for item in enumerate(counts):
            pulled += 1
            yield item

    with pytest.MonkeyPatch.context() as m:
        m.setattr(train_eval, "INFERENCE_CHUNK", chunk)
        return [(run, pulled) for run in train_eval.chunked(items(), lambda item: item[1])]


class TestChunked:
    def test_default_runs_of_exactly_the_chunk(self):
        for items in (list(range(1100)), iter(range(1100))):
            runs = list(train_eval.chunked(items))
            assert [len(run) for run in runs] == [512, 512, 76]
            assert [i for run in runs for i in run] == list(range(1100))

    def test_patched_chunk_honoured(self, monkeypatch):
        monkeypatch.setattr(train_eval, "INFERENCE_CHUNK", 3)
        assert list(train_eval.chunked(range(7))) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(train_eval.chunked([])) == []

    def test_runs_close_at_the_chunk_or_more_and_empty_at_once(self):
        runs = pulled_runs([0, 2, 0, 0, 3, 0, 5, 1], 4)
        assert [([i for i, _ in run], pulled) for run, pulled in runs] == [
            ([0], 1),           # holds none: out before the next item is taken
            ([1, 2, 3, 4], 5),  # 2 + 3 passes the chunk of 4
            ([5], 6),           # holds none again
            ([6], 7),           # 5 alone fills it
            ([7], 8),           # the last partial run
        ]

    @given(st.lists(st.integers(0, 9), max_size=60), st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_runs_follow_the_rule(self, counts, chunk):
        runs = pulled_runs(counts, chunk)
        assert [item for run, _ in runs for item in run] == list(enumerate(counts))
        for k, (run, pulled) in enumerate(runs):
            assert pulled == run[-1][0] + 1  # out as soon as its last item is in
            held = list(itertools.accumulate(n for _, n in run))
            assert all(0 < h < chunk for h in held[:-1])
            if k < len(runs) - 1:
                assert held[-1] == 0 or held[-1] >= chunk


def voter_trio(variants=(Variant.BIV_HNN, Variant.TEXT_HNN, Variant.CODE_HNN), seeds=(0, 1, 2)):
    """Three tiny voters and the instances they score."""
    insts, wv, cv = make_cue_dataset(n=12, seed=2)
    trio = [
        init_model(VariantConfig(variant=v, d_embed=4, d_token_gru=3, d_block=3, seed=s), wv, cv)
        for v, s in zip(variants, seeds)
    ]
    return trio, insts


def recording_predict(monkeypatch, before):
    """Patch ``models.scores``, a voter's forward in ``ensemble_batch``, to
    record the thread of each call and to call ``before`` ahead of the
    forward; returns the list of thread idents."""
    idents = []
    scores = models.scores

    def recorded(forward):
        idents.append(threading.get_ident())
        before()
        return scores(forward)

    monkeypatch.setattr(models, "scores", recorded)
    return idents


class TestThreadedEnsemble:
    """``ensemble_batch`` runs the voters on worker threads with BLAS held
    to one thread."""

    def test_same_variant_voters_of_other_seeds_match_voters_in_turn(self):
        trio, insts = voter_trio(variants=[Variant.BIV_HNN] * 3)
        scores = assert_ensemble_matches_voters_in_turn(trio, insts)
        # the voters differ, so scores read from the wrong voter would show
        assert len({scores[:, k].tobytes() for k in range(3)}) == 3

    def test_blas_held_to_one_thread_and_restored(self, blas_two_threads, monkeypatch):
        trio, insts = voter_trio()
        counts = []
        recording_predict(monkeypatch, lambda: counts.append(blas_two_threads()))
        ensemble_batch(*trio, insts)
        assert counts == [1, 1, 1]
        assert blas_two_threads() == 2

    def test_failing_voter_raises_in_voter_order_and_restores_blas(self, blas_two_threads):
        trio, insts = voter_trio()
        # TEXT_HNN reads the <codeblock> row for every instance
        trio[1].word_emb.value[CODEBLOCK_ID] = np.nan
        trio[2].word_vocab = None  # a later voter fails another way
        with pytest.raises(NonFiniteInput):
            ensemble_batch(*trio, insts)
        assert blas_two_threads() == 2
        trio[1], trio[2] = trio[2], trio[1]
        with pytest.raises(VocabMissing):
            ensemble_batch(*trio, insts)
        assert blas_two_threads() == 2

    def test_without_blas_control_one_thread_runs_the_voters(self, monkeypatch):
        trio, insts = voter_trio()
        expected = ensemble_batch(*trio, insts)
        monkeypatch.setattr(nn_core, "blas_thread_control", lambda: None)
        # each call sleeps, so a second worker, had one started, would take a voter
        idents = recording_predict(monkeypatch, lambda: time.sleep(0.02))
        assert ensemble_batch(*trio, insts) == expected
        assert len(idents) == 3 and len(set(idents)) == 1

    def test_two_cpus_run_the_voters_on_two_threads(self, blas_two_threads, monkeypatch):
        trio, insts = voter_trio()
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
        # the first two voters wait for each other: one worker would time out
        barrier, lock, arrived = threading.Barrier(2, timeout=10), threading.Lock(), []

        def meet():
            with lock:
                arrived.append(None)
                first_two = len(arrived) <= 2
            if first_two:
                barrier.wait()

        idents = recording_predict(monkeypatch, meet)
        assert_ensemble_matches_voters_in_turn(trio, insts)
        # the ensemble's three calls; the voters in turn add this thread's
        assert len(idents) == 6 and len(set(idents[:3])) >= 2

    def test_more_workers_than_cpus_and_short_switch_interval(self, monkeypatch):
        # one model twice: a forward that wrote to its model would show
        trio, insts = voter_trio()
        trio[1] = trio[0]
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert_ensemble_matches_voters_in_turn(trio, insts)
        finally:
            sys.setswitchinterval(interval)

    def test_empty_batch_starts_no_thread_and_sets_no_blas_count(self, monkeypatch):
        trio, insts = voter_trio()
        set_calls = []
        monkeypatch.setattr(nn_core, "blas_thread_control", lambda: (lambda: 2, set_calls.append))
        ensemble_batch(*trio, insts[:1])
        assert set_calls == [1, 2]  # the fake control is the one in use
        set_calls.clear()

        def no_pool(*args, **kwargs):
            raise AssertionError("an empty batch started a thread pool")

        monkeypatch.setattr(nn_core, "ThreadPoolExecutor", no_pool)
        assert ensemble_batch(*trio, []) == []
        assert set_calls == []


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        insts, wv, cv = make_cue_dataset(n=6, seed=1)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=2, d_block=2, seed=3)
        model = init_model(cfg, wv, cv)
        before = model.snapshot()
        model, history = train(model, insts, insts, TrainConfig(max_epochs=0))
        assert history == []
        for name, node in model.params.items():
            np.testing.assert_array_equal(node.value, before[name])

    def test_one_epoch_takes_one_snapshot(self, monkeypatch):
        insts, wv, cv = make_cue_dataset(n=6, seed=1)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=2, d_block=2, seed=3)
        model = init_model(cfg, wv, cv)
        snapshots, snapshot = [], model.snapshot

        def recorded_snapshot():
            snapshots.append(snapshot())
            return snapshots[-1]

        monkeypatch.setattr(model, "snapshot", recorded_snapshot)
        model, history = train(model, insts, insts, TrainConfig(max_epochs=1))
        assert len(history) == 1 and len(snapshots) == 1
        for name, node in model.params.items():
            np.testing.assert_array_equal(node.value, snapshots[0][name])

    def test_blas_held_to_one_thread_through_training_and_restored(
        self, blas_two_threads, monkeypatch
    ):
        insts, wv, cv = make_cue_dataset(n=10, seed=4)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=3, d_block=3, seed=2)
        counts, step, predict = [], train_eval.adam_update, models.predict_scores

        def counted(fn):
            def wrapper(*args):
                counts.append(blas_two_threads())
                return fn(*args)
            return wrapper

        monkeypatch.setattr(train_eval, "adam_update", counted(step))  # training
        monkeypatch.setattr(models, "predict_scores", counted(predict))  # validation
        train(init_model(cfg, wv, cv), insts, insts, TrainConfig(batch_size=5, max_epochs=2))
        assert len(counts) == 6 and set(counts) == {1}
        assert blas_two_threads() == 2
        failing = init_model(cfg, wv, cv)
        failing.word_emb.value[:] = np.nan
        with pytest.raises(NonFiniteInput):
            train(failing, insts, insts, TrainConfig(max_epochs=1))
        assert blas_two_threads() == 2

    def test_empty_split_rejected(self):
        insts, wv, cv = make_cue_dataset(n=4, seed=1)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=2, d_block=2, seed=3)
        model = init_model(cfg, wv, cv)
        with pytest.raises(EmptySplit):
            train(model, [], insts)

    def test_memorization_loss_curve_regression(self):
        # frozen from a reference run; tiny lr decreases loss monotonically
        expected = [
            0.694420112684, 0.694022441910, 0.693632468578,
            0.693249025606, 0.692870365191,
        ]
        insts, wv, cv = make_cue_dataset(n=10, seed=4)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=3, d_block=3, seed=2)
        model = init_model(cfg, wv, cv)
        hyper = TrainConfig(lr=0.0005, batch_size=10, max_epochs=5, patience=10, seed=0)
        _, history = train(model, insts, insts, hyper)
        losses = [h.train_loss for h in history]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        np.testing.assert_allclose(losses, expected, rtol=1e-9)

    def test_freeze_embeddings_flag(self):
        insts, wv, cv = make_cue_dataset(n=10, seed=4)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=3, d_block=3, seed=2)
        model = init_model(cfg, wv, cv)
        word_before = model.word_emb.value.copy()
        code_before = model.code_emb.value.copy()
        out_before = model.output.w.value.copy()
        train(
            model, insts, insts,
            TrainConfig(lr=0.01, batch_size=5, max_epochs=3, seed=0, freeze_embeddings=True),
        )
        np.testing.assert_array_equal(model.word_emb.value, word_before)
        np.testing.assert_array_equal(model.code_emb.value, code_before)
        assert not np.array_equal(model.output.w.value, out_before)

    def test_pad_embedding_rows_stay_zero(self):
        insts, wv, cv = make_cue_dataset(n=10, seed=4)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=3, d_block=3, seed=2)
        model = init_model(cfg, wv, cv)
        train(model, insts, insts, TrainConfig(lr=0.01, batch_size=5, max_epochs=3, seed=0))
        assert np.all(model.word_emb.value[0] == 0.0)
        assert np.all(model.code_emb.value[0] == 0.0)

    def test_training_deterministic_per_seed(self):
        results = []
        for _ in range(2):
            insts, wv, cv = make_cue_dataset(n=10, seed=4)
            cfg = VariantConfig(
                variant=Variant.BIV_HNN, d_embed=4, d_token_gru=3, d_block=3, seed=2
            )
            model = init_model(cfg, wv, cv)
            _, history = train(
                model, insts, insts, TrainConfig(lr=0.01, batch_size=5, max_epochs=4, seed=9)
            )
            results.append([(h.train_loss, h.valid.f1) for h in history])
        assert results[0] == results[1]

    def test_best_epoch_restored(self):
        insts, wv, cv = make_cue_dataset(n=10, seed=4)
        cfg = VariantConfig(variant=Variant.BIV_HNN, d_embed=4, d_token_gru=3, d_block=3, seed=2)
        model = init_model(cfg, wv, cv)
        model, history = train(
            model, insts, insts, TrainConfig(lr=0.05, batch_size=5, max_epochs=8, seed=1)
        )
        best_f1 = max(h.valid.f1 for h in history)
        preds = [predict_label(model, i)[0] for i in insts]
        assert evaluate(preds, [i.label for i in insts]).f1 == pytest.approx(best_f1)
