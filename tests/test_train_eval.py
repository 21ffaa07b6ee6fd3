import itertools
import random

import numpy as np
import pytest

from helpers import make_cue_dataset
from qcmine.models import Variant, VariantConfig, init_model, predict_label
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
    evaluate,
    mrr,
    select_all,
    select_first,
    train,
)


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
