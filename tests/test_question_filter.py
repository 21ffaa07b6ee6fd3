import numpy as np
import pytest

from qcmine.baselines import LOGISTIC, LinearModel, UntrainedModel
from qcmine.post_parser import parse_answer_post
from qcmine.question_filter import (
    QuestionFilterModel,
    QuestionLabel,
    classify_question,
    default_keywords,
    featurize_question,
    features_to_sparse,
    train_question_filter,
)


def seqs(question_html="<p>body</p>", answer_html="<p>a</p>"):
    return parse_answer_post(question_html, 1), parse_answer_post(answer_html, 1)


class TestFeaturize:
    def test_how_to_keyword_flag(self):
        q, a = seqs()
        feats = featurize_question("How to limit a number to a range?", q, a)
        assert feats.keyword_flags["how to"] is True
        assert feats.keyword_flags["why"] is False

    def test_keyword_matching_case_insensitive(self):
        q, a = seqs()
        feats = featurize_question("HOW TO do it", q, a)
        assert feats.keyword_flags["how to"] is True

    def test_answer_code_block_count(self):
        q, a = seqs(answer_html="".join(f"<pre><code>c{i}=1</code></pre>" for i in range(4)))
        feats = featurize_question("t", q, a)
        assert feats.n_code_blocks_answer == 4

    def test_question_code_block_count(self):
        q, a = seqs(question_html="<p>x</p><pre><code>broken()</code></pre>")
        feats = featurize_question("t", q, a)
        assert feats.n_code_blocks_question == 1

    def test_codeless_answer_zero_max_len(self):
        q, a = seqs()
        feats = featurize_question("t", q, a)
        assert feats.max_code_block_len == 0

    def test_max_code_block_len_in_tokens(self):
        q, a = seqs(answer_html="<pre><code>a = 1</code></pre><pre><code>b</code></pre>")
        feats = featurize_question("t", q, a)
        assert feats.max_code_block_len == 3

    def test_title_len(self):
        q, a = seqs()
        feats = featurize_question("How to sort?", q, a)
        assert feats.title_len == 4


def synthetic_training_set(n=60):
    labeled = []
    for i in range(n):
        if i % 2 == 0:
            title = f"How to frobnicate the {i} widget"
            label = QuestionLabel.HOW_TO
            answer = "<p>do</p><pre><code>frob()</code></pre>"
        else:
            title = f"Why does widget {i} explode"
            label = QuestionLabel.NON_HOW_TO
            answer = "<p>because reasons</p>"
        q, a = seqs(answer_html=answer)
        labeled.append((featurize_question(title, q, a), label))
    return labeled


class TestClassify:
    def test_zero_weight_model_ties_to_howto(self):
        model = train_question_filter(synthetic_training_set(), epochs=1, lr=0.0)
        model.linear.weights = np.zeros_like(model.linear.weights)
        model.linear.bias = 0.0
        q, a = seqs()
        feats = featurize_question("anything", q, a)
        label, prob = classify_question(feats, model)
        assert label is QuestionLabel.HOW_TO
        assert prob == 0.5

    def test_separable_set_learned(self):
        labeled = synthetic_training_set()
        model = train_question_filter(labeled, epochs=60, lr=0.5, seed=1)
        preds = [classify_question(f, model)[0] for f, _ in labeled]
        assert preds == [label for _, label in labeled]

    def test_probability_valid_and_monotone(self):
        labeled = synthetic_training_set()
        model = train_question_filter(labeled, epochs=60, lr=0.5, seed=1)
        q, a = seqs(answer_html="<p>do</p><pre><code>frob()</code></pre>")
        feats = featurize_question("How to do this thing", q, a)
        _, p_howto = classify_question(feats, model)
        feats2 = featurize_question("Why is this thing broken", q, a)
        _, p_why = classify_question(feats2, model)
        assert 0.0 < p_why < p_howto < 1.0

    def test_untrained_model_raises(self):
        model = QuestionFilterModel(LinearModel(LOGISTIC), keywords=[])
        q, a = seqs()
        with pytest.raises(UntrainedModel):
            classify_question(featurize_question("t", q, a), model)

    def test_save_load_round_trip(self, tmp_path):
        model = train_question_filter(synthetic_training_set(), epochs=10, lr=0.5)
        path = tmp_path / "filter.json"
        model.save(path)
        loaded = QuestionFilterModel.load(path)
        q, a = seqs()
        feats = featurize_question("How to do it", q, a)
        assert classify_question(feats, model) == classify_question(feats, loaded)


def test_default_keyword_lexicon_loads():
    kws = default_keywords()
    assert "how to" in kws
    assert all(kw == kw.lower() for kw in kws)


def test_trained_filter_does_not_alias_default_keywords():
    before = list(default_keywords())
    model = train_question_filter(synthetic_training_set(), epochs=1)
    model.keywords.append("frobnicate")
    assert default_keywords() == before


def test_features_to_sparse_deterministic():
    q, a = seqs()
    feats = featurize_question("How to sort a list", q, a)
    v1, v2 = features_to_sparse(feats), features_to_sparse(feats)
    assert list(v1.items()) == list(v2.items())
    assert list(v1) == ["kw:how to", "n_code_q", "n_code_a", "max_code_len", "title_len"]
