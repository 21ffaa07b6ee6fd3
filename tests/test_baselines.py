import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmine import baselines
from qcmine.baselines import (
    HINGE_SVM,
    LOGISTIC,
    LinearBundle,
    LinearModel,
    SingleClassData,
    UntrainedModel,
    codeclass_features,
    extract_features,
    harvest_codeclass_corpus,
    load_connectives,
    predict_linear,
    train_codeclass,
    train_linear,
)
from qcmine.post_parser import CodeContextInstance, parse_answer_post
from qcmine.tokenize import Tokenizer, TokenStream, normalize_python


def make_inst(pre=(), code=("VAR",), post=(), q=("how",)):
    return CodeContextInstance(
        question_tokens=list(q), pre_tokens=list(pre),
        code_tokens=list(code), post_tokens=list(post), position=1,
    )


class TestExtractFeatures:
    def test_context_namespaces(self):
        keys = set(extract_features(make_inst(pre=["try", "this"], code=["x"])))
        assert {"first:try", "tok:try", "tok:this", "bigram:try_this"} <= keys
        assert "code:x" in keys
        assert not any(k.startswith("conn:") for k in keys)

    def test_empty_contexts_only_code_features(self):
        assert extract_features(make_inst(code=["select", "col0"])) == {
            "code:select": 1.0, "code:col0": 1.0,
        }

    def test_no_codeclass_without_submodel(self):
        assert "codeclass" not in extract_features(make_inst(), codeclass_model=None)

    def test_codeclass_present_with_submodel(self):
        submodel = LinearModel(LOGISTIC, weights=np.zeros(0), bias=0.0)
        assert extract_features(make_inst(), codeclass_model=submodel)["codeclass"] == 0.5

    def test_connective_flags(self):
        assert "conn:alternatively" in extract_features(make_inst(pre=["alternatively", "you", "can"]))

    def test_token_counts_preserve_repetition(self):
        assert extract_features(make_inst(pre=["go", "go", "go"]))["tok:go"] == 3.0

    def test_unseen_names_ignored_and_index_unchanged(self):
        data = [(extract_features(make_inst(pre=["try"])), 1),
                (extract_features(make_inst(pre=["no"])), 0)]
        model = train_linear(data, epochs=3, seed=0)
        before = dict(model.index)
        new = extract_features(make_inst(pre=["brand", "new", "words"]))
        known = {name: v for name, v in new.items() if name in model.index}
        assert predict_linear(model, new) == predict_linear(model, known)
        assert model.index == before


class TestCodeclassFeatures:
    def test_prompt_line_fraction(self):
        vec = codeclass_features(TokenStream([">>>", "VAR"], n_lines=1))
        assert vec["prompt_lines"] == 1.0

    def test_def_presence_no_numbers(self):
        vec = codeclass_features(TokenStream(["def", "VAR", "(", ")", ":"], n_lines=1))
        assert vec["has_def"] == 1.0
        assert "number_share" not in vec  # zero-valued features are left out

    def test_empty_all_zero(self):
        assert codeclass_features(TokenStream([])) == {}

    def test_fractions(self):
        vec = codeclass_features(
            TokenStream(["VAR", "=", "NUMBER", "(", ")"], n_lines=1)
        )
        assert vec["number_share"] == pytest.approx(1 / 5)
        assert vec["paren_share"] == pytest.approx(2 / 5)
        assert vec["assign_share"] == pytest.approx(1 / 5)
        assert vec["lines"] == 1.0
        assert vec["tokens_per_line"] == 5.0


def separable_toy(n=40):
    data = []
    for i in range(n):
        label = i % 2
        data.append(({"a": 1.0, "b": 1.0} if label else {"a": 1.0, "c": 1.0}, label))
    return data


class TestTrainLinear:
    def test_separable_reaches_full_accuracy(self):
        data = separable_toy()
        for kind in (LOGISTIC, HINGE_SVM):
            model = train_linear(data, kind=kind, epochs=50, lr=0.5, seed=0)
            preds = [predict_linear(model, f)[0] for f, _ in data]
            assert preds == [label for _, label in data]

    def test_huge_l2_shrinks_weights_to_tie(self):
        data = separable_toy()
        model = train_linear(data, LOGISTIC, l2=1e6, epochs=30, lr=0.001, seed=0)
        assert np.all(np.abs(model.weights) < 1e-3)
        label, score = predict_linear(
            LinearModel(LOGISTIC, np.zeros_like(model.weights), 0.0, index=model.index), data[0][0]
        )
        assert label == 1 and score == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            train_linear([({"a": 1.0}, 1)] * 4)

    def test_positions_first_seen_and_round_trip(self):
        model = train_linear(separable_toy(), epochs=5, lr=0.5, seed=0)
        assert model.index == {"a": 0, "c": 1, "b": 2}
        back = LinearModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert back.index == model.index and back.bias == model.bias
        np.testing.assert_array_equal(back.weights, model.weights)

    # One row per kind of value a linear model cannot score, as JSON text:
    # each loaded before, as a number it was not, an infinity, or a NaN
    # that scores every input (0, 0.0).
    @pytest.mark.parametrize(
        "key, raw, refusal",
        [("weights", '["2"]', "weights"), ("bias", '"0.5"', "bias"), ("weights", "[true]", "weights"),
         ("weights", "[NaN]", "weights"), ("weights", "[1e400]", "weights"), ("kind", '"bogus"', "kind"),
         ("features", "[1]", "list of strings"), ("bias", "NaN", "bias"), ("l2", "Infinity", "l2")],
        ids=["string_weight", "string_bias", "bool_weight", "nan_weight", "overflow_weight",
             "unknown_kind", "int_feature", "nan_bias", "infinite_l2"],
    )
    def test_from_dict_refuses_what_it_cannot_score(self, key, raw, refusal):
        obj = {"kind": LOGISTIC, "features": ["a"], "weights": [2.0], "bias": 0.5, "l2": 0.0}
        obj[key] = json.loads(raw)
        with pytest.raises((TypeError, ValueError), match=refusal):
            LinearModel.from_dict(obj)

    def test_deterministic_per_seed(self):
        data = separable_toy()
        m1 = train_linear(data, LOGISTIC, epochs=10, lr=0.3, seed=5)
        m2 = train_linear(data, LOGISTIC, epochs=10, lr=0.3, seed=5)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestPredictLinear:
    def test_zero_logistic_model_ties_to_one(self):
        model = LinearModel(LOGISTIC, weights=np.zeros(3), bias=0.0, index={"a": 0, "b": 1, "c": 2})
        label, score = predict_linear(model, {"b": 5.0})
        assert (label, score) == (1, 0.5)

    def test_negative_margin_hinge(self):
        model = LinearModel(HINGE_SVM, weights=np.array([-3.0]), bias=0.0, index={"a": 0})
        label, score = predict_linear(model, {"a": 1.0})
        assert label == 0 and score == -3.0

    def test_untrained_model(self):
        with pytest.raises(UntrainedModel):
            predict_linear(LinearModel(LOGISTIC), {})

    def test_hinge_label_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(-1, 1, 6)
        b = 0.3
        index = {f"f{i}": i for i in range(6)}
        for c in (0.5, 2.0, 17.0):
            scaled = LinearModel(HINGE_SVM, weights=c * w, bias=c * b, index=index)
            base = LinearModel(HINGE_SVM, weights=w.copy(), bias=b, index=index)
            for _ in range(30):
                feats = {f"f{i}": float(v) for i, v in enumerate(rng.uniform(-2, 2, 6))}
                assert predict_linear(base, feats)[0] == predict_linear(scaled, feats)[0]

    @staticmethod
    def scalar_dot(weights, index, features):
        """The weighted sum as numpy scalars, added left to right."""
        total = 0
        for name, v in features.items():
            if name in index:
                total = total + weights[index[name]] * v
        return total

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
        named=st.lists(st.tuples(st.integers(0, 16), st.floats(-1e6, 1e6)), max_size=20),
    )
    def test_dot_is_the_numpy_scalar_sum_bit_for_bit(self, n, seed, scale, named):
        """Python floats give the bits of the numpy-scalar products summed
        in the features' order, with names the index lacks (``f12`` and up,
        and any past ``n``) in between."""
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(n) * scale
        index = {f"f{i}": at for i, at in enumerate(rng.permutation(n).tolist())}
        features = {f"f{i}": v for i, v in named}
        got = baselines._dot(weights, index, features)
        want = self.scalar_dot(weights, index, features)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_logistic_score_in_open_interval(self):
        model = LinearModel(LOGISTIC, weights=np.array([50.0]), bias=0.0, index={"a": 0})
        _, hi = predict_linear(model, {"a": 10.0})
        _, lo = predict_linear(model, {"a": -10.0})
        assert 0.0 <= lo < 0.5 < hi <= 1.0


class TestCodeclassPipeline:
    def test_harvest_and_train(self):
        posts = []
        # IO demos: code preceded by "output:" cues
        for i in range(6):
            posts.append(
                parse_answer_post(
                    f"<p>run it</p><pre><code>f({i})</code></pre>"
                    f"<p>output:</p><pre><code>&gt;&gt;&gt; {i}\n{i}</code></pre>"
                )
            )
        # working code: single-code answers
        for i in range(6):
            posts.append(
                parse_answer_post(f"<p>do</p><pre><code>def f_{i}(x):\n    return x</code></pre>")
            )
        corpus = harvest_codeclass_corpus(posts, per_class_cap=5)
        labels = [label for _, label in corpus]
        assert labels.count(0) == 5 and labels.count(1) == 5
        streams = [(normalize_python(raw), label) for raw, label in corpus]
        model = train_codeclass(streams, epochs=80, lr=0.5, seed=0)
        demo = normalize_python(">>> 3\n3")
        work = normalize_python("def f(x):\n    return x + 1")
        _, p_demo = predict_linear(model, codeclass_features(demo))
        _, p_work = predict_linear(model, codeclass_features(work))
        assert p_work > p_demo

    def test_cap_sampling_deterministic(self):
        posts = [
            parse_answer_post(f"<p>x</p><pre><code>v = {i}</code></pre>") for i in range(20)
        ]
        c1 = harvest_codeclass_corpus(posts, per_class_cap=7, seed=3)
        c2 = harvest_codeclass_corpus(posts, per_class_cap=7, seed=3)
        assert c1 == c2
        assert len(c1) == 7


class TestBundleFile:
    def test_non_ascii_text_written_as_utf8(self, tmp_path):
        """Bundles follow the one JSON policy of every file qcmine writes:
        non-ASCII feature names and connectives are written as UTF-8, not as
        \\u escapes, and load back equal."""
        data = [({"tok:qué": 1.0, "code:naïve": 1.0}, 1), ({"tok:how": 1.0}, 0)]
        linear = train_linear(data, epochs=3, seed=0)
        bundle = LinearBundle(linear, Tokenizer().fingerprint(), None, [["en", "lugar", "de"], ["ó"]])
        path = tmp_path / "lr.json"
        bundle.save(path)
        text = path.read_bytes().decode("utf-8")
        assert "tok:qué" in text and "code:naïve" in text and '"ó"' in text
        assert "\\u" not in text
        loaded = LinearBundle.load(path)
        assert loaded.linear.to_dict() == linear.to_dict()
        assert loaded.connectives == bundle.connectives
        assert loaded.preprocessing == bundle.preprocessing


def test_connectives_file_with_bom(tmp_path):
    """A spreadsheet's "UTF-8" export starts with a byte order mark, which
    must not become part of the first phrase."""
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text("in addition\nbecause\n", encoding="utf-8")
    bom.write_text("in addition\nbecause\n", encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_connectives(bom) == load_connectives(plain) == [["because"], ["in", "addition"]]
