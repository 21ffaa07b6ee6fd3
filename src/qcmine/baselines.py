"""Hand-crafted features and linear classifiers.

Feature families over a code-context instance: context unigrams/bigrams,
the first token of each context under its own namespace, connective
occurrence flags from an editable lexicon, all code tokens, and (Python
only) the CodeClass probability that the snippet is working code rather
than an input-output demo.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .models import (
    check_json_type, json_object, label_of, parse_model_file, read_model_file, string_list,
    write_model_file,
)
from .post_parser import BlockKind, CodeContextInstance
from .tokenize import (
    TokenStream, Tokenizer, count_lines, load_wordlist_resource, tokenize_text, wordlist_entries,
)

LOGISTIC = "logistic"
HINGE_SVM = "hinge_svm"


class SingleClassData(ValueError):
    pass


class UntrainedModel(ValueError):
    pass


@functools.cache
def default_connectives() -> list[list[str]]:
    return [tokenize_text(p).tokens for p in sorted(load_wordlist_resource("connectives.txt"))]


def load_connectives(path) -> list[list[str]]:
    with open(path, encoding="utf-8-sig") as f:
        phrases = sorted(wordlist_entries(f))
    return [tokenize_text(p).tokens for p in phrases]


def _contains_seq(tokens: list[str], phrase: list[str]) -> bool:
    n = len(phrase)
    if n == 0 or n > len(tokens):
        return False
    return any(tokens[i : i + n] == phrase for i in range(len(tokens) - n + 1))


def extract_features(
    inst: CodeContextInstance,
    codeclass_model: "LinearModel | None" = None,
    connectives: list[list[str]] | None = None,
) -> dict[str, float]:
    """Featurize one instance as {feature name: value}. The CodeClass
    probability is added only when a sub-classifier is supplied (Python);
    SQL runs pass none."""
    if connectives is None:
        connectives = default_connectives()
    feats: dict[str, float] = {}

    def count(name):
        feats[name] = feats.get(name, 0.0) + 1.0

    for context in (inst.pre_tokens, inst.post_tokens):
        if context:
            feats[f"first:{context[0]}"] = 1.0
        for tok in context:
            count(f"tok:{tok}")
        for a, b in zip(context, context[1:]):
            count(f"bigram:{a}_{b}")
        for phrase in connectives:
            if _contains_seq(context, phrase):
                feats[f"conn:{'_'.join(phrase)}"] = 1.0
    for tok in inst.code_tokens:
        count(f"code:{tok}")
    if codeclass_model is not None:
        stream = TokenStream(list(inst.code_tokens), count_lines(inst.raw_code))
        feats["codeclass"] = predict_linear(codeclass_model, codeclass_features(stream))[1]
    return feats


def codeclass_features(code: TokenStream) -> dict[str, float]:
    """Shape features of a code snippet for the working-code classifier,
    in a fixed order; zero-valued ones are left out."""
    n = len(code.tokens)
    if n == 0:
        return {}
    lines = max(code.n_lines, 1)
    counts = Counter(code.tokens)
    feats = {
        "number_share": counts["NUMBER"] / n,
        "paren_share": (counts["("] + counts[")"]) / n,
        "prompt_lines": min(counts[">>>"] / lines, 1.0),
        "assign_share": counts["="] / n,
        "has_def": 1.0 if "def" in counts else 0.0,
        "has_import": 1.0 if "import" in counts else 0.0,
        "has_class": 1.0 if "class" in counts else 0.0,
        "has_print": 1.0 if "print" in counts else 0.0,
        "lines": float(lines),
        "tokens_per_line": n / lines,
    }
    return {name: v for name, v in feats.items() if v != 0.0}


@dataclass
class LinearModel:
    kind: str = LOGISTIC  # LOGISTIC or HINGE_SVM
    weights: np.ndarray | None = None
    bias: float = 0.0
    l2: float = 0.0
    index: dict[str, int] = field(default_factory=dict)  # feature name -> position in weights

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "features": sorted(self.index, key=self.index.__getitem__),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "l2": self.l2,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "LinearModel":
        """The model of ``to_dict``'s object. A kind other than logistic or
        hinge_svm, a feature name that is not a string, or a weight, bias
        or l2 that is not a finite JSON number (``models.check_json_type``)
        raises a ValueError or TypeError, which ``models.read_parts`` reports."""
        if obj["kind"] not in (LOGISTIC, HINGE_SVM):
            raise ValueError(f"kind {obj['kind']!r:.80} is neither {LOGISTIC} nor {HINGE_SVM}")
        features = string_list(obj["features"])
        index = {name: i for i, name in enumerate(features)}
        numbers = {"bias": obj["bias"], "l2": obj.get("l2", 0.0)}
        for key, value in [*(("weights", w) for w in obj["weights"]), *numbers.items()]:
            check_json_type("linear model", key, value, 0.0)
        weights = np.array(obj["weights"], dtype=np.float64)
        if weights.shape != (len(index),):
            raise ValueError(f"weights of shape {weights.shape} for {len(index)} distinct features")
        return cls(
            kind=obj["kind"],
            weights=weights,
            bias=float(numbers["bias"]),
            l2=float(numbers["l2"]),
            index=index,
        )


def _logistic(score: float) -> float:
    """1 / (1 + e^-score), and 0.0 where e^-score would overflow."""
    return 1.0 / (1.0 + math.exp(-score)) if score > -500 else 0.0


def _dot(weights: np.ndarray, index: dict[str, int], features: dict[str, float]) -> float:
    """The weighted sum over the features ``index`` names, in the features'
    order; other names are ignored. Python floats are multiplied and added
    left to right, the same IEEE products and sums as numpy scalars give,
    without a scalar object per term; not ``sum()``, which Python 3.12
    made compensated for floats."""
    item = weights.item
    total = 0.0
    for name, v in features.items():
        if name in index:
            total += item(index[name]) * v
    return total


def train_linear(
    data: list[tuple[dict[str, float], int]],
    kind: str = LOGISTIC,
    l2: float = 0.0,
    epochs: int = 20,
    lr: float = 0.1,
    seed: int = 0,
) -> LinearModel:
    """SGD on log-loss (logistic) or hinge loss (SVM) with L2, shuffled
    deterministically per seed. Each feature name gets the next weight
    position the first time ``data`` names it."""
    if not data:
        raise SingleClassData("no training data")
    labels = {label for _, label in data}
    if len(labels) < 2:
        raise SingleClassData(f"training data contains a single class {labels}")
    index: dict[str, int] = {}
    for feats, _ in data:
        for name in feats:
            index.setdefault(name, len(index))
    w = np.zeros(len(index))
    b = 0.0
    rng = np.random.default_rng(seed)
    decay = max(0.0, 1.0 - lr * l2)  # clamp: the L2 step stops at the origin
    for _ in range(epochs):
        for idx in rng.permutation(len(data)):
            feats, label = data[idx]
            score = _dot(w, index, feats) + b
            if l2 > 0.0:
                w *= decay
            if kind == LOGISTIC:
                coeff = lr * (label - _logistic(score))
            else:
                y = 2 * label - 1
                coeff = lr * y if y * score < 1.0 else 0.0
            if coeff != 0.0:
                for name, v in feats.items():
                    w[index[name]] += coeff * v
                b += coeff
    return LinearModel(kind=kind, weights=w, bias=b, l2=l2, index=index)


def predict_linear(model: LinearModel, features: dict[str, float]):
    """(label, score): the sigmoid score labeled by ``models.label_of`` for
    logistic, the raw margin thresholded at 0 for the SVM. Feature names
    the model was not trained on are ignored."""
    if model.weights is None:
        raise UntrainedModel("model has no weights")
    raw = _dot(model.weights, model.index, features) + model.bias
    if model.kind == LOGISTIC:
        score = _logistic(raw)
        return label_of(score), score
    return (1 if raw >= 0.0 else 0), raw


_LINEAR_FORMAT = "qcmine-linear-v2"


@dataclass
class LinearBundle:
    """A trained linear baseline with the record of the tokenizer its code
    features read (``Tokenizer.fingerprint()``), its connective lexicon, and
    optional CodeClass sub-classifier."""

    linear: LinearModel
    preprocessing: dict
    codeclass: LinearModel | None = None
    connectives: list | None = None

    def predict(self, inst):
        feats = extract_features(inst, self.codeclass, self.connectives)
        return predict_linear(self.linear, feats)

    def save(self, path):
        write_model_file(path, _LINEAR_FORMAT, {
            "linear": self.linear.to_dict(),
            "preprocessing": self.preprocessing,
            "codeclass": self.codeclass.to_dict() if self.codeclass else None,
            "connectives": self.connectives,
        })

    @classmethod
    def load(cls, path) -> "LinearBundle":
        return cls.from_obj(parse_model_file(path), path)

    @classmethod
    def from_obj(cls, obj, path, tokenizer: Tokenizer | None = None) -> "LinearBundle":
        """The bundle of a parsed bundle file ``obj`` read from ``path``;
        see ``models.read_model_file``."""
        return cls(**read_model_file(path, obj, _LINEAR_FORMAT, {
            "linear": LinearModel.from_dict,
            "preprocessing": json_object,
            "codeclass": lambda cc: None if cc is None else LinearModel.from_dict(cc),
            "connectives": _token_lists,
        }, tokenizer))


def _token_lists(obj) -> list[list[str]]:
    """``obj`` if it is a list of token lists (the connective phrases)."""
    if not isinstance(obj, list):
        raise TypeError(f"expected a list of token lists, got {obj!r:.80}")
    return [string_list(phrase) for phrase in obj]


# --------------------------------------------------------------------------
# CodeClass corpus harvesting
# --------------------------------------------------------------------------

@functools.cache
def default_codeclass_cues() -> list[str]:
    return sorted(load_wordlist_resource("codeclass_cues.txt"))


def harvest_codeclass_corpus(
    sequences,
    per_class_cap: int = 850,
    seed: int = 0,
):
    """Collect (raw code, label) pairs for the working-code classifier.

    ``sequences`` yields parsed answer BlockSequences. A code block whose
    preceding text ends with a cue phrase ("output:", ...) is an
    input-output demo (label 0); the snippet of a single-code answer is
    working code (label 1). Each class is capped by a seeded sample.
    """
    cues = default_codeclass_cues()
    demos: list[str] = []
    working: list[str] = []
    for seq in sequences:
        code_blocks = seq.code_blocks()
        if len(code_blocks) == 1:
            working.append(code_blocks[0].raw)
        blocks = seq.blocks
        for i, block in enumerate(blocks):
            if block.kind is not BlockKind.CODE or i == 0:
                continue
            context = blocks[i - 1].raw.strip().lower()
            if any(context.endswith(cue) for cue in cues):
                demos.append(block.raw)
    rng = np.random.default_rng(seed)
    corpus = []
    for snippets, label in ((demos, 0), (working, 1)):
        if len(snippets) > per_class_cap:
            keep = rng.choice(len(snippets), size=per_class_cap, replace=False)
            snippets = [snippets[i] for i in sorted(keep)]
        corpus.extend((raw, label) for raw in snippets)
    return corpus


def train_codeclass(
    corpus: list[tuple[TokenStream, int]],
    l2: float = 1e-4,
    epochs: int = 50,
    lr: float = 0.1,
    seed: int = 0,
) -> LinearModel:
    """Train the working-code LR on (token stream, label) pairs."""
    data = [(codeclass_features(stream), label) for stream, label in corpus]
    return train_linear(data, LOGISTIC, l2=l2, epochs=epochs, lr=lr, seed=seed)
