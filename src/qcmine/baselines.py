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
from dataclasses import dataclass, field

import numpy as np

from .post_parser import BlockKind, CodeContextInstance
from .tokenize import TokenStream, load_wordlist_resource, tokenize_text, wordlist_entries

LOGISTIC = "logistic"
HINGE_SVM = "hinge_svm"


class SingleClassData(ValueError):
    pass


class UntrainedModel(ValueError):
    pass


class FeatureRegistry:
    """Stable mapping from feature keys to contiguous ids.

    Unfrozen registries assign a fresh id to each new key; frozen ones
    drop unknown keys, so feature ids never shift under a trained model.
    """

    def __init__(self):
        self.key_to_id: dict[str, int] = {}
        self.frozen = False

    @property
    def size(self) -> int:
        return len(self.key_to_id)

    def id_of(self, key: str) -> int | None:
        idx = self.key_to_id.get(key)
        if idx is None and not self.frozen:
            idx = self.key_to_id[key] = len(self.key_to_id)
        return idx

    def freeze(self):
        self.frozen = True

    def to_dict(self) -> dict:
        return dict(self.key_to_id)

    @classmethod
    def from_dict(cls, obj: dict) -> "FeatureRegistry":
        reg = cls()
        reg.key_to_id = {str(k): int(v) for k, v in obj.items()}
        reg.frozen = True
        return reg


@dataclass
class SparseFeatureVector:
    values: dict[int, float] = field(default_factory=dict)

    def add(self, idx: int | None, value: float = 1.0):
        if idx is not None:
            self.values[idx] = self.values.get(idx, 0.0) + value

    def set(self, idx: int | None, value: float):
        if idx is not None:
            self.values[idx] = value


@functools.cache
def default_connectives() -> list[list[str]]:
    return [tokenize_text(p).tokens for p in sorted(load_wordlist_resource("connectives.txt"))]


def load_connectives(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        phrases = sorted(wordlist_entries(f))
    return [tokenize_text(p).tokens for p in phrases]


def _contains_seq(tokens: list[str], phrase: list[str]) -> bool:
    n = len(phrase)
    if n == 0 or n > len(tokens):
        return False
    return any(tokens[i : i + n] == phrase for i in range(len(tokens) - n + 1))


def extract_features(
    inst: CodeContextInstance,
    registry: FeatureRegistry,
    codeclass_model: "LinearModel | None" = None,
    connectives: list[list[str]] | None = None,
) -> SparseFeatureVector:
    """Featurize one instance. The CodeClass probability is added only when
    a sub-classifier is supplied (Python); SQL runs pass none."""
    if connectives is None:
        connectives = default_connectives()
    vec = SparseFeatureVector()
    for context in (inst.pre_tokens, inst.post_tokens):
        if context:
            vec.set(registry.id_of(f"first:{context[0]}"), 1.0)
        for tok in context:
            vec.add(registry.id_of(f"tok:{tok}"))
        for a, b in zip(context, context[1:]):
            vec.add(registry.id_of(f"bigram:{a}_{b}"))
        for phrase in connectives:
            if _contains_seq(context, phrase):
                vec.set(registry.id_of(f"conn:{'_'.join(phrase)}"), 1.0)
    for tok in inst.code_tokens:
        vec.add(registry.id_of(f"code:{tok}"))
    if codeclass_model is not None:
        stream = TokenStream(list(inst.code_tokens), n_lines=_estimate_lines(inst))
        _, prob = predict_linear(codeclass_model, _dense_to_sparse(codeclass_features(stream)))
        vec.set(registry.id_of("codeclass"), prob)
    return vec


def _estimate_lines(inst: CodeContextInstance) -> int:
    if inst.raw_code:
        return sum(1 for line in inst.raw_code.splitlines() if line.strip())
    return 1 if inst.code_tokens else 0


CODECLASS_DIM = 10


def codeclass_features(code: TokenStream) -> np.ndarray:
    """Shape features of a code snippet for the working-code classifier."""
    n = len(code.tokens)
    lines = max(code.n_lines, 1) if n else 0
    vec = np.zeros(CODECLASS_DIM)
    if n == 0:
        return vec
    counts = {}
    for tok in code.tokens:
        counts[tok] = counts.get(tok, 0) + 1
    vec[0] = counts.get("NUMBER", 0) / n
    vec[1] = (counts.get("(", 0) + counts.get(")", 0)) / n
    vec[2] = min(counts.get(">>>", 0) / lines, 1.0)
    vec[3] = counts.get("=", 0) / n
    vec[4] = 1.0 if "def" in counts else 0.0
    vec[5] = 1.0 if "import" in counts else 0.0
    vec[6] = 1.0 if "class" in counts else 0.0
    vec[7] = 1.0 if "print" in counts else 0.0
    vec[8] = float(lines)
    vec[9] = n / lines
    return vec


def _dense_to_sparse(vec: np.ndarray) -> SparseFeatureVector:
    return SparseFeatureVector({i: float(v) for i, v in enumerate(vec) if v != 0.0})


@dataclass
class LinearModel:
    kind: str = LOGISTIC  # LOGISTIC or HINGE_SVM
    weights: np.ndarray | None = None
    bias: float = 0.0
    l2: float = 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weights": None if self.weights is None else self.weights.tolist(),
            "bias": self.bias,
            "l2": self.l2,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "LinearModel":
        w = obj.get("weights")
        return cls(
            kind=obj["kind"],
            weights=None if w is None else np.array(w, dtype=np.float64),
            bias=float(obj["bias"]),
            l2=float(obj.get("l2", 0.0)),
        )


def _dot(weights: np.ndarray, features: SparseFeatureVector) -> float:
    n = len(weights)
    return sum(weights[i] * v for i, v in features.values.items() if i < n)


def train_linear(
    data: list[tuple[SparseFeatureVector, int]],
    kind: str = LOGISTIC,
    l2: float = 0.0,
    epochs: int = 20,
    lr: float = 0.1,
    seed: int = 0,
    dim: int | None = None,
) -> LinearModel:
    """SGD on log-loss (logistic) or hinge loss (SVM) with L2, shuffled
    deterministically per seed."""
    if not data:
        raise SingleClassData("no training data")
    labels = {label for _, label in data}
    if len(labels) < 2:
        raise SingleClassData(f"training data contains a single class {labels}")
    if dim is None:
        dim = 1 + max((i for feats, _ in data for i in feats.values), default=-1)
    w = np.zeros(dim)
    b = 0.0
    rng = np.random.default_rng(seed)
    decay = max(0.0, 1.0 - lr * l2)  # clamp: the L2 step stops at the origin
    for _ in range(epochs):
        for idx in rng.permutation(len(data)):
            feats, label = data[idx]
            score = _dot(w, feats) + b
            if l2 > 0.0:
                w *= decay
            if kind == LOGISTIC:
                p = 1.0 / (1.0 + math.exp(-score)) if score > -500 else 0.0
                coeff = lr * (label - p)
            else:
                y = 2 * label - 1
                coeff = lr * y if y * score < 1.0 else 0.0
            if coeff != 0.0:
                for i, v in feats.values.items():
                    if i < dim:
                        w[i] += coeff * v
                b += coeff
    return LinearModel(kind=kind, weights=w, bias=b, l2=l2)


def predict_linear(model: LinearModel, features: SparseFeatureVector):
    """(label, score): sigmoid score thresholded at 0.5 for logistic,
    raw margin thresholded at 0 for the SVM."""
    if model.weights is None:
        raise UntrainedModel("model has no weights")
    raw = _dot(model.weights, features) + model.bias
    if model.kind == LOGISTIC:
        score = 1.0 / (1.0 + math.exp(-raw)) if raw > -500 else 0.0
        return (1 if score >= 0.5 else 0), score
    return (1 if raw >= 0.0 else 0), raw


# --------------------------------------------------------------------------
# CodeClass corpus harvesting
# --------------------------------------------------------------------------

@functools.cache
def default_codeclass_cues() -> list[str]:
    return sorted(load_wordlist_resource("codeclass_cues.txt"))


def harvest_codeclass_corpus(
    sequences,
    per_class_cap: int = 850,
    cues: list[str] | None = None,
    seed: int = 0,
):
    """Collect (raw code, label) pairs for the working-code classifier.

    ``sequences`` yields parsed answer BlockSequences. A code block whose
    preceding text ends with a cue phrase ("output:", ...) is an
    input-output demo (label 0); the snippet of a single-code answer is
    working code (label 1). Each class is capped by a seeded sample.
    """
    if cues is None:
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
    data = [(_dense_to_sparse(codeclass_features(stream)), label) for stream, label in corpus]
    return train_linear(data, LOGISTIC, l2=l2, epochs=epochs, lr=lr, seed=seed, dim=CODECLASS_DIM)
