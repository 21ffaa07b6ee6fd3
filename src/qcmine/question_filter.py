"""Binary how-to / non-how-to question classification.

Simple hand features over the question and its accepted answer (keyword
occurrence in the title, code-block counts and sizes) feed a logistic
regression from the baselines module.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum

from .baselines import (
    FeatureRegistry,
    LinearModel,
    SparseFeatureVector,
    predict_linear,
    train_linear,
)
from .models import CheckpointMismatch
from .post_parser import BlockKind, BlockSequence
from .tokenize import load_wordlist_resource, tokenize_text, wordpunct


class QuestionLabel(Enum):
    HOW_TO = "howto"
    NON_HOW_TO = "other"


@functools.cache
def default_keywords() -> list[str]:
    return sorted(load_wordlist_resource("question_keywords.txt"))


@dataclass
class QuestionFeatures:
    keyword_flags: dict[str, bool] = field(default_factory=dict)
    n_code_blocks_question: int = 0
    n_code_blocks_answer: int = 0
    max_code_block_len: int = 0
    title_len: int = 0


def featurize_question(
    title: str,
    question_seq: BlockSequence,
    answer_seq: BlockSequence,
    keywords: list[str] | None = None,
) -> QuestionFeatures:
    """Deterministic hand features; keyword matching is case-insensitive
    over the title."""
    if keywords is None:
        keywords = default_keywords()
    lowered = title.lower()
    answer_code = [b for b in answer_seq.blocks if b.kind is BlockKind.CODE]
    return QuestionFeatures(
        keyword_flags={kw: kw in lowered for kw in keywords},
        n_code_blocks_question=sum(
            1 for b in question_seq.blocks if b.kind is BlockKind.CODE
        ),
        n_code_blocks_answer=len(answer_code),
        max_code_block_len=max((len(wordpunct(b.raw)) for b in answer_code), default=0),
        title_len=len(tokenize_text(title).tokens),
    )


def features_to_sparse(features: QuestionFeatures, registry: FeatureRegistry) -> SparseFeatureVector:
    vec = SparseFeatureVector()
    for kw, flag in sorted(features.keyword_flags.items()):
        if flag:
            vec.set(registry.id_of(f"kw:{kw}"), 1.0)
    vec.set(registry.id_of("n_code_q"), float(features.n_code_blocks_question))
    vec.set(registry.id_of("n_code_a"), float(features.n_code_blocks_answer))
    vec.set(registry.id_of("max_code_len"), float(features.max_code_block_len))
    vec.set(registry.id_of("title_len"), float(features.title_len))
    return vec


@dataclass
class QuestionFilterModel:
    """A trained filter: the linear model plus its frozen feature space."""

    linear: LinearModel
    registry: FeatureRegistry
    keywords: list[str]

    def save(self, path):
        obj = {
            "linear": self.linear.to_dict(),
            "registry": self.registry.to_dict(),
            "keywords": self.keywords,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, sort_keys=True)

    @classmethod
    def load(cls, path) -> "QuestionFilterModel":
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise CheckpointMismatch(f"{path} does not hold a JSON object")
        missing = [key for key in ("linear", "registry", "keywords") if key not in obj]
        if missing:
            raise CheckpointMismatch(f"{path}: question filter model lacks {missing}")
        return cls(
            linear=LinearModel.from_dict(obj["linear"]),
            registry=FeatureRegistry.from_dict(obj["registry"]),
            keywords=list(obj["keywords"]),
        )


def train_question_filter(
    labeled: list[tuple[QuestionFeatures, QuestionLabel]],
    l2: float = 1e-4,
    epochs: int = 50,
    lr: float = 0.1,
    seed: int = 0,
    keywords: list[str] | None = None,
) -> QuestionFilterModel:
    if keywords is None:
        keywords = default_keywords()
    registry = FeatureRegistry()
    data = [
        (features_to_sparse(f, registry), 1 if label is QuestionLabel.HOW_TO else 0)
        for f, label in labeled
    ]
    registry.freeze()
    linear = train_linear(data, l2=l2, epochs=epochs, lr=lr, seed=seed, dim=registry.size)
    # a copy: the default lexicon is a shared cache the model must not alias
    return QuestionFilterModel(linear, registry, list(keywords))


def classify_question(features: QuestionFeatures, model: QuestionFilterModel):
    """(label, p(HowTo)); the p = 0.5 tie goes to HowTo."""
    vec = features_to_sparse(features, model.registry)
    label, prob = predict_linear(model.linear, vec)
    return (QuestionLabel.HOW_TO if label == 1 else QuestionLabel.NON_HOW_TO), prob
