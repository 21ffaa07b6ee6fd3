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

from .baselines import LinearModel, predict_linear, train_linear
from .models import CheckpointMismatch, read_parts
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


def features_to_sparse(features: QuestionFeatures) -> dict[str, float]:
    feats = {f"kw:{kw}": 1.0 for kw, flag in sorted(features.keyword_flags.items()) if flag}
    feats["n_code_q"] = float(features.n_code_blocks_question)
    feats["n_code_a"] = float(features.n_code_blocks_answer)
    feats["max_code_len"] = float(features.max_code_block_len)
    feats["title_len"] = float(features.title_len)
    return feats


_FORMAT = "qcmine-filter-v2"


@dataclass
class QuestionFilterModel:
    """A trained filter: the linear model and its keyword lexicon."""

    linear: LinearModel
    keywords: list[str]

    def save(self, path):
        obj = {"format": _FORMAT, "linear": self.linear.to_dict(), "keywords": self.keywords}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, sort_keys=True)

    @classmethod
    def load(cls, path) -> "QuestionFilterModel":
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
        if not isinstance(obj, dict) or obj.get("format") != _FORMAT:
            raise CheckpointMismatch(f"{path} is not a {_FORMAT} question filter; retrain it")
        parts = read_parts(path, obj, {"linear": LinearModel.from_dict, "keywords": list})
        return cls(**parts)


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
    data = [
        (features_to_sparse(f), 1 if label is QuestionLabel.HOW_TO else 0)
        for f, label in labeled
    ]
    linear = train_linear(data, l2=l2, epochs=epochs, lr=lr, seed=seed)
    # a copy: the default lexicon is a shared cache the model must not alias
    return QuestionFilterModel(linear, list(keywords))


def classify_question(features: QuestionFeatures, model: QuestionFilterModel):
    """(label, p(HowTo)); the p = 0.5 tie goes to HowTo."""
    label, prob = predict_linear(model.linear, features_to_sparse(features))
    return (QuestionLabel.HOW_TO if label == 1 else QuestionLabel.NON_HOW_TO), prob
