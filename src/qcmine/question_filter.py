"""Binary how-to / non-how-to question classification.

Simple hand features over the question and its accepted answer (keyword
occurrence in the title, code-block counts and sizes) feed a logistic
regression from the baselines module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

from .baselines import LinearModel, predict_linear, train_linear
from .models import parse_model_file, read_model_file, string_list, write_model_file
from .post_parser import BlockSequence
from .tokenize import (
    load_wordlist_resource,
    tokenize_text,  # noqa: F401  unused here; bench/run.py traces question_filter.tokenize_text by name
    wordpunct_count,
)


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
    """Deterministic hand features. The keywords are lowercase and matched
    in the lowercased title; titles and code blocks are counted in
    word/punct tokens. ``keywords`` may be a subset of a filter's lexicon,
    such as ``QuestionFilterModel.weighed_keywords()``: only the flags of
    the keywords given are set."""
    if keywords is None:
        keywords = default_keywords()
    lowered = title.lower()
    answer_code = answer_seq.code_blocks()
    return QuestionFeatures(
        keyword_flags={kw: kw in lowered for kw in keywords},
        n_code_blocks_question=len(question_seq.code_blocks()),
        n_code_blocks_answer=len(answer_code),
        max_code_block_len=max((wordpunct_count(b.raw) for b in answer_code), default=0),
        title_len=wordpunct_count(title),
    )


def features_to_sparse(features: QuestionFeatures) -> dict[str, float]:
    flags = features.keyword_flags
    feats = {f"kw:{kw}": 1.0 for kw in sorted(flags) if flags[kw]}
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
        write_model_file(path, _FORMAT, {"linear": self.linear.to_dict(), "keywords": self.keywords})

    def weighed_keywords(self) -> list[str]:
        """The keywords, in ``keywords`` order, whose ``kw:`` feature the
        linear model weighs. ``baselines.predict_linear`` ignores every
        other feature, so a question featurized with these alone gets the
        same label and probability, bit for bit."""
        index = self.linear.index
        return [kw for kw in self.keywords if f"kw:{kw}" in index]

    @classmethod
    def load(cls, path) -> "QuestionFilterModel":
        return cls(**read_model_file(
            path, parse_model_file(path), _FORMAT,
            {"linear": LinearModel.from_dict, "keywords": _keywords},
        ))


def _keywords(obj) -> list[str]:
    """``obj`` if it is a list of non-empty lowercase strings: titles are
    lowercased before matching, so another keyword would never fire, and
    an empty one would fire on every title."""
    for kw in string_list(obj):
        if not kw or kw != kw.lower():
            raise ValueError(f"keyword {kw!r:.80} is not a non-empty lowercase string")
    return obj


def train_question_filter(
    labeled: list[tuple[QuestionFeatures, QuestionLabel]],
    l2: float = 1e-4,
    epochs: int = 50,
    lr: float = 0.1,
    seed: int = 0,
) -> QuestionFilterModel:
    data = [
        (features_to_sparse(f), 1 if label is QuestionLabel.HOW_TO else 0)
        for f, label in labeled
    ]
    linear = train_linear(data, l2=l2, epochs=epochs, lr=lr, seed=seed)
    # a copy: the default lexicon is a shared cache the model must not alias
    return QuestionFilterModel(linear, list(default_keywords()))


def classify_question(features: QuestionFeatures, model: QuestionFilterModel):
    """(label, p(HowTo)); the p = 0.5 tie goes to HowTo."""
    label, prob = predict_linear(model.linear, features_to_sparse(features))
    return (QuestionLabel.HOW_TO if label == 1 else QuestionLabel.NON_HOW_TO), prob
