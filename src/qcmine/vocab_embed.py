"""Token vocabularies and embedding tables.

Word and code tokens live in disjoint vocabularies with separate embedding
matrices. Three specials occupy fixed ids: PAD (0, zero row, never updated),
UNK (1, catches every out-of-vocabulary token), CODEBLOCK (2, the mask token
for code blocks in text-only models). Embeddings load from a plain-text
vector file when available and are randomly initialized otherwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
CODEBLOCK_TOKEN = "<codeblock>"

PAD_ID = 0
UNK_ID = 1
CODEBLOCK_ID = 2

SPECIALS = (PAD_TOKEN, UNK_TOKEN, CODEBLOCK_TOKEN)  # at ids 0, 1 and 2


class EmptyCorpus(ValueError):
    """No tokens were observed when building a vocabulary."""


class DimensionMismatch(ValueError):
    """An embedding-file row does not have the declared dimension."""


@dataclass
class Vocabulary:
    token_to_id: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def lookup_all(self, tokens) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]


def build_vocab(token_lists, min_count: int = 1) -> Vocabulary:
    """Build a vocabulary over token lists.

    Tokens with corpus frequency >= min_count are kept, ordered by
    (-frequency, token) so identical corpora always produce identical id
    assignments. Specials occupy ids 0..2.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(chain.from_iterable(token_lists))
    if not counts:
        raise EmptyCorpus("no tokens in corpus")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count and tok not in SPECIALS),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary({tok: i for i, tok in enumerate((*SPECIALS, *kept))})


def load_embeddings(path, vocab: Vocabulary, d: int, seed: int) -> np.ndarray:
    """The embedding table (vocab.size x d, float64) of a vocabulary.

    Rows found in the vector file (whitespace-separated "token v1 .. vd")
    are used as-is; missing tokens draw uniform(-0.05, 0.05) from the seed,
    all in one call, row after row in the vocabulary's order.
    ``path=None`` random-initializes everything. The PAD row is always zero.
    A row of another length, or with a value that is not a finite number,
    raises a ValueError (DimensionMismatch for the length) naming file:line.

    For ``d`` other than 1, a first line of two fields is word2vec's and
    fastText's ``<count> <dim>`` header, since no row of ``d`` values has
    two fields: it is skipped if ``count`` is a decimal integer and ``dim``
    is ``d``, and refused with a DimensionMismatch naming file:1 otherwise.
    For ``d`` = 1 such a line is a row.
    """
    vectors: dict[str, np.ndarray] = {}
    if path is not None:
        with open(path, encoding="utf-8-sig") as f:
            for line_no, line in enumerate(f, 1):
                parts = line.rstrip("\n").split()
                if not parts:
                    continue
                if line_no == 1 and d != 1 and len(parts) == 2:
                    if not (parts[0].isdecimal() and parts[1] == str(d)):
                        raise DimensionMismatch(
                            f"{path}:1: expected a '<count> {d}' header, got {' '.join(parts)!r}"
                        )
                    continue
                token, values = parts[0], parts[1:]
                if len(values) != d:
                    raise DimensionMismatch(
                        f"{path}:{line_no}: expected {d} values, got {len(values)}"
                    )
                try:
                    vectors[token] = row = np.array(values, dtype=np.float64)
                    if not np.isfinite(row).all():
                        raise ValueError("NaN or infinity")
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: not a finite number: {exc}") from None

    table = np.zeros((vocab.size, d), dtype=np.float64)
    missing = []  # ids in the vocabulary's order, which is id order for build_vocab's
    for token, idx in vocab.token_to_id.items():
        if idx == PAD_ID:
            continue
        row = vectors.get(token)
        if row is None:
            missing.append(idx)
        else:
            table[idx] = row
    # one draw: the same numbers, row after row, as one draw of d per row
    table[missing] = np.random.default_rng(seed).uniform(-0.05, 0.05, (len(missing), d))
    return table
