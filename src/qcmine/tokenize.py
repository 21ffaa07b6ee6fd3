"""Tokenization of natural-language text and Python/SQL code snippets.

Text is split wordpunct-style and lowercased. Code is normalized to tame
vocabulary size: Python identifiers/numbers/strings collapse to VAR/NUMBER/
STRING (keywords and common builtins survive via a keep-list), SQL table and
column names become numbered placeholders shared across repeated mentions.
Each normalizer is one compiled token regex. Both are total: a Python line
the regex does not cover falls back to a plain word/punct split. A
``Tokenizer`` value carries the language and keep-list that every reader,
trainer and miner of a dataset must share.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources


class Language(Enum):
    PYTHON = "python"
    SQL = "sql"


@dataclass
class TokenStream:
    """A tokenized text or code fragment.

    ``n_lines`` counts non-blank source lines (0 for text); a handful of
    shape features in the baselines need it after line structure is gone.
    """

    tokens: list[str] = field(default_factory=list)
    n_lines: int = 0


_WORDPUNCT = re.compile(r"\w+|[^\w\s]+", re.UNICODE)


def wordpunct(s: str) -> list[str]:
    """Split into runs of word characters and runs of symbols."""
    return _WORDPUNCT.findall(s)


# Each ASCII character as a word ("w"), space (" ") or symbol ("p")
# character of _WORDPUNCT. Spaces include \x0b, \x0c and \x1c-\x1f, as for re.
_ASCII_CLASSES = bytes(
    ord("w" if re.match(r"\w", chr(c)) else " " if re.match(r"\s", chr(c)) else "p") for c in range(128)
) + b"p" * 128


def wordpunct_count(s: str) -> int:
    """``len(wordpunct(s))`` without building the tokens: in ASCII text,
    the token starts, each a word or symbol character after a space or a
    character of the other class (a space is put in front of ``s``)."""
    if not s.isascii():
        return len(_WORDPUNCT.findall(s))
    b = (" " + s).encode("ascii").translate(_ASCII_CLASSES)
    return b.count(b" w") + b.count(b" p") + b.count(b"wp") + b.count(b"pw")


def tokenize_text(s: str) -> TokenStream:
    """Tokenize natural-language text: wordpunct split, lowercased."""
    return TokenStream([t.lower() for t in wordpunct(s)])


def count_lines(s: str) -> int:
    """The number of non-blank lines of ``s``."""
    return sum(1 for line in s.splitlines() if line.strip())


# --------------------------------------------------------------------------
# Python normalization
# --------------------------------------------------------------------------

VAR_TOKEN = "VAR"
NUMBER_TOKEN = "NUMBER"
STRING_TOKEN = "STRING"


def wordlist_entries(lines) -> frozenset[str]:
    """The entries of a lexicon: one per line, '#' comments and blank lines
    ignored."""
    return frozenset(line.strip() for line in lines if line.strip() and not line.startswith("#"))


def load_wordlist_resource(name: str) -> frozenset[str]:
    """Read a packaged lexicon."""
    text = resources.files("qcmine.data").joinpath(name).read_text("utf-8")
    return wordlist_entries(text.splitlines())


@functools.cache
def default_python_keep_list() -> frozenset[str]:
    """Keywords plus common builtins that survive identifier replacement."""
    return load_wordlist_resource("python_keep_list.txt")


def load_keep_list(path) -> frozenset[str]:
    """Load a keep-list file: one token per line, '#' comments ignored."""
    with open(path, encoding="utf-8-sig") as f:
        return wordlist_entries(f)


# Maximal-munch operator table. ">>>" is not a Python operator but marks a
# console prompt and is predictive, so it is lexed as a single token.
_PY_OPERATORS = sorted(
    [
        ">>>", "**=", "//=", ">>=", "<<=", "...", "!=", ">=", "<=", "==",
        "->", ":=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "@=",
        "**", "//", "<<", ">>", "+", "-", "*", "/", "%", "@", "<", ">",
        "&", "|", "^", "~", "=", ",", ":", ".", ";", "(", ")", "[", "]",
        "{", "}",
    ],
    key=len,
    reverse=True,
)

# One token per match, alternatives tried in order. A string prefix is at
# most three of rRbBuUfF, so "rrrr'x'" is a name and then a string. Names
# start with a letter or "_", so "0xG" is a number and then a name.
_PY_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\f]+)
    | \#(?P<comment>.*)                               # kept as "#" + words
    | (?P<continuation>\\\s*\Z)                       # explicit line joining
    | (?P<triple>[rRbBuUfF]{0,3}(?:'{3}.*?'{3}|"{3}.*?"{3}))
    | (?P<open>[rRbBuUfF]{0,3}(?P<delim>'{3}|"{3}))   # closes on a later line
    | (?P<string>[rRbBuUfF]{0,3}(?:'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"))
    | (?P<name>[^\W\d]\w*)
    | (?P<number>0[xX][0-9a-fA-F_]+|0[oO][0-7_]+|0[bB][01_]+
        |(?:\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(?:[eE][+-]?\d[\d_]*)?[jJ]?)
    | (?P<op>"""
    + "|".join(re.escape(op) for op in _PY_OPERATORS)
    + r""")
    | (?P<other>.)                                    # the line is not Python
    """,
    re.VERBOSE | re.DOTALL,
)


def normalize_python(code: str, keep: frozenset[str] | None = None) -> TokenStream:
    """Normalize a Python snippet, parsable or not.

    Identifiers become VAR unless on the keep-list, numeric literals NUMBER,
    string literals STRING; keywords, operators and ">>>" prompts survive
    verbatim. Lines that ``_PY_TOKEN`` cannot cover are word/punct split.
    """
    if keep is None:
        keep = default_python_keep_list()
    tokens: list[str] = []
    delim: str | None = None  # the quotes of a triple-quoted string left open
    for line in code.splitlines():
        start = 0
        line_tokens: list[str] = []
        if delim is not None:
            end = line.find(delim)
            if end < 0:
                continue
            line_tokens.append(STRING_TOKEN)
            start, delim = end + 3, None
        for m in _PY_TOKEN.finditer(line, start):
            kind = m.lastgroup
            if kind == "name":
                line_tokens.append(m[0] if m[0] in keep else VAR_TOKEN)
            elif kind == "op":
                line_tokens.append(m[0])
            elif kind == "number":
                line_tokens.append(NUMBER_TOKEN)
            elif kind == "string" or kind == "triple":
                line_tokens.append(STRING_TOKEN)
            elif kind == "comment":
                line_tokens.append("#")
                line_tokens.extend(wordpunct(m["comment"]))
            elif kind == "open":
                delim = m["delim"]  # STRING is emitted once it closes
                break
            elif kind == "other":
                line_tokens = wordpunct(line)
                break
        tokens.extend(line_tokens)
    return TokenStream(tokens, count_lines(code))


# --------------------------------------------------------------------------
# SQL normalization
# --------------------------------------------------------------------------

SQL_KEYWORDS = frozenset(
    """
    select from where join inner outer left right full cross on and or not
    null is in like between exists group by order having limit offset union
    all distinct as insert into values update set delete create drop alter
    table view index primary key foreign references unique default check
    constraint case when then else end if begin commit rollback declare
    asc desc count sum avg min max abs round coalesce nvl ifnull nullif
    cast convert substring substr concat trim upper lower length replace
    char varchar nvarchar text int integer bigint smallint decimal numeric
    float real double date datetime timestamp time year month day now
    current_date current_time current_timestamp interval top rownum
    with recursive over partition row_number rank dense_rank first last
    using natural having any some except intersect fetch next only rows row
    procedure function trigger grant revoke truncate add column modify
    auto_increment identity serial true false unknown escape collate
    """.split()
)

# Identifiers seen right after these keywords (through commas, dots, and AS
# aliases) are table names; everything else is a column name.
_TABLE_CONTEXT = frozenset({"from", "join", "into", "update", "table"})
_TABLE_CONTEXT_KEEPERS = frozenset({",", ".", "as"})

_SQL_TOKEN_RE = re.compile(
    r"""
      --[^\n]*                       # line comment
    | /\*.*?(?:\*/|\Z)               # block comment
    | '(?:[^']|'')*'(?!')            # string literal, '' escape
    | "[^"\n]*"                      # quoted identifier
    | `[^`\n]*`                      # quoted identifier (MySQL)
    | \[[^\]\n]*\]                   # quoted identifier (T-SQL)
    | (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?
    | [A-Za-z_][\w$#]*
    | <> | != | >= | <= | \|\| | :=
    | [^\w\s]
    """,
    re.VERBOSE | re.DOTALL,
)


def normalize_sql(code: str) -> TokenStream:
    """Normalize a SQL snippet.

    Keywords are lowercased and kept; table/column identifiers become
    tab0, tab1, ... / col0, col1, ... numbered by first occurrence, so a
    repeated name always reuses its placeholder. Literals become
    STRING/NUMBER. Never raises.
    """
    tokens: list[str] = []
    placeholders: dict[str, str] = {}
    counts = {"tab": 0, "col": 0}
    in_table = False

    def name_token(raw: str) -> str:
        nonlocal in_table
        key = raw.lower()
        if key not in placeholders:
            kind = "tab" if in_table else "col"
            placeholders[key] = f"{kind}{counts[kind]}"
            counts[kind] += 1
        return placeholders[key]

    for m in _SQL_TOKEN_RE.finditer(code):
        t = m.group(0)
        if t.startswith("--") or t.startswith("/*"):
            continue
        if t.startswith("'"):
            tokens.append(STRING_TOKEN)
            in_table = False
            continue
        if t[0] in '"`[':
            tokens.append(name_token(t[1:-1].strip() or t))
            continue
        if t[0].isdigit() or (t[0] == "." and len(t) > 1 and t[1].isdigit()):
            tokens.append(NUMBER_TOKEN)
            in_table = False
            continue
        if t[0].isalpha() or t[0] == "_":
            low = t.lower()
            if low in SQL_KEYWORDS:
                tokens.append(low)
                if low in _TABLE_CONTEXT:
                    in_table = True
                elif low not in _TABLE_CONTEXT_KEEPERS:
                    in_table = False
            else:
                tokens.append(name_token(t))
            continue
        tokens.append(t)
        if t not in _TABLE_CONTEXT_KEEPERS:
            in_table = False
    return TokenStream(tokens, count_lines(code))


def normalize_code(
    code: str, language: Language, keep: frozenset[str] | None = None
) -> TokenStream:
    """Normalize a snippet of ``language``; ``keep`` is the Python keep-list
    (None: the packaged one)."""
    if language is Language.PYTHON:
        return normalize_python(code, keep)
    return normalize_sql(code)


# Names the behaviour of tokenize_text, normalize_python and normalize_sql.
# Change it whenever their output changes, so checkpoints trained on the old
# tokens are refused instead of silently reading <unk>s.
NORMALIZER_VERSION = "qcmine-tokenize-1"


@dataclass(frozen=True)
class Tokenizer:
    """How code blocks are tokenized: the code language and, for Python,
    the identifiers that survive VAR replacement (None: the packaged
    keep-list). Every reader, trainer and miner of one dataset shares one."""

    language: Language = Language.PYTHON
    keep: frozenset[str] | None = None

    def fingerprint(self) -> dict:
        """What a checkpoint records of this tokenizer: the language, the
        normalizer version and, for Python only, the sha256 of the keep-list
        in effect (the packaged one when ``keep`` is None). No other
        language reads a keep-list, so its record names none."""
        record = {"language": self.language.value}
        if self.language is Language.PYTHON:
            keep = default_python_keep_list() if self.keep is None else self.keep
            record["keep_sha256"] = hashlib.sha256("\n".join(sorted(keep)).encode()).hexdigest()
        return {**record, "normalizer": NORMALIZER_VERSION}
