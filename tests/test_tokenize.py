import hashlib
import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmine.post_parser import extract_instances, parse_answer_post, tokenize_sequence
from qcmine.tokenize import (
    NORMALIZER_VERSION,
    Language,
    Tokenizer,
    default_python_keep_list,
    load_keep_list,
    normalize_code,
    normalize_python,
    normalize_sql,
    tokenize_text,
    wordpunct,
    wordpunct_count,
)


class TestTokenizeText:
    def test_word_punct_split(self):
        assert tokenize_text("Try this:").tokens == ["try", "this", ":"]

    def test_empty(self):
        assert tokenize_text("").tokens == []

    def test_symbol_run_stays_together(self):
        assert tokenize_text("you can do...").tokens == ["you", "can", "do", "..."]

    def test_no_line_count(self):
        # n_lines serves the code-shape features only
        assert tokenize_text("one\ntwo").n_lines == 0

    def test_lowercased(self):
        assert tokenize_text("CamelCase To snake_case").tokens == [
            "camelcase", "to", "snake_case",
        ]


# Where the ASCII class table of wordpunct_count could part from the regex:
# ASCII whitespace other than " \t\n\r", "_" and digits as word characters,
# control characters, and text that is not ASCII, which takes the regex.
WORDPUNCT_COUNT_ROWS = [
    "", " ", "\x0b", "a\x0bb", "a\x0cb", "a\x1cb\x1dc\x1ed\x1fe", "x\x85y", "x\xa0y", "_", "__init__",
    "a_b-c", "0123", "x1 2y", "3.14", "é", "naïve café", "名前=1", "...", "a..b", "\x00\x7f",
]


class TestWordpunctCount:
    @pytest.mark.parametrize("s", WORDPUNCT_COUNT_ROWS)
    def test_rows(self, s):
        assert wordpunct_count(s) == len(wordpunct(s))

    @given(st.text() | st.text(st.characters(max_codepoint=127)))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_token_count(self, s):
        assert wordpunct_count(s) == len(wordpunct(s))


# One row per alternative of tokenize._PY_TOKEN, in its order, and per edge
# case that the order or a detail of an alternative decides. Each row fails
# under at least one of these mutants of the regex: single-quoted strings
# tried before triple-quoted ones, names before strings, operators before
# numbers, operators shortest first; no space, comment, continuation,
# open-triple or catch-all alternative; no escapes in single-quoted strings;
# a prefix of up to four letters; "\s" for "[ \t\f]" in spaces; "[ \t]" for
# "\s" after a continuation; ASCII-only names; hex digits that take any
# letter; no imaginary suffix.
PYTHON_TOKEN_RULES = [
    ("space", "x\t=  1", ["VAR", "=", "NUMBER"]),
    ("comment", "x = 1  # Set X, twice", ["VAR", "=", "NUMBER", "#", "Set", "X", ",", "twice"]),
    ("comment_only", "#!", ["#", "!"]),
    ("continuation", "f(a, \\\n  b)", ["VAR", "(", "VAR", ",", "VAR", ")"]),
    ("continuation_unicode_space", "x = \\\xa0\n1", ["VAR", "=", "NUMBER"]),
    ("triple", "s = '''a ' b''' + 1", ["VAR", "=", "STRING", "+", "NUMBER"]),
    ("triple_prefixed", 'x = rb"""a"""', ["VAR", "=", "STRING"]),
    ("open", "s = '''one\n\ntwo'''.strip()", ["VAR", "=", "STRING", ".", "VAR", "(", ")"]),
    ("open_hides_lines", 'x = """doc\n$ not code\n""" + y', ["VAR", "=", "STRING", "+", "VAR"]),
    ("open_never_closed", "s = '''never closed\nx = 1", ["VAR", "="]),
    ("open_closes_then_falls_back", "s = '''a\nb''' $", ["VAR", "=", "b", "'''", "$"]),
    ("string_escapes", r"""a = 'it\'s' + "q\"" + ''""", ["VAR", "=", "STRING", "+", "STRING", "+", "STRING"]),
    ("string_prefix", "print(f'{x}', rrr'x')", ["print", "(", "STRING", ",", "STRING", ")"]),
    ("string_prefix_too_long", "rrrr'x'", ["VAR", "STRING"]),
    ("name", "print(é_1, _a)", ["print", "(", "VAR", ",", "VAR", ")"]),
    ("number", "1_0 + 0o17 + 0b1 + 1E5J", ["NUMBER", "+", "NUMBER", "+", "NUMBER", "+", "NUMBER"]),
    ("number_then_name", "x = 0xG", ["VAR", "=", "NUMBER", "VAR"]),
    ("number_number", "1..2", ["NUMBER", "NUMBER"]),
    ("op", ">>> x **= y->z ... a>>b", [">>>", "VAR", "**=", "VAR", "->", "VAR", "...", "VAR", ">>", "VAR"]),
    ("other", "x = y ? 1 : 2", ["x", "=", "y", "?", "1", ":", "2"]),
    ("other_unicode_space", "a\xa0= 1", ["a", "=", "1"]),
    ("other_unterminated", "a = 'unterminated", ["a", "=", "'", "unterminated"]),
    ("other_escaped_end", "a = 'x\\", ["a", "=", "'", "x", "\\"]),
]


def _digest_corpus() -> list[str]:
    """The rule rows plus 20,000 seeded random lines, in snippets of one to
    four lines so that a triple quote can stay open across lines. The
    alphabet keeps to characters whose Unicode properties have not changed
    across the supported Python versions."""
    alphabet = [
        "'", '"', "'''", '"""', "\\", "#", " ", "\t", "x", "y1", "_a", "é", "名", "٣", "\xa0", "\x1c",
        "r", "b", "f", "rb", "rrr", "rrrr", "0", "1", "0x", "0xG", "1e5", ".5", "e", "j", "+", "-", ".", "...",
        ">>>", "->", "**=", "=", "==", "(", ")", "[", "]", ",", ":", "$", "?", "`", "--", "/*", "*/",
        "print", "def", "SELECT", "from", "t", "AS", "[n]", "\r\n",
    ]
    rng = random.Random(0)
    lines = [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(24))) for _ in range(20_000)
    ]
    corpus = [code for _, code, _ in PYTHON_TOKEN_RULES]
    i = 0
    while i < len(lines):
        k = rng.randrange(1, 5)
        corpus.append("\n".join(lines[i : i + k]))
        i += k
    return corpus


# The sha256 of every normalizer's tokens over _digest_corpus(), by
# NORMALIZER_VERSION. Checkpoints record that version; one string must
# always name the same tokens.
TOKEN_DIGESTS = {"qcmine-tokenize-1": "8c9db5d4a69edf812841e9b12165b33574dd66ce02137293523ebdb6a7e2f718"}


def test_normalizer_version_pins_the_tokens():
    digest = hashlib.sha256()
    for code in _digest_corpus():
        for normalize in (normalize_python, normalize_sql, tokenize_text):
            digest.update(json.dumps(normalize(code).tokens).encode() + b"\n")
    assert TOKEN_DIGESTS.get(NORMALIZER_VERSION) == digest.hexdigest(), (
        f"the tokens changed: bump NORMALIZER_VERSION ({NORMALIZER_VERSION}) and "
        f"record {digest.hexdigest()} under the new version in TOKEN_DIGESTS"
    )


class TestNormalizePython:
    @pytest.mark.parametrize(
        "code, expected", [row[1:] for row in PYTHON_TOKEN_RULES], ids=[row[0] for row in PYTHON_TOKEN_RULES]
    )
    def test_token_rules(self, code, expected):
        assert normalize_python(code).tokens == expected

    def test_identifier_number(self):
        assert normalize_python("x = 1").tokens == ["VAR", "=", "NUMBER"]

    def test_keep_list_builtin(self):
        assert normalize_python("print('hi')").tokens == ["print", "(", "STRING", ")"]

    def test_console_prompt_kept(self):
        assert normalize_python(">>> f(2)").tokens == [">>>", "VAR", "(", "NUMBER", ")"]

    def test_keywords_survive(self):
        assert normalize_python("def f(a):\n    return a").tokens == [
            "def", "VAR", "(", "VAR", ")", ":", "return", "VAR",
        ]

    def test_string_variants(self):
        assert normalize_python("a = r'x' + \"y\"").tokens == [
            "VAR", "=", "STRING", "+", "STRING",
        ]

    def test_triple_quote_spans_lines(self):
        toks = normalize_python('s = """one\ntwo\nthree"""')
        assert toks.tokens == ["VAR", "=", "STRING"]

    def test_unlexable_line_falls_back(self):
        # '$' defeats the lexer; the line is word/punct split instead
        toks = normalize_python("cost = 1\n$ pip install foo")
        assert toks.tokens == ["VAR", "=", "NUMBER", "$", "pip", "install", "foo"]

    def test_number_forms(self):
        assert normalize_python("0xFF + 1.5e-3 + .5j").tokens == [
            "NUMBER", "+", "NUMBER", "+", "NUMBER",
        ]

    def test_empty(self):
        assert normalize_python("").tokens == []

    def test_line_count(self):
        assert normalize_python("a = 1\n\nb = 2").n_lines == 2

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_total_on_arbitrary_text(self, text):
        stream = normalize_python(text)
        for tok in stream.tokens:
            assert tok
            assert not any(c.isspace() for c in tok)

    @given(st.binary(max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_total_on_random_bytes(self, blob):
        stream = normalize_python(blob.decode("latin-1"))
        assert all(t and not any(c.isspace() for c in t) for t in stream.tokens)

    @given(st.text(alphabet=string.printable, max_size=150))
    @settings(max_examples=150, deadline=None)
    def test_idempotent_token_stream(self, text):
        assert normalize_python(text).tokens == normalize_python(text).tokens


class TestNormalizeSql:
    def test_table_and_column(self):
        assert normalize_sql("SELECT name FROM users").tokens == [
            "select", "col0", "from", "tab0",
        ]

    def test_repeated_identifier_shares_placeholder(self):
        assert normalize_sql("SELECT a, a FROM t").tokens == [
            "select", "col0", ",", "col0", "from", "tab0",
        ]

    def test_empty(self):
        assert normalize_sql("").tokens == []

    def test_join_tables_numbered(self):
        # 'u' is first seen in column position (u.name) and keeps that
        # placeholder everywhere; both joined tables get tab numbering
        toks = normalize_sql("SELECT u.name FROM users u JOIN orders o ON u.id = o.uid")
        assert toks.tokens == [
            "select", "col0", ".", "col1", "from", "tab0", "col0",
            "join", "tab1", "tab2", "on", "col0", ".", "col2", "=",
            "tab2", ".", "col3",
        ]

    def test_alias_reuses_placeholder(self):
        toks = normalize_sql("SELECT name FROM users WHERE users.id = 1")
        # 'users' appears twice and keeps one placeholder
        assert toks.tokens.count("tab0") == 2

    def test_literals(self):
        assert normalize_sql("SELECT * FROM t WHERE a = 'x' AND b = 42").tokens == [
            "select", "*", "from", "tab0", "where", "col0", "=", "STRING",
            "and", "col1", "=", "NUMBER",
        ]

    def test_case_insensitive_sharing(self):
        toks = normalize_sql("SELECT Name FROM t WHERE NAME = 'x'")
        assert toks.tokens.count("col0") == 2

    def test_numbering_deterministic(self):
        sql = "SELECT a, b FROM t1 JOIN t2 ON t1.x = t2.y"
        assert normalize_sql(sql).tokens == normalize_sql(sql).tokens

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_total(self, text):
        stream = normalize_sql(text)
        for tok in stream.tokens:
            assert tok
            assert not any(c.isspace() for c in tok)


def test_normalization_collapses_identifier_diversity():
    # many distinct identifiers collapse onto VAR/NUMBER/STRING
    snippets = [f"alpha_{i} = {i} + beta_{i}" for i in range(30)]
    before = {t for s in snippets for t in s.replace("=", " = ").split()}
    after = {t for s in snippets for t in normalize_python(s).tokens}
    assert len(after) < len(before)
    assert after == {"VAR", "=", "NUMBER", "+"}


def test_language_tagging():
    assert normalize_code("a = 1", Language.PYTHON) == normalize_python("a = 1")
    assert normalize_code("select a", Language.SQL) == normalize_sql("select a")


def test_keep_list_override(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("# comment\nfoo\n\nbar\n")
    keep = load_keep_list(path)
    assert keep == {"foo", "bar"}
    assert normalize_python("foo = baz", keep=keep).tokens == ["foo", "=", "VAR"]
    assert normalize_code("foo(print)", Language.PYTHON, keep).tokens == ["foo", "(", "VAR", ")"]
    assert normalize_code("foo(print)", Language.PYTHON).tokens == ["VAR", "(", "print", ")"]
    # a Tokenizer carries the keep-list to both block-tokenizing paths
    html = "<p>Try</p><pre><code>foo(print)</code></pre>"
    custom = Tokenizer(Language.PYTHON, keep)
    lazy = extract_instances("t", parse_answer_post(html), None, custom)
    eager = extract_instances("t", tokenize_sequence(parse_answer_post(html), custom), None)
    assert lazy[0].code_tokens == eager[0].code_tokens == ["foo", "(", "VAR", ")"]
    default = extract_instances("t", parse_answer_post(html), None, Tokenizer())
    assert default[0].code_tokens == ["VAR", "(", "print", ")"]


def test_keep_list_with_bom(tmp_path):
    """A leading byte order mark is not part of the first entry, so the
    entry is kept and the tokenizer fingerprint is that of the same list
    without the mark."""
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text("sorted\nfoo\n", encoding="utf-8")
    bom.write_text("sorted\nfoo\n", encoding="utf-8-sig")
    keep = load_keep_list(bom)
    assert keep == load_keep_list(plain) == {"sorted", "foo"}
    assert normalize_python("sorted(x)", keep=keep).tokens == ["sorted", "(", "VAR", ")"]
    assert Tokenizer(Language.PYTHON, keep).fingerprint() == (
        Tokenizer(Language.PYTHON, load_keep_list(plain)).fingerprint()
    )


class TestFingerprint:
    def test_sql_records_no_keep_list(self):
        expected = {"language": "sql", "normalizer": NORMALIZER_VERSION}
        assert Tokenizer(Language.SQL).fingerprint() == expected
        assert Tokenizer(Language.SQL, frozenset({"print"})).fingerprint() == expected

    @pytest.mark.parametrize("keep", [None, frozenset({"print", "compute"})], ids=["packaged", "custom"])
    def test_python_record_unchanged(self, keep):
        """Key for key and byte for byte, so Python checkpoints, bundles and
        their config hashes stay valid."""
        listed = default_python_keep_list() if keep is None else keep
        sha = hashlib.sha256("\n".join(sorted(listed)).encode()).hexdigest()
        expected = {"language": "python", "keep_sha256": sha, "normalizer": NORMALIZER_VERSION}
        assert json.dumps(Tokenizer(Language.PYTHON, keep).fingerprint()) == json.dumps(expected)
