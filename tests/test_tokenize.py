import string

from hypothesis import given, settings
from hypothesis import strategies as st

from qcmine.post_parser import extract_instances, parse_answer_post, tokenize_sequence
from qcmine.tokenize import (
    Language,
    Tokenizer,
    load_keep_list,
    normalize_code,
    normalize_python,
    normalize_sql,
    tokenize_text,
)


class TestTokenizeText:
    def test_word_punct_split(self):
        assert tokenize_text("Try this:").tokens == ["try", "this", ":"]

    def test_empty(self):
        assert tokenize_text("").tokens == []

    def test_symbol_run_stays_together(self):
        assert tokenize_text("you can do...").tokens == ["you", "can", "do", "..."]

    def test_lowercased(self):
        assert tokenize_text("CamelCase To snake_case").tokens == [
            "camelcase", "to", "snake_case",
        ]


class TestNormalizePython:
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
    assert tokenize_text("a").language is Language.TEXT
    assert normalize_python("a").language is Language.PYTHON
    assert normalize_sql("select 1").language is Language.SQL


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
