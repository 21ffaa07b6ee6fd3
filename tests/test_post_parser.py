import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_post
from qcmine import cli
from qcmine.cli import _parse_or_empty
from qcmine.post_parser import (
    BlockKind,
    BlockSequence,
    EmptyPost,
    PositionMismatch,
    _PostHTMLParser,
    _segment,
    extract_instances,
    parse_answer_post,
    tokenize_sequence,
)
from qcmine.tokenize import Language, Tokenizer


def kinds(seq):
    return [b.kind for b in seq.blocks]


def raws(seq):
    return [(b.kind.value, b.raw) for b in seq.blocks]


class TestParseAnswerPost:
    def test_text_then_code_gets_trailing_dummy(self):
        seq = parse_answer_post("<p>Try:</p><pre><code>x=1</code></pre>")
        assert raws(seq) == [("text", "Try:"), ("code", "x=1"), ("text", "")]

    def test_adjacent_code_blocks_get_dummies(self):
        seq = parse_answer_post("<pre><code>a</code></pre><pre><code>b</code></pre>")
        assert raws(seq) == [
            ("text", ""), ("code", "a"), ("text", ""), ("code", "b"), ("text", ""),
        ]

    def test_prose_only(self):
        seq = parse_answer_post("<p>only prose</p>")
        assert raws(seq) == [("text", "only prose")]

    def test_empty_post_raises(self):
        with pytest.raises(EmptyPost):
            parse_answer_post("")
        with pytest.raises(EmptyPost):
            parse_answer_post("<p>   </p>")

    def test_entities_decoded(self):
        seq = parse_answer_post("<pre><code>if a &gt; b:&#10;    pass</code></pre>")
        assert seq.blocks[1].raw == "if a > b:\n    pass"

    def test_entities_decoded_once_after_fallback(self):
        seq = parse_answer_post("<!-- c --><p>&amp;lt; &amp;amp;</p><pre><code>a &amp;gt; b</code></pre>")
        assert raws(seq) == [("text", "&lt; &amp;"), ("code", "a &gt; b"), ("text", "")]

    def test_inline_code_stays_in_text(self):
        seq = parse_answer_post("<p>Use <code>dict.get</code> here</p>")
        assert raws(seq) == [("text", "Use dict.get here")]

    def test_paragraphs_merge_with_newlines(self):
        seq = parse_answer_post(
            "<p>first</p><p>second</p><pre><code>c()</code></pre><p>third</p>"
        )
        assert raws(seq) == [
            ("text", "first\nsecond"), ("code", "c()"), ("text", "third"),
        ]

    def test_blockquote_and_heading_are_text(self):
        seq = parse_answer_post("<h2>Note</h2><blockquote><p>careful</p></blockquote>")
        assert kinds(seq) == [BlockKind.TEXT]
        assert seq.blocks[0].raw == "Note\ncareful"

    def test_pre_inside_blockquote_is_text(self):
        seq = parse_answer_post(
            "<blockquote><pre><code>quoted()</code></pre></blockquote><pre><code>real()</code></pre>"
        )
        assert kinds(seq) == [BlockKind.TEXT, BlockKind.CODE, BlockKind.TEXT]
        assert seq.blocks[1].raw == "real()"
        assert "quoted()" in seq.blocks[0].raw

    def test_unclosed_paragraph_tolerated(self):
        seq = parse_answer_post("<p>try this<pre><code>x=1</code></pre>")
        assert raws(seq) == [("text", "try this"), ("code", "x=1"), ("text", "")]

    def test_whitespace_only_code_dropped(self):
        seq = parse_answer_post("<p>a</p><pre><code>   \n  </code></pre><p>b</p>")
        assert kinds(seq) == [BlockKind.TEXT]
        assert seq.blocks[0].raw == "a\nb"

    def test_lists_are_text(self):
        seq = parse_answer_post("<ul><li>one</li><li>two</li></ul>")
        assert raws(seq) == [("text", "one\ntwo")]


class TestExtractInstances:
    def test_four_code_blocks_four_instances(self):
        html = "".join(
            f"<p>s{i}</p><pre><code>c{i} = {i}</code></pre>" for i in range(1, 5)
        )
        seq = parse_answer_post(html)
        insts = extract_instances("Elegant conversion?", seq)
        assert len(insts) == 4
        assert [i.position for i in insts] == [1, 2, 3, 4]
        assert insts[1].pre_tokens == ["s2"]
        assert insts[1].post_tokens == ["s3"]

    def test_dummy_contexts_are_empty(self):
        seq = parse_answer_post("<pre><code>a = 1</code></pre>")
        insts = extract_instances("t", seq)
        assert len(insts) == 1
        assert insts[0].pre_tokens == []
        assert insts[0].post_tokens == []
        assert insts[0].code_tokens == ["VAR", "=", "NUMBER"]

    def test_partial_labels(self):
        html = "".join(f"<pre><code>c{i} = {i}</code></pre>" for i in range(1, 6))
        seq = parse_answer_post(html)
        insts = extract_instances("t", seq, labels={1: 1, 2: 1, 4: 1, 5: 1})
        assert [i.label for i in insts] == [1, 1, None, 1, 1]

    def test_position_mismatch(self):
        seq = parse_answer_post("<pre><code>a=1</code></pre>")
        with pytest.raises(PositionMismatch):
            extract_instances("t", seq, labels={2: 1})

    def test_question_tokens_lowercased(self):
        seq = parse_answer_post("<pre><code>a=1</code></pre>")
        insts = extract_instances("How To Sort?", seq)
        assert insts[0].question_tokens == ["how", "to", "sort", "?"]

    def test_uses_pretokenized_blocks(self):
        seq = parse_answer_post("<p>Try</p><pre><code>SELECT a FROM t</code></pre>")
        tokenize_sequence(seq, Tokenizer(Language.SQL))
        insts = extract_instances("t", seq, tokenizer=Tokenizer(Language.SQL))
        assert insts[0].code_tokens == ["select", "col0", "from", "tab0"]


class TestProperties:
    def test_alternation_and_counts_on_fuzzed_posts(self):
        rng = random.Random(20240817)
        for _ in range(200):
            html, visible, n_code = random_post(rng)
            try:
                seq = parse_answer_post(html)
            except EmptyPost:
                assert not visible.strip()
                continue
            ks = kinds(seq)
            assert ks[0] is BlockKind.TEXT
            assert ks[-1] is BlockKind.TEXT
            for a, b in zip(ks, ks[1:]):
                assert a is not b, f"adjacent {a} blocks in {html!r}"
            code_blocks = [b for b in seq.blocks if b.kind is BlockKind.CODE]
            assert len(code_blocks) == n_code
            text_blocks = [b for b in seq.blocks if b.kind is BlockKind.TEXT]
            assert len(text_blocks) == max(len(code_blocks) + 1, 1)
            insts = extract_instances("how to q", seq)
            assert len(insts) == len(code_blocks)
            for inst in insts:
                assert inst.code_tokens

    def test_visible_text_round_trip(self):
        rng = random.Random(99)
        for _ in range(200):
            html, visible, _ = random_post(rng)
            try:
                seq = parse_answer_post(html)
            except EmptyPost:
                continue
            reconstructed = " ".join(" ".join(b.raw for b in seq.blocks).split())
            assert reconstructed == visible


# --------------------------------------------------------------------------
# The regex scanner against html.parser
# --------------------------------------------------------------------------


def stdlib_outcome(html):
    """Blocks of html.parser driving the segmenter's handlers directly."""
    parser = _PostHTMLParser()
    parser.feed(html)
    parser.close()
    return [(b.kind, b.raw) for b in _segment(parser.tokens, False)] or "EmptyPost"


def outcome(html):
    try:
        return [(b.kind, b.raw) for b in parse_answer_post(html).blocks]
    except EmptyPost:
        return "EmptyPost"


TEXT_RUNS = st.sampled_from([
    "x", "two words", " ", "\n", "\t", "def f():\n    return 1", "a > b", "é\xa0ü",
    "&amp;", "&lt;", "&gt", "&#39;", "&#x27", "&#10;", "&nbsp;", "&copy", "&bogus;", "&", "&amp",
])
VOID_TAGS = st.sampled_from([
    "<br>", "<br/>", "<br />", "<BR>", "<Br/>", "<hr>", "<img src='a.png' alt=\"b\"/>",
    "<a href=x/>", "<a href=x />", "<p/>", "<PRE />", "<pre class=x/>", "<li id='a'/>",
])
# Each leaves the scanner's subset, so the whole post goes to html.parser.
FALLBACK_TRIGGERS = {
    "comment": "<!-- note -->",
    "declaration": "<!DOCTYPE html>",
    "processing_instruction": "<?xml version='1.0'?>",
    "cdata": "<![CDATA[x]]>",
    "space_after_end_slash": "</ p>",
    "empty_end_tag": "</>",
    "bare_lt": "a < b",
    "lt_gt": "<>",
    "unclosed_at_end": "<pre",
    "script": "<script>if (a<b) {}</script>",
    "style": "<STYLE>p > a {}</STYLE>",
    "escapable_raw_text": "<TEXTAREA><p>x</p></TEXTAREA>",
    "gt_in_quoted_value": '<a title="x>y">',
    "lt_in_quoted_value": "<a title='<'>",
    "space_after_end_name": "</p >",
    "attribute_in_end_tag": "</a href=x>",
}
TAG_NAMES = st.sampled_from(
    ["p", "P", "pre", "PRE", "code", "CODE", "li", "ul", "ol", "blockquote", "h2", "div", "span", "a", "em"]
)
ATTRIBUTES = st.sampled_from(
    ["", ' class="lang-py prettyprint-override"', " href='x.html'", " id=a1", ' a = "b" c', " href=x/"]
)


def _element(children):
    """A (possibly unclosed) element around ``children``, or a code block."""
    body = st.lists(children, max_size=4).map("".join)
    tag = st.builds(
        lambda name, attrs, inner, closed: f"<{name}{attrs}>{inner}" + (f"</{name}>" if closed else ""),
        TAG_NAMES, ATTRIBUTES, body, st.booleans(),
    )
    return tag | body.map("<pre><code>{}</code></pre>".format)


SUBSET_POSTS = st.lists(st.recursive(TEXT_RUNS | VOID_TAGS, _element, max_leaves=24), max_size=6).map("".join)
# About half the posts stay in the subset; the rest get one fallback
# trigger spliced in at any character, possibly inside a tag.
POSTS = st.builds(
    lambda post, trigger, at: post[:at] + trigger + post[at:],
    SUBSET_POSTS,
    st.just("") | st.sampled_from(sorted(FALLBACK_TRIGGERS.values())),
    st.integers(0, 400),
)


class TestScanner:
    @given(POSTS)
    @settings(max_examples=400, deadline=None)
    def test_matches_html_parser(self, html):
        assert outcome(html) == stdlib_outcome(html)

    @pytest.fixture
    def fed(self, monkeypatch):
        """The documents handed to html.parser while the test runs."""
        fed, feed = [], _PostHTMLParser.feed

        def counting(self, data):
            fed.append(data)
            return feed(self, data)

        monkeypatch.setattr(_PostHTMLParser, "feed", counting)
        return fed

    def test_subset_post_skips_html_parser(self, fed):
        html = (
            "<P class='x'>Try &amp;&copy <code>a&lt;b</code><br/>then<BR />this:</p>"
            '<pre class="lang-py"><code>if a &gt; b:&#10;    pass\n</code></pre>'
            "<ul><li>one<li>two</ul><pre>bare</pre><blockquote><pre><code>q()</code></pre>"
            "<p/>closed<PRE />open"
        )
        got = outcome(html)
        assert fed == []
        assert got == stdlib_outcome(html)
        assert got[1] == (BlockKind.CODE, "if a > b:\n    pass")

    @pytest.mark.parametrize("tail", ["<pre><code>y = 1</code></pre><p>after", ""], ids=["inside", "at_end"])
    @pytest.mark.parametrize("trigger", FALLBACK_TRIGGERS.values(), ids=FALLBACK_TRIGGERS.keys())
    def test_fallback_trigger_runs_html_parser(self, trigger, tail, fed):
        html = f"<p>before <code>x</code></p>{trigger}{tail}"
        got = outcome(html)
        assert fed == [html]
        assert got == stdlib_outcome(html)


def prose_free_outcome(html):
    """``outcome`` of the prose-free parse."""
    try:
        return [(b.kind, b.raw) for b in parse_answer_post(html, prose=False).blocks]
    except EmptyPost:
        return "EmptyPost"


def without_prose(got):
    """A full parse's outcome with every Text block emptied."""
    return got if got == "EmptyPost" else [(k, r if k is BlockKind.CODE else "") for k, r in got]


class TestProseFree:
    """Without prose, a parse keeps the same blocks, code raws and EmptyPost
    bodies as the full parse; only the Text blocks are left empty."""

    @given(POSTS)
    @settings(max_examples=400, deadline=None)
    def test_matches_full_parse(self, html):
        assert prose_free_outcome(html) == without_prose(outcome(html))

    @pytest.mark.parametrize(
        "tail", ["<pre><code>y = 1</code></pre><p>after", "<pre>bare</pre>", ""],
        ids=["code", "bare_pre", "at_end"],
    )
    @pytest.mark.parametrize("head", ["<p>before <code>x</code></p>", ""], ids=["prose", "alone"])
    @pytest.mark.parametrize("trigger", FALLBACK_TRIGGERS.values(), ids=FALLBACK_TRIGGERS.keys())
    def test_fallback_trigger(self, trigger, head, tail):
        html = f"{head}{trigger}{tail}"
        assert prose_free_outcome(html) == without_prose(outcome(html))

    @pytest.mark.parametrize("html", [
        "", " \n ", "&nbsp;", "<p> &#32; </p>", "<pre> </pre>", "<pre><code> \n</code></pre>",
        "<pre>unclosed", "<script>x</script>", "<p>&#65;</p>", "<pre>x</pre>",
    ])
    def test_visible_text_decides_empty_post(self, html):
        assert prose_free_outcome(html) == without_prose(outcome(html))


def code_outcome(seq):
    return [(b.kind, b.raw) for b in seq.code_blocks()]


def prose_free_code(html):
    """The code blocks of the prose-free parse; none on EmptyPost."""
    try:
        return code_outcome(parse_answer_post(html, prose=False))
    except EmptyPost:
        return []


class TestCodeFreeSkip:
    """``cli._parse_or_empty`` does not parse a post without "<pre" in any
    case; its code blocks are still those of the prose-free parse."""

    @given(POSTS)
    @settings(max_examples=400, deadline=None)
    def test_matches_prose_free_parse(self, html):
        assert code_outcome(_parse_or_empty(html, 0)) == prose_free_code(html)

    @pytest.mark.parametrize("html", [
        "<PRE><CODE>x = 1</CODE></PRE>", '<Pre class="x"><code>y()</code></Pre>',
        "<p>a</p><preview>b</preview>", "<preview><pre><code>z</code></pre></preview>",
        "<pre>no code element</pre>", "<!-- <pre><code>x</code></pre> -->",
        '<a title="<pre><code>x</code></pre>">t</a>', "&lt;pre&gt;<code>x</code>&lt;/pre&gt;",
        "< pre><code>x</code>", "<p>no tags that open a pre</p>", "", "<pre",
    ])
    def test_rows(self, html):
        assert code_outcome(_parse_or_empty(html, 0)) == prose_free_code(html)

    @pytest.mark.parametrize("tail", ["<pre><code>y = 1</code></pre>", ""], ids=["code", "alone"])
    @pytest.mark.parametrize("trigger", FALLBACK_TRIGGERS.values(), ids=FALLBACK_TRIGGERS.keys())
    def test_fallback_trigger(self, trigger, tail):
        html = f"<p>x</p>{trigger}{tail}"
        assert code_outcome(_parse_or_empty(html, 0)) == prose_free_code(html)

    def test_code_free_post_not_parsed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parsed")

        monkeypatch.setattr(cli, "parse_answer_post", refuse)
        for html in (None, "", "<p>x &lt;pre&gt;</p><code>y</code>", "< pre>"):
            assert _parse_or_empty(html, 7) == BlockSequence(7, [])
