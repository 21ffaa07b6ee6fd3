import random

import pytest

from helpers import random_post
from qcmine.post_parser import (
    BlockKind,
    EmptyPost,
    PositionMismatch,
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
