"""Segmentation of answer-post HTML into alternating text/code blocks.

A code block is a top-level ``<pre><code>`` element; everything else
(paragraphs, lists, headings, blockquotes, inline ``<code>`` spans) is
prose. The resulting sequence strictly alternates Text, Code, ..., Text:
empty dummy text blocks are inserted wherever a code block starts the
post, ends it, or abuts another code block, so every code block has both
a pre- and a post-context. One rule function, ``_segment``, reads the
tags and text runs of a regex scanner; a post outside the scanner's subset
of HTML goes whole to html.parser, whose events become the same tuples.
A reader of code blocks only skips the prose (``prose=False``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from html import unescape
from html.parser import HTMLParser

from .tokenize import Tokenizer, TokenStream, normalize_code, tokenize_text, wordpunct


class EmptyPost(ValueError):
    """The post has no visible content at all."""


class PositionMismatch(ValueError):
    """A label refers to a code-block position the post does not have."""


class BlockKind(Enum):
    TEXT = "text"
    CODE = "code"


@dataclass
class Block:
    kind: BlockKind
    raw: str
    tokens: list[str] = field(default_factory=list)


@dataclass
class BlockSequence:
    question_id: int
    blocks: list[Block]

    def code_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.kind is BlockKind.CODE]


@dataclass
class CodeContextInstance:
    """One prediction unit: a code block with its question and contexts."""

    question_tokens: list[str]
    pre_tokens: list[str]
    code_tokens: list[str]
    post_tokens: list[str]
    position: int
    label: int | None = None
    raw_code: str = ""


# Tags that delimit paragraphs of prose. <div> and <span> are treated as
# transparent wrappers; Stack Overflow bodies rarely use them structurally.
_PARAGRAPH_TAGS = {
    "p", "li", "ul", "ol", "blockquote", "table", "tr", "dl", "dt", "dd",
    "h1", "h2", "h3", "h4", "h5", "h6",
}
_SKIP_TAGS = {"script", "style"}


# The scanner's subset of HTML, one token per match: a text run, an end tag
# with nothing after its name, a start tag whose quoted values hold no "<"
# or ">", or a bare "<" (which sends the post to html.parser). Names use
# html.parser's charset minus quotes and "<". An unquoted value keeps a
# trailing "/", as html.parser does, so only a separate "/" self-closes.
_WS = r"[\t\n\r\f ]"
_NAME = r"[a-zA-Z][^\t\n\r\f />\x00\"'<]*"
_ATTR = rf"""{_WS}+[^\s"'<>/=]+(?:{_WS}*={_WS}*(?:"[^"<>]*"|'[^'<>]*'|[^\s"'<>=]+))?"""
_TOKEN = re.compile(rf"([^<]+)|</({_NAME})>|<({_NAME})(?:{_ATTR})*{_WS}*(/?)>|<")
# Elements whose content html.parser reads as raw text (later releases add to script and style)
_RAW_TEXT_TAGS = _SKIP_TAGS | {"textarea", "title", "xmp", "iframe", "noembed", "noframes", "noscript"}


def _segment(tokens, scanned: bool, prose: bool = True) -> list[Block] | None:
    """The segmentation rules over ``(text, end, start, slash)`` tuples, each
    a text run or a tag that opens (``start``), closes (``end``) or opens
    and closes (``start`` and ``slash``) an element.

    ``scanned`` tuples come from ``_TOKEN``: their text is still escaped,
    their names keep their case, and a bare "<" or a raw-text element
    returns None. Without ``prose`` every text block is left empty: only
    the code blocks and whether any text is visible are worked out, which
    decide the block kinds and EmptyPost as the full parse does.
    """
    blocks: list[Block] = []
    containers: list[str] = []  # open paragraph elements
    paragraphs: list[str] = []  # prose since the last code block
    inline: list[str] = []  # text runs of the current paragraph; prose only
    visible = False  # without prose: some text outside code is visible
    pre: list[str] = []  # the content of the open top <pre>
    pre_depth = skip_depth = 0
    pre_has_code = pre_top_level = False

    def flush_inline():
        text = " ".join("".join(inline).split())
        if text:
            paragraphs.append(text)
        inline.clear()

    def take_text() -> str:
        if inline:
            flush_inline()
        text = "\n".join(paragraphs)
        paragraphs.clear()
        return text

    for text, end, start, slash in tokens:
        if text:
            # without prose, a run outside <pre> is read only until some
            # visible text is seen
            if skip_depth or not (pre_depth or prose or not visible):
                continue
            if scanned and "&" in text:
                text = unescape(text)
            if pre_depth:
                pre.append(text)
            elif prose:
                inline.append(text)
            elif not visible:
                visible = not text.isspace()
            continue
        tag = end or start
        if scanned:
            tag = tag.lower()
            if not tag or tag in _RAW_TEXT_TAGS:
                return None  # a bare "<", or raw-text content
        if start:
            if skip_depth or tag in _SKIP_TAGS:
                if tag in _SKIP_TAGS:
                    skip_depth += 1
            elif pre_depth:
                if tag == "pre":
                    pre_depth += 1
                elif tag == "code":
                    pre_has_code = True
                elif tag == "br":
                    pre.append("\n")
            elif tag == "pre":
                # <p> cannot contain <pre>; browsers auto-close it
                if containers and containers[-1] == "p":
                    containers.pop()
                    if inline:
                        flush_inline()
                pre_depth = 1
                pre_top_level = not containers
                pre = []
                pre_has_code = False
            elif tag == "br":
                if inline:
                    flush_inline()
            elif tag in _PARAGRAPH_TAGS:
                if inline:
                    flush_inline()
                containers.append(tag)
        if not (end or slash):
            continue
        if tag in _SKIP_TAGS:
            skip_depth = max(0, skip_depth - 1)
        elif pre_depth:
            if tag == "pre":
                pre_depth -= 1
                if pre_depth == 0:
                    raw = "".join(pre)
                    if pre_top_level and pre_has_code:
                        raw = raw.strip("\n\r")
                        if raw.strip():  # whitespace-only code contributes nothing
                            blocks.append(Block(BlockKind.TEXT, take_text()))
                            blocks.append(Block(BlockKind.CODE, raw))
                    elif prose:
                        # bare or nested <pre>: preformatted prose
                        inline.append(" " + raw + " ")
                        flush_inline()
                    elif raw.strip():
                        visible = True
        elif tag in _PARAGRAPH_TAGS:
            if inline:
                flush_inline()
            if tag in containers:  # stray close tags are ignored
                while containers.pop() != tag:
                    pass
    text = take_text()
    if blocks or text or visible:
        blocks.append(Block(BlockKind.TEXT, text))
    return blocks


class _PostHTMLParser(HTMLParser):
    """html.parser's reading of a post outside the scanner's subset, kept
    as ``_segment``'s tuples: its data is decoded and its names lowercased."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tokens: list[tuple[str, str, str, str]] = []

    def handle_starttag(self, tag, attrs):
        self.tokens.append(("", "", tag, ""))

    def handle_endtag(self, tag):
        self.tokens.append(("", tag, "", ""))

    def handle_data(self, data):
        self.tokens.append((data, "", "", ""))


def parse_answer_post(html: str, question_id: int = 0, prose: bool = True) -> BlockSequence:
    """Segment an answer post's HTML body into an alternating block sequence.

    Raises EmptyPost when the body has no visible content. A post without
    code yields a single Text block. Without ``prose`` the blocks and
    EmptyPost are the same, but every Text block's ``raw`` is empty: for
    readers of code blocks only.
    """
    blocks = _segment(_TOKEN.findall(html), True, prose)
    if blocks is None:
        parser = _PostHTMLParser()
        parser.feed(html)
        parser.close()
        blocks = _segment(parser.tokens, False, prose)
    if not blocks:
        raise EmptyPost("post has no visible content")
    return BlockSequence(question_id, blocks)


def tokenize_sequence(seq: BlockSequence, tokenizer: Tokenizer) -> BlockSequence:
    """Fill in every block's token list (a block that has one keeps it)."""
    for block in seq.blocks:
        block.tokens = _block_tokens(block, tokenizer)
    return seq


def code_stream(raw: str, tokenizer: Tokenizer) -> TokenStream:
    """The tokens of a code snippet: the language normalizer's, or a
    word/punct split where that yields nothing. Instances, the CodeClass
    corpus and dataset statistics all read code through this one rule."""
    code = normalize_code(raw, tokenizer.language, tokenizer.keep)
    return code if code.tokens else TokenStream(wordpunct(raw), code.n_lines)


def check_positions(seq: BlockSequence, positions) -> None:
    """Raise PositionMismatch unless each 1-based position names one of
    ``seq``'s code blocks."""
    code_count = len(seq.code_blocks())
    bad = [p for p in positions if not 1 <= p <= code_count]
    if bad:
        raise PositionMismatch(
            f"label positions {bad} exceed the {code_count} code blocks of post {seq.question_id}"
        )


def extract_instances(
    question_title: str,
    seq: BlockSequence,
    labels: dict[int, int] | None = None,
    tokenizer: Tokenizer = Tokenizer(),
) -> list[CodeContextInstance]:
    """Produce one CodeContextInstance per code block.

    Instance i carries the text blocks immediately before and after code
    block i (1-based positions). ``labels`` maps positions to gold labels;
    unlisted positions stay unlabeled. Blocks that ``tokenize_sequence`` has
    not filled in are tokenized here with ``tokenizer``.
    """
    check_positions(seq, labels or ())
    question_tokens = tokenize_text(question_title).tokens
    instances = []
    position = 0
    for i, block in enumerate(seq.blocks):
        if block.kind is not BlockKind.CODE:
            continue
        position += 1
        pre = seq.blocks[i - 1] if i > 0 else None
        post = seq.blocks[i + 1] if i + 1 < len(seq.blocks) else None
        instances.append(
            CodeContextInstance(
                question_tokens=question_tokens,
                pre_tokens=_block_tokens(pre, tokenizer),
                code_tokens=_block_tokens(block, tokenizer),
                post_tokens=_block_tokens(post, tokenizer),
                position=position,
                label=labels.get(position) if labels else None,
                raw_code=block.raw,
            )
        )
    return instances


def _block_tokens(block: Block | None, tokenizer: Tokenizer) -> list[str]:
    """A copy of the tokens ``tokenize_sequence`` filled in, else prose via
    the text tokenizer and code via ``code_stream``."""
    if block is None or not block.raw.strip():
        return []
    if block.tokens:
        return list(block.tokens)
    if block.kind is BlockKind.TEXT:
        return tokenize_text(block.raw).tokens
    return code_stream(block.raw, tokenizer).tokens
