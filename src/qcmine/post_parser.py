"""Segmentation of answer-post HTML into alternating text/code blocks.

A code block is a top-level ``<pre><code>`` element; everything else
(paragraphs, lists, headings, blockquotes, inline ``<code>`` spans) is
prose. The resulting sequence strictly alternates Text, Code, ..., Text:
empty dummy text blocks are inserted wherever a code block starts the
post, ends it, or abuts another code block, so every code block has both
a pre- and a post-context. A regex scanner drives the parser's handlers;
a post outside the scanner's subset of HTML goes whole to html.parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from html import unescape
from html.parser import HTMLParser

from .tokenize import Tokenizer, normalize_code, tokenize_text, wordpunct


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


class _PostHTMLParser(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: list[Block] = []
        self._containers: list[str] = []
        self._paragraphs: list[str] = []
        self._inline: list[str] = []
        self._pre_depth = 0
        self._pre_buf: list[str] = []
        self._pre_has_code = False
        self._pre_top_level = False
        self._skip_depth = 0

    # -- prose buffering ---------------------------------------------------

    def _flush_inline(self):
        if not self._inline:
            return
        text = " ".join("".join(self._inline).split())
        if text:
            self._paragraphs.append(text)
        self._inline.clear()

    def _take_text(self) -> str:
        self._flush_inline()
        text = "\n".join(self._paragraphs)
        self._paragraphs.clear()
        return text

    def _emit_code(self, raw: str):
        raw = raw.strip("\n\r")
        if not raw.strip():
            return  # whitespace-only code contributes nothing
        text = self._take_text()
        if text or not self.blocks or self.blocks[-1].kind is BlockKind.CODE:
            self.blocks.append(Block(BlockKind.TEXT, text))
        self.blocks.append(Block(BlockKind.CODE, raw))

    # -- parser events -----------------------------------------------------

    def handle_starttag(self, tag, attrs):
        if self._skip_depth or tag in _SKIP_TAGS:
            if tag in _SKIP_TAGS:
                self._skip_depth += 1
            return
        if self._pre_depth:
            if tag == "pre":
                self._pre_depth += 1
            elif tag == "code":
                self._pre_has_code = True
            elif tag == "br":
                self._pre_buf.append("\n")
            return
        if tag == "pre":
            # <p> cannot contain <pre>; browsers auto-close it
            if self._containers and self._containers[-1] == "p":
                self._containers.pop()
                self._flush_inline()
            self._pre_depth = 1
            self._pre_top_level = not self._containers
            self._pre_buf = []
            self._pre_has_code = False
        elif tag == "br":
            self._flush_inline()
        elif tag in _PARAGRAPH_TAGS:
            self._flush_inline()
            self._containers.append(tag)

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._pre_depth:
            if tag == "pre":
                self._pre_depth -= 1
                if self._pre_depth == 0:
                    raw = "".join(self._pre_buf)
                    if self._pre_top_level and self._pre_has_code:
                        self._emit_code(raw)
                    else:
                        # bare or nested <pre>: preformatted prose
                        self._inline.append(" " + raw + " ")
                        self._flush_inline()
            return
        if tag in _PARAGRAPH_TAGS:
            self._flush_inline()
            if tag in self._containers:  # stray close tags are ignored
                while self._containers.pop() != tag:
                    pass

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._pre_depth:
            self._pre_buf.append(data)
        else:
            self._inline.append(data)

    def finish(self) -> list[Block]:
        text = self._take_text()
        if text:
            self.blocks.append(Block(BlockKind.TEXT, text))
        elif self.blocks and self.blocks[-1].kind is BlockKind.CODE:
            self.blocks.append(Block(BlockKind.TEXT, ""))
        return self.blocks


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


def _scan(html: str) -> _PostHTMLParser | None:
    """Drive the handlers over ``html`` with ``_TOKEN``; None when the post
    leaves the scanner's subset."""
    parser = _PostHTMLParser()
    for text, end, start, slash in _TOKEN.findall(html):
        if text:
            parser.handle_data(unescape(text) if "&" in text else text)
            continue
        tag = (end or start).lower()
        if not tag or tag in _RAW_TEXT_TAGS:
            return None  # a bare "<", or raw-text content
        if start:
            parser.handle_starttag(tag, [])
        if end or slash:
            parser.handle_endtag(tag)
    return parser


def parse_answer_post(html: str, question_id: int = 0) -> BlockSequence:
    """Segment an answer post's HTML body into an alternating block sequence.

    Raises EmptyPost when the body has no visible content. A post without
    code yields a single Text block.
    """
    parser = _scan(html)
    if parser is None:
        parser = _PostHTMLParser()
        parser.feed(html)
        parser.close()
    blocks = parser.finish()
    if not blocks:
        raise EmptyPost("post has no visible content")
    return BlockSequence(question_id, blocks)


def tokenize_sequence(seq: BlockSequence, tokenizer: Tokenizer) -> BlockSequence:
    """Fill in every block's token list."""
    for block in seq.blocks:
        block.tokens = _tokens_of(block, tokenizer)
    return seq


def _tokens_of(block: Block, tokenizer: Tokenizer) -> list[str]:
    """Prose via the text tokenizer; code via the language normalizer, or a
    word/punct split where that yields nothing."""
    if block.kind is BlockKind.TEXT:
        return tokenize_text(block.raw).tokens
    code = normalize_code(block.raw, tokenizer.language, tokenizer.keep)
    return code.tokens or wordpunct(block.raw)


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
    code_count = sum(1 for b in seq.blocks if b.kind is BlockKind.CODE)
    if labels:
        bad = [p for p in labels if not 1 <= p <= code_count]
        if bad:
            raise PositionMismatch(
                f"label positions {bad} exceed the {code_count} code blocks of post {seq.question_id}"
            )

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
    if block is None:
        return []
    if block.tokens:
        return list(block.tokens)
    if not block.raw.strip():
        return []
    return _tokens_of(block, tokenizer)
