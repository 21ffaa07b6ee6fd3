"""Solution classifiers assembled from the nn_core blocks.

The full model encodes each block of an instance with token-level Bi-GRUs
(text and code encoders with separate parameters), fuses the code vector
with the question vector through a tanh layer, runs a block-level Bi-GRU
over pre-context / code / post-context, and predicts from the code
position's bidirectional states. Six ablation variants drop or flatten
parts of that structure.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import json
import mmap
import os
import re
import stat
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import nn_core
from .nn_core import (
    LINEAR,
    TANH,
    BiGru,
    DenseParams,
    GruParams,
    Node,
    bigru_encode,  # noqa: F401  unused here; bench/run.py traces models.bigru_encode by name
    bigru_final_states,
    concat,
    dense_rows,
    softmax_rows,
    take_rows,
)
from .post_parser import CodeContextInstance
from .tokenize import Tokenizer
from .vocab_embed import CODEBLOCK_TOKEN, SPECIALS, Vocabulary, load_embeddings


class ConfigInvalid(ValueError):
    pass


class VocabMissing(ValueError):
    pass


class EmptyCode(ValueError):
    pass


class CheckpointMismatch(ValueError):
    pass


class Variant(Enum):
    BIV_HNN = "biv_hnn"
    BIV_HNN_NQ = "biv_hnn_nq"
    TEXT_HNN = "text_hnn"
    CODE_HNN = "code_hnn"
    TEXT_RNN = "text_rnn"
    BIV_RNN = "biv_rnn"
    BIV_HFF = "biv_hff"


_HIERARCHICAL = {Variant.BIV_HNN, Variant.BIV_HNN_NQ, Variant.TEXT_HNN}
_USES_QUESTION = {Variant.BIV_HNN, Variant.CODE_HNN, Variant.BIV_HFF}
_HAS_CODE_ENCODER = {Variant.BIV_HNN, Variant.BIV_HNN_NQ, Variant.CODE_HNN, Variant.BIV_HFF}
_HAS_EMPTY_BLOCK = _HIERARCHICAL | {Variant.BIV_HFF}


@dataclass
class VariantConfig:
    variant: Variant = Variant.BIV_HNN
    d_embed: int = 150
    d_token_gru: int = 64   # paper grid: {64, 128}
    d_block: int = 128      # paper grid: {128, 256}
    seed: int = 0
    share_text_question_encoder: bool = True

    def validate(self):
        if not isinstance(self.variant, Variant):
            raise ConfigInvalid(f"unknown variant {self.variant!r}")
        for name in ("d_embed", "d_token_gru", "d_block"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(f"{name} must be positive")

    def to_dict(self) -> dict:
        return {**asdict(self), "variant": self.variant.value}

    @classmethod
    def from_dict(cls, obj: dict) -> "VariantConfig":
        """The config of ``obj``'s keys of this class (others are ignored),
        each of its default's JSON type (``check_json_type``)."""
        defaults = cls().to_dict()
        for key, default in defaults.items():
            check_json_type("config", key, obj[key], default)
        cfg = cls(**{**{key: obj[key] for key in defaults}, "variant": Variant(obj["variant"])})
        cfg.validate()
        return cfg


def check_json_type(where, key, value, default) -> None:
    """Raise ConfigInvalid naming ``key`` unless ``value`` has the JSON type
    of ``default``: a bool is not a number, an int may stand for a float,
    and a null default (an optional path) takes a string. For a float
    default the number must also be finite: NaN, an infinity or an int
    beyond the float range is refused. This is the one finite-number rule
    for config floats, pairs scores and linear-model weights."""
    wider = {float: (int, float), type(None): (str, type(None))}
    types = wider.get(type(default), (type(default),))
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigInvalid(
            f"{where}: key {key!r} must have the JSON type of {default!r}, not {value!r:.80}"
        )
    if isinstance(default, float) and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigInvalid(f"{where}: key {key!r} must be a finite number, not {value!r:.80}")


@dataclass
class ModelParameters:
    config: VariantConfig
    word_vocab: Vocabulary
    code_vocab: Vocabulary
    preprocessing: dict  # Tokenizer.fingerprint() of the tokens it reads
    params: dict[str, Node] = field(default_factory=dict)
    word_emb: Node | None = None
    code_emb: Node | None = None
    text_token: BiGru | None = None
    question_token: BiGru | None = None
    code_token: BiGru | None = None
    block: BiGru | None = None
    fusion: DenseParams | None = None
    block_ff: DenseParams | None = None
    output: DenseParams | None = None
    empty_block: Node | None = None

    def named_values(self) -> dict[str, np.ndarray]:
        return {name: node.value for name, node in self.params.items()}

    def named_grads(self) -> dict[str, np.ndarray | None]:
        return {name: node.grad for name, node in self.params.items()}

    def zero_grad(self):
        nn_core.zero_grad(self.params.values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: node.value.copy() for name, node in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]):
        for name, node in self.params.items():
            node.value[...] = snap[name]


def _build(cfg: VariantConfig, word_vocab, code_vocab, preprocessing, get) -> ModelParameters:
    """Allocate the parameter set for a variant.

    ``get(name, shape, init)`` returns the named tensor, either freshly
    initialized or pulled from a checkpoint. Registration order is fixed so
    fresh builds consume the RNG deterministically.
    """
    v = cfg.variant
    d_tok2 = 2 * cfg.d_token_gru
    model = ModelParameters(cfg, word_vocab, code_vocab, preprocessing)
    reg = model.params

    def node(name, shape, init):
        n = Node(get(name, shape, init))
        reg[name] = n
        return n

    def gru_pair(prefix, d_x, d_h) -> BiGru:
        def one(direction):
            p = f"{prefix}.{direction}"
            mat = (d_h, d_x + d_h)
            return GruParams(
                w_r=node(f"{p}.w_r", mat, "glorot"),
                w_u=node(f"{p}.w_u", mat, "glorot"),
                w=node(f"{p}.w", mat, "glorot"),
                b_r=node(f"{p}.b_r", (d_h,), "zeros"),
                b_u=node(f"{p}.b_u", (d_h,), "zeros"),
                b=node(f"{p}.b", (d_h,), "zeros"),
            )

        return BiGru(one("fwd"), one("bwd"))

    def dense_params(prefix, d_in, d_out, activation) -> DenseParams:
        return DenseParams(
            w=node(f"{prefix}.w", (d_out, d_in), "glorot"),
            b=node(f"{prefix}.b", (d_out,), "zeros"),
            activation=activation,
        )

    model.word_emb = node("word_embeddings", (word_vocab.size, cfg.d_embed), "word_emb")
    if v in _HAS_CODE_ENCODER or v is Variant.BIV_RNN:
        model.code_emb = node("code_embeddings", (code_vocab.size, cfg.d_embed), "code_emb")
    model.text_token = gru_pair("text_token", cfg.d_embed, cfg.d_token_gru)
    if v in _USES_QUESTION and not cfg.share_text_question_encoder:
        model.question_token = gru_pair("question_token", cfg.d_embed, cfg.d_token_gru)
    if v in _HAS_CODE_ENCODER:
        model.code_token = gru_pair("code_token", cfg.d_embed, cfg.d_token_gru)
    if v in _USES_QUESTION:
        model.fusion = dense_params("fusion", 2 * d_tok2, d_tok2, TANH)
    if v in _HIERARCHICAL:
        model.block = gru_pair("block", d_tok2, cfg.d_block)
    if v is Variant.BIV_HFF:
        model.block_ff = dense_params("block_ff", 3 * d_tok2, 2 * cfg.d_block, TANH)
    d_out_in = 2 * cfg.d_block if v in _HIERARCHICAL or v is Variant.BIV_HFF else d_tok2
    model.output = dense_params("output", d_out_in, 2, LINEAR)
    if v in _HAS_EMPTY_BLOCK:
        model.empty_block = node("empty_block", (d_tok2,), "small_uniform")
    return model


def init_model(
    cfg: VariantConfig,
    word_vocab: Vocabulary,
    code_vocab: Vocabulary,
    word_embedding_file=None,
    code_embedding_file=None,
    tokenizer: Tokenizer = Tokenizer(),
) -> ModelParameters:
    """Fresh model for instances tokenized by ``tokenizer``: glorot weights,
    zero biases, embeddings loaded from the given vector files or randomly
    initialized. Deterministic per seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    def get(name, shape, init):
        if init == "glorot":
            return nn_core.glorot_init(shape, rng)
        if init == "zeros":
            return np.zeros(shape)
        if init == "small_uniform":
            return rng.uniform(-0.05, 0.05, shape)
        if init == "word_emb":
            return load_embeddings(word_embedding_file, word_vocab, cfg.d_embed, cfg.seed)
        if init == "code_emb":
            return load_embeddings(code_embedding_file, code_vocab, cfg.d_embed, cfg.seed + 1)
        raise AssertionError(init)

    return _build(cfg, word_vocab, code_vocab, tokenizer.fingerprint(), get)


# --------------------------------------------------------------------------
# Forward pass
# --------------------------------------------------------------------------


def _check_inputs(model: ModelParameters, instances) -> None:
    if model.word_vocab is None or model.word_vocab.size == 0:
        raise VocabMissing("model has no word vocabulary")
    for inst in instances:
        if not inst.code_tokens:
            raise EmptyCode(f"instance at position {inst.position} has no code tokens")


def _runs(lengths) -> np.ndarray:
    """The [start, stop) rows of consecutive runs of ``lengths`` rows."""
    stops = np.cumsum(lengths, dtype=np.intp)
    return np.column_stack([stops - lengths, stops])


def _encoder_input(groups, vocab):
    """(ids, spans, rows) of one token-encoder call over ``groups`` of
    token lists: the ids of each distinct non-empty list of all groups, one
    list after another, the spans of those lists, and per group the row of
    each of its lists (-1 for an empty list)."""
    keys = [[tuple(tokens) for tokens in group] for group in groups]
    distinct = list(dict.fromkeys(k for group in keys for k in group if k))
    row = {k: i for i, k in enumerate(distinct)}
    ids = np.concatenate([vocab.lookup_all(k) for k in distinct]) if distinct else None
    rows = [[row[k] if k else -1 for k in group] for group in keys]
    return ids, _runs([len(k) for k in distinct]), rows


def _token_vectors(model: ModelParameters, encoder_input, emb: Node, gru: BiGru, grad: bool):
    """One encoder-vector node per group of an ``_encoder_input``, a row
    per token list.

    Each distinct non-empty list of all groups is encoded once, straight
    from the rows of ``emb``; empty lists get the learned empty-block
    vector, or zeros in variants without one.
    """
    ids, runs, rows = encoder_input
    d = 2 * model.config.d_token_gru
    ends = Node(np.zeros((0, d)))  # every token list is empty
    if len(runs):
        ends = bigru_final_states(emb, ids, runs, runs, gru, grad)
    empty = model.empty_block if model.empty_block is not None else Node(np.zeros(d))
    return [take_rows(ends, group, fill=empty) for group in rows]


def _look_up_blocks(model: ModelParameters, instances):
    """``look_up`` of the variants that encode each block with a token
    Bi-GRU: it looks up the ids of each token-encoder call now and returns
    ``code_vectors(grad)``, the rest of the forward up to z.

    Text blocks, titles and the constant <codeblock> sequence share one
    word-encoder call whenever they share its weights, so each distinct one
    is encoded once per batch; a question encoder of its own is one more
    call."""
    v, n = model.config.variant, len(instances)

    def blocks(*names):  # the token lists of each named block, by name
        return {name: [getattr(inst, f"{name}_tokens") for inst in instances] for name in names}

    words = blocks() if v is Variant.CODE_HNN else blocks("pre", "post")
    own_question = v in _USES_QUESTION and model.question_token is not None
    if v in _USES_QUESTION and not own_question:
        words.update(blocks("question"))
    if v is Variant.TEXT_HNN:
        # code masked by the unified CODEBLOCK vector, learned through the
        # text encoder's one-step pass
        words["code"] = [[CODEBLOCK_TOKEN]] * n
    plan = [(words, model.word_vocab, model.word_emb, model.text_token)]
    if v is not Variant.TEXT_HNN:
        plan.append((blocks("code"), model.code_vocab, model.code_emb, model.code_token))
    if own_question:
        plan.append((blocks("question"), model.word_vocab, model.word_emb, model.question_token))
    calls = [(list(groups), _encoder_input(groups.values(), vocab), emb, gru)
             for groups, vocab, emb, gru in plan]

    def code_vectors(grad):
        s = {}  # one node per block, B rows each
        for names, encoder_input, emb, gru in calls:
            s.update(zip(names, _token_vectors(model, encoder_input, emb, gru, grad)))
        c = s["code"]
        if v in _USES_QUESTION:
            c = dense_rows(concat(s["question"], c), model.fusion)
        if v is Variant.CODE_HNN:
            return c
        if v is Variant.BIV_HFF:
            return dense_rows(concat(s["pre"], c, s["post"]), model.block_ff)
        # rows pre_i, c_i, post_i of each instance in turn; the forward GRU
        # reads up to c_i, the backward one back down to it
        x = concat(s["pre"], c, s["post"], axis=0)
        order = np.arange(3 * n).reshape(3, n).T.ravel()
        runs = _runs(np.full(n, 3))
        fwd, bwd = runs - [0, 1], runs + [1, 0]
        return bigru_final_states(x, order, fwd, bwd, model.block, grad)

    return code_vectors


def look_up(model: ModelParameters, instances):
    """Check ``instances`` against ``model``, look up every vocabulary id
    its forward over them reads, once per distinct token list, and return
    the rest of that forward: ``forward(grad)``, the logits (B x 2) and code
    representations z of the batch, as tape nodes.

    This is the one forward of every variant, for training and inference.
    Every token-level encoder runs once over the distinct blocks of the
    batch, and the sequence-level GRUs run batched over instances, so the
    graph has a few dozen nodes whatever the token lengths. ``grad`` keeps
    what the GRU backward needs; inference leaves it off. The returned
    forward is numpy and the tape only, so it may run on any thread while
    lookups stay on the caller's.
    """
    _check_inputs(model, instances)
    v = model.config.variant
    if v is Variant.TEXT_RNN:
        ids = [
            model.word_vocab.lookup_all([*inst.pre_tokens, CODEBLOCK_TOKEN, *inst.post_tokens])
            for inst in instances
        ]
        # the states at each instance's <codeblock>
        runs = _runs([len(row) for row in ids])
        code_at = runs[:, 0] + [len(inst.pre_tokens) for inst in instances]
        fwd = np.column_stack([runs[:, 0], code_at + 1])
        bwd = np.column_stack([code_at, runs[:, 1]])
        ids = np.concatenate(ids)

        def code_vectors(grad):
            return bigru_final_states(model.word_emb, ids, fwd, bwd, model.text_token, grad)

    elif v is Variant.BIV_RNN:
        # pre_i, code_i, post_i of each instance in turn, as ids into the
        # word table stacked on the code table
        wv, cv, n_words = model.word_vocab, model.code_vocab, model.word_vocab.size
        rows = [
            wv.lookup_all(i.pre_tokens) + [n_words + c for c in cv.lookup_all(i.code_tokens)]
            + wv.lookup_all(i.post_tokens)
            for i in instances
        ]

        def code_vectors(grad):
            # each table is gathered once, at the distinct ids the batch reads
            used, order = np.unique(np.concatenate(rows), return_inverse=True)
            k = np.searchsorted(used, n_words)
            word_rows = take_rows(model.word_emb, used[:k])
            x = concat(word_rows, take_rows(model.code_emb, used[k:] - n_words), axis=0)
            runs = _runs([len(r) for r in rows])
            return bigru_final_states(x, order, runs, runs, model.text_token, grad)

    else:
        code_vectors = _look_up_blocks(model, instances)

    def forward(grad: bool):
        z = code_vectors(grad)
        return dense_rows(z, model.output), z

    return forward


def scores(forward) -> np.ndarray:
    """p(solution) of each instance of a ``look_up`` forward, run tape-free."""
    logits, _ = forward(False)
    return softmax_rows(logits.value)[:, 1]


def forward_graph(model: ModelParameters, inst: CodeContextInstance):
    """The prediction graph of one instance: (logits node of shape (2,),
    code-representation node z)."""
    logits, z = look_up(model, [inst])(True)
    return take_rows(logits, 0), take_rows(z, 0)


def predict_scores(model: ModelParameters, instances) -> np.ndarray:
    """p(solution) of each instance, from one tape-free batched forward.

    Numeric contract: every score is within 1e-12 of the same instance's
    score from a per-timestep ``gru_step`` graph, and the labels
    (``label_of``) are the same.
    """
    return scores(look_up(model, instances)) if instances else np.zeros(0)


def label_of(score: float) -> int:
    """Label 1 iff p(solution) >= 0.5."""
    return 1 if score >= 0.5 else 0


def predict_label(model: ModelParameters, inst: CodeContextInstance):
    """(label, score) of one instance; see ``predict_scores``."""
    score = float(predict_scores(model, [inst])[0])
    return label_of(score), score


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "qcmine-checkpoint-v2"


def _head_hash(cfg: VariantConfig, preprocessing: dict) -> str:
    head = {"config": cfg.to_dict(), "preprocessing": preprocessing}
    return hashlib.sha256(json.dumps(head, sort_keys=True).encode()).hexdigest()[:16]


def read_parts(path, obj: dict, builders: dict) -> dict:
    """{part: builders[part](obj[part])} for the parts of a parsed model
    file read from ``path``. A missing part, or one its builder cannot
    build (KeyError, TypeError, ValueError, AttributeError), raises a
    CheckpointMismatch that names the file and the part."""
    parts = {}
    for part, build in builders.items():
        try:
            parts[part] = build(obj[part])
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise CheckpointMismatch(f"{path}: part {part!r} does not fit: {e!r}") from None
    return parts


def read_model_file(path, obj, fmt: str, builders: dict, tokenizer: Tokenizer | None = None):
    """The ``read_parts`` of a parsed model file ``obj`` read from ``path``,
    the one reader of every trained file. Anything but a JSON object tagged
    ``fmt``, and, given ``tokenizer``, a ``preprocessing`` part other than
    its fingerprint (a file trained on other tokens) raise a
    CheckpointMismatch that names the file."""
    if not isinstance(obj, dict):
        raise CheckpointMismatch(f"{path} does not hold a JSON object")
    if obj.get("format") != fmt:
        raise CheckpointMismatch(f"{path} has format {obj.get('format')!r}, not {fmt}; retrain it")
    parts = read_parts(path, obj, builders)
    if tokenizer is not None and parts["preprocessing"] != tokenizer.fingerprint():
        raise CheckpointMismatch(
            f"{path} was trained on tokens from {parts['preprocessing']}, "
            f"but the config tokenizes with {tokenizer.fingerprint()}"
        )
    return parts


def json_object(obj) -> dict:
    """``obj`` if it is a JSON object, else TypeError: a ``read_parts``
    builder."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {obj!r:.80}")
    return obj


def string_list(obj) -> list[str]:
    """``obj`` if it is a list of strings, else TypeError: a ``read_parts``
    builder for lexicon parts."""
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise TypeError(f"expected a list of strings, got {obj!r:.80}")
    return obj


def vocabulary(obj) -> Vocabulary:
    """The Vocabulary of a JSON object whose ids are distinct non-bool ints
    covering ``range(len(obj))``, with the specials at their fixed ids, else
    TypeError or ValueError: a ``read_parts`` builder for vocabulary parts."""
    # n ids that cover range(n) are distinct; but 1, True and 1.0 are one
    # set element, so the types are checked too
    ids = set(json_object(obj).values())
    if not ids.issuperset(range(len(obj))) or not {int}.issuperset(map(type, ids)):
        raise ValueError(f"vocabulary ids are not the distinct integers 0..{len(obj) - 1}")
    if any(obj.get(token) != i for i, token in enumerate(SPECIALS)):
        raise ValueError(f"vocabulary specials {SPECIALS} are not at ids 0, 1 and 2")
    return Vocabulary(obj)


# The JSON policy of every file qcmine writes: sorted keys, text as UTF-8. A
# model file streams through its iterencode, a JSON Lines line is one encode.
# Not files, and kept on json.dumps: _head_hash's bytes, which every saved
# config_hash covers, and cli.main's report, in ASCII for any terminal.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@contextlib.contextmanager
def open_output(path):
    """The UTF-8 text file to write ``path`` through: the one opener of every
    file qcmine writes. It is a hidden file beside ``path`` that replaces it
    only when the block exits without an exception; on any exception,
    KeyboardInterrupt included, it is deleted and ``path`` is left as it was.
    A new file gets mode 0o666 less the umask, a replaced one keeps its mode."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the output, not its temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8") as f:
            yield f
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_model_file(path, fmt: str, parts: dict) -> None:
    """Write ``{"format": fmt, **parts}``: the one writer of every model
    file, through ``open_output``, so ``path`` is replaced whole or not.

    A numpy array among the values of ``parts`` or of the dicts in it is
    written as its ``nn_core.tensor_to_obj``, with its base64 put into the
    file a slice at a time (``nn_core.tensor_base64``), so no full-size copy
    of it is made: the encoder writes a string of random text in its place,
    which the writer replaces as it comes."""
    arrays = {}

    def placeholders(obj):
        if isinstance(obj, np.ndarray):
            text = f"tensor {os.urandom(12).hex()}"
            arrays[f'"{text}"'] = obj  # the string as the encoder writes it
            return {"data": text, "shape": list(obj.shape)}
        if isinstance(obj, dict):
            return {key: placeholders(value) for key, value in obj.items()}
        return obj

    with open_output(path) as f:
        for chunk in JSON_ENCODER.iterencode(placeholders({"format": fmt, **parts})):
            arr = arrays.pop(chunk, None)
            if arr is None:
                f.write(chunk)
            else:
                f.write('"')
                f.writelines(nn_core.tensor_base64(arr))
                f.write('"')


# A "data" key whose value is a string, up to that string's opening quote
_DATA_STRING = re.compile(rb'"data"[ \t\n\r]*:[ \t\n\r]*"')


def parse_model_file(path):
    """The parsed JSON of the model file at ``path``: the one opener of
    every trained file, for ``read_model_file``. A leading UTF-8 byte order
    mark, which an editor may add, is skipped.

    The file is mapped read-only, not read (``_file_bytes``; one that
    cannot be mapped, such as a pipe, is read), and each ``"data"`` string
    without a backslash is cut out of its bytes before ``json`` parses the
    rest as UTF-8 text: a JSON string with no escape is its raw characters
    (RFC 8259, section 7), so no copy of a tensor's base64 is made. A
    checkpoint's tensors, the values of its ``params``, which
    ``model_from_obj`` decodes all of, get their data as a read-only
    memoryview of the mapping (``nn_core.tensor_from_obj``), which is
    unmapped once the last view is released. Any other cut string is
    decoded as ``json`` would have, and so reads, or fails, as it would in
    the text. A file truncated in place by another process while it is
    parsed kills the process with SIGBUS; qcmine's own writers replace a
    file by renaming a new one onto it (``open_output``), so never do that.

    So this reads the files and values that ``json.load`` of the text reads,
    and refuses the others with a ValueError, with one difference: tensor
    data that JSON itself refuses (a raw control character, or bytes that
    are not UTF-8) fails when the tensor is decoded, as a CheckpointMismatch
    naming it, not here."""
    with open(path, "rb") as f:
        raw = _file_bytes(f)
    view = memoryview(raw)
    pieces, strings = [], {}  # placeholder: (start, end) of the string's bytes
    cut = pos = len(codecs.BOM_UTF8) if raw[:3] == codecs.BOM_UTF8 else 0
    while (key := raw.find(b'"data"', pos)) >= 0:
        pos = key + 1
        # after a backslash the key is inside a string, or the file is not JSON
        match = raw[key - 1:key] != b"\\" and _DATA_STRING.match(raw, key)
        if not match:
            continue
        start = match.end()
        end = raw.find(b'"', start)
        if end < 0 or raw.find(b"\\", start, end) >= 0:  # escapes stay for json
            continue
        text = f"tensor {os.urandom(12).hex()} {len(strings)}"
        pieces += [view[cut:start], text.encode("ascii")]
        strings[text] = (start, end)
        cut = pos = end
    pieces.append(view[cut:])
    cut_out = []

    def found(obj):
        if type(obj.get("data")) is str and obj["data"] in strings:
            cut_out.append(obj)
        return obj

    top = json.loads(b"".join(pieces).decode("utf-8"), object_hook=found)
    params = top.get("params") if isinstance(top, dict) else None
    tensors = (
        {id(obj) for obj in params.values()}
        if isinstance(params, dict) and top.get("format") == _CHECKPOINT_FORMAT else set()
    )
    for obj in cut_out:
        start, end = strings.pop(obj["data"])
        obj["data"] = view[start:end] if id(obj) in tensors else _json_string(raw, start, end)
    for start, end in strings.values():  # a value a later "data" key replaced
        _json_string(raw, start, end)
    return top


def _file_bytes(f):
    """The bytes of the open binary file ``f``: a read-only mapping of it,
    or, where it cannot be mapped, what ``f.read()`` returns. A file whose
    size reads 0 is read: mmap refuses an empty file, and a pipe or a
    ``/proc`` file reads 0 while it holds bytes."""
    if os.fstat(f.fileno()).st_size:
        try:
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError:  # a file system or device that cannot be mapped
            pass
    return f.read()


def _json_string(raw, start: int, end: int) -> str:
    """``json``'s value of the string whose quotes enclose ``raw[start:end]``."""
    return json.loads(raw[start - 1:end + 1].decode("utf-8"))


def save_model(model: ModelParameters, path) -> None:
    """One JSON object; each tensor is ``nn_core.tensor_to_obj``'s base64,
    written a slice at a time (``write_model_file``)."""
    write_model_file(path, _CHECKPOINT_FORMAT, {
        "config": model.config.to_dict(),
        "config_hash": _head_hash(model.config, model.preprocessing),
        "preprocessing": model.preprocessing,
        "word_vocab": model.word_vocab.token_to_id,
        "code_vocab": model.code_vocab.token_to_id,
        "params": model.named_values(),
    })


def load_model(path, tokenizer: Tokenizer | None = None) -> ModelParameters:
    """Read a checkpoint; given ``tokenizer``, refuse one of other tokens."""
    return model_from_obj(parse_model_file(path), path, tokenizer)


def model_from_obj(obj, path, tokenizer: Tokenizer | None = None) -> ModelParameters:
    """The model of a parsed checkpoint ``obj`` read from ``path``; see
    ``read_model_file``."""
    parts = read_model_file(path, obj, _CHECKPOINT_FORMAT, {
        "config": VariantConfig.from_dict,
        "preprocessing": json_object,
        "word_vocab": vocabulary,
        "code_vocab": vocabulary,
        "params": json_object,
    }, tokenizer)
    cfg, preprocessing, params = parts["config"], parts["preprocessing"], parts["params"]
    if obj.get("config_hash") != _head_hash(cfg, preprocessing):
        raise CheckpointMismatch(f"{path}: config hash does not match its config")
    tensors = read_parts(path, params, dict.fromkeys(params, nn_core.tensor_from_obj))

    def get(name, shape, _init):
        if name not in tensors:
            raise CheckpointMismatch(f"{path}: missing parameter {name}")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(shape):
            raise CheckpointMismatch(f"{path}: parameter {name} has shape {arr.shape}, not {shape}")
        return arr

    model = _build(cfg, parts["word_vocab"], parts["code_vocab"], preprocessing, get)
    extra = set(tensors) - set(model.params)
    if extra:
        raise CheckpointMismatch(f"{path}: unexpected parameters {sorted(extra)}")
    return model
