"""Solution classifiers assembled from the nn_core blocks.

The full model encodes each block of an instance with token-level Bi-GRUs
(text and code encoders with separate parameters), fuses the code vector
with the question vector through a tanh layer, runs a block-level Bi-GRU
over pre-context / code / post-context, and predicts from the code
position's bidirectional states. Six ablation variants drop or flatten
parts of that structure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import nn_core
from .nn_core import (
    LINEAR,
    TANH,
    DenseParams,
    GruParams,
    Node,
    bigru_encode,
    concat,
    dense,
    dense_rows,
    embedding_row,
    gru_final_states,
    softmax,
    softmax_rows,
)
from .post_parser import CodeContextInstance
from .vocab_embed import CODEBLOCK_TOKEN, Vocabulary, load_embeddings


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
_USES_CODE_TOKENS = {
    Variant.BIV_HNN, Variant.BIV_HNN_NQ, Variant.CODE_HNN, Variant.BIV_RNN, Variant.BIV_HFF,
}
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
        return {
            "variant": self.variant.value,
            "d_embed": self.d_embed,
            "d_token_gru": self.d_token_gru,
            "d_block": self.d_block,
            "seed": self.seed,
            "share_text_question_encoder": self.share_text_question_encoder,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "VariantConfig":
        cfg = cls(
            variant=Variant(obj["variant"]),
            d_embed=int(obj["d_embed"]),
            d_token_gru=int(obj["d_token_gru"]),
            d_block=int(obj["d_block"]),
            seed=int(obj["seed"]),
            share_text_question_encoder=bool(obj["share_text_question_encoder"]),
        )
        cfg.validate()
        return cfg

    def hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass
class BiGru:
    fwd: GruParams
    bwd: GruParams


@dataclass
class ModelParameters:
    config: VariantConfig
    word_vocab: Vocabulary
    code_vocab: Vocabulary
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


def _build(cfg: VariantConfig, word_vocab, code_vocab, get) -> ModelParameters:
    """Allocate the parameter set for a variant.

    ``get(name, shape, init)`` returns the named tensor, either freshly
    initialized or pulled from a checkpoint. Registration order is fixed so
    fresh builds consume the RNG deterministically.
    """
    v = cfg.variant
    d_tok2 = 2 * cfg.d_token_gru
    model = ModelParameters(cfg, word_vocab, code_vocab)
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
) -> ModelParameters:
    """Fresh model: glorot weights, zero biases, embeddings loaded from the
    given vector files or randomly initialized. Deterministic per seed."""
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
            return load_embeddings(word_embedding_file, word_vocab, cfg.d_embed, cfg.seed).table
        if init == "code_emb":
            return load_embeddings(code_embedding_file, code_vocab, cfg.d_embed, cfg.seed + 1).table
        raise AssertionError(init)

    return _build(cfg, word_vocab, code_vocab, get)


# --------------------------------------------------------------------------
# Forward passes
# --------------------------------------------------------------------------


def _encode_ids(ids, emb: Node, gru: BiGru):
    xs = [embedding_row(emb, i) for i in ids]
    return bigru_encode(xs, gru.fwd, gru.bwd)


def _encode_concat(ids, emb, gru) -> Node:
    f, b, _ = _encode_ids(ids, emb, gru)
    return concat(f, b)


def _text_block_vec(model: ModelParameters, tokens) -> Node:
    if not tokens:
        return model.empty_block
    ids = model.word_vocab.lookup_all(tokens)
    return _encode_concat(ids, model.word_emb, model.text_token)


def _question_vec(model: ModelParameters, tokens) -> Node:
    encoder = model.question_token or model.text_token
    if not tokens:
        if model.empty_block is not None:
            return model.empty_block
        return Node(np.zeros(2 * model.config.d_token_gru))
    ids = model.word_vocab.lookup_all(tokens)
    return _encode_concat(ids, model.word_emb, encoder)


def _code_block_vec(model: ModelParameters, inst: CodeContextInstance) -> Node:
    """Token-level code representation c_i for the variant."""
    v = model.config.variant
    if v is Variant.TEXT_HNN:
        # code masked by the unified CODEBLOCK vector, learned through the
        # text encoder's one-step pass
        ids = model.word_vocab.lookup_all([CODEBLOCK_TOKEN])
        return _encode_concat(ids, model.word_emb, model.text_token)
    code_ids = model.code_vocab.lookup_all(inst.code_tokens)
    v_c = _encode_concat(code_ids, model.code_emb, model.code_token)
    if v in _USES_QUESTION:
        v_q = _question_vec(model, inst.question_tokens)
        return dense(concat(v_q, v_c), model.fusion)
    return v_c


def _check_inputs(model: ModelParameters, instances) -> None:
    if model.word_vocab is None or model.word_vocab.size == 0:
        raise VocabMissing("model has no word vocabulary")
    for inst in instances:
        if not inst.code_tokens:
            raise EmptyCode(f"instance at position {inst.position} has no code tokens")


def forward_graph(model: ModelParameters, inst: CodeContextInstance):
    """Build the prediction graph for one instance.

    Returns (logits node, code-representation node z). Training
    differentiates through this tape; inference uses ``predict_scores``,
    and the tape is its reference.
    """
    _check_inputs(model, [inst])
    v = model.config.variant

    if v in _HIERARCHICAL or v is Variant.BIV_HFF:
        s_pre = _text_block_vec(model, inst.pre_tokens)
        s_post = _text_block_vec(model, inst.post_tokens)
        c = _code_block_vec(model, inst)
        if v is Variant.BIV_HFF:
            z = dense(concat(s_pre, c, s_post), model.block_ff)
        else:
            _, _, states = bigru_encode([s_pre, c, s_post], model.block.fwd, model.block.bwd)
            z = concat(*states[1])  # bidirectional states at the code position
    elif v is Variant.CODE_HNN:
        z = _code_block_vec(model, inst)
    elif v is Variant.TEXT_RNN:
        word_ids = (
            model.word_vocab.lookup_all(inst.pre_tokens)
            + model.word_vocab.lookup_all([CODEBLOCK_TOKEN])
            + model.word_vocab.lookup_all(inst.post_tokens)
        )
        _, _, states = _encode_ids(word_ids, model.word_emb, model.text_token)
        z = concat(*states[len(inst.pre_tokens)])
    elif v is Variant.BIV_RNN:
        xs = [embedding_row(model.word_emb, i) for i in model.word_vocab.lookup_all(inst.pre_tokens)]
        xs += [embedding_row(model.code_emb, i) for i in model.code_vocab.lookup_all(inst.code_tokens)]
        xs += [embedding_row(model.word_emb, i) for i in model.word_vocab.lookup_all(inst.post_tokens)]
        f, b, _ = bigru_encode(xs, model.text_token.fwd, model.text_token.bwd)
        z = concat(f, b)
    else:
        raise ConfigInvalid(f"unhandled variant {v}")
    logits = dense(z, model.output)
    return logits, z


# --------------------------------------------------------------------------
# Tape-free batched inference
# --------------------------------------------------------------------------


def _bigru_ends(x: np.ndarray, lengths, gru: BiGru) -> np.ndarray:
    """[last forward state, first backward state] of each sequence, where
    the sequences are consecutive runs of ``lengths`` rows of ``x``."""
    stops = np.cumsum(lengths, dtype=np.intp)
    spans = np.column_stack([stops - lengths, stops])
    return np.hstack([
        gru_final_states(x, spans, gru.fwd),
        gru_final_states(x, spans, gru.bwd, reverse=True),
    ])


def _token_vectors(model: ModelParameters, token_lists, vocab, emb: Node, gru: BiGru) -> np.ndarray:
    """One encoder vector per token list. Each distinct non-empty list is
    encoded once; empty lists get the learned empty-block vector, or zeros
    in variants without one."""
    keys = [tuple(tokens) for tokens in token_lists]
    distinct = list(dict.fromkeys(k for k in keys if k))
    d = 2 * model.config.d_token_gru
    empty = model.empty_block.value if model.empty_block is not None else np.zeros(d)
    vectors = np.empty((len(distinct) + 1, d))
    if distinct:
        ids = [vocab.lookup_all(k) for k in distinct]
        vectors[:-1] = _bigru_ends(emb.value[np.concatenate(ids)], [len(k) for k in distinct], gru)
    vectors[-1] = empty
    row = {k: i for i, k in enumerate(distinct)}
    return vectors[[row[k] if k else len(distinct) for k in keys]]


def _block_vectors(model: ModelParameters, instances):
    """(s_pre, s_post, c) of a batch, B rows each; the text blocks are None
    for CODE_HNN, which reads no context.

    Text blocks, titles and the constant <codeblock> sequence share one
    word-encoder call whenever they share its weights, so each distinct one
    is encoded once per batch.
    """
    v = model.config.variant
    n = len(instances)
    word_lists = []
    if v is not Variant.CODE_HNN:
        word_lists += [inst.pre_tokens for inst in instances]
        word_lists += [inst.post_tokens for inst in instances]
    shared_question = v in _USES_QUESTION and model.question_token is None
    if shared_question:
        word_lists += [inst.question_tokens for inst in instances]
    if v is Variant.TEXT_HNN:
        word_lists.append([CODEBLOCK_TOKEN])
    words = _token_vectors(model, word_lists, model.word_vocab, model.word_emb, model.text_token)
    s_pre, s_post = (None, None) if v is Variant.CODE_HNN else (words[:n], words[n : 2 * n])

    if v is Variant.TEXT_HNN:
        return s_pre, s_post, np.repeat(words[-1:], n, axis=0)
    c = _token_vectors(
        model, [inst.code_tokens for inst in instances],
        model.code_vocab, model.code_emb, model.code_token,
    )
    if v in _USES_QUESTION:
        if shared_question:
            question = words[-n:]
        else:
            question = _token_vectors(
                model, [inst.question_tokens for inst in instances],
                model.word_vocab, model.word_emb, model.question_token,
            )
        c = dense_rows(np.hstack([question, c]), model.fusion)
    return s_pre, s_post, c


def _bigru_at(x: np.ndarray, starts, code_at, stops, gru: BiGru) -> np.ndarray:
    """Bidirectional states at row ``code_at`` of each sequence
    ``starts:stops`` of ``x``: the forward state after reading up to it and
    the backward state after reading back down to it."""
    return np.hstack([
        gru_final_states(x, np.column_stack([starts, code_at + 1]), gru.fwd),
        gru_final_states(x, np.column_stack([code_at, stops]), gru.bwd, reverse=True),
    ])


def _forward_batch(model: ModelParameters, instances):
    """Logits (B x 2) and code representations z of a batch of instances.

    Same formulas as ``forward_graph``, computed on plain arrays: every
    token-level encoder runs once over the distinct blocks of the batch, and
    the sequence-level GRUs run batched over instances.
    """
    _check_inputs(model, instances)
    v = model.config.variant
    n = len(instances)
    if v is Variant.TEXT_RNN:
        vocab = model.word_vocab
        ids = [
            vocab.lookup_all(inst.pre_tokens) + vocab.lookup_all([CODEBLOCK_TOKEN])
            + vocab.lookup_all(inst.post_tokens)
            for inst in instances
        ]
        x = model.word_emb.value[np.concatenate(ids)]
        pre = np.array([len(inst.pre_tokens) for inst in instances], dtype=np.intp)
        lengths = np.array([len(row) for row in ids], dtype=np.intp)
        stops = np.cumsum(lengths)
        starts = stops - lengths
        z = _bigru_at(x, starts, starts + pre, stops, model.text_token)
    elif v is Variant.BIV_RNN:
        words, codes = model.word_emb.value, model.code_emb.value
        wv, cv = model.word_vocab, model.code_vocab
        x = np.concatenate([
            part
            for inst in instances
            for part in (
                words[wv.lookup_all(inst.pre_tokens)],
                codes[cv.lookup_all(inst.code_tokens)],
                words[wv.lookup_all(inst.post_tokens)],
            )
        ])
        lengths = [len(i.pre_tokens) + len(i.code_tokens) + len(i.post_tokens) for i in instances]
        z = _bigru_ends(x, lengths, model.text_token)
    else:
        s_pre, s_post, c = _block_vectors(model, instances)
        if v is Variant.CODE_HNN:
            z = c
        elif v is Variant.BIV_HFF:
            z = dense_rows(np.hstack([s_pre, c, s_post]), model.block_ff)
        else:
            x = np.stack([s_pre, c, s_post], axis=1).reshape(3 * n, -1)
            starts = 3 * np.arange(n)
            z = _bigru_at(x, starts, starts + 1, starts + 3, model.block)
    return dense_rows(z, model.output), z


def predict_scores(model: ModelParameters, instances) -> np.ndarray:
    """p(solution) of each instance, from one tape-free batched forward.

    Numeric contract: every score is within 1e-12 of
    ``softmax(forward_graph(model, inst)[0].value)[1]``, and the labels
    (``label_of``) are the same.
    """
    if not instances:
        return np.zeros(0)
    logits, _ = _forward_batch(model, instances)
    return softmax_rows(logits)[:, 1]


def label_of(score: float) -> int:
    """Label 1 iff p(solution) >= 0.5."""
    return 1 if score >= 0.5 else 0


def forward(model: ModelParameters, inst: CodeContextInstance):
    """Solution probabilities [p0, p1] and the code representation."""
    logits, z = _forward_batch(model, [inst])
    return softmax(logits[0]), z[0]


def predict_label(model: ModelParameters, inst: CodeContextInstance):
    """(label, score) of one instance; see ``predict_scores``."""
    score = float(predict_scores(model, [inst])[0])
    return label_of(score), score


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "qcmine-checkpoint-v1"


def save_model(model: ModelParameters, path) -> None:
    obj = {
        "format": _CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "config_hash": model.config.hash(),
        "word_vocab": model.word_vocab.token_to_id,
        "code_vocab": model.code_vocab.token_to_id,
        "params": {name: nn_core.tensor_to_obj(n.value) for name, n in model.params.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, ensure_ascii=False)


def load_model(path) -> ModelParameters:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    if obj.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointMismatch(f"{path} is not a {_CHECKPOINT_FORMAT} file")
    cfg = VariantConfig.from_dict(obj["config"])
    if obj.get("config_hash") != cfg.hash():
        raise CheckpointMismatch(f"{path}: config hash does not match its config")
    word_vocab = Vocabulary(dict(obj["word_vocab"]))
    code_vocab = Vocabulary(dict(obj["code_vocab"]))
    tensors = {name: nn_core.tensor_from_obj(t) for name, t in obj["params"].items()}

    def get(name, shape, _init):
        if name not in tensors:
            raise CheckpointMismatch(f"{path}: missing parameter {name}")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(shape):
            raise CheckpointMismatch(
                f"{path}: parameter {name} has shape {arr.shape}, expected {shape}"
            )
        return arr

    model = _build(cfg, word_vocab, code_vocab, get)
    extra = set(tensors) - set(model.params)
    if extra:
        raise CheckpointMismatch(f"{path}: unexpected parameters {sorted(extra)}")
    return model
