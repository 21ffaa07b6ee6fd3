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
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import nn_core
from .nn_core import (
    LINEAR,
    TANH,
    DenseParams,
    GruParams,
    Node,
    bigru_encode,  # noqa: F401  unused here; bench/run.py traces models.bigru_encode by name
    concat,
    dense_rows,
    gru_final_states,
    softmax,
    softmax_rows,
    take_rows,
)
from .post_parser import CodeContextInstance
from .tokenize import Tokenizer
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
        return {**asdict(self), "variant": self.variant.value}

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


@dataclass
class BiGru:
    fwd: GruParams
    bwd: GruParams


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
            return load_embeddings(word_embedding_file, word_vocab, cfg.d_embed, cfg.seed).table
        if init == "code_emb":
            return load_embeddings(code_embedding_file, code_vocab, cfg.d_embed, cfg.seed + 1).table
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


def _bigru_ends(x: Node, lengths, gru: BiGru, grad: bool) -> Node:
    """[last forward state, first backward state] of each sequence, where
    the sequences are consecutive runs of ``lengths`` rows of ``x``."""
    stops = np.cumsum(lengths, dtype=np.intp)
    spans = np.column_stack([stops - lengths, stops])
    return concat(
        gru_final_states(x, spans, gru.fwd, grad=grad),
        gru_final_states(x, spans, gru.bwd, reverse=True, grad=grad),
    )


def _bigru_at(x: Node, starts, code_at, stops, gru: BiGru, grad: bool) -> Node:
    """Bidirectional states at row ``code_at`` of each sequence
    ``starts:stops`` of ``x``: the forward state after reading up to it and
    the backward state after reading back down to it."""
    return concat(
        gru_final_states(x, np.column_stack([starts, code_at + 1]), gru.fwd, grad=grad),
        gru_final_states(x, np.column_stack([code_at, stops]), gru.bwd, reverse=True, grad=grad),
    )


def _token_vectors(model: ModelParameters, groups, vocab, emb: Node, gru: BiGru, grad: bool):
    """One encoder-vector node per group of token lists, a row per list.

    Each distinct non-empty list of all groups is encoded once; empty lists
    get the learned empty-block vector, or zeros in variants without one.
    """
    keys = [[tuple(tokens) for tokens in group] for group in groups]
    distinct = list(dict.fromkeys(k for group in keys for k in group if k))
    d = 2 * model.config.d_token_gru
    if distinct:
        ids = np.concatenate([vocab.lookup_all(k) for k in distinct])
        ends = _bigru_ends(take_rows(emb, ids), [len(k) for k in distinct], gru, grad)
    else:
        ends = Node(np.zeros((0, d)))
    empty = model.empty_block if model.empty_block is not None else Node(np.zeros(d))
    row = {k: i for i, k in enumerate(distinct)}
    return [take_rows(ends, [row[k] if k else -1 for k in group], fill=empty) for group in keys]


def _block_vectors(model: ModelParameters, instances, grad: bool):
    """(s_pre, s_post, c) nodes of a batch, B rows each; the text blocks are
    None for CODE_HNN, which reads no context.

    Text blocks, titles and the constant <codeblock> sequence share one
    word-encoder call whenever they share its weights, so each distinct one
    is encoded once per batch.
    """
    v = model.config.variant
    groups = []
    if v is not Variant.CODE_HNN:
        groups += [[inst.pre_tokens for inst in instances], [inst.post_tokens for inst in instances]]
    shared_question = v in _USES_QUESTION and model.question_token is None
    if shared_question:
        groups.append([inst.question_tokens for inst in instances])
    if v is Variant.TEXT_HNN:
        # code masked by the unified CODEBLOCK vector, learned through the
        # text encoder's one-step pass
        groups.append([[CODEBLOCK_TOKEN]] * len(instances))
    words = _token_vectors(
        model, groups, model.word_vocab, model.word_emb, model.text_token, grad
    )
    s_pre, s_post = (None, None) if v is Variant.CODE_HNN else words[:2]
    if v is Variant.TEXT_HNN:
        return s_pre, s_post, words[-1]
    (c,) = _token_vectors(
        model, [[inst.code_tokens for inst in instances]],
        model.code_vocab, model.code_emb, model.code_token, grad,
    )
    if v in _USES_QUESTION:
        if shared_question:
            question = words[-1]
        else:
            (question,) = _token_vectors(
                model, [[inst.question_tokens for inst in instances]],
                model.word_vocab, model.word_emb, model.question_token, grad,
            )
        c = dense_rows(concat(question, c), model.fusion)
    return s_pre, s_post, c


def _forward_batch(model: ModelParameters, instances, grad: bool = False):
    """Logits (B x 2) and code representations z of a batch, as tape nodes.

    This is the one forward of every variant, for training and inference.
    Every token-level encoder runs once over the distinct blocks of the
    batch, and the sequence-level GRUs run batched over instances, so the
    graph has a few dozen nodes whatever the token lengths. ``grad`` keeps
    what the GRU backward needs; inference leaves it off.
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
        x = take_rows(model.word_emb, np.concatenate(ids))
        pre = np.array([len(inst.pre_tokens) for inst in instances], dtype=np.intp)
        lengths = np.array([len(row) for row in ids], dtype=np.intp)
        stops = np.cumsum(lengths)
        starts = stops - lengths
        z = _bigru_at(x, starts, starts + pre, stops, model.text_token, grad)
    elif v is Variant.BIV_RNN:
        words, codes = model.word_emb, model.code_emb
        wv, cv = model.word_vocab, model.code_vocab
        x = concat(*[
            take_rows(emb, vocab.lookup_all(tokens))
            for inst in instances
            for emb, vocab, tokens in (
                (words, wv, inst.pre_tokens), (codes, cv, inst.code_tokens), (words, wv, inst.post_tokens)
            )
        ], axis=0)
        lengths = [len(i.pre_tokens) + len(i.code_tokens) + len(i.post_tokens) for i in instances]
        z = _bigru_ends(x, lengths, model.text_token, grad)
    else:
        s_pre, s_post, c = _block_vectors(model, instances, grad)
        if v is Variant.CODE_HNN:
            z = c
        elif v is Variant.BIV_HFF:
            z = dense_rows(concat(s_pre, c, s_post), model.block_ff)
        else:
            # rows pre_i, c_i, post_i of each instance in turn
            x = take_rows(concat(s_pre, c, s_post, axis=0), np.arange(3 * n).reshape(3, n).T.ravel())
            starts = 3 * np.arange(n)
            z = _bigru_at(x, starts, starts + 1, starts + 3, model.block, grad)
    return dense_rows(z, model.output), z


def forward_graph(model: ModelParameters, inst: CodeContextInstance):
    """The prediction graph of one instance: (logits node of shape (2,),
    code-representation node z)."""
    logits, z = _forward_batch(model, [inst], grad=True)
    return take_rows(logits, 0), take_rows(z, 0)


def predict_scores(model: ModelParameters, instances) -> np.ndarray:
    """p(solution) of each instance, from one tape-free batched forward.

    Numeric contract: every score is within 1e-12 of the same instance's
    score from a per-timestep ``gru_step`` graph, and the labels
    (``label_of``) are the same.
    """
    if not instances:
        return np.zeros(0)
    logits, _ = _forward_batch(model, instances)
    return softmax_rows(logits.value)[:, 1]


def label_of(score: float) -> int:
    """Label 1 iff p(solution) >= 0.5."""
    return 1 if score >= 0.5 else 0


def forward(model: ModelParameters, inst: CodeContextInstance):
    """Solution probabilities [p0, p1] and the code representation."""
    logits, z = _forward_batch(model, [inst])
    return softmax(logits.value[0]), z.value[0]


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


def check_preprocessing(path, preprocessing, tokenizer: Tokenizer | None) -> None:
    """Refuse a model file trained on other tokens than ``tokenizer``'s."""
    if tokenizer is not None and preprocessing != tokenizer.fingerprint():
        raise CheckpointMismatch(
            f"{path} was trained on tokens from {preprocessing}, "
            f"but the config tokenizes with {tokenizer.fingerprint()}"
        )


def save_model(model: ModelParameters, path) -> None:
    """One JSON object; each tensor is ``nn_core.tensor_to_obj``'s base64."""
    obj = {
        "format": _CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "config_hash": _head_hash(model.config, model.preprocessing),
        "preprocessing": model.preprocessing,
        "word_vocab": model.word_vocab.token_to_id,
        "code_vocab": model.code_vocab.token_to_id,
        "params": {name: nn_core.tensor_to_obj(n.value) for name, n in model.params.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, ensure_ascii=False)


def load_model(path, tokenizer: Tokenizer | None = None) -> ModelParameters:
    """Read a checkpoint; given ``tokenizer``, refuse one of other tokens."""
    with open(path, encoding="utf-8") as f:
        return model_from_obj(json.load(f), path, tokenizer)


def model_from_obj(obj, path, tokenizer: Tokenizer | None = None) -> ModelParameters:
    """The model of a parsed checkpoint ``obj`` read from ``path``."""
    if not isinstance(obj, dict):
        raise CheckpointMismatch(f"{path} does not hold a JSON object")
    if obj.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointMismatch(
            f"{path} has format {obj.get('format')!r}, not {_CHECKPOINT_FORMAT}; retrain it"
        )
    keys = ("config", "word_vocab", "code_vocab", "params")
    bad = [key for key in keys if not isinstance(obj.get(key), dict)]
    if bad:
        raise CheckpointMismatch(f"{path}: checkpoint lacks a JSON object under {bad}")
    cfg = read_parts(path, obj, {"config": VariantConfig.from_dict})["config"]
    preprocessing = obj.get("preprocessing")
    if obj.get("config_hash") != _head_hash(cfg, preprocessing):
        raise CheckpointMismatch(f"{path}: config hash does not match its config")
    check_preprocessing(path, preprocessing, tokenizer)
    word_vocab = Vocabulary(dict(obj["word_vocab"]))
    code_vocab = Vocabulary(dict(obj["code_vocab"]))
    tensors = read_parts(path, obj["params"], dict.fromkeys(obj["params"], nn_core.tensor_from_obj))

    def get(name, shape, _init):
        if name not in tensors:
            raise CheckpointMismatch(f"{path}: missing parameter {name}")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(shape):
            raise CheckpointMismatch(f"{path}: parameter {name} has shape {arr.shape}, not {shape}")
        return arr

    model = _build(cfg, word_vocab, code_vocab, preprocessing, get)
    extra = set(tensors) - set(model.params)
    if extra:
        raise CheckpointMismatch(f"{path}: unexpected parameters {sorted(extra)}")
    return model
