"""Training loop, evaluation metrics, heuristic baselines, and the
three-model agreement ensemble."""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import models as models_mod
from .nn_core import AdamState, adam_update, backward, softmax_xent_rows
from .post_parser import BlockSequence, CodeContextInstance


class LengthMismatch(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class EmptySplit(ValueError):
    pass


@dataclass
class Metrics:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    accuracy: float = 0.0
    zero_division: bool = False

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "precision": self.precision, "recall": self.recall,
            "f1": self.f1, "accuracy": self.accuracy,
        }


def evaluate(preds, golds) -> Metrics:
    """Binary classification metrics with label 1 as the positive class.
    Degenerate denominators yield 0 and set the zero_division flag."""
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    m = Metrics()
    for p, g in zip(preds, golds):
        if p == 1 and g == 1:
            m.tp += 1
        elif p == 1:
            m.fp += 1
        elif g == 1:
            m.fn += 1
        else:
            m.tn += 1
    total = m.tp + m.fp + m.tn + m.fn
    if m.tp + m.fp:
        m.precision = m.tp / (m.tp + m.fp)
    else:
        m.zero_division = True
    if m.tp + m.fn:
        m.recall = m.tp / (m.tp + m.fn)
    else:
        m.zero_division = True
    if m.precision + m.recall:
        m.f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
    else:
        m.zero_division = True
    m.accuracy = (m.tp + m.tn) / total if total else 0.0
    return m


def select_first(seq: BlockSequence) -> list[int]:
    """Heuristic: only the first code block is a solution."""
    n = len(seq.code_blocks())
    return [1] + [0] * (n - 1) if n else []


def select_all(seq: BlockSequence) -> list[int]:
    """Heuristic: every code block is a solution."""
    return [1] * len(seq.code_blocks())


def mrr(ranks) -> float:
    """Mean reciprocal rank over 1-based rank positions."""
    ranks = list(ranks)
    if not ranks:
        raise EmptyInput("mrr needs at least one rank")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks are 1-based")
    return sum(1.0 / r for r in ranks) / len(ranks)


def cohens_kappa(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two binary label vectors."""
    a, b = list(labels_a), list(labels_b)
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)} labels")
    if not a:
        raise EmptyInput("kappa needs at least one pair")
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    pa = sum(a) / n
    pb = sum(b) / n
    p_e = pa * pb + (1 - pa) * (1 - pb)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1 - p_e)


# --------------------------------------------------------------------------
# Agreement ensemble
# --------------------------------------------------------------------------


class Decision(Enum):
    LABEL0 = 0
    LABEL1 = 1
    ABSTAIN = "abstain"


@dataclass
class EnsembleDecision:
    decision: Decision
    votes: tuple[int, int, int]
    scores: tuple[float, float, float]


def combine_votes(votes) -> Decision:
    votes = tuple(votes)
    if all(v == votes[0] for v in votes):
        return Decision.LABEL1 if votes[0] == 1 else Decision.LABEL0
    return Decision.ABSTAIN


# Instances per batched forward. Each GRU step multiplies the states of the
# whole batch at once and costs 20-30 us besides its per-row arithmetic, and a
# batch runs as many steps as its longest sequence, so taller batches take
# fewer steps per instance: the 252 blocks of the benchmark's mine_multi dump
# take 1,052 steps in one chunk of 512, 2,102 in two of 128. The bound keeps
# the working set small: a full chunk of 512 peaks at ~21 MiB of numpy
# arrays (~8 MiB at 128), well under the memory that loading three
# paper-size checkpoints takes.
INFERENCE_CHUNK = 512


def chunked(items):
    """Consecutive slices of at most INFERENCE_CHUNK items."""
    for start in range(0, len(items), INFERENCE_CHUNK):
        yield items[start : start + INFERENCE_CHUNK]


def ensemble_batch(biv, text, code, instances) -> list[EnsembleDecision]:
    """``ensemble`` of every instance, with one batched forward per voter."""
    scores = [models_mod.predict_scores(model, instances) for model in (biv, text, code)]
    decisions = []
    for triple in zip(*scores):
        triple = tuple(float(s) for s in triple)
        votes = tuple(models_mod.label_of(s) for s in triple)
        decisions.append(EnsembleDecision(combine_votes(votes), votes, triple))
    return decisions


def ensemble(biv, text, code, inst: CodeContextInstance) -> EnsembleDecision:
    """Predict only on unanimous votes of the three models, else abstain."""
    return ensemble_batch(biv, text, code, [inst])[0]


# --------------------------------------------------------------------------
# Neural training loop
# --------------------------------------------------------------------------


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 100
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    freeze_embeddings: bool = False


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid: Metrics
    seconds: float  # wall time of the epoch's training and validation

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch, "train_loss": self.train_loss,
            "precision": self.valid.precision, "recall": self.valid.recall,
            "f1": self.valid.f1, "seconds": self.seconds,
        }


def _slice_backward(model, instances, seed: float) -> float:
    """One batched forward and backward over ``instances``, each loss
    weighted by ``seed``; returns their summed loss. The graph is freed on
    return, before the next mini-batch builds its own."""
    logits, _ = models_mod._forward_batch(model, instances, grad=True)
    _, loss = softmax_xent_rows(logits, [inst.label for inst in instances])
    backward(loss, seed=seed)
    return float(loss.value)


def _epoch_pass(model, instances, order, batch_size, adam, freeze_embeddings=False) -> float:
    total_loss = 0.0
    for start in range(0, len(order), batch_size):
        batch = [instances[idx] for idx in order[start : start + batch_size]]
        model.zero_grad()
        total_loss += _slice_backward(model, batch, 1.0 / len(batch))
        if freeze_embeddings:
            for name in ("word_embeddings", "code_embeddings"):
                node = model.params.get(name)
                if node is not None:
                    node.grad = None
        adam_update(model.named_values(), model.named_grads(), adam)
    model.zero_grad()  # free the applied gradients before validation
    return total_loss / len(order)


def predict_labels(model, instances) -> list[int]:
    """Labels of every instance, batched in chunks."""
    return [
        models_mod.label_of(score)
        for chunk in chunked(instances)
        for score in models_mod.predict_scores(model, chunk)
    ]


def evaluate_model(model, instances) -> Metrics:
    return evaluate(predict_labels(model, instances), [inst.label for inst in instances])


def train(
    model: "models_mod.ModelParameters",
    train_set: list[CodeContextInstance],
    valid_set: list[CodeContextInstance],
    hyper: TrainConfig | None = None,
) -> tuple["models_mod.ModelParameters", list[EpochStats]]:
    """Adam mini-batch training with validation-F1 model selection.

    The best-epoch parameters are restored into ``model`` before returning;
    training stops early after ``patience`` non-improving epochs.
    """
    hyper = hyper or TrainConfig()
    if not train_set or not valid_set:
        raise EmptySplit("train and validation splits must be nonempty")
    if any(inst.label is None for inst in train_set + valid_set):
        raise ValueError("all training/validation instances must be labeled")

    rng = np.random.default_rng(hyper.seed)
    adam = AdamState(lr=hyper.lr)
    best = model.snapshot()
    best_f1 = -1.0
    stale = 0
    history: list[EpochStats] = []
    for epoch in range(1, hyper.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_set))
        mean_loss = _epoch_pass(
            model, train_set, order, hyper.batch_size, adam, hyper.freeze_embeddings
        )
        metrics = evaluate_model(model, valid_set)
        history.append(EpochStats(epoch, mean_loss, metrics, time.perf_counter() - started))
        if metrics.f1 > best_f1:
            best_f1 = metrics.f1
            best = model.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= hyper.patience:
                break
    model.restore(best)
    return model, history
