"""Training loop, evaluation metrics, heuristic baselines, and the
three-model agreement ensemble.

Two loops run numpy work on threads, both through
``nn_core.run_concurrently``: ``train``, which holds BLAS to one thread for
the whole call while each Bi-GRU trains its two directions at once, and
``ensemble_batch``, which looks up every voter's vocabulary ids first
(``models.look_up``) and then runs the voters' forwards at once, each to
its p(solution) (``models.scores``). Validation and single-model evaluation
run in turn."""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import models as models_mod
from .nn_core import (
    AdamState, adam_update, backward, one_blas_thread, run_concurrently, softmax_xent_rows,
)
from .post_parser import CodeContextInstance


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

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(preds, golds) -> Metrics:
    """Binary classification metrics with label 1 as the positive class.
    Degenerate denominators yield 0."""
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
    if m.tp + m.fn:
        m.recall = m.tp / (m.tp + m.fn)
    if m.precision + m.recall:
        m.f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
    m.accuracy = (m.tp + m.tn) / total if total else 0.0
    return m


def select_first(instances) -> list[int]:
    """Heuristic: only the first code block of an answer is a solution."""
    return [1 if inst.position == 1 else 0 for inst in instances]


def select_all(instances) -> list[int]:
    """Heuristic: every code block is a solution."""
    return [1] * len(instances)


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


# Instances per batched forward (``chunked``). Each GRU step multiplies the
# states of the whole batch at once and costs 20-30 us besides its per-row
# arithmetic, and a batch runs as many steps as its longest sequence, so
# taller batches take fewer steps per instance: the 252 blocks of the
# benchmark's mine_multi dump take 1,052 steps in one chunk of 512, 2,102 in
# two of 128. The bound keeps the working set small: one voter's forward over
# a chunk of 512 peaks at ~21 MiB of numpy arrays (~7 MiB at 128), and
# ``ensemble_batch`` runs the voters at once, so a chunk peaks at ~37-41 MiB
# (~14 MiB at 128) with two or three workers, at most three voters' ~62 MiB,
# well under the memory that loading three paper-size checkpoints takes.
# ``ensemble-eval`` and ``predict_labels`` make chunks of exactly 512. A
# ``mine`` chunk ends with the whole answer that fills it, so it can hold up
# to INFERENCE_CHUNK plus the largest answer's code blocks minus one
# instances, and its peak is not bounded by these figures.
INFERENCE_CHUNK = 512


def chunked(items, count=lambda item: 1):
    """Consecutive runs of ``items``, in order, where an item holds
    ``count(item)`` instances. A run closes once it holds INFERENCE_CHUNK
    instances or more, and while it holds none, so nothing waits behind an
    item that holds none; the last run may hold fewer."""
    run, held = [], 0
    for item in items:
        run.append(item)
        held += count(item)
        if not held or held >= INFERENCE_CHUNK:
            yield run
            run, held = [], 0
    if run:
        yield run


def ensemble_batch(biv, text, code, instances) -> list[EnsembleDecision]:
    """``ensemble`` of every instance, with one batched forward per voter.

    Each voter's vocabulary lookups run on the calling thread
    (``models.look_up``), which returns the rest of its forward. The voters
    share nothing, so those forwards, each to its scores
    (``models.scores``), then run at once (``nn_core.run_concurrently``: up
    to one thread per usable CPU, with numpy's BLAS held to one thread, or
    in turn where it cannot be held). A thread changes nothing a forward computes, and the tests find
    an inference forward's scores the same at one BLAS thread as at two, so
    they are bit for bit those of the voters run in turn. A failing voter
    raises what the voters in turn would: the first failure in voter order,
    of a lookup or a forward."""
    if not instances:
        return []
    forwards = []
    for voter in (biv, text, code):
        try:
            forward = models_mod.look_up(voter, instances)
        except Exception:
            run_concurrently(forwards)  # an earlier voter's failure comes first
            raise
        forwards.append(functools.partial(models_mod.scores, forward))
    scores = run_concurrently(forwards)
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
    logits, _ = models_mod.look_up(model, instances)(True)
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

    numpy's BLAS is held to one thread for the whole call
    (``nn_core.one_blas_thread``). The two directions of each Bi-GRU
    (``nn_core.bigru_final_states``) then train on two threads without
    contending for BLAS's threads, and no product's result depends on the
    host's thread count, so a checkpoint is byte for byte the same at any
    BLAS thread count. Where the count cannot be held, the directions run
    in turn and a checkpoint is the same per thread count. Validation runs
    in turn.
    """
    hyper = hyper or TrainConfig()
    if not train_set or not valid_set:
        raise EmptySplit("train and validation splits must be nonempty")
    if any(inst.label is None for inst in train_set + valid_set):
        raise ValueError("all training/validation instances must be labeled")

    rng = np.random.default_rng(hyper.seed)
    adam = AdamState(lr=hyper.lr)
    best, best_f1 = None, -1.0  # the first epoch's F1 >= 0 replaces them
    stale = 0
    history: list[EpochStats] = []
    with one_blas_thread():
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
    if best is not None:
        model.restore(best)
    return model, history
