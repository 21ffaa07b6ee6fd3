"""Differentiable building blocks on a minimal reverse-mode tape.

Everything is double precision. Each op takes Nodes (or arrays), returns a
Node carrying its value, and records a closure that routes the incoming
gradient to its parents. ``backward`` replays the tape once per loss;
parameter gradients accumulate across calls until ``zero_grad``. ``_grad``
allocates each node's ``grad``, as ``np.zeros`` on first use: C-contiguous
for ``_scatter_rows``, and zeroed lazily, so rows never read are never written.

The model's graph is built from row-level ops, so a whole mini-batch of
instances is a handful of nodes: ``take_rows`` (row selections),
``concat``, ``dense_rows``, ``softmax_xent_rows`` and ``gru_final_states``,
one node per GRU run over many sequences, which reads its input rows
straight from an embedding table through token ids. For training that node
keeps only the GRU's states and recomputes its gates in the backward, so a
whole mini-batch fits in one graph. Row gradients are scattered with one
flat 1-D ``np.add.at`` (``_scatter_rows``), and the GRU's gate arithmetic
runs in place; both do the same IEEE operations in the same order as the
plain formulas, so results are bit for bit the same. The per-vector ops
(``gru_step``, ``bigru_encode``, ``dense``, ``softmax_xent``,
``embedding_row``) compute the same formulas one step at a time; the tests
use them as the reference.

The GRU follows the convention where the update gate u weighs the previous
state: h = u*h_prev + (1-u)*h_tilde, so u near 1 memorizes the past.

Independent work runs on threads through one helper, ``run_concurrently``,
which holds numpy's BLAS to one thread meanwhile (``one_blas_thread``) and
runs the calls in turn where it cannot. ``bigru_final_states`` is a Bi-GRU
as one node: in training its two directions run at once, forward and
backward, with gradients bit for bit those of the directions in turn.

Checkpoint tensors are base64 of little-endian float64 bytes
(``tensor_to_obj``). ``tensor_base64`` encodes it a slice at a time, which
``models.write_model_file`` writes out as it goes, and ``tensor_from_obj``
decodes it a slice at a time straight into the array it returns, from a
string or from the view of the file's bytes that ``models.parse_model_file``
hands over. So saving a checkpoint holds no base64 copy of a whole tensor,
and loading one holds the file's bytes and the arrays but no text copy of
the base64. A string and its bytes decode alike; the one difference from
parsing the whole file as text is that tensor data JSON refuses (a raw
control character, bytes that are not UTF-8) fails at decode, as bad base64.
"""

from __future__ import annotations

import base64
import ctypes
import functools
import importlib
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonFiniteInput(ValueError):
    pass


class EmptySequence(ValueError):
    pass


class Node:
    """A value in the computation graph.

    Leaves (parameters, constants) have no backward closure. ``grad`` is
    allocated lazily and accumulates until explicitly cleared.
    """

    __slots__ = ("value", "grad", "parents", "backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={self.backward_fn is None})"


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _grad(node: Node) -> np.ndarray:
    if node.grad is None:
        node.grad = np.zeros(node.value.shape)
    return node.grad


def _acc(node: Node, g):
    grad = _grad(node)
    grad += g


def backward(loss: Node, seed: float = 1.0) -> None:
    """Reverse-mode sweep from ``loss``, seeding dL/dloss = seed.

    Gradients accumulate into ``.grad`` of every reachable leaf, so calling
    this once per instance (or batch) with seed 1/N yields mean-loss
    gradients. The sweep consumes the graph: once an op has passed its
    gradient on, its closure and its own gradient are dropped, so saved
    activations are freed as the sweep goes. Build a new graph for each
    sweep.
    """
    topo: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    _acc(loss, np.full_like(loss.value, seed))
    for node in reversed(topo):
        if node.backward_fn is not None:
            node.backward_fn(node.grad)
            node.backward_fn = node.grad = None


def zero_grad(nodes) -> None:
    for node in nodes:
        node.grad = None


def _check_vector(x: Node, name: str) -> None:
    if x.value.ndim != 1:
        raise ShapeMismatch(f"{name} must be a vector, got shape {x.value.shape}")
    if not np.isfinite(x.value).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf")


def concat(*nodes: Node, axis: int = -1) -> Node:
    """Join along ``axis``: the last one by default, so vectors chain end to
    end and matrices side by side; ``axis=0`` stacks rows."""
    nodes = tuple(as_node(n) for n in nodes)
    cuts = np.cumsum([n.value.shape[axis] for n in nodes])[:-1]
    out = Node(np.concatenate([n.value for n in nodes], axis=axis), nodes)

    def backward_fn(g):
        for node, piece in zip(nodes, np.split(g, cuts, axis=axis)):
            _acc(node, piece)

    out.backward_fn = backward_fn
    return out


def _scatter_rows(target, idx, rows) -> None:
    """``np.add.at(target, idx, rows)`` for a C-contiguous 2-D ``target``:
    ``rows[k]`` is added to row ``idx[k]`` for each k in turn, so repeated
    ids accumulate, in the same order. ``idx`` may be an int or an array;
    negative ids count from the end. It runs as one 1-D ``np.add.at`` over
    flat positions, the case numpy's fast ``ufunc.at`` path covers (numpy
    1.25 on); a 2-D target takes the slow generic path."""
    if target.ndim != 2 or not target.flags.c_contiguous:
        raise ValueError(f"_scatter_rows needs a C-contiguous 2-D target, got shape {target.shape}")
    n_rows, width = target.shape
    idx = np.asarray(idx, dtype=np.intp)
    if np.shape(rows) != idx.shape + (width,):
        raise ShapeMismatch(f"rows of shape {np.shape(rows)} for ids of shape {idx.shape}")
    idx = idx.reshape(-1)
    if idx.size and (idx.min() < -n_rows or idx.max() >= n_rows):
        raise IndexError(f"a row id is out of range for {n_rows} rows")
    flat = np.where(idx < 0, idx + n_rows, idx)[:, None] * width + np.arange(width)
    np.add.at(target.reshape(-1), flat.reshape(-1), np.reshape(rows, -1))


def take_rows(x, idx, fill=None) -> Node:
    """Rows ``idx`` of ``x`` (an int picks one row). With ``fill``, index -1
    picks the vector ``fill`` instead. The backward scatters the gradient
    with ``_scatter_rows``, so repeated rows accumulate."""
    x = as_node(x)
    idx = np.asarray(idx, dtype=np.intp)
    if fill is None:
        source, parents = x.value, (x,)
    else:
        fill = as_node(fill)
        source, parents = np.concatenate([x.value, fill.value[None]]), (x, fill)
    out = Node(source[idx], parents)

    def backward_fn(g):
        if fill is None:
            _scatter_rows(_grad(x), idx, g)
            return
        acc = np.zeros(source.shape)
        _scatter_rows(acc, idx, g)
        _acc(x, acc[:-1])
        _acc(fill, acc[-1])

    out.backward_fn = backward_fn
    return out


def _sigmoid(x, out=None):
    # 1/(1+e^-x) written as (1 + tanh(x/2))/2: one transcendental, no branch,
    # and tanh saturates to +-1 rather than overflowing, so the extremes are
    # exactly 0 and 1. Each operation writes into ``out``, which may be x.
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


# --------------------------------------------------------------------------
# GRU
# --------------------------------------------------------------------------


@dataclass
class GruParams:
    """Gate parameters; each matrix is d_h x (d_x + d_h)."""

    w_r: Node
    w_u: Node
    w: Node
    b_r: Node
    b_u: Node
    b: Node

    @property
    def d_h(self) -> int:
        return self.w.value.shape[0]

    @property
    def d_x(self) -> int:
        return self.w.value.shape[1] - self.d_h

    def nodes(self):
        return [
            ("w_r", self.w_r), ("w_u", self.w_u), ("w", self.w),
            ("b_r", self.b_r), ("b_u", self.b_u), ("b", self.b),
        ]


def init_gru(d_x: int, d_h: int, rng: np.random.Generator) -> GruParams:
    shape = (d_h, d_x + d_h)
    return GruParams(
        w_r=Node(glorot_init(shape, rng)),
        w_u=Node(glorot_init(shape, rng)),
        w=Node(glorot_init(shape, rng)),
        b_r=Node(np.zeros(d_h)),
        b_u=Node(np.zeros(d_h)),
        b=Node(np.zeros(d_h)),
    )


@dataclass
class BiGru:
    fwd: GruParams
    bwd: GruParams


def gru_step(x, h_prev, p: GruParams) -> Node:
    """One GRU step, fused into a single tape entry.

        r = sigmoid(W_r [x, h_prev] + b_r)
        u = sigmoid(W_u [x, h_prev] + b_u)
        h_tilde = tanh(W [x, r*h_prev] + b)
        h = u*h_prev + (1-u)*h_tilde
    """
    x, h_prev = as_node(x), as_node(h_prev)
    _check_vector(x, "x")
    _check_vector(h_prev, "h_prev")
    d_x, d_h = p.d_x, p.d_h
    if x.value.shape[0] != d_x or h_prev.value.shape[0] != d_h:
        raise ShapeMismatch(
            f"expected x[{d_x}], h_prev[{d_h}], got x[{x.value.shape[0]}], "
            f"h_prev[{h_prev.value.shape[0]}]"
        )

    xv, hv = x.value, h_prev.value
    xh = np.concatenate([xv, hv])
    r = _sigmoid(p.w_r.value @ xh + p.b_r.value)
    u = _sigmoid(p.w_u.value @ xh + p.b_u.value)
    xrh = np.concatenate([xv, r * hv])
    hc = np.tanh(p.w.value @ xrh + p.b.value)
    h = u * hv + (1.0 - u) * hc

    out = Node(h, (x, h_prev, p.w_r, p.w_u, p.w, p.b_r, p.b_u, p.b))

    def backward_fn(g):
        d_u = g * (hv - hc)
        d_ac = g * (1.0 - u) * (1.0 - hc * hc)
        d_hp = g * u
        _acc(p.w, np.outer(d_ac, xrh))
        _acc(p.b, d_ac)
        d_xrh = p.w.value.T @ d_ac
        d_rh = d_xrh[d_x:]
        d_r = d_rh * hv
        d_hp = d_hp + d_rh * r
        d_ar = d_r * r * (1.0 - r)
        d_au = d_u * u * (1.0 - u)
        _acc(p.w_r, np.outer(d_ar, xh))
        _acc(p.b_r, d_ar)
        _acc(p.w_u, np.outer(d_au, xh))
        _acc(p.b_u, d_au)
        d_xh = p.w_r.value.T @ d_ar + p.w_u.value.T @ d_au
        _acc(x, d_xrh[:d_x] + d_xh[:d_x])
        _acc(h_prev, d_hp + d_xh[d_x:])

    out.backward_fn = backward_fn
    return out


def bigru_encode(xs, fwd: GruParams, bwd: GruParams):
    """Run forward and backward GRUs over a sequence of vectors.

    Both directions start from zero states. Returns (last forward state,
    first-position backward state, per-step (fwd, bwd) state pairs).
    """
    xs = [as_node(x) for x in xs]
    if not xs:
        raise EmptySequence("bigru_encode needs at least one input vector")
    h = Node(np.zeros(fwd.d_h))
    fwd_states = []
    for x in xs:
        h = gru_step(x, h, fwd)
        fwd_states.append(h)
    h = Node(np.zeros(bwd.d_h))
    bwd_states: list[Node] = []
    for x in reversed(xs):
        h = gru_step(x, h, bwd)
        bwd_states.append(h)
    bwd_states.reverse()
    return fwd_states[-1], bwd_states[0], list(zip(fwd_states, bwd_states))


def _gate_weights(p: GruParams):
    """(input weights [W_r; W_u; W] of x, state weights of r and u, state
    weights of h_tilde), transposed to multiply rows of states."""
    w_r, w_u, w = p.w_r.value, p.w_u.value, p.w.value
    d_x = p.d_x
    w_x = np.concatenate([w_r[:, :d_x], w_u[:, :d_x], w[:, :d_x]])
    return w_x, np.concatenate([w_r[:, d_x:], w_u[:, d_x:]]).T, w[:, d_x:].T


def _projection(x_used, p: GruParams, w_x):
    """x [W_r; W_u; W] + [b_r; b_u; b] of each row of ``x_used``. The bias
    is added in place, so the only array made is the result."""
    out = np.matmul(x_used, w_x.T)
    out += np.concatenate([p.b_r.value, p.b_u.value, p.b.value])
    return out


def _step_blocks(running, n_seqs: int):
    """The backward's blocks of consecutive steps, last block first, as
    (first step, stop step) pairs. Walking back from the last step, a block
    closes once it holds at least ``n_seqs`` packed rows."""
    blocks, stop, rows = [], len(running), 0
    for t in range(len(running) - 1, -1, -1):
        rows += running[t]
        if rows >= n_seqs or t == 0:
            blocks.append((t, stop))
            stop, rows = t, 0
    return blocks


def _gates(h_prev, a, u_ru, u_c):
    """r, u and h_tilde of rows of previous states ``h_prev`` and their
    input pre-activations ``a`` (rows of the projection), plus r * h_prev.
    The same operations as sigmoid(a_ru + h_prev U_ru) and
    tanh(a_c + (r h_prev) U_c) (IEEE addition and multiplication commute),
    each written into one of the three arrays returned."""
    d_h = h_prev.shape[1]
    ru = h_prev @ u_ru
    ru += a[:, : 2 * d_h]
    _sigmoid(ru, out=ru)
    r = ru[:, :d_h]
    rh = r * h_prev
    h_tilde = rh @ u_c
    h_tilde += a[:, 2 * d_h :]
    np.tanh(h_tilde, out=h_tilde)
    return r, ru[:, d_h:], h_tilde, rh


def _blocked_bptt(g, proj, slot, running, h_prevs, u_ru, u_c):
    """Back through time over the packed rows, block by block.

    ``g`` holds the gradients of the final states in packed order; it is
    overwritten. Returns the pre-activation gradients summed per distinct
    row (used x 3 d_h, the rows of ``proj``), summed over all rows (the bias
    gradients), and the state-weight gradients [r; u; h_tilde] (3 d_h x
    d_h). Only one block's gates and pre-activation gradients are alive at a
    time, and each product is written into an array it made, in the order of
    the formulas in the comments, so the result is bit for bit theirs.
    """
    d_h = h_prevs.shape[1]
    offsets = np.concatenate([[0], np.cumsum(running)])
    d_used = np.zeros(proj.shape)
    d_b = np.zeros(3 * d_h)
    d_w_state = np.zeros((3 * d_h, d_h))
    for t0, t1 in _step_blocks(running, len(g)):
        r0, r1 = offsets[t0], offsets[t1]
        h_prev = h_prevs[r0:r1]
        d_a = proj[slot[r0:r1]]  # pre-activations now, their gradients below
        r, u, h_tilde, rh = _gates(h_prev, d_a, u_ru, u_c)
        # d_a = [d_rh * c_r, dh * c_u, dh * c_c] for the gradient dh of h, with
        # c_r = h_prev * r * (1 - r), c_u = (h_prev - h_tilde) * u * (1 - u)
        # and c_c = (1 - u) * (1 - h_tilde**2)
        c_r = np.subtract(1.0, r)
        c_r *= rh
        one_u = np.subtract(1.0, u)
        c_u = np.subtract(h_prev, h_tilde)
        c_u *= u
        c_u *= one_u
        c_c = np.multiply(h_tilde, h_tilde, out=h_tilde)
        np.subtract(1.0, c_c, out=c_c)
        c_c *= one_u
        for t in range(t1 - 1, t0 - 1, -1):
            n = running[t]
            at = slice(offsets[t] - r0, offsets[t] - r0 + n)
            dh = g[:n]
            d_c = np.multiply(dh, c_c[at], out=d_a[at, 2 * d_h :])
            d_rh = d_c @ u_c.T
            np.multiply(d_rh, c_r[at], out=d_a[at, :d_h])
            np.multiply(dh, c_u[at], out=d_a[at, d_h : 2 * d_h])
            # g[:n] = dh * u + d_rh * r + d_a[:, :2 d_h] U_ru^T, added in that order
            back = d_a[at, : 2 * d_h] @ u_ru.T
            d_rh *= r[at]
            dh *= u[at]
            dh += d_rh
            dh += back
        _scatter_rows(d_used, slot[r0:r1], d_a)
        d_b += d_a.sum(axis=0)
        d_w_state[: 2 * d_h] += d_a[:, : 2 * d_h].T @ h_prev
        d_w_state[2 * d_h :] += d_a[:, 2 * d_h :].T @ rh
    return d_used, d_b, d_w_state


def gru_final_states(
    table, ids, spans, p: GruParams, reverse: bool = False, grad: bool = True
) -> Node:
    """Final states of a GRU run over many sequences at once, as one node.

    Input row k is row ``ids[k]`` of ``table`` (V x d_x): an embedding table
    read through token ids, or stacked rows read through ``np.arange`` or a
    permutation. Sequence i is input rows ``spans[i][0]`` up to
    ``spans[i][1] - 1``, read last row first when ``reverse``. Every run
    starts from a zero state. The value is a B x d_h array in span order.

    The sequences are sorted by length, longest first, and packed time-major,
    so the sequences still running at step t are a prefix of the batch and
    no padded step is computed. The input projection x [W_r; W_u; W] + b is
    one matmul over the distinct table rows the sequences use, each projected
    once however often its id recurs, and each step gathers its rows of it.
    Only those rows must be finite. Each step then multiplies only the
    state, and r and u come from one sigmoid call. Same formulas as
    ``gru_step``.

    With ``grad`` the node keeps only the previous state of every packed
    row, R x d_h for R rows, besides its index arrays. Its backward
    recomputes the projection of the distinct rows and walks back over
    blocks of consecutive steps (``_blocked_bptt``): for each block it
    recomputes r, u and h_tilde from the kept states with bulk matmuls,
    runs back through time inside the block, and folds the block into the
    bias, state-weight and per-distinct-row gradients (``_scatter_rows``).
    It then forms the input-weight gradient as one matmul and adds the input
    gradient straight into the table's gradient rows (``_grad``). Without
    ``grad`` (inference) nothing is kept and the node has no backward. Gates
    and states are computed in place (``_gates``), with the operations of
    the formulas in their order, so both passes are bit for bit the plain
    formulas.
    """
    table = as_node(table)
    states, sweep = _gru_kernel(table.value, ids, spans, p, reverse, grad)
    node = Node(states, (table, *[leaf for _, leaf in p.nodes()]))
    if grad:
        node.backward_fn = lambda g: _add_rows(table, *sweep(g))
    return node


def bigru_final_states(table, ids, fwd_spans, bwd_spans, gru: BiGru, grad: bool = True) -> Node:
    """[forward | backward] final states of each sequence as one node: the
    ``gru_final_states`` of ``gru.fwd`` over ``fwd_spans`` beside those of
    ``gru.bwd`` over ``bwd_spans`` in reverse, both reading ``table``. With
    ``grad`` the directions, sharing only the table, run at once
    (``run_concurrently``), and so do their backward sweeps, whose table rows
    the calling thread adds forward first: every gradient is bit for bit
    that of the directions in turn. Inference runs them in turn, as the
    ensemble already runs its voters at once."""
    table = as_node(table)
    directions = [(fwd_spans, gru.fwd, False), (bwd_spans, gru.bwd, True)]
    runs = [functools.partial(_gru_kernel, table.value, ids, *d, grad) for d in directions]
    states, sweeps = zip(*(run_concurrently(runs) if grad else [run() for run in runs]))
    leaves = [leaf for p in (gru.fwd, gru.bwd) for _, leaf in p.nodes()]
    node = Node(np.concatenate(states, axis=-1), (table, *leaves))
    if grad:
        def backward_fn(g):
            pieces = np.split(g, [gru.fwd.d_h], axis=-1)
            for rows in run_concurrently(map(functools.partial, sweeps, pieces)):
                _add_rows(table, *rows)

        node.backward_fn = backward_fn
    return node


def _add_rows(node: Node, rows, values) -> None:
    """Add ``values`` to the distinct ``rows`` of ``node``'s gradient."""
    _grad(node)[rows] += values


def _gru_kernel(tv, ids, spans, p: GruParams, reverse: bool, grad: bool):
    """(final states, sweep) of ``gru_final_states`` over the table array
    ``tv``. ``sweep(g)`` (None without ``grad``) adds the parameter
    gradients and returns the table-gradient rows as (row ids, rows)."""
    ids = np.asarray(ids, dtype=np.intp)
    spans = np.asarray(spans, dtype=np.intp).reshape(-1, 2)
    lengths = spans[:, 1] - spans[:, 0]
    if (lengths < 1).any():
        raise EmptySequence("gru_final_states needs at least one input vector per sequence")
    d_x, d_h = p.d_x, p.d_h
    if tv.ndim != 2 or tv.shape[1] != d_x:
        raise ShapeMismatch(f"expected rows of {d_x} inputs, got shape {tv.shape}")

    order = np.argsort(-lengths, kind="stable")
    first = spans[order, 1] - 1 if reverse else spans[order, 0]
    step = -1 if reverse else 1
    # running[t]: how many sequences are longer than t steps
    steps = lengths.max(initial=0)
    running = len(order) - np.cumsum(np.bincount(lengths, minlength=steps))[:steps]
    rows = np.concatenate([first[:n] + step * t for t, n in enumerate(running)] or [first[:0]])
    # packed row k reads table row used[slot[k]]
    used, slot = np.unique(ids[rows], return_inverse=True)
    x_used = tv[used]
    if not np.isfinite(x_used).all():
        raise NonFiniteInput("a table row the sequences read contains NaN or Inf")

    w_x, u_ru, u_c = _gate_weights(p)
    proj = _projection(x_used, p, w_x)
    del x_used
    if grad:
        h_prevs = np.empty((len(rows), d_h))
    h = np.zeros((len(order), d_h))
    start = 0
    for n in running:
        h_prev = h[:n]
        _, u, h_tilde, _ = _gates(h_prev, proj[slot[start : start + n]], u_ru, u_c)
        if grad:
            h_prevs[start : start + n] = h_prev
        start += n
        # h = u * h_prev + (1 - u) * h_tilde, in place in h
        h_tilde *= 1.0 - u
        h_prev *= u
        h_prev += h_tilde
    out = np.empty_like(h)
    out[order] = h
    if not grad:
        return out, None

    def sweep(g):
        w_x, u_ru, u_c = _gate_weights(p)
        # tv[used] is gathered twice: kept through _blocked_bptt, the copy
        # would add U x d_x floats to the backward's peak memory
        d_used, d_b, d_w_state = _blocked_bptt(
            g[order], _projection(tv[used], p, w_x), slot, running, h_prevs, u_ru, u_c
        )
        d_w_x = d_used.T @ tv[used]
        for k, (wp, bp) in enumerate([(p.w_r, p.b_r), (p.w_u, p.b_u), (p.w, p.b)]):
            gates = slice(k * d_h, (k + 1) * d_h)
            _acc(wp, np.hstack([d_w_x[gates], d_w_state[gates]]))
            _acc(bp, d_b[gates])
        d_x = d_used @ w_x
        del d_used, d_w_x  # freed before a table gradient is allocated
        return used, d_x

    return out, sweep


# --------------------------------------------------------------------------
# Dense / softmax
# --------------------------------------------------------------------------

TANH = "tanh"
LINEAR = "linear"


@dataclass
class DenseParams:
    w: Node
    b: Node
    activation: str = TANH  # TANH or LINEAR

    def nodes(self):
        return [("w", self.w), ("b", self.b)]


def init_dense(d_in: int, d_out: int, activation: str, rng: np.random.Generator) -> DenseParams:
    return DenseParams(
        w=Node(glorot_init((d_out, d_in), rng)), b=Node(np.zeros(d_out)), activation=activation
    )


def dense(x, p: DenseParams) -> Node:
    x = as_node(x)
    _check_vector(x, "x")
    if x.value.shape[0] != p.w.value.shape[1]:
        raise ShapeMismatch(
            f"dense expects input[{p.w.value.shape[1]}], got [{x.value.shape[0]}]"
        )
    a = p.w.value @ x.value + p.b.value
    y = np.tanh(a) if p.activation == TANH else a
    out = Node(y, (x, p.w, p.b))

    def backward_fn(g):
        da = g * (1.0 - y * y) if p.activation == TANH else g
        _acc(p.w, np.outer(da, x.value))
        _acc(p.b, da)
        _acc(x, p.w.value.T @ da)

    out.backward_fn = backward_fn
    return out


def dense_rows(x, p: DenseParams) -> Node:
    """``dense`` on every row of ``x`` at once, as one node."""
    x = as_node(x)
    xv = x.value
    if xv.ndim != 2 or xv.shape[1] != p.w.value.shape[1]:
        raise ShapeMismatch(f"dense expects rows of {p.w.value.shape[1]}, got shape {xv.shape}")
    if not np.isfinite(xv).all():
        raise NonFiniteInput("x contains NaN or Inf")
    a = xv @ p.w.value.T + p.b.value
    y = np.tanh(a) if p.activation == TANH else a
    out = Node(y, (x, p.w, p.b))

    def backward_fn(g):
        da = g * (1.0 - y * y) if p.activation == TANH else g
        _acc(p.w, da.T @ xv)
        _acc(p.b, da.sum(axis=0))
        _acc(x, da @ p.w.value)

    out.backward_fn = backward_fn
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """``softmax`` of every row."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent(logits, gold: int):
    """Softmax cross-entropy against a 0/1 gold label.

    Returns (probabilities, scalar loss node). The gradient to the logits
    is the exact closed form probs - onehot(gold).
    """
    logits = as_node(logits)
    if logits.value.shape != (2,):
        raise ShapeMismatch(f"expected 2 logits, got shape {logits.value.shape}")
    if gold not in (0, 1):
        raise ValueError(f"gold label must be 0 or 1, got {gold!r}")
    probs = softmax(logits.value)
    # -log(p[gold]) via logsumexp for stability at saturation
    z = logits.value - logits.value.max()
    loss_val = np.log(np.exp(z).sum()) - z[gold]
    out = Node(loss_val, (logits,))

    def backward_fn(g):
        d = probs.copy()
        d[gold] -= 1.0
        _acc(logits, g * d)

    out.backward_fn = backward_fn
    return probs, out


def softmax_xent_rows(logits, golds):
    """``softmax_xent`` of every row of B x 2 logits against 0/1 golds.

    Returns (B x 2 probabilities, scalar node holding the summed loss), so
    ``backward(loss, seed=1/N)`` gives each row the weight 1/N.
    """
    logits = as_node(logits)
    lv = logits.value
    if lv.ndim != 2 or lv.shape[1] != 2:
        raise ShapeMismatch(f"expected B x 2 logits, got shape {lv.shape}")
    golds = np.asarray(golds, dtype=np.intp)
    if golds.shape != (len(lv),) or not np.isin(golds, (0, 1)).all():
        raise ValueError(f"expected {len(lv)} gold labels of 0 or 1, got {golds!r}")
    probs = softmax_rows(lv)
    rows = np.arange(len(lv))
    # -log(p[gold]) via logsumexp for stability at saturation
    z = lv - lv.max(axis=1, keepdims=True)
    out = Node(np.sum(np.log(np.exp(z).sum(axis=1)) - z[rows, golds]), (logits,))

    def backward_fn(g):
        d = probs.copy()
        d[rows, golds] -= 1.0
        _acc(logits, g * d)

    out.backward_fn = backward_fn
    return probs, out


def embedding_row(table: Node, idx: int) -> Node:
    """Pick row ``idx`` of an embedding matrix; gradient scatters back."""
    out = Node(table.value[idx], (table,))

    def backward_fn(g):
        _grad(table)[idx] += g

    out.backward_fn = backward_fn
    return out


# --------------------------------------------------------------------------
# Optimization / initialization
# --------------------------------------------------------------------------


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(params: dict, grads: dict, state: AdamState):
    """Bias-corrected Adam step, in place on the parameter arrays.

    Parameters with no gradient entry (or a None one) are treated as zero
    gradient; with fresh moments that leaves them bit-identical.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient for {name}: {g.shape} vs parameter {p.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        # lr * (m / c1) / (sqrt(v / c2) + eps), in the same operations and
        # order, in two scratch buffers rather than a temporary per operation
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        np.divide(m, correction1, out=step)
        step *= state.lr
        denom = np.divide(v, correction2)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        p -= step


def glorot_init(shape, rng) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ValueError(f"glorot_init expects a 2-D shape, got {shape}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    a = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-a, a, shape)


# --------------------------------------------------------------------------
# BLAS threads
# --------------------------------------------------------------------------

# (getter, setter) spellings of the OpenBLAS numpy links against: the
# scipy-openblas build of numpy 2 wheels, the 64-bit-integer build of numpy
# 1.x wheels, and a plain build.
_OPENBLAS_THREAD_CONTROLS = [
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]


@functools.cache
def blas_thread_control():
    """(get, set) of the thread count of the OpenBLAS that numpy calls, or
    None where numpy links no OpenBLAS of the spellings above.

    The functions are looked up through numpy's own extension module, whose
    symbol lookup also searches the libraries it links, so no library path
    is guessed. OpenBLAS's per-thread setter is not used: on the scipy-openblas
    build it changes the count of the whole process all the same."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
        except (ImportError, OSError):  # no numpy._core before numpy 2; a Python shim
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CONTROLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_blas_hold = threading.Lock()
_blas_holders = 0  # open one_blas_thread blocks, on any thread
_blas_before = 0  # the count the first of them found


@contextmanager
def one_blas_thread():
    """Hold numpy's BLAS to one thread for the block, then restore its
    count; yields whether it could. Callers that run numpy on threads of
    their own use it so that their matmuls do not contend for BLAS's
    threads. The count is the whole process's, so the block holds it for
    every thread. Blocks open at once, on one thread or several, share one
    hold: the first to enter saves the count and sets 1, and the last to
    leave restores it."""
    global _blas_holders, _blas_before
    control = blas_thread_control()
    if control is None:
        yield False
        return
    get, set_ = control
    with _blas_hold:
        if not _blas_holders:
            _blas_before = get()
            set_(1)
        _blas_holders += 1
    try:
        yield True
    finally:
        with _blas_hold:
            _blas_holders -= 1
            if not _blas_holders:
                set_(_blas_before)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_concurrently(calls) -> list:
    """The results of the zero-argument ``calls``, in call order.

    The calls must be independent: they run at once on up to
    ``_usable_cpus()`` threads, which pays where they are mostly numpy calls
    that release the interpreter lock. The calling thread runs the first
    call and a pool made for this call the others, and the calling thread
    takes over any call still waiting for a worker once it is free: workers
    alone, with the calling thread waiting, each brought a malloc arena of
    its own, and training's peak RSS rose by about 9% on 2 vCPUs. Meanwhile
    numpy's BLAS is held to one thread (``one_blas_thread``): concurrent
    callers of a multithreaded BLAS contend for its threads and lose more
    than the threads gain. Where the count cannot be held, or one CPU is
    usable, the calls run in turn on the calling thread. Either way a
    failing call raises what it would in turn, the first in call order; on
    threads, once every call has ended."""
    calls = list(calls)
    if not calls:
        return []
    with one_blas_thread() as held:
        workers = min(len(calls), _usable_cpus()) - 1 if held else 0
        if not workers:
            return [call() for call in calls]
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(call) for call in calls[1:]]
            first = calls[0]()
            # the calls no worker has started yet run on the calling thread
            futures = [
                _run_here(call) if future.cancel() else future
                for call, future in zip(calls[1:], futures)
            ]
            return [first] + [future.result() for future in futures]


def _run_here(call) -> Future:
    """The finished future of ``call`` run on the calling thread."""
    future = Future()
    try:
        future.set_result(call())
    except Exception as exc:  # raised in call order by run_concurrently
        future.set_exception(exc)
    return future


# --------------------------------------------------------------------------
# Checkpoint helpers
# --------------------------------------------------------------------------


def tensor_to_obj(arr: np.ndarray) -> dict:
    """JSON form of a float64 tensor: its shape and base64 of its
    little-endian float64 bytes in C order. Lossless: every bit, NaN
    payloads and signed zeros included, survives ``tensor_from_obj``."""
    return {"shape": list(arr.shape), "data": "".join(tensor_base64(arr))}


# Tensor bytes encoded at a time: a multiple of 3, so the slices' base64
# joins without padding into that of the whole tensor.
_ENCODE_CHUNK = 3 << 15


def tensor_base64(arr: np.ndarray):
    """The base64 text of ``tensor_to_obj``'s data, a slice at a time, so a
    writer holds no full-size copy of the tensor."""
    # encoded through its buffer, not copied
    data = np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view(np.uint8)
    for start in range(0, len(data), _ENCODE_CHUNK):
        yield base64.b64encode(data[start:start + _ENCODE_CHUNK]).decode("ascii")


# Base64 characters decoded at a time: a multiple of 4, so every slice but
# the last holds whole quanta, and small enough that a slice's temporaries
# stay below glibc's default 128 KiB mmap threshold.
_DECODE_CHUNK = 1 << 16


def tensor_from_obj(obj: dict) -> np.ndarray:
    """The writable, C-contiguous float64 array of a ``tensor_to_obj``
    object. Raises TypeError on data that is neither a string nor a
    memoryview of its bytes, and ValueError on a shape that is not a list
    of sizes, bad base64, or a byte count that does not match the shape.

    The data is decoded a slice at a time straight into the array, so no
    full-size copy is made besides the result. It accepts what
    ``base64.b64decode(data, validate=True)`` accepts, and nothing more:
    every slice but the last must decode to whole quanta without padding,
    so it decodes as it would inside the whole string. The length is
    checked before the array is allocated; ``validate=True`` on Python 3.10
    also takes up to two ``=`` past the padded length.

    A memoryview is what ``models.parse_model_file`` hands over: the
    string's bytes in the file, which it decodes alike, so an ASCII string
    and its bytes give the same array or the same refusal. Bytes that are
    not base64, such as a control character or UTF-8 of a non-ASCII one,
    are refused here as bad base64."""
    shape, data = tuple(obj["shape"]), obj["data"]
    if not isinstance(data, (str, memoryview)):
        raise TypeError(f"tensor data must be a base64 string, not {type(data).__name__}")
    if not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"tensor shape {list(shape)!r:.80} is not a list of sizes")
    nbytes = 8 * math.prod(shape)
    size = 4 * -(-nbytes // 3)  # the padded base64 length of nbytes
    if not size <= len(data) <= size + 2:
        raise ValueError(f"{len(data)} base64 characters do not fit float64 shape {list(shape)}")
    out = np.empty(nbytes // 8, "<f8")
    view = memoryview(out).cast("B")
    filled = 0
    for start in range(0, size or 1, _DECODE_CHUNK):  # data of no bytes is one slice too
        last = start + _DECODE_CHUNK >= size
        piece = data[start:] if last else data[start:start + _DECODE_CHUNK]
        raw = base64.b64decode(piece, validate=True)
        # b64decode takes "=" only at the end of what it decodes, and a
        # padded slice decodes to fewer bytes than whole quanta
        if not last and len(raw) != _DECODE_CHUNK // 4 * 3:
            raise ValueError("base64 padding before the end of the tensor data")
        if filled + len(raw) <= nbytes:
            view[filled:filled + len(raw)] = raw
        filled += len(raw)
    if filled != nbytes:
        raise ValueError(f"{filled} data bytes do not fit float64 shape {list(shape)}")
    return out.astype(np.float64, copy=False).reshape(shape)
