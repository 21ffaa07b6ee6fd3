import base64
import gc
import json
import math
import os
import string
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import STEP_BLOCK_RULES, finite_diff_check, out_of_place_gru
from qcmine import nn_core
from qcmine.nn_core import (
    LINEAR,
    TANH,
    AdamState,
    BiGru,
    DenseParams,
    EmptySequence,
    GruParams,
    Node,
    NonFiniteInput,
    ShapeMismatch,
    _sigmoid,
    adam_update,
    backward,
    bigru_encode,
    bigru_final_states,
    concat,
    dense,
    dense_rows,
    embedding_row,
    glorot_init,
    gru_final_states,
    gru_step,
    init_dense,
    init_gru,
    run_concurrently,
    softmax,
    softmax_rows,
    softmax_xent,
    softmax_xent_rows,
    take_rows,
    tensor_base64,
    tensor_from_obj,
    tensor_to_obj,
    zero_grad,
)


def zero_gru(d_x, d_h):
    shape = (d_h, d_x + d_h)
    return GruParams(
        w_r=Node(np.zeros(shape)), w_u=Node(np.zeros(shape)), w=Node(np.zeros(shape)),
        b_r=Node(np.zeros(d_h)), b_u=Node(np.zeros(d_h)), b=Node(np.zeros(d_h)),
    )


def scalar_gru_oracle(x, h, wr, br, wu, bu, w, b):
    """Plain-float GRU step for d_x = d_h = 1; weights are (w_x, w_h) pairs."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    r = sig(wr[0] * x + wr[1] * h + br)
    u = sig(wu[0] * x + wu[1] * h + bu)
    hc = math.tanh(w[0] * x + w[1] * (r * h) + b)
    return u * h + (1.0 - u) * hc


class TestGruStep:
    def test_zero_params_halve_previous_state(self):
        p = zero_gru(2, 3)
        h_prev = np.array([0.4, -0.6, 1.0])
        h = gru_step(np.array([5.0, -2.0]), h_prev, p)
        np.testing.assert_allclose(h.value, 0.5 * h_prev, atol=1e-15)

    def test_zero_state_zero_params(self):
        p = zero_gru(2, 2)
        h = gru_step(np.array([1.0, 2.0]), np.zeros(2), p)
        np.testing.assert_array_equal(h.value, np.zeros(2))

    def test_scalar_trace_matches_oracle(self):
        wr, br = (0.3, -0.2), 0.1
        wu, bu = (-0.5, 0.4), -0.3
        w, b = (0.7, 0.6), 0.2
        p = GruParams(
            w_r=Node([[*wr]]), w_u=Node([[*wu]]), w=Node([[*w]]),
            b_r=Node([br]), b_u=Node([bu]), b=Node([b]),
        )
        x, h0 = 0.8, -0.25
        expected = scalar_gru_oracle(x, h0, wr, br, wu, bu, w, b)
        got = gru_step(np.array([x]), np.array([h0]), p)
        assert got.value[0] == pytest.approx(expected, rel=1e-12)

    def test_output_is_convex_combination(self):
        rng = np.random.default_rng(5)
        p = init_gru(3, 4, rng)
        for _ in range(20):
            h_prev = rng.uniform(-1.5, 1.5, 4)
            h = gru_step(rng.uniform(-2, 2, 3), h_prev, p).value
            lo = np.minimum(h_prev, -1.0)
            hi = np.maximum(h_prev, 1.0)
            assert np.all(h > lo) and np.all(h < hi)

    def test_shape_mismatch(self):
        p = zero_gru(2, 3)
        with pytest.raises(ShapeMismatch):
            gru_step(np.zeros(5), np.zeros(3), p)

    def test_non_finite_rejected(self):
        p = zero_gru(2, 2)
        with pytest.raises(NonFiniteInput):
            gru_step(np.array([np.nan, 0.0]), np.zeros(2), p)


class TestBigruEncode:
    def test_single_step_equals_gru_step(self):
        rng = np.random.default_rng(1)
        fwd, bwd = init_gru(2, 3, rng), init_gru(2, 3, rng)
        x = rng.uniform(-1, 1, 2)
        f, b, states = bigru_encode([x], fwd, bwd)
        np.testing.assert_array_equal(f.value, gru_step(x, np.zeros(3), fwd).value)
        np.testing.assert_array_equal(b.value, gru_step(x, np.zeros(3), bwd).value)
        assert len(states) == 1

    def test_zero_params_zero_states(self):
        fwd, bwd = zero_gru(2, 3), zero_gru(2, 3)
        xs = [np.ones(2), -np.ones(2), np.ones(2)]
        f, b, states = bigru_encode(xs, fwd, bwd)
        assert np.all(f.value == 0) and np.all(b.value == 0)
        assert all(np.all(sf.value == 0) and np.all(sb.value == 0) for sf, sb in states)

    def test_three_step_scalar_recurrence(self):
        wr, br = (0.2, 0.5), 0.0
        wu, bu = (0.1, -0.4), 0.2
        w, b = (-0.6, 0.3), -0.1
        p = GruParams(
            w_r=Node([[*wr]]), w_u=Node([[*wu]]), w=Node([[*w]]),
            b_r=Node([br]), b_u=Node([bu]), b=Node([b]),
        )
        xs = [0.5, -1.0, 0.75]
        h = 0.0
        for x in xs:
            h = scalar_gru_oracle(x, h, wr, br, wu, bu, w, b)
        fwd_expected = h
        h = 0.0
        for x in reversed(xs):
            h = scalar_gru_oracle(x, h, wr, br, wu, bu, w, b)
        bwd_expected = h
        f, bnode, _ = bigru_encode([np.array([x]) for x in xs], p, p)
        assert f.value[0] == pytest.approx(fwd_expected, rel=1e-12)
        assert bnode.value[0] == pytest.approx(bwd_expected, rel=1e-12)

    def test_empty_sequence(self):
        p = zero_gru(1, 1)
        with pytest.raises(EmptySequence):
            bigru_encode([], p, p)


class TestGruFinalStates:
    """The batched kernel against chains of the tape's gru_step."""

    def random_gru(self, rng, d_x, d_h):
        p = init_gru(d_x, d_h, rng)
        for node in (p.b_r, p.b_u, p.b):
            node.value[...] = rng.uniform(-1, 1, d_h)
        return p

    def chain(self, x, start, stop, p, reverse):
        h = Node(np.zeros(p.d_h))
        for i in (range(stop - 1, start - 1, -1) if reverse else range(start, stop)):
            h = gru_step(x[i], h, p)
        return h.value

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_gru_step_chains(self, reverse):
        rng = np.random.default_rng(8)
        p = self.random_gru(rng, 3, 4)
        x = rng.uniform(-2, 2, (30, 3))
        # unsorted lengths, ties, a one-step sequence, overlapping spans
        spans = [(0, 4), (4, 13), (13, 14), (14, 30), (2, 6), (20, 29)]
        got = gru_final_states(x, np.arange(len(x)), spans, p, reverse=reverse).value
        assert got.shape == (len(spans), 4)
        for row, (start, stop) in zip(got, spans):
            np.testing.assert_allclose(row, self.chain(x, start, stop, p, reverse), rtol=0, atol=1e-14)

    def test_empty_batch(self):
        p = zero_gru(2, 3)
        assert gru_final_states(np.zeros((0, 2)), [], np.zeros((0, 2)), p).value.shape == (0, 3)

    def test_empty_sequence_rejected(self):
        p = zero_gru(2, 3)
        with pytest.raises(EmptySequence):
            gru_final_states(np.ones((3, 2)), np.arange(3), [(0, 2), (2, 2)], p)

    def test_non_finite_rejected(self):
        p = zero_gru(2, 3)
        x = np.ones((3, 2))
        x[1, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            gru_final_states(x, np.arange(3), [(0, 3)], p)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gru_final_states(np.ones((3, 5)), np.arange(3), [(0, 3)], zero_gru(2, 3))

    def test_saturated_gates_stay_finite(self):
        # the branch-free sigmoid must not overflow at extreme pre-activations
        p = zero_gru(1, 1)
        p.w_r.value[...] = p.w_u.value[...] = p.w.value[...] = 1e3
        x = np.array([[1e3], [-1e3], [1e3]])
        with np.errstate(over="raise"):
            got = gru_final_states(x, np.arange(3), [(0, 3)], p).value
        np.testing.assert_allclose(got, [self.chain(x, 0, 3, p, False)], atol=1e-14)


class TestIndexedInput:
    """Reading input rows through ids against gathering them first.

    Numeric contract: ``gru_final_states(table, ids, ...)`` gives the final
    states and gradients of ``gru_final_states(take_rows(table, ids),
    np.arange(len(ids)), ...)`` within 1e-12."""

    # ids repeat inside a sequence (2 in the first) and across sequences
    # (0, 2, 4); table rows 1, 6 and 7 are never read
    IDS = np.array([2, 0, 2, 5, 4, 0, 0, 3, 2, 4, 5, 2])
    SPANS = [(0, 3), (3, 8), (8, 9), (1, 5), (6, 12), (2, 4)]  # unsorted, overlapping

    def make(self, seed):
        rng = np.random.default_rng(seed)
        p = init_gru(3, 2, rng)
        for node in (p.b_r, p.b_u, p.b):
            node.value[...] = rng.uniform(-1, 1, 2)
        table = Node(rng.uniform(-1.5, 1.5, (8, 3)))
        head = init_dense(2, 2, LINEAR, rng)
        golds = rng.integers(0, 2, len(self.SPANS))
        return p, table, head, golds

    @staticmethod
    def gathered(table, ids, spans, p, **kw):
        return gru_final_states(take_rows(table, ids), np.arange(len(ids)), spans, p, **kw)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_states_match_gather_then_project(self, reverse):
        p, table, _, _ = self.make(11)
        got = gru_final_states(table, self.IDS, self.SPANS, p, reverse=reverse).value
        ref = self.gathered(table, self.IDS, self.SPANS, p, reverse=reverse).value
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_gather_then_project(self, reverse):
        p, table, head, golds = self.make(12)
        nodes = [n for _, n in p.nodes()] + [table]
        grads = []
        for kernel in (gru_final_states, self.gathered):
            zero_grad(nodes)
            states = kernel(table, self.IDS, self.SPANS, p, reverse=reverse)
            backward(softmax_xent_rows(dense_rows(states, head), golds)[1])
            grads.append([n.grad.copy() for n in nodes])
        for got, ref in zip(*grads):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(grads[0][-1][[1, 6, 7]], 0.0)  # rows never read

    @pytest.mark.parametrize("reverse", [False, True])
    def test_finite_differences(self, reverse):
        p, table, head, golds = self.make(13)

        def loss_fn():
            states = gru_final_states(table, self.IDS, self.SPANS, p, reverse=reverse)
            return softmax_xent_rows(dense_rows(states, head), golds)[1]

        nodes = [n for _, n in p.nodes() + head.nodes()] + [table]
        assert finite_diff_check(loss_fn, nodes) < 1e-4

    def test_non_finite_row_never_read_is_harmless(self):
        p, table, _, _ = self.make(14)
        before = gru_final_states(table, self.IDS, self.SPANS, p).value
        table.value[6] = np.nan  # no id names it
        table.value[3, 1] = np.inf  # named only by id position 7 ...
        spans = [(0, 3), (3, 7), (8, 9), (1, 5), (8, 12), (2, 4)]  # ... which no span covers
        got = gru_final_states(table, self.IDS, spans, p).value
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got[[0, 2, 3, 5]], before[[0, 2, 3, 5]], rtol=0, atol=1e-12)

    def test_non_finite_row_read_is_rejected(self):
        p, table, _, _ = self.make(15)
        table.value[5, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            gru_final_states(table, self.IDS, self.SPANS, p)


class TestStatesOnlyBackward:
    """A training node keeps only the previous states; its backward
    recomputes the gates block by block. Numeric contract: gradients do not
    depend on where the blocks fall, within 1e-12."""

    def make(self, seed, n_seqs=40, d_x=6, d_h=16, vocab=50):
        rng = np.random.default_rng(seed)
        p = init_gru(d_x, d_h, rng)
        for node in (p.b_r, p.b_u, p.b):
            node.value[...] = rng.uniform(-1, 1, d_h)
        table = Node(rng.uniform(-1.5, 1.5, (vocab, d_x)))
        lengths = rng.integers(1, 60, n_seqs)
        stops = np.cumsum(lengths)
        ids = rng.integers(0, vocab, stops[-1])  # ids recur within and across sequences
        weights = rng.uniform(-1, 1, (n_seqs, d_h))
        return p, table, ids, np.column_stack([stops - lengths, stops]), weights

    def test_step_blocks_cover_every_step_last_first(self):
        running = np.array([9, 9, 7, 4, 4, 2, 1, 1, 1, 1])
        blocks = nn_core._step_blocks(running, 9)
        assert blocks == [(4, 10), (2, 4), (1, 2), (0, 1)]
        for t0, t1 in blocks:  # each closes at the first step that fills it
            assert running[t0:t1].sum() >= 9 > running[t0 + 1 : t1].sum()
        assert nn_core._step_blocks(np.zeros(0, dtype=np.intp), 0) == []

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("rule", sorted(STEP_BLOCK_RULES))
    def test_gradients_do_not_depend_on_step_blocks(self, reverse, rule, monkeypatch):
        p, table, ids, spans, weights = self.make(21)
        nodes = [n for _, n in p.nodes()] + [table]
        grads = []
        for blocks in (nn_core._step_blocks, STEP_BLOCK_RULES[rule]):
            monkeypatch.setattr(nn_core, "_step_blocks", blocks)
            zero_grad(nodes)
            gru_final_states(table, ids, spans, p, reverse=reverse).backward_fn(weights)
            grads.append([n.grad.copy() for n in nodes])
        for got, ref in zip(*grads):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_node_keeps_only_previous_states(self):
        p, table, ids, spans, _ = self.make(22)
        rows, d_h = len(ids), p.d_h
        steps = int((spans[:, 1] - spans[:, 0]).max())
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            node = gru_final_states(table, ids, spans, p)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # slot per row; used, order and running per distinct id, sequence, step
        index_bytes = 8 * (rows + len(table.value) + len(spans) + steps)
        objects = 16384  # the node, its closure, their cells and array headers
        assert kept <= node.value.nbytes + rows * d_h * 8 + index_bytes + objects
        # r, u and h_tilde, kept too, would be another 3 * rows * d_h floats
        assert 3 * rows * d_h * 8 > 10 * objects


class TestInPlaceKernel:
    """Numeric contract: the kernel's in-place gate arithmetic and flat
    scatters give, bit for bit, the states and gradients of the same
    formulas written one temporary per operation
    (``helpers.out_of_place_gru``)."""

    make = TestStatesOnlyBackward.make

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("rule", ["default"] + sorted(STEP_BLOCK_RULES))
    def test_states_and_gradients_are_bit_identical(self, reverse, rule, monkeypatch):
        if rule != "default":
            monkeypatch.setattr(nn_core, "_step_blocks", STEP_BLOCK_RULES[rule])
        p, table, ids, spans, weights = self.make(23)
        assert len(np.unique(ids)) < len(ids)  # ids recur
        ref_states, ref_grads = out_of_place_gru(table.value, ids, spans, p, reverse, weights)
        bare = gru_final_states(table, ids, spans, p, reverse=reverse, grad=False)
        assert bare.value.tobytes() == ref_states.tobytes()
        nodes = [n for _, n in p.nodes()] + [table]
        zero_grad(nodes)
        node = gru_final_states(table, ids, spans, p, reverse=reverse)
        assert node.value.tobytes() == ref_states.tobytes()
        node.backward_fn(weights.copy())
        for name, n, ref in zip([k for k, _ in p.nodes()] + ["table"], nodes, ref_grads):
            assert n.grad.tobytes() == ref.tobytes(), name

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads resident memory")
    def test_table_gradient_rows_never_read_are_never_written(self):
        def resident_bytes():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        rng = np.random.default_rng(24)
        p = init_gru(8, 4, rng)
        rows = 6 * 2**20 // 8  # a 48 MB gradient; the table is one broadcast row
        table = Node(np.broadcast_to(rng.uniform(-1, 1, 8), (rows, 8)))
        node = gru_final_states(table, np.arange(20), [(0, 12), (12, 20)], p)
        before = resident_bytes()
        node.backward_fn(rng.uniform(-1, 1, (2, 4)))
        grown = resident_bytes() - before
        assert table.grad.shape == (rows, 8) and table.grad.flags.c_contiguous
        assert np.abs(table.grad[:20]).sum() > 0.0
        assert grown < table.grad.nbytes // 4


class TestRunConcurrently:
    """Independent calls at once, with BLAS held to one thread, results and
    failures in call order."""

    def test_calls_meet_on_two_threads_with_blas_held(self, blas_two_threads, monkeypatch):
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
        # the first two calls wait for each other: in turn they would time out
        barrier = threading.Barrier(2, timeout=10)

        def call(k):
            if k < 2:
                barrier.wait()
            return k, threading.get_ident(), blas_two_threads()

        got = run_concurrently([lambda k=k: call(k) for k in range(3)])
        assert [k for k, _, _ in got] == [0, 1, 2]
        assert got[0][1] == threading.get_ident() != got[1][1]
        assert [count for _, _, count in got] == [1, 1, 1]
        assert blas_two_threads() == 2

    def test_calling_thread_takes_calls_no_worker_started(self, blas_two_threads, monkeypatch):
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)  # one worker
        third_ran = threading.Event()

        def second():  # holds the one worker until the third call has run
            return third_ran.wait(10)

        def third():
            third_ran.set()
            return threading.get_ident()

        assert run_concurrently([lambda: 1, second, third]) == [1, True, threading.get_ident()]

    @pytest.mark.parametrize("cause", ["no BLAS control", "one usable CPU"])
    def test_calls_in_turn_on_the_calling_thread(self, cause, monkeypatch):
        if cause == "no BLAS control":
            monkeypatch.setattr(nn_core, "blas_thread_control", lambda: None)
        else:
            monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 1)
        ran = []

        def call(k):
            ran.append((k, threading.get_ident()))
            return k * k

        assert run_concurrently([lambda k=k: call(k) for k in range(4)]) == [0, 1, 4, 9]
        assert ran == [(k, threading.get_ident()) for k in range(4)]

    def test_first_failure_in_call_order_once_every_call_ended(
        self, blas_two_threads, monkeypatch
    ):
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 3)
        later_failed, ended = threading.Event(), []

        def first():
            assert later_failed.wait(10)
            raise ValueError("the first call")

        def slow():
            time.sleep(0.05)
            ended.append("slow")

        def failing():
            later_failed.set()
            raise KeyError("a later call")

        with pytest.raises(ValueError, match="the first call"):
            run_concurrently([first, slow, failing])
        assert ended == ["slow"]
        assert blas_two_threads() == 2

    def test_no_calls_start_no_thread_and_set_no_blas_count(self, monkeypatch):
        set_calls = []
        monkeypatch.setattr(nn_core, "blas_thread_control", lambda: (lambda: 2, set_calls.append))

        def no_pool(*args, **kwargs):
            raise AssertionError("no calls started a thread pool")

        monkeypatch.setattr(nn_core, "ThreadPoolExecutor", no_pool)
        assert run_concurrently([]) == []
        assert set_calls == []


class TestOneBlasThread:
    """Blocks open at once share one hold of the process's BLAS count."""

    def fake_control(self, monkeypatch):
        count = [2]
        monkeypatch.setattr(
            nn_core, "blas_thread_control", lambda: (lambda: count[0], lambda n: count.__setitem__(0, n))
        )
        return count

    def test_overlapping_blocks_on_two_threads(self, monkeypatch):
        count = self.fake_control(monkeypatch)
        entered, main_entered = threading.Event(), threading.Event()

        def block():
            with nn_core.one_blas_thread():
                entered.set()
                main_entered.wait(10)

        thread = threading.Thread(target=block)
        thread.start()
        assert entered.wait(10)
        with nn_core.one_blas_thread():
            main_entered.set()
            thread.join(10)  # the other thread's block ends inside this one
            inside = count[0]
        assert not thread.is_alive()
        assert (inside, count[0]) == (1, 2)

    def test_nested_blocks_restore_once(self, monkeypatch):
        count = self.fake_control(monkeypatch)
        with nn_core.one_blas_thread() as outer:
            with nn_core.one_blas_thread() as inner:
                assert (outer, inner, count[0]) == (True, True, 1)
            assert count[0] == 1
        assert count[0] == 2


class TestBigruFinalStates:
    """A Bi-GRU as one node, its directions at once, against ``concat`` of
    the two ``gru_final_states`` run in turn: the value and every gradient
    bit for bit the same."""

    IDS = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7])
    SPANS = [(0, 5), (5, 6), (6, 14), (2, 9)]
    BWD_SPANS = [(1, 5), (5, 7), (6, 13), (2, 10)]

    def grads(self, joined, table_of):
        """The value and the gradients of every leaf, from the backward of
        the Bi-GRU node or of the two directions joined by ``concat``;
        ``table_of(leaf)`` gives the node both directions read."""
        rng = np.random.default_rng(4)
        leaf = Node(rng.uniform(-1, 1, (10, 3)))
        gru = BiGru(init_gru(3, 4, rng), init_gru(3, 4, rng))
        table = table_of(leaf)
        leaves = [node for p in (gru.fwd, gru.bwd) for _, node in p.nodes()]
        if joined:
            out = bigru_final_states(table, self.IDS, self.SPANS, self.BWD_SPANS, gru)
            assert out.parents == (table, *leaves)
        else:
            out = concat(
                gru_final_states(table, self.IDS, self.SPANS, gru.fwd),
                gru_final_states(table, self.IDS, self.BWD_SPANS, gru.bwd, reverse=True),
            )
        weights = rng.uniform(-1, 1, out.value.shape)
        backward(dense_rows(out, DenseParams(Node(weights[:1]), Node(np.zeros(1)), LINEAR)))
        return out.value.tobytes(), [node.grad.tobytes() for node in [leaf] + leaves]

    @pytest.mark.parametrize("table_of", [
        lambda leaf: leaf,
        lambda leaf: take_rows(leaf, np.arange(10)[::-1]),
    ], ids=["shared leaf", "gathered table"])
    def test_matches_directions_in_turn(self, table_of, blas_two_threads, monkeypatch):
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
        expected = self.grads(False, table_of)
        threads, kernel = set(), nn_core._gru_kernel

        def recorded(*args):
            threads.add(threading.get_ident())
            return kernel(*args)

        monkeypatch.setattr(nn_core, "_gru_kernel", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert self.grads(True, table_of) == expected
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) >= 2

    def test_inference_runs_the_directions_in_turn(self, monkeypatch):
        rng = np.random.default_rng(5)
        table = Node(rng.uniform(-1, 1, (10, 3)))
        gru = BiGru(init_gru(3, 4, rng), init_gru(3, 4, rng))
        expected = np.concatenate([
            gru_final_states(table, self.IDS, self.SPANS, gru.fwd, grad=False).value,
            gru_final_states(table, self.IDS, self.BWD_SPANS, gru.bwd, reverse=True, grad=False).value,
        ], axis=-1)

        def no_pool(*args, **kwargs):
            raise AssertionError("inference started a thread pool")

        monkeypatch.setattr(nn_core, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(nn_core, "blas_thread_control", lambda: (lambda: 2, lambda n: None))
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
        out = bigru_final_states(table, self.IDS, self.SPANS, self.BWD_SPANS, gru, grad=False)
        assert out.value.tobytes() == expected.tobytes()
        assert out.backward_fn is None


class TestScatterRows:
    """``nn_core._scatter_rows`` against 2-D ``np.add.at``, bit for bit."""

    def check(self, idx, rows, target):
        ref = target.copy()
        np.add.at(ref, idx, rows)
        nn_core._scatter_rows(target, idx, rows)
        assert target.tobytes() == ref.tobytes()

    def test_repeated_and_negative_ids(self):
        rng = np.random.default_rng(25)
        idx = np.array([2, 0, 2, -1, 5, -6, 2, -1, 3, 2])
        # values far apart in magnitude, so the order of additions shows
        rows = rng.normal(0, 1, (len(idx), 4)) * 10.0 ** rng.integers(-12, 12, (len(idx), 4))
        self.check(idx, rows, rng.normal(0, 1, (6, 4)))

    @pytest.mark.parametrize("idx", [3, -1, np.intp(0)])
    def test_int_id(self, idx):
        rng = np.random.default_rng(26)
        self.check(idx, rng.normal(0, 1, 5), rng.normal(0, 1, (4, 5)))

    def test_no_ids(self):
        self.check(np.zeros(0, dtype=np.intp), np.zeros((0, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [6, -7])
    def test_out_of_range_id_raises_like_add_at(self, bad):
        target = np.zeros((6, 2))
        with pytest.raises(IndexError):
            np.add.at(target, [0, bad], np.ones((2, 2)))
        with pytest.raises(IndexError):
            nn_core._scatter_rows(target, [0, bad], np.ones((2, 2)))
        assert not target.any()

    @pytest.mark.parametrize("target", [np.zeros((3, 4)).T, np.zeros((6, 4))[::2], np.zeros(4)])
    def test_target_must_be_c_contiguous_rows(self, target):
        with pytest.raises(ValueError):
            nn_core._scatter_rows(target, [0], np.ones((1, target.shape[-1])))

    def test_rows_must_match_ids(self):
        with pytest.raises(ShapeMismatch):
            nn_core._scatter_rows(np.zeros((3, 4)), [0, 1], np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            nn_core._scatter_rows(np.zeros((3, 4)), [0, 1], np.ones(4))


class TestSigmoid:
    """The tanh form 0.5 * tanh(x/2) + 0.5 against 1/(1+e^-x)."""

    GRID = np.concatenate([
        np.linspace(-40.0, 40.0, 20001),
        [-1e3, -745.0, -710.0, -100.0, -38.0, 0.0, 38.0, 100.0, 710.0, 745.0, 1e3],
    ])

    @staticmethod
    def exp_form(x):
        e = np.exp(-np.abs(x))  # never overflows
        return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def test_matches_exp_form(self):
        got = _sigmoid(self.GRID)
        assert np.abs(got - self.exp_form(self.GRID)).max() <= 2.3e-16

    def test_exact_and_quiet_at_the_extremes(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = _sigmoid(np.array([-np.inf, -1e3, -710.0, 710.0, 1e3, np.inf]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_symmetric(self):
        x = self.GRID
        assert np.abs(_sigmoid(-x) + _sigmoid(x) - 1.0).max() <= np.spacing(1.0)


class TestDense:
    def test_identity(self):
        p = DenseParams(Node(np.eye(3)), Node(np.zeros(3)), LINEAR)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(dense(x, p).value, x)

    def test_zero_input_tanh_bias(self):
        p = DenseParams(Node(np.ones((2, 3))), Node(np.array([0.3, -1.2])), TANH)
        np.testing.assert_allclose(
            dense(np.zeros(3), p).value, np.tanh([0.3, -1.2]), atol=1e-15
        )

    def test_two_by_two_hand_computed(self):
        w = [[0.5, -1.0], [2.0, 0.25]]
        b = [0.1, -0.2]
        x = [0.4, 0.8]
        expected = [
            math.tanh(0.5 * 0.4 + (-1.0) * 0.8 + 0.1),
            math.tanh(2.0 * 0.4 + 0.25 * 0.8 - 0.2),
        ]
        p = DenseParams(Node(w), Node(b), TANH)
        np.testing.assert_allclose(dense(np.array(x), p).value, expected, rtol=1e-15)

    def test_shape_mismatch(self):
        p = DenseParams(Node(np.zeros((2, 3))), Node(np.zeros(2)), LINEAR)
        with pytest.raises(ShapeMismatch):
            dense(np.zeros(4), p)
        with pytest.raises(ShapeMismatch):
            dense_rows(np.zeros((2, 4)), p)

    @pytest.mark.parametrize("activation", [TANH, LINEAR])
    def test_rows_match_dense_and_softmax(self, activation):
        rng = np.random.default_rng(6)
        p = init_dense(4, 2, activation, rng)
        p.b.value[...] = rng.uniform(-1, 1, 2)
        x = rng.uniform(-3, 3, (7, 4))
        y = dense_rows(x, p).value
        probs = softmax_rows(y)
        for i in range(len(x)):
            np.testing.assert_allclose(y[i], dense(x[i], p).value, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(probs[i], softmax(y[i]))


class TestSoftmaxXent:
    def test_uniform_logits(self):
        probs, loss = softmax_xent(np.array([0.0, 0.0]), 1)
        np.testing.assert_array_equal(probs, [0.5, 0.5])
        assert float(loss.value) == pytest.approx(math.log(2), rel=1e-12)

    def test_saturated(self):
        probs, loss = softmax_xent(np.array([20.0, -20.0]), 0)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        _, loss = softmax_xent(np.array([1.0, 2.0]), 1)
        assert float(loss.value) == pytest.approx(math.log(1 + math.exp(-1)), rel=1e-12)
        assert float(loss.value) == pytest.approx(0.313262, abs=1e-6)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.uniform(-30, 30, 2)
            probs = softmax(logits)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            logits = rng.uniform(-5, 5, 2)
            shifted = logits + rng.uniform(-100, 100)
            np.testing.assert_allclose(softmax(logits), softmax(shifted), atol=1e-12)

    def test_gradient_is_probs_minus_onehot(self):
        logits = Node(np.array([0.0, 0.0]))
        _, loss = softmax_xent(logits, 1)
        backward(loss)
        np.testing.assert_allclose(logits.grad, [0.5, -0.5], atol=1e-15)

    def test_saturated_gradient_near_zero(self):
        logits = Node(np.array([30.0, -30.0]))
        _, loss = softmax_xent(logits, 0)
        backward(loss)
        assert np.all(np.abs(logits.grad) < 1e-12)


class TestBackwardGradients:
    """Central finite differences vs the tape, step 1e-5, rel error < 1e-4."""

    @pytest.mark.parametrize("seed", range(5))
    def test_gru_cell(self, seed):
        rng = np.random.default_rng(seed)
        d_x, d_h = rng.integers(1, 5), rng.integers(1, 5)
        p = init_gru(int(d_x), int(d_h), rng)
        x = Node(rng.uniform(-1, 1, d_x))
        h0 = Node(rng.uniform(-1, 1, d_h))
        w_mix = rng.uniform(-1, 1, d_h)

        def loss_fn():
            h = gru_step(x, h0, p)
            return dense(h, DenseParams(Node(w_mix[None, :]), Node(np.zeros(1)), LINEAR))

        nodes = [n for _, n in p.nodes()] + [x, h0]
        assert finite_diff_check(loss_fn, nodes) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_bigru_sequence(self, seed):
        rng = np.random.default_rng(100 + seed)
        d_x, d_h, T = 3, 2, int(rng.integers(1, 6))
        fwd, bwd = init_gru(d_x, d_h, rng), init_gru(d_x, d_h, rng)
        xs = [Node(rng.uniform(-1, 1, d_x)) for _ in range(T)]
        out = init_dense(2 * d_h, 2, LINEAR, rng)

        def loss_fn():
            f, b, _ = bigru_encode(xs, fwd, bwd)
            _, loss = softmax_xent(dense(concat(f, b), out), 1)
            return loss

        nodes = [n for _, n in fwd.nodes() + bwd.nodes() + out.nodes()] + xs
        assert finite_diff_check(loss_fn, nodes) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_tanh_chain(self, seed):
        rng = np.random.default_rng(200 + seed)
        layer1 = init_dense(4, 3, TANH, rng)
        layer2 = init_dense(3, 2, LINEAR, rng)
        x = Node(rng.uniform(-1, 1, 4))

        def loss_fn():
            _, loss = softmax_xent(dense(dense(x, layer1), layer2), 0)
            return loss

        nodes = [n for _, n in layer1.nodes() + layer2.nodes()] + [x]
        assert finite_diff_check(loss_fn, nodes) < 1e-4

    def test_embedding_gradients(self):
        rng = np.random.default_rng(7)
        table = Node(rng.uniform(-1, 1, (5, 3)))
        out = init_dense(3, 2, LINEAR, rng)

        def loss_fn():
            # same row twice: gradients must accumulate on it
            x = concat(embedding_row(table, 2), embedding_row(table, 2))
            half = Node(np.hstack([0.5 * np.eye(3), 0.5 * np.eye(3)]))
            merged = dense(x, DenseParams(half, Node(np.zeros(3)), LINEAR))
            _, loss = softmax_xent(dense(merged, out), 1)
            return loss

        assert finite_diff_check(loss_fn, [table]) < 1e-4

    def test_gradients_accumulate_across_calls(self):
        # two half-seeded sweeps equal one full sweep (mini-batch averaging)
        x = Node(np.array([1.0, 2.0]))
        p = DenseParams(Node(np.eye(2)), Node(np.zeros(2)), LINEAR)
        for _ in range(2):
            _, loss = softmax_xent(dense(x, p), 0)
            backward(loss, seed=0.5)
        accumulated = p.w.grad.copy()
        zero_grad([p.w, p.b, x])
        _, loss = softmax_xent(dense(x, p), 0)
        backward(loss)
        np.testing.assert_allclose(accumulated, p.w.grad, atol=1e-15)


class TestRowOpGradients:
    """The row-level tape ops: central finite differences (step 1e-5, rel
    error < 1e-4) and agreement with the per-vector ops they batch."""

    SPANS = [(0, 3), (3, 8), (8, 9), (1, 5), (6, 12), (2, 4)]  # unsorted, overlapping
    IDS = np.arange(12)  # the rows of x in turn

    def gru_setup(self, seed):
        rng = np.random.default_rng(seed)
        p = init_gru(3, 2, rng)
        for node in (p.b_r, p.b_u, p.b):
            node.value[...] = rng.uniform(-1, 1, 2)
        x = Node(rng.uniform(-1.5, 1.5, (12, 3)))
        head = init_dense(2, 2, LINEAR, rng)
        golds = rng.integers(0, 2, len(self.SPANS))
        return p, x, head, golds

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_gru_final_states_finite_differences(self, reverse, seed):
        p, x, head, golds = self.gru_setup(seed)

        def loss_fn():
            states = gru_final_states(x, self.IDS, self.SPANS, p, reverse=reverse)
            return softmax_xent_rows(dense_rows(states, head), golds)[1]

        nodes = [n for _, n in p.nodes() + head.nodes()] + [x]
        assert finite_diff_check(loss_fn, nodes) < 1e-4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_final_states_gradients_match_gru_step_chains(self, reverse):
        p, x, head, golds = self.gru_setup(7)
        nodes = [n for _, n in p.nodes()] + [x]
        weights = np.random.default_rng(1).uniform(-1, 1, (len(self.SPANS), 2))

        zero_grad(nodes)
        gru_final_states(x, self.IDS, self.SPANS, p, reverse=reverse).backward_fn(weights)
        batched = [n.grad.copy() for n in nodes]

        zero_grad(nodes)
        for (start, stop), w in zip(self.SPANS, weights):
            h = Node(np.zeros(2))
            for i in (range(stop - 1, start - 1, -1) if reverse else range(start, stop)):
                h = gru_step(take_rows(x, i), h, p)
            backward(dense(h, DenseParams(Node(w[None, :]), Node(np.zeros(1)), LINEAR)))
        for got, ref in zip(batched, (n.grad for n in nodes)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_gru_final_states_without_grad(self):
        p, x, _, _ = self.gru_setup(3)
        kept = gru_final_states(x, self.IDS, self.SPANS, p)
        bare = gru_final_states(x, self.IDS, self.SPANS, p, grad=False)
        np.testing.assert_array_equal(kept.value, bare.value)
        assert bare.backward_fn is None

    def test_take_rows_repeats_and_fill(self):
        rng = np.random.default_rng(4)
        table = Node(rng.uniform(-1, 1, (5, 3)))
        fill = Node(rng.uniform(-1, 1, 3))
        head = init_dense(3, 2, LINEAR, rng)
        idx = [2, 0, 2, -1, 4, -1, 2]
        golds = [1, 0, 1, 1, 0, 0, 1]

        def loss_fn():
            return softmax_xent_rows(dense_rows(take_rows(table, idx, fill=fill), head), golds)[1]

        assert finite_diff_check(loss_fn, [table, fill]) < 1e-4
        picked = take_rows(table, idx, fill=fill).value
        np.testing.assert_array_equal(picked[3], fill.value)
        np.testing.assert_array_equal(picked[0], table.value[2])

    @pytest.mark.parametrize("with_fill", [False, True])
    def test_take_rows_gradient_is_add_at(self, with_fill):
        rng = np.random.default_rng(5)
        table, fill = Node(rng.uniform(-1, 1, (5, 3))), Node(rng.uniform(-1, 1, 3))
        idx = [2, 0, 2, -1, 4, -1, 2] if with_fill else [2, 0, 2, 4, 2]
        g = rng.normal(0, 1, (len(idx), 3)) * 10.0 ** rng.integers(-9, 9, (len(idx), 3))
        ref = np.zeros((6, 3))
        np.add.at(ref, idx, g)
        take_rows(table, idx, fill=fill if with_fill else None).backward_fn(g)
        assert table.grad.tobytes() == ref[:5].tobytes()
        if with_fill:
            assert fill.grad.tobytes() == ref[5].tobytes()
        row = take_rows(table, -2)  # an int id picks one row; a repeat accumulates
        row.backward_fn(g[0])
        ref[3] += g[0]
        assert table.grad.tobytes() == ref[:5].tobytes()

    def test_embedding_gather_matches_embedding_rows(self):
        # one gather with repeated ids scatters what a row per token does
        rng = np.random.default_rng(5)
        table = Node(rng.uniform(-1, 1, (6, 3)))
        ids = [3, 1, 3, 3, 0]
        g = rng.uniform(-1, 1, (len(ids), 3))
        rows = take_rows(table, ids)
        rows.backward_fn(g)
        gathered = table.grad.copy()
        zero_grad([table])
        for i, row in zip(ids, g):
            embedding_row(table, i).backward_fn(row)
        np.testing.assert_allclose(gathered, table.grad, rtol=0, atol=1e-15)
        assert take_rows(table, 3).value.shape == (3,)

    @pytest.mark.parametrize("axis", [0, -1])
    def test_concat_matrices(self, axis):
        rng = np.random.default_rng(6)
        a, b = Node(rng.uniform(-1, 1, (2, 3))), Node(rng.uniform(-1, 1, (2, 3)))
        head = init_dense(3 if axis == 0 else 6, 2, TANH, rng)
        golds = [1, 0] * (2 if axis == 0 else 1)

        def loss_fn():
            return softmax_xent_rows(dense_rows(concat(a, b, axis=axis), head), golds)[1]

        assert finite_diff_check(loss_fn, [a, b]) < 1e-4

    def test_softmax_xent_rows_sums_softmax_xent(self):
        rng = np.random.default_rng(7)
        logits = Node(rng.uniform(-4, 4, (5, 2)))
        golds = [0, 1, 1, 0, 1]
        probs, loss = softmax_xent_rows(logits, golds)
        backward(loss, seed=0.5)
        for row, gold, p_row, g_row in zip(logits.value, golds, probs, logits.grad):
            single = Node(row)
            p_ref, loss_ref = softmax_xent(single, gold)
            backward(loss_ref, seed=0.5)
            np.testing.assert_allclose(p_row, p_ref, rtol=0, atol=1e-15)
            np.testing.assert_allclose(g_row, single.grad, rtol=0, atol=1e-15)
        expected = sum(float(softmax_xent(Node(r), g)[1].value) for r, g in zip(logits.value, golds))
        assert float(loss.value) == pytest.approx(expected, rel=1e-14)

    def test_softmax_xent_rows_rejects_bad_input(self):
        with pytest.raises(ShapeMismatch):
            softmax_xent_rows(np.zeros((2, 3)), [0, 1])
        with pytest.raises(ValueError):
            softmax_xent_rows(np.zeros((2, 2)), [0, 2])
        with pytest.raises(ValueError):
            softmax_xent_rows(np.zeros((2, 2)), [0])

    def test_backward_consumes_the_graph(self):
        p, x, head, golds = self.gru_setup(2)
        states = gru_final_states(x, self.IDS, self.SPANS, p)
        _, loss = softmax_xent_rows(dense_rows(states, head), golds)
        backward(loss)
        assert states.backward_fn is None and states.grad is None
        assert p.w.grad is not None and x.grad is not None  # leaves keep theirs


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState(lr=0.1)
        adam_update(params, grads, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1
        np.testing.assert_array_equal(state.m["w"], np.zeros(2))

    def test_first_step_sign_property(self):
        rng = np.random.default_rng(2)
        g = rng.uniform(-1, 1, 6)
        g[np.abs(g) < 0.1] = 0.5
        params = {"w": np.zeros(6)}
        state = AdamState(lr=0.01)
        adam_update(params, {"w": g.copy()}, state)
        assert np.all(np.sign(params["w"]) == -np.sign(g))
        np.testing.assert_allclose(np.abs(params["w"]), 0.01, rtol=1e-6)

    def test_two_step_scalar_trace(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p, g1, g2 = 1.0, 0.4, -0.3
        m = v = 0.0
        expect = p
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expect -= lr * m_hat / (math.sqrt(v_hat) + eps)
        params = {"w": np.array([p])}
        state = AdamState(lr=lr)
        adam_update(params, {"w": np.array([g1])}, state)
        adam_update(params, {"w": np.array([g2])}, state)
        assert params["w"][0] == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            adam_update({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState())

    def test_in_place_step_is_bit_identical(self):
        """The two-scratch-buffer step against the formula written out."""

        def reference(params, grads, state):
            state.t += 1
            b1, b2 = state.beta1, state.beta2
            c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
            for name, p in params.items():
                g = grads.get(name)
                g = np.zeros_like(p) if g is None else g
                m = state.m.setdefault(name, np.zeros_like(p))
                v = state.v.setdefault(name, np.zeros_like(p))
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)

        rng = np.random.default_rng(9)
        start = {"w": rng.normal(0, 1, (7, 5)), "b": rng.normal(0, 1, 5), "frozen": rng.normal(0, 1, 3)}
        got = {k: v.copy() for k, v in start.items()}
        ref = {k: v.copy() for k, v in start.items()}
        got_state, ref_state = AdamState(lr=0.01), AdamState(lr=0.01)
        for t in range(1, 8):
            grads = {"w": rng.normal(0, 10.0**-t, (7, 5)), "b": rng.normal(0, 1, 5), "frozen": None}
            if t % 3 == 0:
                grads["b"] = None  # a parameter that got no gradient this step
            adam_update(got, {k: None if g is None else g.copy() for k, g in grads.items()}, got_state)
            reference(ref, grads, ref_state)
            for name in start:
                assert got[name].tobytes() == ref[name].tobytes(), (t, name)
                assert got_state.m[name].tobytes() == ref_state.m[name].tobytes(), (t, name)
                assert got_state.v[name].tobytes() == ref_state.v[name].tobytes(), (t, name)


class TestGlorot:
    def test_bound_for_1x1(self):
        v = glorot_init((1, 1), 0)
        assert abs(v[0, 0]) < math.sqrt(3)

    def test_same_seed_identical(self):
        np.testing.assert_array_equal(glorot_init((4, 7), 42), glorot_init((4, 7), 42))

    def test_empirical_variance(self):
        shape = (250, 400)  # 1e5 samples
        a = math.sqrt(6.0 / (shape[0] + shape[1]))
        sample = glorot_init(shape, 9)
        assert np.all(np.abs(sample) < a)
        assert sample.var() == pytest.approx(a * a / 3.0, rel=0.05)


def test_tensor_json_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.uniform(-1, 1, (3, 4))
    back = tensor_from_obj(tensor_to_obj(arr))
    np.testing.assert_array_equal(arr, back)


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


# The base64 alphabet, its padding, and characters it refuses
B64_EDITS = string.ascii_letters + string.digits + "+/" + "=\n!é"


@st.composite
def base64_like(draw):
    """The base64 of a few float64 values, with up to three characters
    inserted or replaced: mostly near-misses of valid tensor data."""
    text = base64.b64encode(draw(st.binary(max_size=40))).decode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(B64_EDITS)) + text[at + draw(st.integers(0, 1)):]
    return text


class TestTensorObj:
    """The v2 checkpoint tensor: base64 of little-endian float64 bytes."""

    SPECIAL = np.array(
        [0x7FF8000000000123, 0x7FF0000000000001, 0xFFF8000000000000,  # NaN payloads
         0x7FF0000000000000, 0xFFF0000000000000,  # +Inf, -Inf
         0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF],  # -0.0, subnormals
        dtype=np.uint64,
    ).view(np.float64)

    @pytest.mark.parametrize("arr", [
        SPECIAL, SPECIAL.reshape(2, 4), np.zeros((0, 3)), np.zeros(0), np.arange(5.0),
    ])
    def test_bitwise_round_trip(self, arr):
        back = tensor_from_obj(json.loads(json.dumps(tensor_to_obj(arr))))
        assert back.shape == arr.shape
        assert bits(back).tolist() == bits(arr).tolist()

    def test_data_is_little_endian_float64_in_c_order(self):
        arr = np.arange(6.0).reshape(2, 3)
        for view in (arr, arr.astype(">f8"), np.asfortranarray(arr)):
            obj = tensor_to_obj(view)
            assert obj["shape"] == [2, 3]
            assert base64.b64decode(obj["data"]) == arr.astype("<f8").tobytes()
        back = tensor_from_obj(tensor_to_obj(arr.T))
        np.testing.assert_array_equal(back, arr.T)

    @pytest.mark.parametrize("chunk", [3, 6, 3 << 15])
    def test_slices_join_into_the_whole_base64(self, chunk, monkeypatch):
        monkeypatch.setattr(nn_core, "_ENCODE_CHUNK", chunk)
        for arr in (np.zeros(0), np.arange(1.0), np.arange(7.0), self.SPECIAL.reshape(2, 4).T,
                    np.random.default_rng(0).standard_normal(3 << 13)):
            whole = base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode()
            slices = list(tensor_base64(arr))
            assert "".join(slices) == whole == tensor_to_obj(arr)["data"]
            assert all(len(piece) <= 4 * chunk // 3 for piece in slices)

    def test_decoded_array_is_writable_c_contiguous_float64(self):
        back = tensor_from_obj(tensor_to_obj(np.ones((3, 2))))
        assert back.dtype == np.float64
        assert back.flags.c_contiguous and back.flags.writeable
        back[0, 0] = 5.0

    @pytest.mark.parametrize("data", ["AAAAAAAAAA", "AAAA!AAAAAAA", "AAAAAAAAAAA=\n"])
    def test_bad_base64_rejected(self, data):
        with pytest.raises(ValueError):
            tensor_from_obj({"shape": [1], "data": data})

    @pytest.mark.parametrize("shape", [[2], [0], [1, 2], [-1], [10**12], [2.5], [True]])
    def test_wrong_byte_length_rejected(self, shape):
        """The shape and the data's length are checked before the array is
        allocated: a ValueError, never a MemoryError or a TypeError."""
        data = base64.b64encode(np.ones(1).tobytes()).decode()
        with pytest.raises(ValueError):
            tensor_from_obj({"shape": shape, "data": data})

    @pytest.mark.parametrize("data", [[0.0], 7, None, b"AAAAAAAAAAA="])
    def test_data_that_is_not_a_string_rejected(self, data):
        with pytest.raises(TypeError):
            tensor_from_obj({"shape": [1], "data": data})

    @pytest.mark.parametrize("chunk", [4, 8])
    @settings(max_examples=400, deadline=None)
    @given(data=base64_like())
    def test_accepts_exactly_what_b64decode_accepts(self, chunk, data):
        """Slices of 4 or 8 characters put slice boundaries inside the
        drawn strings. Every shape is refused unless the running
        interpreter's ``b64decode(validate=True)`` accepts the string and
        its bytes fit the shape, and then the bits are the same. The string
        is given as is, and as a memoryview of its UTF-8 bytes, as
        ``models.parse_model_file`` hands tensor data over."""
        try:
            want = base64.b64decode(data, validate=True)
        except ValueError:
            want = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn_core, "_DECODE_CHUNK", chunk)
            for given_data in (data, memoryview(data.encode("utf-8"))):
                for n in range(len(data) // 8 + 2):
                    try:
                        got = tensor_from_obj({"shape": [n], "data": given_data}).tobytes()
                    except ValueError:
                        got = None
                    assert got == (want if want is not None and len(want) == 8 * n else None), n

    def test_decodes_without_a_full_size_copy(self):
        """The traced peak of a decode, from the string or from a view of
        its bytes, is the array plus a slice's temporaries, not a second
        full-size copy of the tensor."""
        arr = np.random.default_rng(0).standard_normal((1024, 1024))
        text = tensor_to_obj(arr)["data"]
        for data in (text, memoryview(text.encode("ascii"))):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                back = tensor_from_obj({"shape": list(arr.shape), "data": data})
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert bits(back).tolist() == bits(arr).tolist()
            assert peak <= arr.nbytes + (1 << 20), type(data)
