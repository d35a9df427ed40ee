"""Bound aug calls: a plan resolves each kernel call once (DESIGN §18).

The first aug step on a plan for a given ``(V, W)`` pair checks and
marshals its operands, resolves the kernel family and the Table-I
charge; every later step on the same objects is a lookup.  These tests
pin that a steady-state step does none of the per-call work, that new
anchors (a reused recurrence's next run) make a new call, and that the
bits never depend on which path a step took.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.recurrence import Recurrence
from repro.core.scaling import SpectralScale
from repro.core.stochastic import make_block_vector
from repro.physics import build_topological_insulator
from repro.sparse.backend import native_backend
from repro.sparse.backend.native import native_available
from repro.sparse.fused import eta_anchors
from repro.sparse.sell import SellMatrix
from repro.util.counters import PerfCounters

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

M = 16
R = 3


@pytest.fixture(scope="module")
def ti():
    h, _ = build_topological_insulator(6, 6, 4)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    return h, scale


def _steps(rec: Recurrence, first: int, last: int) -> list[bytes]:
    """Iterations ``[first, last)`` as the rank program runs them: the
    bootstrap at 0, then swap + update; each one's bins, as bytes."""
    out = []
    for m in range(first, last):
        if m:
            rec.swap()
            out.append(rec.update().tobytes())
        else:
            out.append(rec.bootstrap().tobytes())
    return out


def _solo(A, scale, block, **knobs) -> list[bytes]:
    rec = Recurrence(A, scale.a, scale.b, block.shape[1], backend="native",
                     **knobs)
    rec.load(block)
    return _steps(rec, 0, M // 2)


@needs_native
@pytest.mark.parametrize("fmt", ["csr", "sell"])
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
def test_a_steady_step_does_no_per_call_work(ti, monkeypatch, fmt,
                                             precision):
    """After one step of each parity, a step marshals nothing, checks no
    operand and reads no environment — with the server's sinks on."""
    h, scale = ti
    A = SellMatrix(h, 8, 16) if fmt == "sell" else h
    counters = metrics = PerfCounters()  # one sink: its fold and timers
    rec = Recurrence(A, scale.a, scale.b, R, backend="native",
                     precision=precision, sink=counters)
    rec.load(make_block_vector(h.n_rows, R, seed=3))
    _steps(rec, 0, 3)  # bootstrap, then one update of each parity

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(native_backend, name, wrapper)

    for name in ("_ptr", "check_block_vector", "check_vector"):
        counting(name, getattr(native_backend, name))
    environ_get = type(os.environ).__getitem__
    monkeypatch.setattr(type(os.environ), "__getitem__",
                        lambda self, key: calls.append(key)
                        or environ_get(self, key))
    _steps(rec, 3, M // 2)
    monkeypatch.undo()
    assert calls == []
    assert counters.calls["aug_spmmv"] == M // 2 - 1
    assert metrics.timers["aug_spmmv"].count == M // 2 - 1


@needs_native
@pytest.mark.parametrize("threads", [None, 2])
def test_a_reused_recurrence_returns_each_runs_solo_bits(ti, threads):
    """``rebind`` + ``load`` with new anchors (a parked mp worker's next
    solve) rebinds the calls: each run's bits are its solo run's."""
    h, scale = ti
    other = SpectralScale.from_bounds(*(1.25 * np.array(
        h.gershgorin_bounds())))
    blocks = [make_block_vector(h.n_rows, R, seed=s) for s in (3, 4)]
    rec = Recurrence(h, scale.a, scale.b, R, backend="native",
                     threads=threads)
    for sc, block in ((scale, blocks[0]), (other, blocks[1]),
                      (scale, blocks[0])):
        rec.rebind(sc.a, sc.b)
        rec.load(block, anchors=eta_anchors(block))
        assert _steps(rec, 0, M // 2) == _solo(h, sc, block,
                                                threads=threads)
    # two parities, one call each: the old runs' calls were dropped
    (calls,) = rec._plan.native_calls.values()
    assert len(calls) == 2


@needs_native
def test_new_anchors_on_the_same_buffers_rebind(ti):
    """A call is bound to the plan's anchors of its time: anchors that
    the partials exceed, installed on the same V and W, raise the
    escape flag (a call still reading the old ones would not)."""
    from repro.sparse.backend import get_backend

    h, scale = ti
    bk = get_backend("native")
    plan = bk.plan(h, R)
    V = make_block_vector(h.n_rows, R, seed=3)
    W = V.copy()
    for _ in range(2):
        bk.aug_spmmv_step(h, V, W, scale.a, scale.b, plan=plan)
    assert plan.escape[0] == 0
    plan.anchors = eta_anchors(V) * 2.0**-40
    bk.aug_spmmv_step(h, V, W, scale.a, scale.b, plan=plan)
    assert plan.escape[0] != 0
