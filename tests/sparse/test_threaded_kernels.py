"""Thread-count invariance of the native kernels.

Threads take whole 64-row eta blocks, each into its own bins, and bins
add exactly (DESIGN §19) — so moments are bitwise identical at every
thread count, None included; the plain products take whole row
groups.  These tests pin that contract alone and composed with the subsystems that rely
on it: checkpoint resume (a resumed run may restart with a different
thread count), serve coalescing (a threaded batch must stay invisible)
and a fork after a threaded solve.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.scaling import SpectralScale
from repro.core.stochastic import make_block_vector
from repro.physics import build_topological_insulator
from repro.sparse.backend import get_backend
from repro.sparse.backend.native import native_available
from repro.sparse.sell import SellMatrix
from repro.util.precision import get_precision
from tests.lattice import case_test

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

THREAD_COUNTS = (1, 2, 4)
M = 32
R = 3


@pytest.fixture(scope="module")
def ti():
    h, _ = build_topological_insulator(6, 6, 4)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    block = make_block_vector(h.n_rows, R, seed=11)
    return h, scale, block


def _operator(h, fmt: str):
    if fmt == "sell":
        return SellMatrix(h, chunk_height=8, sigma=32)
    if fmt == "sell_wide":  # one sigma scope wider than the matrix
        return SellMatrix(h, chunk_height=8, sigma=8192)
    return h


@case_test
def test_fp64_moments_bitwise_across_thread_counts(): ...


@needs_native
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
@pytest.mark.parametrize("fmt", ["csr", "sell", "sell_wide"])
@pytest.mark.parametrize("simd", ["on", "off"])
def test_plain_products_bitwise_across_thread_counts(ti, fmt, precision,
                                                     simd):
    """spmv (the Lanczos sweep) and spmmv (a plain product) are the
    walk's store finisher, rows per thread: no reduction, so no thread
    count moves a bit."""
    h, _scale, block = ti
    A = _operator(h, fmt)
    bk = get_backend("native")
    prec = get_precision(precision)
    X, x = prec.encode(block), prec.encode(np.ascontiguousarray(block[:, 0]))
    outs = [
        (bk.spmv(A, x, plan=plan), bk.spmmv(A, X, plan=plan))
        for plan in (None, *(bk.plan(A, R, precision, threads=t, simd=simd)
                             for t in THREAD_COUNTS))
    ]
    for (y, Y), t in zip(outs[1:], THREAD_COUNTS):
        np.testing.assert_array_equal(outs[0][0], y, err_msg=f"spmv {t}")
        np.testing.assert_array_equal(outs[0][1], Y, err_msg=f"spmmv {t}")


@case_test
def test_threaded_recurrence_matches_sequential_kernels(): ...
@case_test
def test_checkpoint_resume_across_thread_counts(): ...
@case_test
def test_serve_coalescing_invisible_at_any_thread_count(): ...
@case_test
def test_distributed_threads_match_serial(): ...
@case_test
def test_numpy_backend_ignores_threads(): ...
@case_test
def test_solver_threads_knob(): ...
@case_test
def test_moments_survive_engine_mix(): ...


def _threaded_moments(h, scale) -> np.ndarray:
    from repro.core.solver import KPMSolver

    return KPMSolver(h, n_moments=M, n_vectors=2, scale=scale, seed=5,
                     backend="native", threads=2).moments()


def _child_solve(conn, h, scale) -> None:
    conn.send_bytes(_threaded_moments(h, scale).tobytes())


def _child_steps(conn, rec) -> bytes:
    """The rest of ``rec``'s run: its bins, sent to ``conn`` if any."""
    out = b"".join(_step(rec) for _ in range(M // 2 - 4))
    if conn is not None:
        conn.send_bytes(out)
    return out


def _step(rec) -> bytes:
    rec.swap()
    return rec.update().tobytes()


@needs_native
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_fork_after_a_threaded_solve(ti):
    """A child forked from a thread that ran a team finishes its own
    threaded solve (on one thread: libgomp's team does not survive the
    fork) with the parent's bits — a fresh one, and the parent's own
    recurrence, whose plan bound its calls on that thread before the
    fork: a bound call never replays the parent's thread count."""
    from repro.core.recurrence import Recurrence

    h, scale, block = ti
    ref = _threaded_moments(h, scale)
    assert _in_forked_child(_child_solve, h, scale) == ref.tobytes()

    rec = Recurrence(h, scale.a, scale.b, R, backend="native", threads=2)
    rec.load(block)
    rec.bootstrap()
    for _ in range(3):  # both parities bound, the team started
        rec.swap()
        rec.update()
    assert _in_forked_child(_child_steps, rec) == _child_steps(None, rec)


def _in_forked_child(target, *args) -> bytes:
    """What ``target(conn, *args)`` sends from a forked child."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe(duplex=False)
    child = ctx.Process(target=target, args=(theirs, *args))
    child.start()
    theirs.close()
    try:
        got = ours.recv_bytes() if ours.poll(30.0) else None
    finally:
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
        ours.close()
    assert got is not None, "the forked child hung in its threaded solve"
    return got
