"""Thread-count invariance of the native kernels.

Threads take whole 64-row eta blocks, each into its own bins, and bins
add exactly (DESIGN §19) — so moments are bitwise identical at every
thread count, None included; the plain products take whole rows.  These
tests pin that contract alone and composed with the subsystems that rely
on it: checkpoint resume (a resumed run may restart with a different
thread count), serve coalescing (a threaded batch must stay invisible)
and a fork after a threaded solve.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.checkpoint import checkpointed_eta
from repro.core.moments import compute_eta, eta_to_moments
from repro.core.scaling import SpectralScale
from repro.core.stochastic import make_block_vector
from repro.physics import build_topological_insulator
from repro.sparse.backend import get_backend
from repro.sparse.backend.native import native_available
from repro.sparse.sell import SellMatrix
from repro.util.precision import get_precision

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
    return h


@needs_native
@pytest.mark.parametrize("fmt", ["csr", "sell"])
@pytest.mark.parametrize("engine", ["aug_spmv", "aug_spmmv"])
def test_fp64_moments_bitwise_across_thread_counts(ti, fmt, engine):
    """The tentpole invariant: eta(threads=t) is one bit pattern for all t."""
    h, scale, block = ti
    A = _operator(h, fmt)
    etas = [
        compute_eta(A, scale, M, block, engine, backend="native", threads=t)
        for t in THREAD_COUNTS
    ]
    for t, eta in zip(THREAD_COUNTS[1:], etas[1:]):
        np.testing.assert_array_equal(
            etas[0], eta, err_msg=f"{fmt}/{engine}: threads=1 vs {t}"
        )


@needs_native
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
@pytest.mark.parametrize("fmt", ["csr", "sell"])
@pytest.mark.parametrize("simd", ["on", "off"])
def test_plain_products_bitwise_across_thread_counts(ti, fmt, precision,
                                                     simd):
    """spmv (the Lanczos sweep) and spmmv (the bootstrap) take rows per
    thread: no reduction, so no thread count moves a bit."""
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


@needs_native
@pytest.mark.parametrize("fmt", ["csr", "sell"])
def test_threaded_recurrence_matches_sequential_kernels(ti, fmt):
    """threads=None is a team of one: the same blocks, the same bins."""
    h, scale, block = ti
    A = _operator(h, fmt)
    seq = compute_eta(A, scale, M, block, backend="native", threads=None)
    par = compute_eta(A, scale, M, block, backend="native", threads=2)
    np.testing.assert_array_equal(par, seq)


@needs_native
def test_checkpoint_resume_across_thread_counts(ti, tmp_path):
    """Interrupt at threads=2, resume at threads=4: bitwise equal to an
    uninterrupted threads=1 run (composition with checkpointing)."""
    from repro.resil.faults import FaultPlan, FaultSpec
    from repro.util.errors import FaultInjected

    h, scale, block = ti
    ref = checkpointed_eta(h, scale, M, block, backend="native", threads=1)

    path = tmp_path / "ck.npz"
    plan = FaultPlan(specs=(FaultSpec("raise", rank=0, m=9),))
    with pytest.raises(FaultInjected):
        checkpointed_eta(
            h, scale, M, block, backend="native", threads=2,
            checkpoint_every=4, checkpoint_path=path, fault_plan=plan,
        )
    resumed = checkpointed_eta(
        h, scale, M, block, backend="native", threads=4,
        checkpoint_every=4, checkpoint_path=path, resume_from=path,
    )
    np.testing.assert_array_equal(ref, resumed)


@needs_native
def test_serve_coalescing_invisible_at_any_thread_count():
    """A threaded coalesced batch returns the exact bytes a solo solve
    at a *different* thread count returns (composition with serving)."""
    from repro.serve import HamiltonianSpec, KPMServer, Request

    spec = HamiltonianSpec(
        "topological_insulator", {"nx": 6, "ny": 6, "nz": 4}
    )
    wide = KPMServer(max_width=8, backend="native", threads=2)
    tickets = [
        wide.submit(Request(spec, n_moments=M, n_vectors=1, seed=s))
        for s in range(4)
    ]
    assert wide.step() == 1  # one coalesced batch of width 4
    for s, t in enumerate(tickets):
        solo = KPMServer(max_width=1, backend="native", threads=4)
        t_ref = solo.submit(Request(spec, n_moments=M, n_vectors=1, seed=s))
        solo.step()
        np.testing.assert_array_equal(
            t.result().moments, t_ref.result().moments
        )


@needs_native
def test_distributed_threads_match_serial(ti):
    """sim-world ranks with per-rank threads: moments are bitwise the
    serial run's at every per-rank thread count, plain and overlapped."""
    from repro.dist.comm import SimWorld
    from repro.dist.kpm_parallel import distributed_eta
    from repro.dist.partition import RowPartition

    h, scale, block = ti
    part = RowPartition.equal(h.n_rows, 2, align=64)
    ref = compute_eta(h, scale, M, block, backend="native")
    for ov in (False, True):
        for t in THREAD_COUNTS:
            np.testing.assert_array_equal(
                ref, distributed_eta(
                    h, part, scale, M, block, SimWorld(2), backend="native",
                    overlap=ov, threads=t,
                ), err_msg=f"overlap={ov}, threads={t}"
            )


@needs_native
def test_numpy_backend_ignores_threads(ti):
    """The knob is accept-and-ignore on the NumPy backend."""
    h, scale, block = ti
    a = compute_eta(h, scale, M, block, backend="numpy", threads=None)
    b = compute_eta(h, scale, M, block, backend="numpy", threads=4)
    np.testing.assert_array_equal(a, b)


@needs_native
def test_solver_threads_knob(ti):
    """KPMSolver(threads=...) reaches the kernels and keeps moments
    bitwise across counts (including 'auto')."""
    from repro.core.solver import KPMSolver

    h, scale, _ = ti
    mus = [
        KPMSolver(h, n_moments=M, n_vectors=2, scale=scale, seed=5,
                  backend="native", threads=t).moments()
        for t in (1, 4, "auto")
    ]
    np.testing.assert_array_equal(mus[0], mus[1])
    np.testing.assert_array_equal(mus[0], mus[2])


@needs_native
def test_moments_survive_engine_mix(ti):
    """eta_to_moments of threaded runs equals the threads=1 conversion —
    a guard that nothing downstream depends on the thread count."""
    h, scale, block = ti
    mus = [
        eta_to_moments(
            compute_eta(h, scale, M, block, backend="native", threads=t)
        )
        for t in THREAD_COUNTS
    ]
    for mu in mus[1:]:
        np.testing.assert_array_equal(mus[0], mu)


def _threaded_moments(h, scale) -> np.ndarray:
    from repro.core.solver import KPMSolver

    return KPMSolver(h, n_moments=M, n_vectors=2, scale=scale, seed=5,
                     backend="native", threads=2).moments()


def _child_solve(conn, h, scale) -> None:
    conn.send_bytes(_threaded_moments(h, scale).tobytes())


@needs_native
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_fork_after_a_threaded_solve(ti):
    """A child forked from a thread that ran a team finishes its own
    threaded solve (on one thread: libgomp's team does not survive the
    fork) with the parent's bits."""
    h, scale, _ = ti
    ref = _threaded_moments(h, scale)
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_solve, args=(theirs, h, scale))
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
    assert got == ref.tobytes()
