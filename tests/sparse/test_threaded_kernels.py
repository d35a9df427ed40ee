"""Thread-count invariance of the threaded (_mt) native kernels.

The threaded kernels partition rows into a *fixed* block grid that does
not depend on the thread count, accumulate one Kahan eta partial per
block, and combine the partials sequentially in block order — so fp64
moments are bitwise identical at every thread count.  These tests pin
that contract alone and composed with the subsystems that rely on it:
checkpoint resume (a resumed run may restart with a different thread
count) and serve coalescing (a threaded batch must stay invisible).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import checkpointed_eta
from repro.core.moments import compute_eta, eta_to_moments
from repro.core.scaling import SpectralScale
from repro.core.stochastic import make_block_vector
from repro.physics import build_topological_insulator
from repro.sparse.backend.native import native_available
from repro.sparse.sell import SellMatrix

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
@pytest.mark.parametrize("fmt", ["csr", "sell"])
def test_threaded_recurrence_matches_sequential_kernels(ti, fmt):
    """The W update is row-local, so the recurrence *trajectory* of the
    threaded path is bitwise the sequential kernels' — only the eta
    reduction differs in scheme (block Kahan), never across counts."""
    h, scale, block = ti
    A = _operator(h, fmt)
    seq = compute_eta(A, scale, M, block, backend="native", threads=None)
    par = compute_eta(A, scale, M, block, backend="native", threads=2)
    # same trajectory => identical to fp64 reduction reordering only
    np.testing.assert_allclose(par, seq, rtol=1e-13, atol=1e-13)


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
    """sim-world ranks with per-rank threads: moments are bitwise
    invariant across per-rank thread counts, plain and overlapped."""
    from repro.dist.comm import SimWorld
    from repro.dist.kpm_parallel import distributed_eta
    from repro.dist.partition import RowPartition

    h, scale, block = ti
    part = RowPartition.equal(h.n_rows, 2, align=4)
    # thread-count invariance holds *within* each schedule; the overlap
    # split regroups the eta reduction (interior + boundary) by design
    for ov in (False, True):
        etas = [
            distributed_eta(
                h, part, scale, M, block, SimWorld(2), backend="native",
                overlap=ov, threads=t,
            )
            for t in THREAD_COUNTS
        ]
        for eta in etas[1:]:
            np.testing.assert_array_equal(
                etas[0], eta, err_msg=f"overlap={ov}"
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
