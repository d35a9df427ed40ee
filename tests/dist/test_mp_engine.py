"""Differential tests: multiprocess engine vs SPMD simulator vs serial.

The three executions of the same KPM problem — serial ``compute_eta``,
the sequential :class:`SimWorld` simulator, and real worker processes
over shared memory (:class:`MpWorld`) — must agree on the moments to
reduction-order tolerance, and the mp engine must charge its
:class:`MessageLog` record-for-record like the simulator, so the network
cost model prices both identically.  Failure handling is differential
too: a crashing worker must surface as a clean ``SimulationError`` with
no hang and no leaked shared-memory segments.
"""

import time

import numpy as np
import pytest

from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.halo import partition_matrix
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpTimeouts, MpWorld, mp_eta
from repro.dist.partition import RowPartition
from repro.dist.shm import segment_exists
from repro.resil import FaultPlan
from repro.sparse.backend.native import native_available
from repro.util.errors import SimulationError

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

M = 24  # moments for the standard parity runs


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, 4, seed=2)
    ref = compute_eta(h, scale, M, blk, "aug_spmmv")
    return h, scale, blk, ref


def run_pair(h, scale, blk, part, m=M, **kw):
    """The same problem through MpWorld and SimWorld; returns both."""
    mw = MpWorld(part.n_ranks)
    eta_mp = distributed_eta(h, part, scale, m, blk, mw, **kw)
    sw = SimWorld(part.n_ranks)
    eta_sim = distributed_eta(h, part, scale, m, blk, sw, **kw)
    return eta_mp, eta_sim, mw, sw


class TestParity:
    @pytest.mark.parametrize("n_workers, backend", [
        pytest.param(1, "auto", id="1"),
        pytest.param(2, "auto", id="2"),
        pytest.param(4, "auto", id="4"),
        pytest.param(1, "numpy", id="1-numpy"),
        pytest.param(1, "native", id="1-native", marks=needs_native),
    ])
    def test_matches_serial_and_sim(self, system, n_workers, backend):
        h, scale, blk, ref = system
        if backend != "auto":
            ref = compute_eta(h, scale, M, blk, "aug_spmmv", backend=backend)
        part = RowPartition.equal(h.n_rows, n_workers, align=4)
        eta_mp, eta_sim, mw, sw = run_pair(h, scale, blk, part,
                                           backend=backend)
        assert np.allclose(eta_mp, ref, atol=1e-9)
        if n_workers == 1:
            # one worker, empty halo, overlap off: the serial engine's own
            # Recurrence in another process — bitwise, not to tolerance
            assert np.array_equal(eta_mp, ref)
            assert np.array_equal(eta_sim, ref)
        # mp and sim run the identical per-rank arithmetic and the same
        # reduction order, so they agree far tighter than either vs serial
        assert np.allclose(eta_mp, eta_sim, atol=1e-12, rtol=0)
        # ... and charge the message log record-for-record identically
        assert mw.log.records == sw.log.records

    def test_skewed_weights(self, system):
        h, scale, blk, ref = system
        part = RowPartition.from_weights(h.n_rows, [0.6, 0.1, 0.3], align=4)
        eta_mp, eta_sim, mw, sw = run_pair(h, scale, blk, part)
        assert np.allclose(eta_mp, ref, atol=1e-9)
        assert np.allclose(eta_mp, eta_sim, atol=1e-12, rtol=0)
        assert mw.log.records == sw.log.records

    @pytest.mark.parametrize("r", [1, 8, 32])
    def test_block_widths(self, system, r):
        h, scale, _, _ = system
        m = 8  # keep the R=32 case cheap
        blk = make_block_vector(h.n_rows, r, seed=7)
        ref = compute_eta(h, scale, m, blk, "aug_spmmv")
        part = RowPartition.equal(h.n_rows, 2, align=4)
        eta_mp, eta_sim, mw, sw = run_pair(h, scale, blk, part, m=m)
        assert eta_mp.shape == (r, m)
        assert np.allclose(eta_mp, ref, atol=1e-9)
        assert np.allclose(eta_mp, eta_sim, atol=1e-12, rtol=0)
        assert mw.log.records == sw.log.records

    def test_numpy_backend(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        eta_mp, eta_sim, _, _ = run_pair(
            h, scale, blk, part, backend="numpy"
        )
        assert np.allclose(eta_mp, ref, atol=1e-9)
        assert np.allclose(eta_mp, eta_sim, atol=1e-12, rtol=0)

    @needs_native
    def test_native_backend(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        eta_mp, eta_sim, _, _ = run_pair(
            h, scale, blk, part, backend="native"
        )
        assert np.allclose(eta_mp, ref, atol=1e-9)
        assert np.allclose(eta_mp, eta_sim, atol=1e-12, rtol=0)

    @needs_native
    def test_per_rank_backend_mix(self, system):
        """Heterogeneous worlds: one rank native, one numpy."""
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2, backend=["native", "numpy"])
        eta = distributed_eta(h, part, scale, M, blk, mw)
        assert np.allclose(eta, ref, atol=1e-9)

    def test_reduction_every(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        eta_mp, eta_sim, mw, sw = run_pair(
            h, scale, blk, part, reduction="every"
        )
        assert np.allclose(eta_mp, ref, atol=1e-9)
        assert np.allclose(eta_mp, eta_sim, atol=1e-12, rtol=0)
        assert mw.log.records == sw.log.records
        # every rank performed the per-iteration reduction events
        assert (mw.last_acct[:, 2] == 2 * (M // 2)).all()

    def test_spawn_start_method(self, system):
        """Spawned workers (fresh interpreters) produce the fork result."""
        if "spawn" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        h, scale, _, _ = system
        blk = make_block_vector(h.n_rows, 2, seed=3)
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2, start_method="spawn",
                     timeouts=MpTimeouts(barrier=300.0, stall=300.0, run=300.0))
        eta = distributed_eta(h, part, scale, 8, blk, mw)
        ref = compute_eta(h, scale, 8, blk, "aug_spmmv")
        assert np.allclose(eta, ref, atol=1e-9)


class TestAccounting:
    def test_halo_acct_matches_pattern(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 3, align=4)
        dist = partition_matrix(h, part)
        mw = MpWorld(3)
        distributed_eta(dist, None, scale, M, blk, mw)
        itemsize = np.dtype(np.complex128).itemsize
        # workers count the bytes they actually copy into send windows;
        # over the run that is M/2 exchanges of the pattern volume
        total = mw.last_acct[:, 1].sum()
        assert total == (M // 2) * dist.pattern.bytes_per_exchange(r=4)
        assert mw.last_acct[:, 1].sum() % itemsize == 0

    def test_single_rank_no_messages(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 1)
        mw = MpWorld(1)
        distributed_eta(h, part, scale, M, blk, mw)
        assert mw.log.n_messages == 0
        assert mw.last_acct[:, :2].sum() == 0

    def test_segments_unlinked_after_success(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2)
        distributed_eta(h, part, scale, M, blk, mw)
        assert mw.last_segment_names  # the run did use shared memory
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)


class TestObservability:
    """Per-worker counters/metrics shipped back and merged in the parent."""

    def test_mp_counters_equal_serial(self, system):
        from repro.obs import MetricsRegistry
        from repro.util.counters import PerfCounters

        h, scale, blk, _ = system
        serial = PerfCounters()
        compute_eta(h, scale, M, blk, "aug_spmmv", serial)

        part = RowPartition.equal(h.n_rows, 3, align=4)
        merged = PerfCounters()
        metrics = MetricsRegistry()
        mw = MpWorld(3)
        distributed_eta(h, part, scale, M, blk, mw,
                        counters=merged, metrics=metrics)

        # local nnz and rows partition the global ones exactly, so the
        # merged minimum-traffic charges equal the serial run to the byte
        assert merged.bytes_loaded == serial.bytes_loaded
        assert merged.bytes_stored == serial.bytes_stored
        assert merged.flops == serial.flops
        # only the call tallies scale with the rank count
        assert merged.calls["spmmv"] == 3 * serial.calls["spmmv"]
        # per-worker metrics arrive rank-tagged with matching traffic
        for p in range(3):
            t = metrics.timers[f"rank{p}.aug_spmmv"]
            assert t.count == M // 2 - 1
            nbytes, nflops = metrics.span_traffic(f"rank{p}.aug_spmmv")
            assert nbytes and nflops
        # the raw per-rank snapshots stay inspectable on the world
        assert mw.last_obs is not None and len(mw.last_obs) == 3

    def test_mp_counters_equal_sim_counters(self, system):
        from repro.obs import MetricsRegistry
        from repro.util.counters import PerfCounters

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        c_mp, c_sim = PerfCounters(), PerfCounters()
        distributed_eta(h, part, scale, M, blk, MpWorld(2),
                        counters=c_mp, metrics=MetricsRegistry())
        distributed_eta(h, part, scale, M, blk, SimWorld(2),
                        counters=c_sim)
        assert (c_mp.bytes_loaded, c_mp.bytes_stored, c_mp.flops) == (
            c_sim.bytes_loaded, c_sim.bytes_stored, c_sim.flops)
        assert c_mp.calls == c_sim.calls

    def test_null_sentinels_skip_obs_shipping(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2)
        distributed_eta(h, part, scale, M, blk, mw)
        assert mw.last_obs is None

    @pytest.mark.parametrize("overlap", ["off", "on"])
    def test_workers_import_nothing_after_fork(self, tmp_path, overlap):
        """Package namespaces resolve lazily, so a module first touched
        *inside* a rank loop would be imported — compiled, without a
        ``.pyc`` — once per worker per solve.  In a fresh interpreter
        (this one has imported everything already) each worker ships
        what it imported since its fork in the obs blob: nothing.  If
        this fails, import the rank loop's needs in ``mp_eta`` before
        the fork, not in ``_worker``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        if MpWorld(2).start_method != "fork":
            pytest.skip("spawned workers import everything anyway")
        code = (
            "import json, sys\n"
            "from repro import KPMSolver, build_topological_insulator\n"
            "from repro.dist import mp\n"
            "from repro.obs import MetricsRegistry\n"
            "from repro.resil import Resilience\n"
            "at_fork = set()\n"
            "real_worker, real_pack = mp._worker, mp._pack_obs_blob\n"
            "def worker(*args):  # the child's first statement\n"
            "    at_fork.update(sys.modules)\n"
            "    real_worker(*args)\n"
            "def pack(row, payload):\n"
            "    new = sorted(set(sys.modules) - at_fork)\n"
            "    real_pack(row, {**payload, 'imported': new})\n"
            "mp._worker, mp._pack_obs_blob = worker, pack\n"
            "H, _ = build_topological_insulator(8, 6, 4)\n"
            "solver = KPMSolver(\n"
            "    H, 24, 4, seed=0, dist_engine='mp', workers=2,\n"
            "    overlap=sys.argv[1], metrics=MetricsRegistry(),\n"
            "    resilience=Resilience(checkpoint_every=4,\n"
            "                          checkpoint_path=sys.argv[2]))\n"
            "solver.dos()\n"
            "print(json.dumps([s['imported'] for s in solver.world.last_obs]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             *filter(None, [env.get("PYTHONPATH")])])
        out = subprocess.run(
            [sys.executable, "-c", code, overlap, str(tmp_path / "ck.npz")],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[[], []]"


class TestFailure:
    def test_worker_exception_raises_cleanly(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 3, align=4)
        mw = MpWorld(3)
        t0 = time.monotonic()
        with pytest.raises(SimulationError, match="injected fault in rank 1"):
            mp_eta(h, part, scale, M, blk, mw,
                   fault_plan=FaultPlan.parse("raise:rank=1,m=3"))
        # the aborted barrier unblocks peers immediately — no timeout wait
        assert time.monotonic() - t0 < mw.timeouts.barrier / 2
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)

    def test_worker_hard_death_raises_cleanly(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2)
        t0 = time.monotonic()
        with pytest.raises(SimulationError, match="exit code"):
            mp_eta(h, part, scale, M, blk, mw,
                   fault_plan=FaultPlan.parse("crash:rank=0,m=2"))
        assert time.monotonic() - t0 < mw.timeouts.barrier / 2
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)


class TestTimeouts:
    """The MpTimeouts knob."""

    def test_defaults(self):
        t = MpTimeouts()
        assert t.barrier == 120.0 and t.stall == 120.0
        assert t.join == 5.0 and t.run is None

    @pytest.mark.parametrize("kw", [
        {"barrier": 0.0}, {"join": -1.0}, {"stall": 0.0}, {"run": 0.0},
    ])
    def test_rejects_non_positive(self, kw):
        with pytest.raises(ValueError):
            MpTimeouts(**kw)

    def test_stall_detected_by_heartbeat(self, system):
        from repro.util.errors import WorkerFailure

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2, timeouts=MpTimeouts(stall=1.0))
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure) as ei:
            mp_eta(h, part, scale, M, blk, mw,
                   fault_plan=FaultPlan.parse("stall:rank=1,m=3"))
        # the heartbeat monitor fires on the stall budget, not the (much
        # longer) barrier timeout
        assert time.monotonic() - t0 < 30.0
        assert "stall" in ei.value.kinds
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)


class TestCheckpointing:
    """Parent-side salvage and bitwise resume of the mp engine."""

    def test_structured_failure_carries_resume_state(self, system, tmp_path):
        from repro.resil import FaultPlan
        from repro.util.errors import WorkerFailure

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2)
        with pytest.raises(WorkerFailure) as ei:
            mp_eta(h, part, scale, M, blk, mw,
                   fault_plan=FaultPlan.parse("crash:rank=1,m=7"),
                   checkpoint_every=3, checkpoint_path=tmp_path / "ck.npz")
        exc = ei.value
        # machine-readable payload: who died, how, and where to resume
        assert exc.kinds == {"death"}
        assert any(f.rank == 1 and f.exit_code == 3 for f in exc.failures)
        # checkpoints land at m=3 and m=6; the crash at m=7 salvages m=6
        assert exc.resume_m == 7
        assert mw.last_checkpoint is not None
        assert mw.last_checkpoint.next_m == 7
        assert (tmp_path / "ck.npz").exists()

    def test_resume_is_bitwise(self, system, tmp_path):
        from repro.core.checkpoint import KpmCheckpoint
        from repro.resil import FaultPlan
        from repro.util.errors import WorkerFailure

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        ref = distributed_eta(h, part, scale, M, blk, MpWorld(2))
        p = tmp_path / "ck.npz"
        with pytest.raises(WorkerFailure):
            mp_eta(h, part, scale, M, blk, MpWorld(2),
                   fault_plan=FaultPlan.parse("crash:rank=0,m=8"),
                   checkpoint_every=3, checkpoint_path=p)
        ck = KpmCheckpoint.load(p)
        assert 1 < ck.next_m < M // 2
        resumed = distributed_eta(h, part, scale, M, blk, MpWorld(2),
                                  resume_from=ck)
        assert np.array_equal(resumed, ref)

    def test_completed_run_checkpoints_match_full(self, system, tmp_path):
        """Checkpointing a healthy run neither perturbs nor loses moments."""
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        ref = distributed_eta(h, part, scale, M, blk, MpWorld(2))
        mw = MpWorld(2)
        eta = distributed_eta(h, part, scale, M, blk, mw,
                              checkpoint_every=4,
                              checkpoint_path=tmp_path / "ck.npz")
        assert np.array_equal(eta, ref)
        assert mw.last_checkpoint is not None
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)

    def test_fault_plan_spec_objects_inject(self, system):
        """A plan built from ``FaultSpec`` objects (not parsed) injects too."""
        from repro.resil import FaultSpec

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mw = MpWorld(2)
        with pytest.raises(SimulationError, match="injected fault in rank 1"):
            mp_eta(h, part, scale, M, blk, mw,
                   fault_plan=FaultPlan((FaultSpec("raise", rank=1, m=3),)))


class TestValidation:
    def test_world_size_mismatch(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        with pytest.raises(SimulationError):
            distributed_eta(h, part, scale, M, blk, MpWorld(3))

    def test_bad_reduction(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 1)
        with pytest.raises(ValueError):
            distributed_eta(
                h, part, scale, M, blk, MpWorld(1), reduction="sometimes"
            )

    def test_bad_device_label(self):
        with pytest.raises(SimulationError):
            MpWorld(2, devices=["cpu", "tpu"])

    def test_backend_list_wrong_length(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=4)
        with pytest.raises(SimulationError):
            distributed_eta(
                h, part, scale, M, blk, MpWorld(2, backend=["numpy"])
            )

    def test_partition_required(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError):
            distributed_eta(h, None, scale, M, blk, MpWorld(1))


class TestSolverFacade:
    def test_solver_dist_engines_agree(self, system):
        from repro.core.solver import KPMSolver

        h, scale, _, _ = system
        kw = dict(n_moments=16, n_vectors=2, seed=9, scale=scale)
        mu_serial = KPMSolver(h, **kw).moments()
        s_sim = KPMSolver(h, dist_engine="sim", workers=2, **kw)
        s_mp = KPMSolver(h, dist_engine="mp", workers=2, **kw)
        mu_sim = s_sim.moments()
        mu_mp = s_mp.moments()
        assert np.allclose(mu_sim, mu_serial, atol=1e-9)
        assert np.allclose(mu_mp, mu_sim, atol=1e-12, rtol=0)
        # the facade exposes the communicator of the last solve
        assert s_mp.world is not None and s_mp.world.log.n_messages > 0
        assert s_mp.world.log.records == s_sim.world.log.records

    def test_solver_rejects_bad_engine(self, system):
        from repro.core.solver import KPMSolver

        h, _, _, _ = system
        with pytest.raises(ValueError):
            KPMSolver(h, dist_engine="mpi")

    def test_solver_rejects_sell_for_distributed(self, system):
        from repro.core.solver import KPMSolver
        from repro.sparse.sell import SellMatrix

        h, _, _, _ = system
        s = SellMatrix(h, chunk_height=8, sigma=16)
        with pytest.raises(ValueError, match="CSR"):
            KPMSolver(s, dist_engine="sim")
