"""Differential tests: multiprocess engine vs SPMD simulator vs serial.

The three executions of the same KPM problem — serial ``compute_eta``,
the sequential :class:`SimWorld` simulator, and real worker processes
over shared memory (:class:`MpWorld`) — must agree on the moments
bitwise, and the mp engine must charge its
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
from repro.dist.mp import MpTimeouts, MpWorld
from repro.dist.partition import RowPartition
from repro.dist.shm import segment_exists
from repro.obs import MetricsRegistry
from repro.obs.trace import MemoryTrace
from repro.resil import FaultPlan
from repro.util.errors import SimulationError
from tests.lattice import case_test

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
    @case_test
    def test_matches_serial_and_sim(self): ...
    @case_test
    def test_skewed_weights(self): ...
    @case_test
    def test_block_widths(self): ...
    @case_test
    def test_numpy_backend(self): ...
    @case_test
    def test_native_backend(self): ...
    @case_test
    def test_per_rank_backend_mix(self): ...

    def test_reduction_every(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        eta_mp, eta_sim, mw, sw = run_pair(
            h, scale, blk, part, reduction="every"
        )
        assert np.array_equal(eta_mp, ref)
        assert np.array_equal(eta_sim, ref)
        assert mw.log.records == sw.log.records
        # every rank recorded its recursive-doubling share of each
        # iteration's reduction: the eta bins, 48 R bytes, once per
        # partner — on two ranks, one
        for p in range(2):
            moved = sum(rec.nbytes for rec in mw.log.records
                        if rec.src == p and rec.phase == "allreduce_iter")
            assert moved == 48 * blk.shape[1] * (M // 2)

    def test_spawn_start_method(self, system):
        """Spawned workers (fresh interpreters) produce the fork result."""
        if "spawn" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        h, scale, _, _ = system
        blk = make_block_vector(h.n_rows, 2, seed=3)
        part = RowPartition.equal(h.n_rows, 2, align=64)
        mw = MpWorld(2, start_method="spawn",
                     timeouts=MpTimeouts(barrier=300.0, stall=300.0, run=300.0))
        eta = distributed_eta(h, part, scale, 8, blk, mw)
        ref = compute_eta(h, scale, 8, blk, "aug_spmmv")
        assert np.array_equal(eta, ref)


class TestOversubscribed:
    def test_four_task_mode_ranks_on_fewer_cores(self, system, monkeypatch):
        """More task-mode workers than cores: waits back off from core
        yields to naps (here from the first poll), and the bits hold."""
        from repro.dist import mp

        if MpWorld(4).start_method != "fork":
            pytest.skip("spawned workers would not see the patch")
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 4, align=64)
        MpWorld(4).close()  # the next world forks with the patch
        monkeypatch.setattr(mp, "_SPINS", 0)
        try:
            eta_mp, eta_sim, mw, sw = run_pair(h, scale, blk, part,
                                               overlap="on")
        finally:
            MpWorld(4).close()
        assert np.array_equal(eta_mp, eta_sim)
        assert np.array_equal(eta_mp, ref)
        assert mw.log.records == sw.log.records


class TestRankProgram:
    """Both transports run the one rank program (:mod:`repro.core.recurrence`)."""

    def test_corrupt_halo_on_both_transports(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        eta_mp, eta_sim, _, _ = run_pair(
            h, scale, blk, part, backend="numpy",
            fault_plan=FaultPlan.parse("corrupt-halo:rank=0,m=2"))
        assert np.array_equal(eta_mp, eta_sim)
        assert not np.array_equal(eta_sim, ref)

    @pytest.mark.parametrize("world", [SimWorld, MpWorld])
    def test_skipped_window_pack_is_caught(self, system, monkeypatch, world):
        from repro.dist import kpm_parallel as rank

        if MpWorld(2).start_method != "fork":
            pytest.skip("spawned workers would not see the patch")
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        pack = rank._pack

        def skip_one(s, m, *args):
            if (s.rank, m) != (0, 2):
                pack(s, m, *args)

        MpWorld(2).close()  # the next world forks with the patch
        monkeypatch.setattr(rank, "_pack", skip_one)
        try:
            with pytest.raises(SimulationError,
                               match="halo accounting mismatch"):
                distributed_eta(h, part, scale, M, blk, world(2))
        finally:
            MpWorld(2).close()


class TestAccounting:
    def test_halo_acct_matches_pattern(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 3, align=64)
        dist = partition_matrix(h, part)
        mw = MpWorld(3)
        distributed_eta(dist, None, scale, M, blk, mw)
        itemsize = np.dtype(np.complex128).itemsize
        # workers record each window as they pack it; over the run that
        # is M/2 exchanges of the pattern volume
        phases = mw.log.bytes_by_phase()
        total = phases["halo_init"] + phases["halo"]
        assert total == (M // 2) * dist.pattern.bytes_per_exchange(r=4)
        assert total % itemsize == 0

    def test_single_rank_no_messages(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 1)
        mw = MpWorld(1)
        distributed_eta(h, part, scale, M, blk, mw)
        assert mw.log.n_messages == 0  # no window packed, no reduction

    def test_segments_unlinked_after_success(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        mw = MpWorld(2)
        distributed_eta(h, part, scale, M, blk, mw)
        assert mw.last_segment_names  # the run did use shared memory
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)


class TestObservability:
    """Per-worker counters/metrics shipped back and merged in the parent."""

    def test_mp_counters_equal_serial(self, system):
        from repro.util.counters import PerfCounters

        h, scale, blk, _ = system
        serial = PerfCounters()
        compute_eta(h, scale, M, blk, "aug_spmmv", serial)

        part = RowPartition.equal(h.n_rows, 3, align=64)
        merged = metrics = PerfCounters()  # one sink: its fold and timers
        mw = MpWorld(3)
        distributed_eta(h, part, scale, M, blk, mw, metrics=merged)

        # local nnz and rows partition the global ones exactly, so the
        # merged minimum-traffic charges equal the serial run to the byte
        assert merged.bytes_loaded == serial.bytes_loaded
        assert merged.bytes_stored == serial.bytes_stored
        assert merged.flops == serial.flops
        # only the call tallies scale with the rank count
        assert merged.calls["spmmv"] == 3 * serial.calls["spmmv"]
        # per-worker timers arrive rank-tagged beside their traffic rows
        for p in range(3):
            t = metrics.timers[f"rank{p}.aug_spmmv"]
            assert t.count == M // 2 - 1
            loads, stores, flops, calls = metrics.traffic[f"rank{p}.aug_spmmv"]
            assert loads and stores and flops and calls == t.count
        # the raw per-rank snapshots stay inspectable on the world
        assert mw.last_obs is not None and len(mw.last_obs) == 3

    def test_one_snapshot_per_worker_keeps_rank_timers(self, system):
        """Each worker ships one snapshot; merged into the parent's one
        sink, its timers keep their ``rank<p>.`` names (``halo_wait``
        included) and its traffic folds to the serial run's."""
        from repro.util.counters import PerfCounters

        h, scale, blk, _ = system
        serial, sink, mw = PerfCounters(), PerfCounters(), MpWorld(2)
        compute_eta(h, scale, M, blk, "aug_spmmv", serial)
        distributed_eta(h, RowPartition.equal(h.n_rows, 2, align=64), scale,
                        M, blk, mw, metrics=sink, overlap=True)
        assert all({"timers", "traffic"} <= set(snap)
                   for snap in mw.last_obs)
        for p in range(2):
            assert {f"rank{p}.{name}" for name in (
                "spmmv", "aug_spmmv_int", "aug_spmmv_bnd", "halo_wait",
                "rank_busy")} <= set(sink.timers)
        assert (sink.bytes_loaded, sink.bytes_stored, sink.flops) == (
            serial.bytes_loaded, serial.bytes_stored, serial.flops)

    def test_mp_counters_equal_sim_counters(self, system):
        from repro.util.counters import PerfCounters

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        c_mp, c_sim = PerfCounters(), PerfCounters()
        distributed_eta(h, part, scale, M, blk, MpWorld(2), metrics=c_mp)
        distributed_eta(h, part, scale, M, blk, SimWorld(2),
                        counters=c_sim)
        assert (c_mp.bytes_loaded, c_mp.bytes_stored, c_mp.flops) == (
            c_sim.bytes_loaded, c_sim.bytes_stored, c_sim.flops)
        assert c_mp.calls == c_sim.calls

    def test_null_sentinels_skip_obs_shipping(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        mw = MpWorld(2)
        distributed_eta(h, part, scale, M, blk, mw)
        assert mw.last_obs is None

    @pytest.mark.parametrize("overlap", ["off", "on"])
    def test_workers_import_nothing_after_fork(self, tmp_path, overlap):
        """Package namespaces resolve lazily, so a module first touched
        *inside* a rank loop would be imported — compiled, without a
        ``.pyc`` — once per worker per solve.  In a fresh interpreter
        (this one has imported everything already) each worker ships
        what it imported since its fork with its reply: nothing.  If
        this fails, import the rank loop's needs at the top of
        ``repro.dist.mp``, before the fork, not in ``_worker``."""
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
            "real_worker, real_run = mp._worker, mp._run_rank\n"
            "def worker(*args):  # the child's first statement\n"
            "    at_fork.update(sys.modules)\n"
            "    real_worker(*args)\n"
            "def run_rank(*args):\n"
            "    done, records, obs = real_run(*args)\n"
            "    new = sorted(set(sys.modules) - at_fork)\n"
            "    return done, records, {**obs, 'imported': new}\n"
            "mp._worker, mp._run_rank = worker, run_rank\n"
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


@pytest.mark.parametrize("overlap", ["off", "on"])
class TestFailure:
    """A failing rank aborts its peers' waits — the vector-mode barrier
    word and the task-mode edge words alike."""

    def test_worker_exception_raises_cleanly(self, system, overlap):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 3, align=64)
        mw = MpWorld(3)
        t0 = time.monotonic()
        with pytest.raises(SimulationError, match="injected fault in rank 1"):
            distributed_eta(h, part, scale, M, blk, mw, overlap=overlap,
                            fault_plan=FaultPlan.parse("raise:rank=1,m=3"))
        # the abort word unblocks peers immediately — no timeout wait
        assert time.monotonic() - t0 < mw.timeouts.barrier / 2
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)

    def test_worker_hard_death_raises_cleanly(self, system, overlap):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        mw = MpWorld(2)
        t0 = time.monotonic()
        with pytest.raises(SimulationError, match="exit code"):
            distributed_eta(h, part, scale, M, blk, mw, overlap=overlap,
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
        part = RowPartition.equal(h.n_rows, 2, align=64)
        mw = MpWorld(2, timeouts=MpTimeouts(stall=1.0))
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure) as ei:
            distributed_eta(h, part, scale, M, blk, mw,
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
        part = RowPartition.equal(h.n_rows, 2, align=64)
        mw = MpWorld(2)
        with pytest.raises(WorkerFailure) as ei:
            distributed_eta(h, part, scale, M, blk, mw,
                            fault_plan=FaultPlan.parse("crash:rank=1,m=7"),
                            checkpoint_every=3,
                            checkpoint_path=tmp_path / "ck.npz")
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
        part = RowPartition.equal(h.n_rows, 2, align=64)
        ref = distributed_eta(h, part, scale, M, blk, MpWorld(2))
        p = tmp_path / "ck.npz"
        with pytest.raises(WorkerFailure):
            distributed_eta(h, part, scale, M, blk, MpWorld(2),
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
        part = RowPartition.equal(h.n_rows, 2, align=64)
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
        part = RowPartition.equal(h.n_rows, 2, align=64)
        mw = MpWorld(2)
        with pytest.raises(SimulationError, match="injected fault in rank 1"):
            distributed_eta(h, part, scale, M, blk, mw, fault_plan=FaultPlan(
                (FaultSpec("raise", rank=1, m=3),)))


class TestCapture:
    """One capture rule: after iteration m every engine publishes when a
    stream or a checkpoint is due, and the mp parent takes each publish
    in order — the ranks wait on its capture word, never past it."""

    @pytest.fixture(scope="class")
    def ti(self):
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(8, 8, 4)
        return (h, lanczos_scale(h, seed=1),
                make_block_vector(h.n_rows, 3, seed=2))

    def solve(self, ti, world, m, tmp_path=None, every=0, hook=None):
        """``(eta, streamed (n_eta, prefix) pairs, saved next_m's)``."""
        h, scale, blk = ti
        part = RowPartition.equal(h.n_rows, world.n_ranks, align=64)
        metrics, streamed = MetricsRegistry(MemoryTrace()), []

        def progress(n_eta, prefix):
            streamed.append((n_eta, prefix.copy()))
            if hook is not None:
                hook(n_eta)

        eta = distributed_eta(
            h, part, scale, m, blk, world, metrics=metrics,
            progress=progress, progress_every=1, checkpoint_every=every,
            checkpoint_path=every and tmp_path / f"ck{every}.npz")
        return eta, streamed, [r["next_m"] for r in metrics.trace
                               if r["name"] == "checkpoint_save"]

    @pytest.mark.parametrize("every", [0, 3])
    def test_mp_streams_and_saves_what_sim_does(self, ti, tmp_path, every):
        sim = self.solve(ti, SimWorld(2), 32, tmp_path, every)
        mp = self.solve(ti, MpWorld(2), 32, tmp_path, every)
        assert [n for n, _ in mp[1]] == list(range(4, 33, 2))
        assert [n for n, _ in mp[1]] == [n for n, _ in sim[1]]
        for (_, a), (_, b) in zip(mp[1], sim[1]):
            assert np.array_equal(a, b)
        assert mp[2] == sim[2] == (list(range(4, 17, 3)) if every else [])
        assert np.array_equal(mp[0], sim[0])
        for n, prefix in mp[1]:
            assert np.array_equal(prefix, mp[0][:, :n])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_slow_parent_takes_every_capture(self, ti, tmp_path, workers):
        """A 10 ms callback: every one of the 31 partials and saves, in
        order — the ranks wait for the parent instead of overwriting a
        slot it has not copied, also with more ranks than cores — and
        eta bitwise unchanged."""
        h, scale, blk = ti
        ref = compute_eta(h, scale, 64, blk)
        eta, streamed, saved = self.solve(
            ti, MpWorld(workers), 64, tmp_path, every=1,
            hook=lambda _n: time.sleep(0.01))
        assert [n for n, _ in streamed] == list(range(4, 65, 2))
        assert saved == list(range(2, 33))
        assert np.array_equal(eta, ref)
        for n, prefix in streamed:
            assert np.array_equal(prefix, ref[:, :n])

    def test_a_hook_longer_than_the_timeouts_is_no_failure(self, ti,
                                                          tmp_path):
        """The ranks wait on the parent's capture word as long as the
        parent lives, and the parent's own time in a hook is no stall."""
        h, scale, blk = ti
        ref = compute_eta(h, scale, 32, blk)
        mw = MpWorld(2, timeouts=MpTimeouts(barrier=1.0, stall=1.0))
        eta, streamed, saved = self.solve(
            ti, mw, 32, tmp_path, every=1,
            hook=lambda n: n == 8 and time.sleep(2.5))
        assert np.array_equal(eta, ref)
        assert len(streamed) == len(saved) == 15


class TestValidation:
    def test_world_size_mismatch(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
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
        part = RowPartition.equal(h.n_rows, 2, align=64)
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
        assert np.array_equal(mu_sim, mu_serial)
        assert np.array_equal(mu_mp, mu_serial)
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
