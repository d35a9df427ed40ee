"""Persistent mp worlds: leased workers, resident arena, clean deaths.

An :class:`MpWorld` is a handle on a process-wide pool of parked worlds.
These tests pin the lease's contract: the same workers serve
consecutive solves; a leased world computes exactly what a freshly
forked one (and the simulator) computes, in every execution mode; any
failure retires the world and the next lease is healthy; concurrent
leases never share a world; no ``/dev/shm`` entry exists during or
after a run; a parked worker never runs on stale process state; and a
killed parent leaves neither segments nor workers behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.checkpoint import KpmCheckpoint
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.elastic import RebalancePolicy, elastic_eta
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpWorld
from repro.dist.partition import RowPartition
from repro.dist.shm import segment_exists
from repro.obs import MetricsRegistry
from repro.resil import FaultPlan
from repro.sparse.backend import report_backend_failure, reset_backend_health
from repro.sparse.backend.native import native_available, simd_available
from repro.util.counters import PerfCounters
from repro.util.errors import WorkerFailure

M = 24

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)  # 768 rows
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, 4, seed=2)
    part = RowPartition.equal(h.n_rows, 2, align=32)
    return h, scale, blk, part


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return set()


def exited(pid: int) -> bool:
    """Gone or a zombie (waiting to be reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def solve(system, world, **kw):
    h, scale, blk, part = system
    counters = PerfCounters()  # the one sink: timers and traffic fold
    eta = distributed_eta(h, part, scale, M, blk, world, metrics=counters,
                          **kw)
    return eta, counters, world.log.records


def test_consecutive_solves_share_workers(system):
    pids = []
    for _ in range(3):
        mw = MpWorld(2)
        solve(system, mw)
        pids.append(mw.last_pids)
    assert pids[0] == pids[1] == pids[2]
    assert all(not exited(pid) for pid in pids[0])


MODES = {
    "overlap-on": dict(overlap=True),
    "overlap-off": dict(overlap=False),
    "fp32": dict(precision="fp32"),
    "threads2": dict(threads=2),
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_leased_equals_fresh_and_sim(system, mode):
    kw = MODES[mode]
    ref = solve(system, SimWorld(2), **kw)
    MpWorld(2).close()  # the next run forks
    fresh_world = MpWorld(2)
    fresh = solve(system, fresh_world, **kw)
    leased_world = MpWorld(2)
    leased = solve(system, leased_world, **kw)
    assert leased_world.last_pids == fresh_world.last_pids
    for got in (fresh, leased):
        assert np.array_equal(got[0], ref[0])
        c, c_ref = got[1], ref[1]
        assert (c.bytes_loaded, c.bytes_stored, c.flops, c.calls) == (
            c_ref.bytes_loaded, c_ref.bytes_stored, c_ref.flops, c_ref.calls)
        assert got[2] == ref[2]


def test_checkpoint_and_resume_on_leased_world(system, tmp_path):
    h, scale, blk, part = system
    ref = distributed_eta(h, part, scale, M, blk, SimWorld(2))
    with pytest.raises(WorkerFailure):
        distributed_eta(h, part, scale, M, blk, MpWorld(2),
                        fault_plan=FaultPlan.parse("crash:rank=0,m=8"),
                        checkpoint_every=3,
                        checkpoint_path=tmp_path / "ck.npz")
    ck = KpmCheckpoint.load(tmp_path / "ck.npz")
    assert ck.next_m == 7
    worlds = [MpWorld(2), MpWorld(2)]  # fresh after the crash, then leased
    for i, mw in enumerate(worlds):
        eta = distributed_eta(h, part, scale, M, blk, mw, resume_from=ck,
                              checkpoint_every=2,
                              checkpoint_path=tmp_path / f"ck{i}.npz")
        assert np.array_equal(eta, ref)
    assert worlds[0].last_pids == worlds[1].last_pids
    a, b = (mw.last_checkpoint for mw in worlds)
    assert a.next_m == b.next_m
    assert np.array_equal(a.v, b.v) and np.array_equal(a.eta, b.eta)


def test_elastic_solve_on_one_lease(system, monkeypatch):
    """A planned leave, a planned join and forced rebalances (timer) run
    inside one run on one lease: one world, the same workers and arena
    from start to end, and the sim twin's bits, counters and log."""
    from repro.dist import mp

    h, scale, blk, _part = system
    worlds = []

    class Recording(mp.MpWorld):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    monkeypatch.setattr(mp, "MpWorld", Recording)
    pol = RebalancePolicy(interval=3, windows=1, threshold=0.0)
    slow = lambda p, nn: nn * (3.0 if p == 0 else 1.0)  # noqa: E731
    got = {}
    for engine in ("sim", "mp", "mp"):
        counters = PerfCounters()
        eta, rep = elastic_eta(h, scale, M, blk, n_workers=2, policy=pol,
                               engine=engine, counters=counters, timer=slow,
                               membership="leave:m=4,rank=1;join:m=7")
        assert rep.rebalances and rep.leaves == 1 and rep.joins == 1
        got.setdefault(engine, []).append((eta, counters, rep.log.records))
        assert not any(segment_exists(nm) for nm in rep.segment_names)
    # one world per solve, each of the plan's three ranks, leased: the
    # second solve runs on the first one's workers and arena
    assert len(worlds) == 2 and all(w.n_ranks == 3 for w in worlds)
    assert worlds[0].last_pids == worlds[1].last_pids
    assert len(worlds[0].last_pids) == 3
    assert worlds[0].last_segment_names == worlds[1].last_segment_names
    assert len(worlds[0].last_segment_names) == 1
    ref = got["sim"][0]
    assert np.array_equal(ref[0], distributed_eta(
        h, RowPartition.equal(h.n_rows, 2, align=64), scale, M, blk,
        SimWorld(2)))
    assert any(r.phase == "reslice" for r in ref[2])
    for eta, counters, records in got["mp"]:
        assert np.array_equal(eta, ref[0])
        assert (counters.bytes_total, counters.flops) == (
            ref[1].bytes_total, ref[1].flops)
        assert records == ref[2]


def test_parked_worker_killed_between_solves(system):
    before = shm_entries()
    mw = MpWorld(2)
    ref = solve(system, mw)[0]
    victim = mw.last_pids[1]
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while not exited(victim) and time.monotonic() < deadline:
        time.sleep(0.01)
    mw2 = MpWorld(2)
    eta = solve(system, mw2)[0]
    assert np.array_equal(eta, ref)
    assert not set(mw2.last_pids) & set(mw.last_pids)
    assert shm_entries() <= before


def test_crash_fails_as_before_and_next_lease_is_healthy(system):
    h, scale, blk, part = system
    ref = solve(system, MpWorld(2))[0]
    mw = MpWorld(2)
    with pytest.raises(WorkerFailure, match="exit code") as ei:
        distributed_eta(h, part, scale, M, blk, mw,
                        fault_plan=FaultPlan.parse("crash:rank=1,m=5"))
    assert ei.value.kinds == {"death"}
    assert [(f.rank, f.exit_code) for f in ei.value.failures] == [(1, 3)]
    crashed = mw.last_pids
    assert all(exited(pid) for pid in crashed)
    mw2 = MpWorld(2)
    assert np.array_equal(solve(system, mw2)[0], ref)
    assert not set(mw2.last_pids) & set(crashed)


def test_server_thread_and_main_thread_lease_concurrently(system):
    from repro.serve import HamiltonianSpec, KPMServer, Request

    h, scale, blk, part = system
    spec = HamiltonianSpec("topological_insulator", {"nx": 6, "ny": 6, "nz": 4})
    req = Request(spec, n_moments=64, n_vectors=1, seed=5)
    solo = KPMServer(max_width=1, engine="mp", workers=2, backend="numpy")
    t_solo = solo.submit(req)
    solo.step()
    ref_server = t_solo.result().moments
    ref_main = distributed_eta(h, part, scale, 64, blk, MpWorld(2))

    srv = KPMServer(max_width=1, engine="mp", workers=2, backend="numpy")
    mains = []
    with srv:
        ticket = srv.submit(req)
        for _ in range(3):
            mains.append(distributed_eta(h, part, scale, 64, blk, MpWorld(2)))
        served = ticket.result(timeout=120).moments
    assert np.array_equal(served, ref_server)
    for eta in mains:
        assert np.array_equal(eta, ref_main)


def test_dev_shm_holds_nothing_during_or_after_a_run(system, tmp_path):
    h, scale, blk, part = system
    before = shm_entries()
    seen: list[set[str]] = []
    MpWorld(2).close()  # a fresh world creates its arena in this run

    def progress(_n_eta, _prefix):
        seen.append(shm_entries() - before)

    mw = MpWorld(2)
    distributed_eta(h, part, scale, M, blk, mw, checkpoint_every=2,
                    checkpoint_path=tmp_path / "ck.npz", progress=progress,
                    progress_every=1)
    assert seen and not any(seen)
    assert shm_entries() <= before
    assert mw.last_segment_names
    assert not any(segment_exists(nm) for nm in mw.last_segment_names)


@needs_native
def test_simd_disable_reaches_the_workers(system, monkeypatch):
    if not simd_available():
        pytest.skip("host builds no vectorized kernels")
    h, scale, blk, part = system
    runs = []
    for env in (None, "1"):
        if env is not None:
            monkeypatch.setenv("REPRO_SIMD_DISABLE", env)
        metrics, mw = MetricsRegistry(), MpWorld(2)
        distributed_eta(h, part, scale, M, blk, mw, backend="native",
                        metrics=metrics)
        runs.append((metrics.counters, mw.last_pids))
    (simd, pids_simd), (scalar, pids_scalar) = runs
    assert simd["rank0.kernels.native_simd"] == 1
    assert scalar["rank0.kernels.native_scalar"] == 1
    assert scalar["rank1.kernels.native_scalar"] == 1
    assert not set(pids_simd) & set(pids_scalar)


@needs_native
def test_quarantine_reaches_the_workers(system):
    h, scale, blk, part = system
    families = []
    try:
        for quarantine in (False, True):
            if quarantine:
                report_backend_failure("native", "quarantine drill")
            metrics = MetricsRegistry()
            distributed_eta(h, part, scale, M, blk, MpWorld(2),
                            backend="auto", metrics=metrics)
            families.append({k for k in metrics.counters
                             if k.startswith("rank0.kernels.")})
    finally:
        reset_backend_health("native")
    assert families[0] <= {"rank0.kernels.native_simd",
                           "rank0.kernels.native_scalar"} and families[0]
    assert families[1] == {"rank0.kernels.numpy"}


# ---------------------------------------------------------------------
# a killed parent
# ---------------------------------------------------------------------

_PARENT = r"""
import multiprocessing, sys, time
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpWorld
from repro.dist.partition import RowPartition
from repro.physics import build_topological_insulator

h, _ = build_topological_insulator(4, 4, 4)
scale = lanczos_scale(h, seed=1)
blk = make_block_vector(h.n_rows, 1, seed=2)

def solve(workers, m, **kw):
    part = RowPartition.equal(h.n_rows, workers, align=4)
    distributed_eta(h, part, scale, m, blk, MpWorld(workers),
                    backend="numpy", **kw)

def report(*_):
    if not report.done:
        report.done = True
        pids = sorted(p.pid for p in multiprocessing.active_children())
        print("READY", *pids, flush=True)
report.done = False

def hang(*_):
    report()
    time.sleep(600)

solve(1, 8)  # parks a one-worker world
if sys.argv[1] == "mid-solve":
    # long enough to outlive the kill by far: only the workers noticing
    # their parent's death ends it early
    solve(2, 400_000, checkpoint_every=500, checkpoint_path=sys.argv[2],
          progress=report, progress_every=500)
elif sys.argv[1] == "mid-capture":
    # the parent never returns from its first capture: the ranks wait on
    # its capture word two checkpoints later
    solve(2, 400_000, checkpoint_every=1, checkpoint_path=sys.argv[2],
          progress=hang, progress_every=1)
else:
    solve(2, 8)
    report()
    time.sleep(600)
"""


@pytest.mark.parametrize("mode, sig", [
    ("mid-solve", signal.SIGKILL),
    ("mid-capture", signal.SIGKILL),
    ("parked", signal.SIGTERM),
    ("parked", signal.SIGINT),
], ids=["sigkill-mid-solve", "sigkill-mid-capture", "sigterm-parked",
        "sigint-parked"])
def test_killed_parent_leaves_nothing_behind(tmp_path, mode, sig):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]),
         *filter(None, [env.get("PYTHONPATH")])])
    before = shm_entries()
    proc = subprocess.Popen(
        [sys.executable, "-c", _PARENT, mode, str(tmp_path / "ck.npz")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline().split()
        assert line and line[0] == "READY", "the parent never got ready"
        workers = [int(pid) for pid in line[1:]]
        assert len(workers) >= 2
        proc.send_signal(sig)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if all(exited(pid) for pid in workers) and shm_entries() <= before:
            break
        time.sleep(0.05)
    assert [pid for pid in workers if not exited(pid)] == []
    assert shm_entries() - before == set()


def test_children_of_a_forked_caller_do_not_inherit_the_pool(system):
    """A caller's own fork neither leases our workers nor keeps their
    pipes open (which would hide this process's death from them)."""
    from repro.dist import mp

    solve(system, MpWorld(2))
    assert mp._PARENT_ENDS
    ctx = multiprocessing.get_context("fork")
    out = ctx.SimpleQueue()

    def child():
        out.put((len(mp._PARENT_ENDS), len(mp._POOL._parked)))

    proc = ctx.Process(target=child)
    proc.start()
    proc.join(30)
    assert out.get() == (0, 0)
