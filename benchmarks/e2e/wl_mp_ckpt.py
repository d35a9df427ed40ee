"""Workload ``mp_ckpt``: two mp workers under the supervisor, checkpointing.

One op is ``KPMSolver(H, 512, 8, scale=pinned, seed=S, backend="native",
dist_engine="mp", workers=2, resilience=Resilience(checkpoint_every=64,
checkpoint_path=<fresh file>)).dos()`` on the CSR TI 32x32x8: spawn of
two ranks, shared-memory halo exchange, per-rank split kernels, three
~8 MB checkpoint saves, the supervisor.  Closed loop, one client.

Two traps (README): every op gets a fresh checkpoint path, because a
reused one makes later ops *resume* from the first op's file and finish
in a quarter of the time with the right answer; and an op whose
``resilience_report`` shows a resume or a retry counts as failed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import calibrate
import config
import harness
from spans import SpanRecorder, layer_self_times

NAME = "mp_ckpt"


def setup(cfg: dict, seed: int) -> dict:
    lay = {}
    t0 = time.perf_counter()
    from repro import KPMSolver, build_topological_insulator
    from repro.core.scaling import lanczos_scale
    from repro.resil import Resilience
    from repro.sparse.backend import get_backend
    t1 = time.perf_counter()
    H, _model = build_topological_insulator(cfg["nx"], cfg["ny"], cfg["nz"])
    t2 = time.perf_counter()
    scale = lanczos_scale(H, seed=0)
    t3 = time.perf_counter()
    get_backend("native")
    t4 = time.perf_counter()
    lay["physics.build_s"] = t2 - t1
    lay["core.scale_first_s"] = t3 - t2
    lay["backend.load_s"] = t4 - t3
    state = {"cfg": cfg, "seed": seed, "H": H, "scale": scale,
             "KPMSolver": KPMSolver, "Resilience": Resilience,
             "setup_layers": lay, "shm_before": harness.shm_names(),
             "ckpt_dir": tempfile.mkdtemp(prefix="ckpt-", dir=os.environ["BENCH_TMP"])}
    _checked_op(state, "warmup", None)
    return state


def teardown(state: dict) -> None:
    shutil.rmtree(state["ckpt_dir"], ignore_errors=True)


def _solver(state, path, **kw):
    cfg = state["cfg"]
    resil = state["Resilience"](checkpoint_every=cfg["checkpoint_every"],
                                checkpoint_path=path)
    return state["KPMSolver"](
        state["H"], cfg["moments"], cfg["vectors"], scale=state["scale"],
        seed=state["seed"], backend="native", dist_engine="mp",
        workers=cfg["workers"], resilience=resil, **kw)


def _checked_op(state, tag, ref, **kw):
    """One op on a fresh checkpoint file; returns (digits, solver)."""
    path = os.path.join(state["ckpt_dir"], f"{tag}.npz")
    solver = _solver(state, path, **kw)
    try:
        res = solver.dos()
    finally:
        saved = os.path.exists(path)
        if saved:
            os.unlink(path)
    rep = solver.resilience_report
    state["resumed"] = state.get("resumed", 0) + bool(rep.resumes)
    if rep.resumes or rep.retries or rep.faults:
        raise RuntimeError(f"op resumed or retried: {rep.summary()}")
    if not saved:
        raise RuntimeError("op left no checkpoint: nothing was saved")
    return (None if ref is None else harness.digits(res.moments, ref)), solver


def _reference(state):
    cfg = state["cfg"]
    return state["KPMSolver"](
        state["H"], cfg["moments"], cfg["vectors"], scale=state["scale"],
        seed=state["seed"], backend="numpy").dos().moments


def _leaks(state, log: harness.OpLog) -> None:
    """Leftover checkpoint files or shared-memory segments fail the run."""
    left = os.listdir(state["ckpt_dir"])
    shutil.rmtree(state["ckpt_dir"], ignore_errors=True)
    if left:
        log.fail(f"leftover checkpoint files: {left[:3]}")
    shm = harness.shm_names() - state["shm_before"]
    if shm:
        log.fail(f"leftover /dev/shm segments: {sorted(shm)[:3]}")


def run(state: dict, seconds: float) -> dict:
    cfg = state["cfg"]
    ref = harness.cached_reference(NAME, state["seed"], lambda: _reference(state))
    probe = calibrate.make_probe(cfg["probe"])
    log = harness.OpLog()

    def op(i):
        return _checked_op(state, f"op{i}", ref)[0]

    out = harness.closed_loop(op, probe, seconds, cfg, log)
    _leaks(state, log)
    out["peak_rss_mb"] = max(out["peak_rss_mb"], harness.peak_rss_mib(children=True))
    return out


# ---------------------------------------------------------------------
# traced layer walk
# ---------------------------------------------------------------------

def _timed(fn, reps: int = 2) -> float:
    """Median seconds of ``reps`` calls (each engine run is 0.5-1 s)."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return harness.median(out)


def walk(state: dict, seconds: float) -> dict:
    from repro.core.checkpoint import KpmCheckpoint
    from repro.core.moments import compute_eta, eta_to_moments
    from repro.core.reconstruct import reconstruct_dos
    from repro.core.stochastic import make_block_vector
    from repro.dist.comm import SimWorld
    from repro.dist.halo import partition_matrix
    from repro.dist.kpm_parallel import distributed_eta
    from repro.dist.mp import MpWorld
    from repro.dist.overlap import task_split
    from repro.dist.partition import RowPartition
    from repro.obs import MetricsRegistry
    from repro.resil import Supervisor
    from repro.sparse.backend import get_backend
    from repro.util.counters import PerfCounters

    cfg, seed, H, scale = state["cfg"], state["seed"], state["H"], state["scale"]
    m, r, workers = cfg["moments"], cfg["vectors"], cfg["workers"]
    ref = _reference(state)
    probe = calibrate.make_probe(cfg["probe"])
    ref_s, sens = config.PROBE_REF_S[probe.name], cfg["sensitivity"]
    log = harness.OpLog()
    rec = SpanRecorder()
    bk = get_backend("native")
    n = H.n_rows

    # interleaved cycles: probe, untraced op, walk op with a live registry
    probes = [probe()]
    plain, cpu, factors, attempts = [], [], {}, []
    registry = MetricsRegistry()
    world = None
    resumed_walks = 0
    t_start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - t_start < 0.25 * seconds:
        c0 = harness.cpu_seconds_tree()
        t0 = time.perf_counter()
        try:
            d, solver = _checked_op(state, f"plain{k}", ref)
        except Exception as exc:  # noqa: BLE001
            log.fail(f"op {k}: {type(exc).__name__}: {exc}")
        else:
            plain.append(time.perf_counter() - t0)
            cpu.append(harness.cpu_seconds_tree() - c0)
            attempts.append(1 + solver.resilience_report.retries)
            log.ok(d)
        rec.op_id = k
        path = os.path.join(state["ckpt_dir"], f"walk{k}.npz")
        with rec.span("op", "walk"):
            with rec.span("make_block_vector", "core"):
                block = make_block_vector(n, r, "phase", seed)
            with rec.span("Supervisor.run_eta", "resil"):
                sup = Supervisor.from_config(
                    state["Resilience"](checkpoint_every=cfg["checkpoint_every"],
                                        checkpoint_path=path),
                    metrics=registry, seed=seed)
                eta = sup.run_eta(H, scale, m, block, engine="mp",
                                  workers=workers, backend="native",
                                  overlap="auto")
            with rec.span("eta_to_moments", "core"):
                mu = eta_to_moments(eta).mean(axis=0).real
            with rec.span("reconstruct_dos", "core"):
                reconstruct_dos(mu, scale, n_points=max(2 * m, 256))
        world = sup.last_world
        log.ok(harness.digits(mu, ref))
        resumed_walks += bool(sup.report.resumes)
        if sup.report.resumes or sup.report.retries:
            log.fail_last(f"walk op resumed or retried: {sup.report.summary()}")
        ckpt_file = path  # the last one is kept for the save/load timing
        if k:
            os.unlink(os.path.join(state["ckpt_dir"], f"walk{k - 1}.npz"))
        probes.append(probe())
        factors[k] = calibrate.factor(probes[-2], probes[-1], ref_s, sens)
        k += 1
    plain_cal = [t * factors[i] for i, t in enumerate(plain)]
    med = harness.span_medians(rec, factors)
    layers, wall = layer_self_times(rec.spans, "op")
    timers = registry.snapshot()["timers"]
    run_wall = sum(s["end"] - s["start"] for s in rec.spans
                   if s["name"] == "Supervisor.run_eta")
    halo_wait = sum(t["total"] for name, t in timers.items()
                    if name.endswith(".halo_wait"))
    phases = world.log.bytes_by_phase()
    iters = m // 2 - 1

    # checkpoint I/O on the state a real op saved
    f_last = factors[k - 1]
    t0 = time.perf_counter()
    ck = KpmCheckpoint.load(ckpt_file)
    load_s = (time.perf_counter() - t0) * f_last
    size_mb = os.path.getsize(ckpt_file) / 1e6
    os.unlink(ckpt_file)
    again = os.path.join(state["ckpt_dir"], "resave.npz")
    save_s = _timed(lambda: ck.save(again)) * f_last
    os.unlink(again)

    # engines against the serial solve, interleaved within one bracket
    block = make_block_vector(n, r, "phase", seed)
    part = RowPartition.equal(n, workers, align=4)
    t0 = time.perf_counter()
    dist = partition_matrix(H, part)
    partition_s = time.perf_counter() - t0

    def dist_run(world, ranks=workers, overlap="auto"):
        part_ = part if ranks == workers else RowPartition.equal(n, ranks, align=4)
        return lambda: distributed_eta(H, part_, scale, m, block, world(ranks),
                                       backend="native", overlap=overlap)

    p0 = probe()
    serial = _timed(lambda: compute_eta(H, scale, m, block, backend="native"))
    sim2 = _timed(dist_run(SimWorld))
    mp1 = _timed(dist_run(MpWorld, ranks=1))
    mp2 = _timed(dist_run(MpWorld))
    mp2_off = _timed(dist_run(MpWorld, overlap="off"))
    sup2 = _timed(lambda: Supervisor().run_eta(
        H, scale, m, block, engine="mp", workers=workers, backend="native",
        overlap="auto"))
    p1 = probe()
    f_eng = calibrate.factor(p0, p1, ref_s, sens)

    def small(**kw):
        return lambda: state["KPMSolver"](
            H, 64, r, scale=scale, seed=seed, backend="native",
            dist_engine="mp", workers=workers, **kw).moments()

    plain64 = _timed(small())
    elastic64 = _timed(small(rebalance="auto"), reps=1)
    spawn = _timed(lambda: state["KPMSolver"](
        H, 2, r, scale=scale, seed=seed, backend="native", dist_engine="mp",
        workers=workers).moments(), reps=3)
    p2 = probe()
    f_small = calibrate.factor(p1, p2, ref_s, sens)

    # the kernel layer's third use: one rank's split kernels, R = 8
    blk = dist.blocks[0]
    split = task_split(blk)
    plan = bk.split_plan(blk.matrix, split, r)
    V = make_block_vector(blk.matrix.n_cols, r, "phase", 1)
    W = make_block_vector(blk.matrix.n_rows, r, "phase", 2)
    c1 = PerfCounters()
    bk.aug_spmmv_split_step(blk.matrix, V, W, scale.a, scale.b, plan, counters=c1)
    split_s = harness.kernel_rate(
        lambda: bk.aug_spmmv_split_step(blk.matrix, V, W, scale.a, scale.b, plan),
        probe, sens)

    _leaks(state, log)
    out = harness.shared_metrics(log, probe, probes, layers, wall)
    out.update(state["setup_layers"])  # first calls of this fresh process
    out.update({
        "trace.overhead": med["op"] / harness.median(plain_cal),
        "backend.split_r8_gflops": c1.flops / split_s / 1e9,
        "core.start_block_s": med["make_block_vector"],
        "core.reconstruct_s": med["reconstruct_dos"],
        "core.checkpoint_save_s": save_s,
        "core.checkpoint_load_s": load_s,
        "core.checkpoint_mb": size_mb,
        "dist.partition_s": partition_s * f_eng,
        "dist.mp_spawn_s": spawn * f_small,
        "dist.sim2_over_serial": sim2 / serial,
        "dist.mp1_over_serial": mp1 / serial,
        "dist.mp2_over_serial": mp2 / serial,
        "dist.overlap_on_over_off": mp2 / mp2_off,
        "dist.elastic_over_plain": elastic64 / plain64,
        "dist.halo_bytes_per_iter": phases.get("halo", 0) / iters,
        "dist.messages_per_iter": world.log.n_messages / (m // 2),
        "dist.halo_wait_share": halo_wait / (workers * run_wall),
        "dist.cpu_s_per_op": harness.median(cpu),
        "resil.supervisor_overhead_s": (sup2 - mp2) * f_eng,
        "resil.attempts_per_op": sum(attempts) / max(len(attempts), 1),
        "resil.resumed_ops": float(state.get("resumed", 0) + resumed_walks),
    })
    info = {"walk_ops": k, "layer_self_s": layers, "op_wall_s": wall,
            "serial_s": serial * f_eng, "mp2_s": mp2 * f_eng,
            "checkpoint_saves_per_op":
                timers.get("checkpoint_save", {}).get("count", 0) / k,
            "checkpoint_save_in_op_s":
                timers.get("checkpoint_save", {}).get("total", 0.0) / k,
            "probe_nbytes": probe.nbytes}
    return {"log": log, "metrics": out, "recorder": rec, "info": info}
