"""Workload ``dos_blocked``: the blocked SELL solve, kernel layer >= 95 %.

One op is ``KPMSolver(A_sell, 128, 32, scale=pinned, seed=S,
backend="native").dos()`` on the SELL-32-1 form of the TI 32x32x8
operator (N = 32,768, nnz = 409,600), fp64, sequential kernels, simd
auto: 1 ``spmmv`` + 63 ``aug_spmmv_step`` calls (paper stage 2).  The
working set (8.5 MB matrix + two 16 MiB blocks) is ten times the 4 MiB
L2.  Closed loop, one client.
"""

from __future__ import annotations

import time

import calibrate
import config
import harness
import walks
from spans import SpanRecorder, layer_self_times

NAME = "dos_blocked"


def setup(cfg: dict, seed: int) -> dict:
    lay = {}
    t0 = time.perf_counter()
    from repro import KPMSolver, SellMatrix, build_topological_insulator
    from repro.core.scaling import lanczos_scale
    from repro.sparse.backend import get_backend
    t1 = time.perf_counter()
    H, _model = build_topological_insulator(cfg["nx"], cfg["ny"], cfg["nz"])
    t2 = time.perf_counter()
    A = SellMatrix(H, cfg["chunk"], cfg["sigma"])
    t3 = time.perf_counter()
    scale = lanczos_scale(H, seed=0)
    t4 = time.perf_counter()
    bk = get_backend("native")
    t5 = time.perf_counter()
    bk.plan(A, cfg["vectors"])
    t6 = time.perf_counter()
    lay["import_s"] = t1 - t0
    lay["physics.build_s"] = t2 - t1
    lay["sparse.sell_convert_s"] = t3 - t2
    lay["core.scale_first_s"] = t4 - t3
    lay["backend.load_s"] = t5 - t4
    lay["backend.plan_s"] = t6 - t5
    state = {"cfg": cfg, "seed": seed, "H": H, "A": A, "scale": scale,
             "bk": bk, "KPMSolver": KPMSolver, "setup_layers": lay}
    _solve(state)  # warm-up: first touch of the blocks, .so pages, BLAS pool
    return state


def _solve(state):
    cfg = state["cfg"]
    return state["KPMSolver"](
        state["A"], cfg["moments"], cfg["vectors"], scale=state["scale"],
        seed=state["seed"], backend="native",
    ).dos()


def _reference(state):
    """Serial NumPy-backend CSR fp64 solve of the same (H, scale, seed, M, R)."""
    cfg = state["cfg"]
    return state["KPMSolver"](
        state["H"], cfg["moments"], cfg["vectors"], scale=state["scale"],
        seed=state["seed"], backend="numpy",
    ).dos().moments


def run(state: dict, seconds: float) -> dict:
    cfg = state["cfg"]
    ref = harness.cached_reference(NAME, state["seed"], lambda: _reference(state))
    probe = calibrate.make_probe(cfg["probe"])

    def op(i):
        return harness.digits(_solve(state).moments, ref)

    return harness.closed_loop(op, probe, seconds, cfg, harness.OpLog())


# ---------------------------------------------------------------------
# traced layer walk
# ---------------------------------------------------------------------

def _triad_gbs() -> tuple[float, dict]:
    """NumPy triad ``a = b + s*c`` on three arrays the size of the reported L3.

    NumPy runs it as two passes (``a = s*c`` then ``a += b``), which move
    5 arrays' worth of computed bytes (write-allocate not counted).  The
    guide's 4 x LLC *per array* is 3 GiB here and costs 25 s of page
    faults on this VM; 3 x LLC in total is what a traced run can afford,
    and is far more than the two cores' share of that L3.
    """
    import numpy as np

    l3 = 0
    try:
        txt = open("/sys/devices/system/cpu/cpu0/cache/index3/size").read().strip()
        l3 = int(txt[:-1]) * {"K": 1024, "M": 1024 ** 2}[txt[-1]]
    except (OSError, ValueError, KeyError):
        pass
    want = min(max(l3, 64 * 1024 ** 2), 512 * 1024 ** 2)
    try:
        for line in open("/proc/meminfo"):
            if line.startswith("MemAvailable"):
                # three arrays in a quarter of what is free
                want = min(want, int(line.split()[1]) * 1024 // 12)
    except OSError:
        pass
    n = want // 8
    b = np.ones(n)
    c = np.full(n, 0.5)
    a = np.empty(n)
    best = float("inf")
    for _ in range(4):  # the first pass faults ``a`` in
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    info = {"triad_array_bytes": int(n * 8), "l3_bytes": int(l3)}
    return 5 * n * 8 / best / 1e9, info


def _variant_rates(state, probe) -> dict:
    """Gflop/s or GB/s of the other uses of the kernel layer (>= 20 calls)."""
    import numpy as np
    from repro.core.stochastic import make_block_vector
    from repro.sparse.backend import get_backend
    from repro.util.counters import PerfCounters
    from repro.util.precision import get_precision

    cfg, A, scale = state["cfg"], state["A"], state["scale"]
    a, b = scale.a, scale.b
    n, r = A.n_rows, cfg["vectors"]
    native, numpy_bk = state["bk"], get_backend("numpy")
    out = {}

    def blocked(bk, precision=None, threads=None, simd=None):
        prec = get_precision(precision)
        plan = bk.plan(A, r, precision=precision, threads=threads, simd=simd)
        block = make_block_vector(n, r, "phase", 1)
        if prec.half_vectors:
            V, W = prec.encode(block), prec.encode(block * 0.5)
        else:
            V = block.astype(prec.vector_dtype)
            W = (block * 0.5).astype(prec.vector_dtype)
        c = PerfCounters()
        bk.aug_spmmv_step(A, V, W, a, b, plan=plan, counters=c)
        s = harness.kernel_rate(
            lambda: bk.aug_spmmv_step(A, V, W, a, b, plan=plan), probe,
            cfg["sensitivity"])
        return c.flops / s / 1e9

    t0 = time.perf_counter()
    from repro.sparse.compress import kernel_pack
    kernel_pack(A, get_precision("fp32"))
    out["sparse.kernel_pack_s"] = time.perf_counter() - t0
    out["backend.aug_spmmv_r32_fp32_gflops"] = blocked(native, precision="fp32")
    out["backend.aug_spmmv_r32_fp16v_gflops"] = blocked(native, precision="fp16v")
    out["backend.aug_spmmv_r32_simd_off_gflops"] = blocked(native, simd="off")
    out["backend.aug_spmmv_r32_threads2_gflops"] = blocked(native, threads=2)
    out["backend.aug_spmmv_r32_numpy_gflops"] = blocked(numpy_bk)

    v = make_block_vector(n, 1, "phase", 1)[:, 0].copy()
    w = v * 0.5
    plan1 = native.plan(A, 1)
    for key, step in (("backend.aug_spmv_r1_gbs", native.aug_spmv_step),
                      ("backend.naive_r1_gbs", native.naive_step)):
        c = PerfCounters()
        step(A, v, w, a, b, plan=plan1, counters=c)
        s = harness.kernel_rate(lambda: step(A, v, w, a, b, plan=plan1), probe,
                                cfg["sensitivity"])
        out[key] = c.bytes_total / s / 1e9
    assert np.all(np.isfinite(w))
    return out


def walk(state: dict, seconds: float) -> dict:
    from repro import SellMatrix, build_topological_insulator
    from repro.core.moments import compute_eta
    from repro.core.scaling import lanczos_scale
    from repro.core.stochastic import make_block_vector
    from repro.perf.report import expected_counters
    from repro.sparse.backend import get_backend
    from repro.util.counters import PerfCounters

    cfg, seed = state["cfg"], state["seed"]
    m, r = cfg["moments"], cfg["vectors"]
    ref_moments = _reference(state)
    probe = calibrate.make_probe(cfg["probe"])
    ref_s, sens = config.PROBE_REF_S[probe.name], cfg["sensitivity"]
    log = harness.OpLog()
    rec = SpanRecorder()
    info = {}

    triad_gbs, triad_info = _triad_gbs()
    info.update(triad_info)

    # interleaved cycles: probe, untraced op, bare compute_eta, walk op
    probes = [probe()]
    plain, eta_raw, factors = [], [], {}
    block = make_block_vector(state["A"].n_rows, r, "phase", seed)
    t_start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - t_start < 0.5 * seconds:
        t0 = time.perf_counter()
        res = _solve(state)
        plain.append(time.perf_counter() - t0)
        log.ok(harness.digits(res.moments, ref_moments))
        t0 = time.perf_counter()
        compute_eta(state["A"], state["scale"], m, block, backend="native")
        eta_raw.append(time.perf_counter() - t0)
        rec.op_id = k
        with rec.span("op", "walk"):
            with rec.span("build_topological_insulator", "physics"):
                H, _ = build_topological_insulator(cfg["nx"], cfg["ny"], cfg["nz"])
            with rec.span("SellMatrix", "sparse"):
                A = SellMatrix(H, cfg["chunk"], cfg["sigma"])
            with rec.span("lanczos_scale", "core"):
                scale = lanczos_scale(H, seed=0)
            with rec.span("get_backend", "backend"):
                bk = get_backend("native")
            mu, _e, _rho = walks.walk_solve(rec, bk, A, scale, m, seed, r)
        log.ok(harness.digits(mu, ref_moments))
        probes.append(probe())
        factors[k] = calibrate.factor(probes[-2], probes[-1], ref_s, sens)
        k += 1
    fac = [factors[i] for i in range(k)]
    plain_cal = [t * f for t, f in zip(plain, fac)]
    eta_cal = [t * f for t, f in zip(eta_raw, fac)]

    med = harness.span_medians(rec, factors)
    kernel_calls = [(s["end"] - s["start"]) * factors[s["op"]]
                    for s in rec.spans if s["name"] == "aug_spmmv_step"]
    per_call = harness.median(kernel_calls)

    # exact flops / bytes of one call and of one whole solve (the
    # program's own Table-I accounting), against the analytic model
    c1 = PerfCounters()
    plan = state["bk"].plan(state["A"], r)
    V = block.copy()
    W = block * 0.5
    state["bk"].aug_spmmv_step(state["A"], V, W, state["scale"].a,
                               state["scale"].b, plan=plan, counters=c1)
    measured = PerfCounters()
    walks.walk_solve(SpanRecorder(), state["bk"], state["A"], state["scale"],
                       m, seed, r, counters=measured)
    model = expected_counters(state["A"], m, r)
    layers, wall = layer_self_times(rec.spans, "op")
    out = harness.shared_metrics(log, probe, probes, layers, wall)
    out.update({
        "host.triad_gbs": triad_gbs,
        "backend.model_residual_bytes": float(
            abs(measured.bytes_total - model.bytes_total)
            + abs(measured.flops - model.flops)),
        # first call of a fresh process: from this child's own set-up
        "core.scale_first_s": state["setup_layers"]["core.scale_first_s"],
        "backend.load_s": state["setup_layers"]["backend.load_s"],
        "trace.overhead": med["solve"] / harness.median(plain_cal),
        "physics.build_s": med["build_topological_insulator"],
        "physics.build_mrows_per_s":
            state["H"].n_rows / med["build_topological_insulator"] / 1e6,
        "sparse.sell_convert_s": med["SellMatrix"],
        "sparse.sell_fill": state["A"].stored_slots / state["A"].nnz,
        "backend.plan_s": med["plan"],
        "backend.aug_spmmv_r32_s": per_call,
        "backend.aug_spmmv_r32_gflops": c1.flops / per_call / 1e9,
        "backend.aug_spmmv_r32_gbs": c1.bytes_total / per_call / 1e9,
        "backend.aug_spmmv_r32_bytes_per_flop": c1.bytes_total / c1.flops,
        "backend.aug_spmmv_r32_mem_roofline_frac":
            c1.bytes_total / per_call / 1e9 / triad_gbs,
        "core.scale_s": med["lanczos_scale"],
        "core.start_block_s": med["make_block_vector"],
        "core.eta_s": harness.median(eta_cal),
        "core.eta_self_s": harness.median(eta_cal)
            - med["spmmv"] - med["aug_spmmv_step"],
        "core.reconstruct_s": med["reconstruct_dos"],
        "core.solver_overhead_s": harness.median(plain_cal)
            - med["make_block_vector"] - harness.median(eta_cal)
            - med["reconstruct_dos"],
    })
    out.update(_variant_rates(state, probe))
    info.update({"walk_ops": k, "layer_self_s": layers, "op_wall_s": wall,
                 "probe_nbytes": probe.nbytes})
    return {"log": log, "metrics": out, "recorder": rec, "info": info}
