"""Measured (not modelled) kernel benchmarks on the host CPU.

The paper's optimizations reduce data traffic; since the NumPy kernels
pay for memory traffic exactly like hand-written C, the stage-1 and
stage-2 speedups are directly measurable here. This bench times one
inner KPM iteration per stage on a TI matrix and reports the achieved
per-vector throughput — the in-repo analogue of paper Fig. 11's bars.
"""

import json
import time

import numpy as np
import pytest

from _support import RESULTS_DIR, emit, format_table
from repro.core.scaling import SpectralScale
from repro.physics import build_topological_insulator
from repro.sparse import SellMatrix
from repro.sparse.backend import get_backend
from repro.util.constants import DTYPE
from repro.util.counters import PerfCounters

NX, NZ = 40, 10  # N = 64,000 rows — larger than any host cache
NUMPY = get_backend("numpy")


@pytest.fixture(scope="module")
def system():
    h, _ = build_topological_insulator(NX, NX, NZ)
    s = SellMatrix(h, chunk_height=32, sigma=128)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    return h, s, scale


def _vectors(n, r, seed=0):
    rng = np.random.default_rng(seed)
    v = np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    ).astype(DTYPE)
    w = np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    ).astype(DTYPE)
    return v, w


def test_naive_step(benchmark, system):
    h, _, scale = system
    v, w = _vectors(h.n_rows, 1)
    v, w = v[:, 0].copy(), w[:, 0].copy()
    benchmark(NUMPY.naive_step, h, v, w, scale.a, scale.b,
              plan=NUMPY.plan(h, 1))


def test_aug_spmv_step(benchmark, system):
    h, _, scale = system
    v, w = _vectors(h.n_rows, 1)
    v, w = v[:, 0].copy(), w[:, 0].copy()
    benchmark(NUMPY.aug_spmv_step, h, v, w, scale.a, scale.b,
              plan=NUMPY.plan(h, 1))


@pytest.mark.parametrize("r", [8, 32])
def test_aug_spmmv_step(benchmark, system, r):
    h, _, scale = system
    v, w = _vectors(h.n_rows, r)
    benchmark(NUMPY.aug_spmmv_step, h, v, w, scale.a, scale.b,
              plan=NUMPY.plan(h, r))


@pytest.mark.parametrize("r", [32])
def test_aug_spmmv_sell(benchmark, system, r):
    _, s, scale = system
    v, w = _vectors(s.n_rows, r)
    benchmark(NUMPY.aug_spmmv_step, s, v, w, scale.a, scale.b,
              plan=NUMPY.plan(s, r))


def test_stage_speedups_summary(benchmark, system):
    """One summary row per stage: per-vector time and measured speedup.

    Asserts the paper's ordering: stage 1 beats naive, and the blocked
    stage beats R separate stage-1 iterations per vector.
    """
    h, _, scale = system
    n = h.n_rows

    def time_step(fn, r, reps=3):
        best = float("inf")
        plan = NUMPY.plan(h, r)
        for _ in range(reps):
            v, w = _vectors(n, r, seed=1)
            if r == 1:
                v, w = v[:, 0].copy(), w[:, 0].copy()
            t0 = time.perf_counter()
            fn(h, v, w, scale.a, scale.b, plan=plan)
            best = min(best, time.perf_counter() - t0)
        return best

    t_naive = time_step(NUMPY.naive_step, 1)
    t_s1 = time_step(NUMPY.aug_spmv_step, 1)
    t_s2_32 = time_step(NUMPY.aug_spmmv_step, 32)

    def traffic(fn, r):
        c = PerfCounters()
        if r == 1:
            v, w = _vectors(n, 1, seed=2)
            fn(h, v[:, 0].copy(), w[:, 0].copy(), scale.a, scale.b,
               counters=c)
        else:
            v, w = _vectors(n, r, seed=2)
            fn(h, v, w, scale.a, scale.b, counters=c)
        return c.bytes_total / r / 1e6  # MB per vector

    b_naive = traffic(NUMPY.naive_step, 1)
    b_s1 = traffic(NUMPY.aug_spmv_step, 1)
    b_s2 = traffic(NUMPY.aug_spmmv_step, 32)
    rows = [
        ["naive (Fig. 3)", 1, t_naive * 1e3, t_naive * 1e3, b_naive],
        ["aug_spmv (Fig. 4)", 1, t_s1 * 1e3, t_s1 * 1e3, b_s1],
        ["aug_spmmv (Fig. 5)", 32, t_s2_32 * 1e3, t_s2_32 / 32 * 1e3, b_s2],
    ]
    emit(
        "kernels_measured",
        format_table(
            ["kernel", "R", "ms/call", "ms/vector", "MB/vector (min)"],
            rows,
        )
        + f"\n(N = {n:,} rows, measured on this host."
        "\n Traffic per vector falls naive -> stage1 -> stage2 exactly as"
        "\n paper Eq. (4); wall-clock follows it only on bandwidth-starved"
        "\n machines — this host is a single core with a ~260 MB LLC, i.e."
        "\n compute-bound, so per-vector times merely stay ~flat. See"
        "\n EXPERIMENTS.md.)",
    )
    # fusion never loses, and the traffic hierarchy is strict
    assert t_s1 <= t_naive * 1.10
    assert b_s1 < b_naive and b_s2 < b_s1
    benchmark(lambda: None)


# -- backend comparison (numpy vs compiled native kernels) --------------

R_BLOCK = 32  # the paper's production block width


def _time_backend_step(bk, A, scale, stage, r, reps=5, precision="fp64"):
    """Best-of-reps seconds for one inner iteration, plus min-traffic bytes."""
    from repro.util.precision import get_precision

    prec = get_precision(precision)
    n = A.n_rows
    plan = bk.plan(A, r, precision=prec)
    step = {
        "naive": bk.naive_step,
        "aug_spmv": bk.aug_spmv_step,
        "aug_spmmv": bk.aug_spmmv_step,
    }[stage]
    if r == 1:
        v, w = _vectors(n, 1, seed=1)
        v, w = v[:, 0].copy(), w[:, 0].copy()
    else:
        v, w = _vectors(n, r, seed=1)
    if prec.half_vectors:
        v, w = prec.encode(v), prec.encode(w)
    elif prec.vector_dtype != v.dtype:
        v = np.ascontiguousarray(v.astype(prec.vector_dtype))
        w = np.ascontiguousarray(w.astype(prec.vector_dtype))
    counters = PerfCounters()
    step(A, v, w, scale.a, scale.b, plan=plan, counters=counters)  # warm-up
    nbytes = counters.bytes_total
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        step(A, v, w, scale.a, scale.b, plan=plan)
        best = min(best, time.perf_counter() - t0)
    return best, nbytes


def test_backend_speedups_json(benchmark, system):
    """Per-stage, per-format, per-backend wall clock — BENCH_kernels.json.

    Times every (stage, format, backend) combination through the kernel
    backend registry, converts the Table-I minimum traffic into achieved
    GB/s, and records the native-over-numpy speedups. When the native
    kernels compiled, the fused blocked SELL iteration must beat the
    NumPy path by >= 3x — the compiled single-pass kernel's win over
    NumPy's multi-pass stages on this bandwidth-priced workload.
    """
    h, s, scale = system
    backends = {"numpy": get_backend("numpy")}
    native = get_backend("native")
    native_ok = native.available()
    if native_ok:
        backends["native"] = native

    # fp64 covers every stage; the reduced storage profiles ride on the
    # headline blocked stage (where the bytes dominate and the fp32
    # acceptance bar lives — see bench_precision.py for the full sweep)
    stages = [
        ("naive", 1, "fp64"),
        ("aug_spmv", 1, "fp64"),
        ("aug_spmmv", R_BLOCK, "fp64"),
        ("aug_spmmv", R_BLOCK, "fp32"),
        ("aug_spmmv", R_BLOCK, "fp16v"),
    ]
    series = []
    for fmt, A in (("csr", h), ("sell", s)):
        for stage, r, precision in stages:
            for bk_name, bk in backends.items():
                secs, nbytes = _time_backend_step(
                    bk, A, scale, stage, r, precision=precision)
                series.append(
                    {
                        "stage": stage,
                        "format": fmt,
                        "backend": bk_name,
                        "r": r,
                        "precision": precision,
                        "seconds": secs,
                        "ms_per_vector": secs / r * 1e3,
                        "bytes_min": nbytes,
                        "gbps": nbytes / secs / 1e9,
                    }
                )

    def lookup(stage, fmt, backend, precision="fp64"):
        for row in series:
            if (row["stage"], row["format"], row["backend"],
                    row["precision"]) == (stage, fmt, backend, precision):
                return row
        raise KeyError((stage, fmt, backend, precision))

    for row in series:
        base = lookup(row["stage"], row["format"], "numpy",
                      row["precision"])
        row["speedup_vs_numpy"] = base["seconds"] / row["seconds"]

    payload = {
        "n_rows": h.n_rows,
        "nnz": h.nnz,
        "r_block": R_BLOCK,
        "native_available": native_ok,
        "series": series,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        [
            f"{r['stage']}/{r['format']}", r["backend"], r["r"],
            r["precision"], r["seconds"] * 1e3, r["gbps"],
            r["speedup_vs_numpy"],
        ]
        for r in series
    ]
    emit(
        "kernels_backends",
        format_table(
            ["kernel", "backend", "R", "prec", "ms/call", "GB/s (min)",
             "speedup"],
            rows,
        )
        + "\n(GB/s uses the Table-I minimum-traffic byte count under the"
        "\n row's storage profile; the native column is the compiled"
        "\n single-pass C kernel. fp32 halves the streamed bytes and the"
        "\n work; fp16v quarters the vector bytes and uses the F16C"
        "\n converters when the host compiles them, a software float16"
        "\n decode otherwise.)",
    )

    if native_ok:
        # floor calibrated to the determinism-pinned build: the scalar
        # family compiles with -ffp-contract=off -fno-tree-vectorize so
        # the explicit lane-blocked _simd kernels can replay its exact
        # reduction DAG (bitwise-equal moments, see tests/sparse/
        # test_simd_kernels.py).  That pinning trades a slice of the old
        # free-contraction autovec throughput (~3.4x vs numpy) for
        # reproducibility; the vectorized build lands at ~2.6x on the
        # reference host, so gate at 2x with noise margin.
        ratio = lookup("aug_spmmv", "sell", "native")["speedup_vs_numpy"]
        assert ratio >= 2.0, (
            f"native SELL aug_spmmv R={R_BLOCK} speedup {ratio:.2f}x < 2x"
        )
    benchmark(lambda: None)
