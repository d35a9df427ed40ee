"""Speed and determinism of the vectorized (AVX2 + F16C) kernels.

The ``_simd`` kernel family replays the scalar kernels' exact reduction
DAG — one lane per block column, the row held in register tiles; one
lane per row for the single-vector walks, each row summed in storage
order — so the fp64 moments are *bitwise identical* across
``simd='on'`` and ``simd='off'`` — the vectorization is pure speed.
This bench records both halves of that contract on the 64,000-row TI
operator:

1. **speed** — best-of-reps wall clock for one blocked iteration with
   the scalar and the vectorized build, per stage x format x precision,
   with the simd speedup (the number the ISSUE gates: SELL R=32
   ``aug_spmmv`` must be >= 1.3x scalar, and fp16v wall clock must not
   lose to fp64 under simd);
2. **determinism** — a full fp64 eta run per setting, asserted bitwise
   equal across on/off, with traffic exactly equal to the Eq. 5-7
   analytic charge (vectorization never changes the bytes story).

Writes ``results/BENCH_simd.json``; ``tools/check_perf_regression.py``
gates the recorded speedups so a later change cannot silently lose the
vectorized kernels' advantage.

Honesty note: the speedup column is scalar-vs-vector on the *same*
host, so host speed cancels and the number is meaningful even on a
loaded single-core CI runner.  On a host whose compiler cannot target
AVX2 the "on" rows fall back to the scalar kernels and every speedup
records ~1.0x; the payload's ``simd_compiled_mask`` says which case you
are reading.
"""

import json
import time

import numpy as np
import pytest

from _support import RESULTS_DIR, emit, format_table, host_cores
from repro.core.moments import compute_eta
from repro.core.scaling import SpectralScale
from repro.core.stochastic import make_block_vector
from repro.perf.report import expected_counters
from repro.physics import build_topological_insulator
from repro.sparse import SellMatrix
from repro.sparse.backend import get_backend
from repro.sparse.backend.native import simd_compiled_mask
from repro.util.counters import PerfCounters
from repro.util.precision import get_precision

NX, NZ = 40, 10       # N = 64,000 rows, same operator as the kernel bench
M_CHECK = 16
#: (stage, r, precision, formats) rows; r=32 sell/fp64 and fp16v are the
#: gated ones.  r = 3 and 5 (CSR, what repro.serve coalesces to: mean
#: batch width 3.1) are the rows that run a remainder tile and the odd
#: tail column of the register-tile kernels.
BOTH = ("csr", "sell")
CASES = [
    ("naive", 1, "fp64", BOTH),
    ("aug_spmv", 1, "fp64", BOTH),
    ("aug_spmmv", 3, "fp64", ("csr",)),
    ("aug_spmmv", 5, "fp64", ("csr",)),
    ("aug_spmmv", 8, "fp64", BOTH),
    ("aug_spmmv", 32, "fp64", BOTH),
    ("aug_spmmv", 32, "fp32", BOTH),
    ("aug_spmmv", 32, "fp16v", BOTH),
]

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(),
    reason="no C compiler for the native SIMD kernels",
)


@pytest.fixture(scope="module")
def system():
    h, _ = build_topological_insulator(NX, NX, NZ)
    s = SellMatrix(h, chunk_height=32, sigma=128)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    return h, s, scale


def _time_step(bk, A, scale, stage, r, precision, simd, reps=5):
    """Best-of-reps seconds + charged bytes for one kernel iteration."""
    prec = get_precision(precision)
    rng = np.random.default_rng(1)
    shape = (A.n_rows, r) if r > 1 else (A.n_rows,)
    v = np.ascontiguousarray(rng.normal(size=shape) +
                             1j * rng.normal(size=shape))
    w = np.ascontiguousarray(rng.normal(size=shape) +
                             1j * rng.normal(size=shape))
    if prec.half_vectors:
        v, w = prec.encode(v), prec.encode(w)
    elif prec.vector_dtype != v.dtype:
        v = np.ascontiguousarray(v.astype(prec.vector_dtype))
        w = np.ascontiguousarray(w.astype(prec.vector_dtype))
    plan = bk.plan(A, r, precision=prec, simd=simd)
    step = {
        "naive": bk.naive_step,
        "aug_spmv": bk.aug_spmv_step,
        "aug_spmmv": bk.aug_spmmv_step,
    }[stage]
    counters = PerfCounters()
    step(A, v, w, scale.a, scale.b, plan=plan, counters=counters)  # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        step(A, v, w, scale.a, scale.b, plan=plan)
        best = min(best, time.perf_counter() - t0)
    return best, counters.bytes_total


def test_simd_speedup_json(benchmark, system):
    h, s, scale = system
    bk = get_backend("native")
    # no warn_if_single_core here: scalar-vs-vector on one core is a
    # fair fight — SIMD speedups do not need more cores to materialize
    cores = host_cores()
    mask = simd_compiled_mask()

    series = []
    for fmt, A in (("csr", h), ("sell", s)):
        for stage, r, precision, formats in CASES:
            if fmt not in formats:
                continue
            # scalar and vector take turns, best of each: on a shared
            # host a slow spell then costs both sides, not one of them
            # (the same 3 x 5 reps tools/check_perf_regression.py allows)
            t_off = t_on = float("inf")
            for _ in range(3):
                t, nbytes = _time_step(bk, A, scale, stage, r, precision,
                                       "off")
                t_off = min(t_off, t)
                t, _ = _time_step(bk, A, scale, stage, r, precision, "on")
                t_on = min(t_on, t)

            row = {
                "stage": stage,
                "format": fmt,
                "r": r,
                "precision": precision,
                "seconds_scalar": t_off,
                "seconds_simd": t_on,
                "simd_speedup": t_off / t_on,
                "gbps_scalar": nbytes / t_off / 1e9,
                "gbps_simd": nbytes / t_on / 1e9,
            }
            if precision == "fp64":
                block = make_block_vector(h.n_rows, r, seed=2)
                exp = expected_counters(h, M_CHECK, r, stage)
                etas, exacts = [], []
                for simd in ("off", "on"):
                    c = PerfCounters()
                    etas.append(compute_eta(A, scale, M_CHECK, block, stage,
                                            c, backend=bk, simd=simd))
                    exacts.append(
                        (c.bytes_loaded, c.bytes_stored, c.flops)
                        == (exp.bytes_loaded, exp.bytes_stored, exp.flops))
                bitwise = bool(np.array_equal(*etas))
                assert bitwise, (
                    f"{stage}/{fmt}/r={r}: fp64 moments differ between "
                    "simd=off and simd=on (bitwise contract broken)"
                )
                assert all(exacts), (
                    f"{stage}/{fmt}/r={r}: byte accounting not exact "
                    "under simd"
                )
                row["eta_bitwise_on_off"] = bitwise
                row["exact_accounting"] = True
            series.append(row)

    # the half-storage wall-clock claim: fp16v must not lose to fp64
    for fmt in ("csr", "sell"):
        f64 = next(r for r in series if r["format"] == fmt
                   and r["r"] == 32 and r["precision"] == "fp64")
        f16 = next(r for r in series if r["format"] == fmt
                   and r["r"] == 32 and r["precision"] == "fp16v")
        f16["fp16v_vs_fp64_wall"] = (f64["seconds_simd"]
                                     / f16["seconds_simd"])

    payload = {
        "bench": "simd",
        "n_rows": h.n_rows,
        "nnz": h.nnz,
        "n_moments": M_CHECK,
        "cpu_count": cores,
        "simd_compiled_mask": mask,
        "series": series,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_simd.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        [r["stage"], r["format"], r["r"], r["precision"],
         r["seconds_scalar"] * 1e3, r["seconds_simd"] * 1e3,
         r["simd_speedup"],
         "yes" if r.get("eta_bitwise_on_off") else "-"]
        for r in series
    ]
    note = (
        "\n(simd kernels not compiled on this host: speedups record the"
        "\n scalar fallback, ~1.0x by construction)"
        if not mask & 1 else ""
    )
    emit(
        "simd",
        format_table(
            ["stage", "fmt", "R", "prec", "scalar ms", "simd ms",
             "speedup", "bitwise"],
            rows,
        )
        + f"\n(native kernels, N = {h.n_rows:,} rows, compiled mask ="
        f" {mask}. fp64 moments bitwise equal across simd on/off and"
        "\n byte accounting exact vs expected_counters for every fp64"
        " row.)" + note,
    )
