"""Intra-rank thread scaling of the native blocked kernels.

The aug kernels hand whole 64-row eta blocks to the threads, each into
its own bins, and bins add exactly (DESIGN §19) — so the moments are
*bitwise identical* at every thread count.  This bench records both halves of that contract on the 64,000-row
TI operator:

1. **speed** — best-of-reps wall clock for one blocked ``aug_spmmv``
   iteration at threads in {1, 2, 4} for CSR and SELL-C-sigma, with the
   parallel efficiency relative to the single-thread run;
2. **determinism** — a full eta run per thread count, asserted bitwise
   equal to the threads=1 reference (and its traffic equal to the
   Eq. 5-7 analytic charge: threading never changes the bytes story).

Writes ``results/BENCH_threads.json``.

Honesty note: on a single-core host the threaded rows can only tie or
lose to threads=1 — OpenMP teams time-slice one core and the recorded
"speedups" measure scheduling overhead, not scaling.  The payload
records the affinity-visible core count and a ``single_core_caveat``
flag so nobody reads overhead as a scaling result; the bitwise half of
the contract is meaningful (and asserted) regardless of core count.
"""

import json
import time

import numpy as np
import pytest

from _support import RESULTS_DIR, emit, format_table, warn_if_single_core
from repro.core.moments import compute_eta
from repro.core.scaling import SpectralScale
from repro.core.stochastic import make_block_vector
from repro.perf.report import expected_counters
from repro.physics import build_topological_insulator
from repro.sparse import SellMatrix
from repro.sparse.backend import get_backend
from repro.util.counters import PerfCounters

NX, NZ = 40, 10       # N = 64,000 rows, same operator as the kernel bench
R_BLOCK = 8           # wide enough to stress the blocked eta reduction
M_CHECK = 16
THREAD_COUNTS = (1, 2, 4)

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(),
    reason="no C compiler for the native threaded kernels",
)


@pytest.fixture(scope="module")
def system():
    h, _ = build_topological_insulator(NX, NX, NZ)
    s = SellMatrix(h, chunk_height=32, sigma=128)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    return h, s, scale


def _time_step(bk, A, scale, r, threads, reps=5):
    """Best-of-reps seconds for one blocked iteration at a thread count."""
    rng = np.random.default_rng(1)
    v = np.ascontiguousarray(
        rng.normal(size=(A.n_rows, r)) + 1j * rng.normal(size=(A.n_rows, r))
    )
    w = np.ascontiguousarray(
        rng.normal(size=(A.n_rows, r)) + 1j * rng.normal(size=(A.n_rows, r))
    )
    plan = bk.plan(A, r, threads=threads)
    bk.aug_spmmv_step(A, v, w, scale.a, scale.b, plan=plan)  # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        bk.aug_spmmv_step(A, v, w, scale.a, scale.b, plan=plan)
        best = min(best, time.perf_counter() - t0)
    return best


def test_thread_scaling_json(benchmark, system):
    h, s, scale = system
    bk = get_backend("native")
    cores = warn_if_single_core("bench_threads")
    block = make_block_vector(h.n_rows, R_BLOCK, seed=2)
    exp = expected_counters(h, M_CHECK, R_BLOCK, "aug_spmmv")

    series = []
    reference_eta = {}
    for fmt, A in (("csr", h), ("sell", s)):
        for t in THREAD_COUNTS:
            secs = _time_step(bk, A, scale, R_BLOCK, t)
            counters = PerfCounters()
            eta = compute_eta(A, scale, M_CHECK, block, "aug_spmmv",
                              counters, backend=bk, threads=t)
            ref = reference_eta.setdefault(fmt, eta)
            bitwise = bool(np.array_equal(ref, eta))
            assert bitwise, (
                f"{fmt}: fp64 moments differ between threads=1 and "
                f"threads={t} (bitwise contract broken)"
            )
            exact = (counters.bytes_loaded, counters.bytes_stored,
                     counters.flops) == (exp.bytes_loaded,
                                         exp.bytes_stored, exp.flops)
            assert exact, (
                f"{fmt}/threads={t}: measured {counters.summary()} != "
                f"analytic {exp.summary()}"
            )
            base = next(r["seconds"] for r in series
                        if r["format"] == fmt and r["threads"] == 1) \
                if t != 1 else secs
            series.append(
                {
                    "format": fmt,
                    "threads": t,
                    "seconds": secs,
                    "ms_per_vector": secs / R_BLOCK * 1e3,
                    "speedup_vs_t1": base / secs,
                    "efficiency": base / secs / t,
                    "eta_bitwise_vs_t1": bitwise,
                    "eta_bytes_measured": counters.bytes_total,
                    "eta_bytes_analytic": exp.bytes_total,
                    "exact_accounting": exact,
                }
            )

    payload = {
        "bench": "threads",
        "n_rows": h.n_rows,
        "nnz": h.nnz,
        "r_block": R_BLOCK,
        "n_moments": M_CHECK,
        "thread_counts": list(THREAD_COUNTS),
        "cpu_count": cores,
        "single_core_caveat": cores == 1,
        "series": series,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_threads.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        [r["format"], r["threads"], r["seconds"] * 1e3,
         r["speedup_vs_t1"], r["efficiency"],
         "yes" if r["eta_bitwise_vs_t1"] else "NO"]
        for r in series
    ]
    caveat = (
        "\n(single-core host: the speedup column measures OpenMP"
        "\n overhead, not scaling — see the module docstring)"
        if cores == 1 else ""
    )
    emit(
        "threads",
        format_table(
            ["fmt", "threads", "ms/call", "speedup", "efficiency",
             "bitwise"],
            rows,
        )
        + f"\n(native aug_spmmv, R = {R_BLOCK}, N = {h.n_rows:,} rows,"
        f"\n {cores} core(s) visible. Byte accounting exact vs"
        "\n expected_counters and fp64 moments bitwise equal to the"
        "\n threads=1 run for every row.)" + caveat,
    )
