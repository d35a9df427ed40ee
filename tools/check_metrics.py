#!/usr/bin/env python
"""Cross-check measured KPM traffic against the paper's analytic models.

Runs the serial moment computation on a small topological-insulator
lattice with live :class:`~repro.util.counters.PerfCounters` and a
:class:`~repro.obs.MetricsRegistry`, then asserts:

1. the measured byte/flop totals equal
   :func:`repro.perf.report.expected_counters` (the Table-I
   ``charge_*`` minima re-charged analytically) **exactly** — for both
   sparse formats (CSR, SELL-C-sigma), every engine, every precision
   profile (fp64 / fp32 / fp16v — including the naive engine's fp16v
   decode pass), and R in {1, 8};
2. the per-kernel achieved code balance from the metrics layer equals
   the per-call model balance;
3. a JSONL trace written during one run parses back and its aggregated
   per-kernel bytes/flops agree with the counters;
4. the overlapped (task-mode) distributed schedule, whose iterations
   run as split ``aug_spmmv_int``/``aug_spmmv_bnd`` kernel pairs,
   still matches ``expected_counters(..., splits=...)`` exactly —
   byte/flop totals equal the serial minima and the per-kernel call
   attribution reflects the two phases;
5. (native backend only) threads and the vectorized (``_simd``)
   kernels change neither story: traffic stays exactly equal to the
   analytic charge at every thread count and under ``simd='on'``/
   ``'off'``, for every engine, format and precision.  (That they move
   no bit of eta is ``tests/core/test_eta_reduction.py``'s.)

Exit status 0 means the measurement layer and the models tell the same
story; 1 pinpoints the first divergence.  Intended for CI (fast: a few
seconds) and as the first sanity check after touching any kernel's
accounting.

Usage::

    PYTHONPATH=src python tools/check_metrics.py [--backend numpy]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path


def _fail(msg: str) -> int:
    print(f"FAIL: {msg}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="numpy",
                        choices=("numpy", "native", "auto"),
                        help="kernel backend to measure (default numpy)")
    parser.add_argument("--nx", type=int, default=6)
    parser.add_argument("--ny", type=int, default=5)
    parser.add_argument("--nz", type=int, default=4)
    parser.add_argument("--moments", type=int, default=16)
    args = parser.parse_args(argv)

    from repro.core.moments import compute_eta
    from repro.core.scaling import lanczos_scale
    from repro.core.stochastic import make_block_vector
    from repro.obs import MetricsRegistry, Trace, aggregate_spans, read_trace
    from repro.perf.report import (
        expected_counters,
        measured_vs_model_section,
        trace_section,
    )
    from repro.physics.hamiltonian import build_topological_insulator
    from repro.sparse.backend import get_backend
    from repro.sparse.sell import SellMatrix
    from repro.util.counters import PerfCounters

    try:
        backend = get_backend(args.backend)
    except Exception as exc:  # noqa: BLE001 - report and bail
        return _fail(f"backend {args.backend!r} unavailable: {exc}")
    print(f"kernel backend: {backend.name}")

    H, _ = build_topological_insulator(args.nx, args.ny, args.nz)
    scale = lanczos_scale(H, seed=1)
    m = args.moments
    matrices = [("csr", H), ("sell", SellMatrix(H, chunk_height=8, sigma=32))]

    # -- 1. exact counter equality, engines x formats x R x precision --
    for fmt, A in matrices:
        for r in (1, 8):
            block = make_block_vector(A.n_rows, r, seed=2)
            for engine in ("naive", "aug_spmv", "aug_spmmv"):
                for prec in ("fp64", "fp32", "fp16v"):
                    counters = PerfCounters()
                    compute_eta(A, scale, m, block, engine, counters,
                                backend=backend, precision=prec)
                    exp = expected_counters(A, m, r, engine, precision=prec)
                    label = f"{fmt} R={r} {engine} {prec}"
                    if (counters.bytes_loaded, counters.bytes_stored,
                            counters.flops) != (exp.bytes_loaded,
                                                exp.bytes_stored, exp.flops):
                        return _fail(
                            f"{label}: measured {counters.summary()} != "
                            f"analytic {exp.summary()}"
                        )
                    print(f"  ok: {label:30s} "
                          f"{counters.bytes_total:>12,} B exact")

    # -- 2. per-kernel achieved balance == model balance ---------------
    r = 8
    block = make_block_vector(H.n_rows, r, seed=2)
    counters = PerfCounters()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "kpm_trace.jsonl"
        with Trace(trace_path) as trace:
            metrics = MetricsRegistry(trace=trace)
            compute_eta(H, scale, m, block, "aug_spmmv", counters,
                        backend=backend, metrics=metrics)
        for name in ("aug_spmmv", "spmmv"):
            nbytes = metrics.counters.get(f"bytes.{name}", 0)
            nflops = metrics.counters.get(f"flops.{name}", 0)
            if not nflops:
                return _fail(f"metrics recorded no flops for span {name!r}")
        print("\n" + measured_vs_model_section(
            H, counters, m, r, "aug_spmmv", metrics=metrics))

        # -- 3. trace round-trip agrees with the counters --------------
        records = read_trace(trace_path)
        agg = aggregate_spans(records)
        total_bytes = sum(e["bytes"] for e in agg.values())
        total_flops = sum(e["flops"] for e in agg.values())
        if total_bytes != counters.bytes_total:
            return _fail(
                f"trace bytes {total_bytes:,} != counter bytes "
                f"{counters.bytes_total:,}"
            )
        if total_flops != counters.flops:
            return _fail(
                f"trace flops {total_flops:,} != counter flops "
                f"{counters.flops:,}"
            )
        for e in agg.values():
            if e["seconds"] <= 0.0:
                return _fail("trace span with non-positive wall time")
        print(trace_section(records))
        print(f"trace round-trip: {len(records)} records, totals match "
              "counters exactly")

    # -- 4. overlap split-kernel attribution ---------------------------
    from repro.dist.comm import SimWorld
    from repro.dist.halo import partition_matrix
    from repro.dist.kpm_parallel import distributed_eta
    from repro.dist.overlap import task_split
    from repro.dist.partition import RowPartition

    n_ranks = 3
    part = RowPartition.equal(H.n_rows, n_ranks, align=64)
    dist = partition_matrix(H, part)
    splits = [task_split(blk) for blk in dist.blocks]
    print()
    for r in (1, 8):
        block = make_block_vector(H.n_rows, r, seed=2)
        for prec in ("fp64", "fp32", "fp16v"):
            counters = PerfCounters()
            distributed_eta(dist, None, scale, m, block,
                            SimWorld(n_ranks), backend=backend,
                            counters=counters, overlap=True,
                            precision=prec)
            exp = expected_counters(H, m, r, "aug_spmmv", splits=splits,
                                    precision=prec)
            label = f"overlap {n_ranks} ranks R={r} {prec}"
            if (counters.bytes_loaded, counters.bytes_stored,
                    counters.flops) != (exp.bytes_loaded,
                                        exp.bytes_stored, exp.flops):
                return _fail(
                    f"{label}: measured {counters.summary()} != "
                    f"analytic {exp.summary()}"
                )
            if counters.calls != exp.calls:
                return _fail(
                    f"{label}: call attribution {counters.calls} != "
                    f"analytic {exp.calls}"
                )
            if prec == "fp64":
                serial = PerfCounters()
                compute_eta(H, scale, m, block, "aug_spmmv", serial,
                            backend=backend)
                if (counters.bytes_loaded, counters.bytes_stored,
                        counters.flops) != (serial.bytes_loaded,
                                            serial.bytes_stored,
                                            serial.flops):
                    return _fail(
                        f"{label}: split totals drifted from the "
                        "serial minima"
                    )
            print(f"  ok: {label:30s} "
                  f"{counters.bytes_total:>12,} B exact, "
                  f"calls {dict(sorted(counters.calls.items()))}")

    # -- 5. threads and simd: the same exact traffic -------------------
    if backend.name == "native":
        print()
        knobs = [{"threads": t} for t in (1, 2, 4)] + \
            [{"simd": s} for s in ("off", "on")]
        for fmt, A in matrices:
            for engine in ("naive", "aug_spmv", "aug_spmmv"):
                for prec in ("fp64", "fp32", "fp16v"):
                    for knob in knobs:
                        counters = PerfCounters()
                        compute_eta(A, scale, m, block, engine, counters,
                                    backend=backend, precision=prec, **knob)
                        exp = expected_counters(A, m, 8, engine,
                                                precision=prec)
                        if (counters.bytes_loaded, counters.bytes_stored,
                                counters.flops) != (exp.bytes_loaded,
                                                    exp.bytes_stored,
                                                    exp.flops):
                            return _fail(
                                f"{knob} {fmt} {engine} {prec}: measured "
                                f"{counters.summary()} != analytic "
                                f"{exp.summary()}"
                            )
                print(f"  ok: {fmt:5s} {engine:10s} traffic exact at "
                      "threads 1/2/4, simd on/off x fp64/fp32/fp16v")
    else:
        print("\n(thread/simd traffic checks skipped: "
              f"backend {backend.name!r} has neither)")

    print("\nall metric/model cross-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
