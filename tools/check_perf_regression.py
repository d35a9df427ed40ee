#!/usr/bin/env python
"""Kernel perf-regression gate against the committed baseline.

Re-times the native kernels with the same protocol as
``benchmarks/bench_kernels_measured.py`` (best-of-reps wall clock on a
64k-row TI operator, Table-I minimum-traffic bytes -> GB/s) and
compares against the committed ``benchmarks/results/BENCH_kernels.json``.
Exit 1 if any native stage's throughput regressed by more than
``--max-regress`` (default 15%).

Because CI machines differ from the host that produced the baseline,
the default comparison is *normalized*: each backend's GB/s is divided
by the numpy GB/s of the same (stage, format) measured in the same run,
so host speed cancels and the gate tracks the native kernels' advantage
over the numpy reference.  ``--absolute`` compares raw GB/s instead
(meaningful only on the baseline host).

A last section gates checkpoint I/O with no baseline file at all:
``KpmCheckpoint.save`` of the ``mp_ckpt`` benchmark's state against
hashing and raw-writing the same bytes into the same directory in the
same run (``--section checkpoint`` runs it alone; it needs no native
kernels).

Usage::

    PYTHONPATH=src python tools/check_perf_regression.py [--max-regress 0.15]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[1] / (
    "benchmarks/results/BENCH_kernels.json"
)
SIMD_BASELINE = Path(__file__).resolve().parents[1] / (
    "benchmarks/results/BENCH_simd.json"
)


def _vectors(n, r, seed=1):
    import numpy as np

    from repro.util.constants import DTYPE

    rng = np.random.default_rng(seed)
    v = np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    ).astype(DTYPE)
    w = np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    ).astype(DTYPE)
    return v, w


def _time_backend_step(bk, A, scale, stage, r, reps=5, precision="fp64",
                       simd=None):
    """Best-of-reps seconds + minimum-traffic bytes (bench protocol)."""
    import numpy as np

    from repro.util.counters import PerfCounters
    from repro.util.precision import get_precision

    prec = get_precision(precision)
    n = A.n_rows
    plan = bk.plan(A, r, precision=prec, simd=simd)
    step = {
        "naive": bk.naive_step,
        "aug_spmv": bk.aug_spmv_step,
        "aug_spmmv": bk.aug_spmmv_step,
    }[stage]
    if r == 1:
        v, w = _vectors(n, 1)
        v, w = v[:, 0].copy(), w[:, 0].copy()
    else:
        v, w = _vectors(n, r)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-regress", type=float, default=0.15,
                        help="tolerated fractional throughput loss "
                             "(default 0.15)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw GB/s instead of normalizing by "
                             "the numpy backend measured in the same run")
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--trials", type=int, default=3,
                        help="measurement trials per kernel; the gate "
                             "takes the most favorable (default 3)")
    parser.add_argument("--section", choices=("all", "checkpoint"),
                        default="all",
                        help="'checkpoint' runs only the checkpoint I/O "
                             "gate (default: every section)")
    args = parser.parse_args(argv)
    if args.section == "checkpoint":
        return _report(_gate_checkpoint(), "checkpoint I/O within its gate")

    from repro.core.scaling import SpectralScale
    from repro.physics import build_topological_insulator
    from repro.sparse.backend import get_backend
    from repro.sparse.sell import SellMatrix

    baseline = json.loads(args.baseline.read_text())
    if not baseline.get("native_available"):
        print("baseline was recorded without native kernels; nothing to gate")
        return 0
    native = get_backend("native")
    if not native.available():
        print("FAIL: native kernels unavailable on this host, cannot gate")
        return 1
    numpy_bk = get_backend("numpy")

    # the baseline problem: same lattice as the bench
    nx, nz = 40, 10
    h, _ = build_topological_insulator(nx, nx, nz)
    assert h.n_rows == baseline["n_rows"], "baseline problem size changed"
    s = SellMatrix(h, chunk_height=32, sigma=128)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    mats = {"csr": h, "sell": s}

    def base_gbps(stage, fmt, backend, precision):
        for row in baseline["series"]:
            if (row["stage"], row["format"], row["backend"],
                    row.get("precision", "fp64")) == (
                    stage, fmt, backend, precision):
                return row["gbps"]
        raise KeyError((stage, fmt, backend, precision))

    failures = []
    print(f"{'kernel':>22} {'base':>8} {'now':>8} {'ratio':>7}   "
          f"({'normalized by numpy' if not args.absolute else 'raw GB/s'})")
    for row in baseline["series"]:
        if row["backend"] != "native":
            continue
        stage, fmt, r = row["stage"], row["format"], row["r"]
        precision = row.get("precision", "fp64")
        base = row["gbps"]
        if not args.absolute:
            base = base / base_gbps(stage, fmt, "numpy", precision)
        # a genuine regression shows up in every trial; timer noise on a
        # loaded host does not — gate on the most favorable of a few
        now = 0.0
        for _ in range(args.trials):
            secs, nbytes = _time_backend_step(
                native, mats[fmt], scale, stage, r, precision=precision)
            trial = nbytes / secs / 1e9
            if not args.absolute:
                np_secs, np_bytes = _time_backend_step(
                    numpy_bk, mats[fmt], scale, stage, r,
                    precision=precision)
                trial = trial / (np_bytes / np_secs / 1e9)
            now = max(now, trial)
            if now / base >= 1.0 - args.max_regress:
                break  # already within budget, no need for more trials
        ratio = now / base
        label = f"{stage}/{fmt}/{precision}"
        print(f"{label:>22} {base:8.3f} {now:8.3f} {ratio:7.3f}")
        if ratio < 1.0 - args.max_regress:
            failures.append(
                f"{label}: native throughput {ratio:.2f}x of baseline "
                f"(allowed >= {1.0 - args.max_regress:.2f}x)"
            )

    failures += _gate_simd(args, native, mats, scale)
    failures += _gate_checkpoint()
    return _report(
        failures,
        f"native kernel throughput within {args.max_regress:.0%} of the "
        "committed baseline; checkpoint I/O within its gate")


def _report(failures: list[str], ok: str) -> int:
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(ok)
    return 1 if failures else 0


def _gate_simd(args, native, mats, scale) -> list[str]:
    """Gate the vectorized kernels' speedup against BENCH_simd.json.

    The simd speedup is scalar-vs-vector measured on the *same* host in
    the same run, so host speed cancels by construction and the gate is
    meaningful on any CI runner — no numpy normalization needed.  Hosts
    whose compiler cannot target AVX2 recorded (and re-measure) ~1.0x
    fallback rows; the gate skips them via the compiled mask.
    """
    if not SIMD_BASELINE.exists():
        print("no BENCH_simd.json baseline; skipping the simd gate")
        return []
    from repro.sparse.backend.native import simd_compiled_mask

    baseline = json.loads(SIMD_BASELINE.read_text())
    if not simd_compiled_mask() & 1:
        print("simd kernels not compiled on this host; skipping the "
              "simd gate (scalar fallback is covered by the kernel gate)")
        return []

    failures = []
    print(f"\n{'simd speedup':>26} {'base':>8} {'now':>8} {'ratio':>7}   "
          f"(scalar vs vector, same host)")
    for row in baseline["series"]:
        stage, fmt, r = row["stage"], row["format"], row["r"]
        precision = row.get("precision", "fp64")
        base = row["simd_speedup"]
        if base < 1.05:
            continue  # fallback or noise-level row, nothing to protect
        now = 0.0
        for _ in range(args.trials):
            t_off, _ = _time_backend_step(
                native, mats[fmt], scale, stage, r, precision=precision,
                simd="off")
            t_on, _ = _time_backend_step(
                native, mats[fmt], scale, stage, r, precision=precision,
                simd="on")
            now = max(now, t_off / t_on)
            if now / base >= 1.0 - args.max_regress:
                break
        ratio = now / base
        label = f"{stage}/{fmt}/r{r}/{precision}"
        print(f"{label:>26} {base:8.3f} {now:8.3f} {ratio:7.3f}")
        if ratio < 1.0 - args.max_regress:
            failures.append(
                f"{label}: simd speedup {now:.2f}x vs baseline "
                f"{base:.2f}x (allowed >= "
                f"{base * (1.0 - args.max_regress):.2f}x)"
            )
    return failures


def _gate_checkpoint(max_ratio: float = 4.0, reps: int = 5) -> list[str]:
    """Gate ``KpmCheckpoint.save`` against its own byte-model floor.

    The state is the ``mp_ckpt`` benchmark's (N = 32,768, R = 8, M = 512,
    fp64: 8,454,144 payload bytes).  The floor is what the format cannot
    avoid: one sha256 and one CRC-32 pass over the three buffers, then a
    raw write through a temp file and ``os.replace`` — into the same
    directory, alternating with ``save``, best of ``reps``, so host, hash
    and disk speed cancel in the ratio.  A stored ``.npz`` measures 1.1x
    in two processes of three and 1.7-2.0x in the third (14-17 or 24-28
    ms: a per-process mode of numpy's writer, which copies each array
    through a 4 MiB temporary; not pursued), the deflated one it
    replaced 24x.  The ratio to the bare write is printed but not
    gated: page-cache writes of 8 MB take 2.5-9 ms here from one minute
    to the next while the hashes cost a fixed ~8 ms, so that ratio swings
    2.5-10x on unchanged code (the deflated writer: 119x).  The file-size
    inequality of the cost model (``payload <= file < payload + 4 KiB``,
    which a deflated file also breaks) is checked on the same file.
    """
    import hashlib
    import zlib

    import numpy as np

    from repro.core.checkpoint import KpmCheckpoint

    n, r, m = 32768, 8, 512
    v, w = _vectors(n, r)
    eta = np.zeros((r, m), dtype=v.dtype)
    eta[:, : m // 2] = v[: m // 2].T
    ck = KpmCheckpoint(v=v, w=w, eta=eta, next_m=m // 4, n_moments=m,
                       a=1.0, b=0.0)

    def timed(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="ckpt-gate-") as d:
        path = Path(d) / "state.npz"

        def raw_write():
            tmp = path.with_name("raw.tmp")
            with open(tmp, "wb") as f:
                for arr in (v, w, eta):
                    f.write(arr)
            os.replace(tmp, path.with_name("raw.bin"))

        def floor():
            h = hashlib.sha256()
            for arr in (v, w, eta):
                h.update(arr)
                zlib.crc32(arr)
            raw_write()

        t_raw = t_floor = t_save = t_load = float("inf")
        for _ in range(reps):
            t_raw = min(t_raw, timed(raw_write))
            t_floor = min(t_floor, timed(floor))
            t_save = min(t_save, timed(lambda: ck.save(path)))
            t_load = min(t_load, timed(lambda: KpmCheckpoint.load(path)))
        file_bytes = path.stat().st_size

    ratio = t_save / t_floor
    print(f"\n{'checkpoint fp64 8.45 MB':>26} {'write':>8} {'floor':>8} "
          f"{'save':>8} {'ratio':>7} {'load':>8}   "
          "(floor = sha256 + crc32 + write; same directory, same run)")
    print(f"{'N=32768 R=8 M=512':>26} {t_raw * 1e3:6.1f}ms "
          f"{t_floor * 1e3:6.1f}ms {t_save * 1e3:6.1f}ms {ratio:7.2f} "
          f"{t_load * 1e3:6.1f}ms   save/write {t_save / t_raw:.1f}x, "
          f"file = payload + {file_bytes - ck.payload_bytes} B")
    failures = []
    if ratio > max_ratio:
        failures.append(
            f"checkpoint save took {ratio:.1f}x its floor (hash + write of "
            f"the same {ck.payload_bytes} bytes; allowed <= {max_ratio:.0f}x)")
    if not ck.payload_bytes <= file_bytes < ck.payload_bytes + 4096:
        failures.append(
            f"checkpoint file is {file_bytes} B for a {ck.payload_bytes} B "
            "payload: outside [payload, payload + 4 KiB)")
    return failures


if __name__ == "__main__":
    sys.exit(main())
