#!/usr/bin/env python
"""Smoke-check the native kernel backend on this host.

Builds the default kernel unit if needed (``--all``: every unit this
host can build — an image pre-build, or a CI leg warming its cache
before pytest), verifies numpy/native parity on a small
topological-insulator matrix in both sparse formats, and times the
blocked SELL kernel against the NumPy path.  Intended as the first
thing to run on a new machine (or in CI with a ``slow`` pytest marker)
before trusting ``backend='auto'`` for production runs.

Usage::

    PYTHONPATH=src python tools/check_native.py [--all]

Exit status 0 means the native backend is healthy (or cleanly absent
with ``--allow-missing``); 1 means compilation or parity failed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


#: A first run pays the default unit's build before its first number;
#: cli_cold/setup_s is that budget end to end (DESIGN section 12).
DEFAULT_UNIT_BUDGET_S = 3.0


def _fail(msg: str) -> int:
    print(f"FAIL: {msg}")
    return 1


def _report(unit: str, so, seconds: float, cold: bool) -> None:
    print(f"unit {unit:>15}: {seconds:5.2f}s "
          f"{'cold build' if cold else 'cache hit '} "
          f"{so.stat().st_size / 1024:4.0f} KiB")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="exit 0 when no C compiler is available (auto falls back "
             "to numpy; useful for optional CI jobs)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="build every unit this host can build, not only the default",
    )
    parser.add_argument("--nx", type=int, default=24,
                        help="timing-matrix extent (nx = ny)")
    parser.add_argument("--nz", type=int, default=8)
    args = parser.parse_args(argv)

    from repro.core.moments import compute_eta
    from repro.core.scaling import SpectralScale
    from repro.core.stochastic import make_block_vector
    from repro.physics import build_topological_insulator
    from repro.sparse import SellMatrix
    from repro.sparse.backend import get_backend
    from repro.sparse.backend.native import (
        _unit_path,
        buildable_units,
        compile_unit,
        native_available,
        native_error,
        simd_available,
        unit_name,
    )

    # 1. compilation ----------------------------------------------------
    # the default unit's cold build is an end-to-end cost (what a first
    # run waits for: cli_cold/setup_s), so it has a budget; the other
    # units are built on first use of their profile, or here with --all
    default = ("", simd_available())
    so = _unit_path(*default)
    cold = not so.exists()
    t0 = time.perf_counter()
    if not native_available():
        reason = native_error()
        if args.allow_missing:
            print(f"native backend unavailable ({reason}); numpy fallback "
                  "is in effect — OK (--allow-missing)")
            return 0
        return _fail(f"native backend unavailable: {reason}")
    dt = time.perf_counter() - t0
    _report(unit_name(*default), so, dt, cold)
    if cold and dt > DEFAULT_UNIT_BUDGET_S:
        return _fail(f"the default unit took {dt:.1f}s to build and load "
                     f"(budget {DEFAULT_UNIT_BUDGET_S:.0f}s)")
    for unit in buildable_units() if args.all else ():
        if unit != default:
            so = _unit_path(*unit)
            cold = not so.exists()
            t0 = time.perf_counter()
            compile_unit(*unit)
            _report(unit_name(*unit), so, time.perf_counter() - t0, cold)

    numpy_bk = get_backend("numpy")
    native_bk = get_backend("native")

    # 2. parity on a small matrix, both formats, scalar and blocked -----
    h, _ = build_topological_insulator(8, 8, 6)
    s = SellMatrix(h, chunk_height=32, sigma=128)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    block = make_block_vector(h.n_rows, 8, seed=7)
    for name, m in (("csr", h), ("sell", s)):
        for engine in ("naive", "aug_spmv", "aug_spmmv"):
            ref = compute_eta(m, scale, 32, block, engine, backend=numpy_bk)
            got = compute_eta(m, scale, 32, block, engine, backend=native_bk)
            if not np.allclose(ref, got, atol=1e-9):
                return _fail(f"parity: {engine}/{name} moments diverge "
                             f"(max |d| = {np.abs(ref - got).max():.2e})")
            print(f"parity:  {engine:>9}/{name} ok "
                  f"(N = {h.n_rows:,}, R = 8, M = 32)")

    # 3. speedup on a larger blocked SELL iteration ---------------------
    h_big, _ = build_topological_insulator(args.nx, args.nx, args.nz)
    s_big = SellMatrix(h_big, chunk_height=32, sigma=128)
    scale_big = SpectralScale.from_bounds(*h_big.gershgorin_bounds())
    rng = np.random.default_rng(3)
    n, r = s_big.n_rows, 32
    V = np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    W = np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    times = {}
    for bk in (numpy_bk, native_bk):
        plan = bk.plan(s_big, r)
        bk.aug_spmmv_step(s_big, V, W, scale_big.a, scale_big.b, plan=plan)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            bk.aug_spmmv_step(s_big, V, W, scale_big.a, scale_big.b,
                              plan=plan)
            best = min(best, time.perf_counter() - t0)
        times[bk.name] = best
    speedup = times["numpy"] / times["native"]
    print(f"speedup: aug_spmmv/sell R={r}, N={n:,}: "
          f"numpy {times['numpy'] * 1e3:.1f} ms, "
          f"native {times['native'] * 1e3:.1f} ms -> {speedup:.2f}x")
    if speedup < 1.0:
        return _fail("native kernels are slower than numpy on this host")
    print("native backend healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
