#!/usr/bin/env python
"""Smoke-check the native kernel backend on this host.

Builds the default kernel unit if needed (``--all``: every unit this
host can build, each loaded and its entry points bound — an image
pre-build, or a CI leg warming its cache before pytest — and each
unit's entries checked against their NumPy twins: the set-up entries
and both walks under every finisher), verifies that
CSR and SELL-32-128 on both backends give the moments of the NumPy CSR
run bit for bit on a small topological-insulator matrix, and times the
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


#: The storage profile each unit's kernel-name suffix serves.
_PROFILES = {"": "fp64", "_f32": "fp32", "_f32u16": "fp32",
             "_f16v": "fp16v", "_f16vu16": "fp16v"}


def _walk(unit, A, prec, fin, V, W, threads, a=0.0, b=0.0, eta=None):
    """One call of ``A``'s walk in ``unit`` with finisher ``fin`` (0
    store, 1 boot, 2 aug), on the matrix packed by hand, so the int32
    and uint16 index units both run on a small operator; the arguments
    are the native backend's own (``NativeBackend._entry``)."""
    from repro.sparse.backend.native import _ptr
    from repro.sparse.backend.native_backend import NativeBackend

    pack = (A.data.astype(prec.compute_dtype),
            A.indices.astype(np.uint16 if "u16" in unit[0] else np.int32))
    r = V.shape[1] if V.ndim == (3 if prec.half_vectors else 2) else 1
    fn, head = NativeBackend._entry(fin, A, prec, unit[1], r, 0, A.n_rows,
                                    pack)
    eta = (None,) * 3 if eta is None else tuple(map(_ptr, eta))
    fn(*head, _ptr(V), _ptr(W), threads, a, b, *eta)


def _unit_parity(unit: tuple[str, bool], h, scale) -> str | None:
    """One unit's entries against their NumPy twins, bit for bit (DESIGN
    sections 12 and 13): ``repro_phases`` against NumPy's complex exp,
    ``repro_anchors``, and each format's walk under its three finishers
    — store at r = 1 and r = 3 (spmv, spmmv), boot (nu_1 and its bins)
    and aug (a step from nu_1: W and its bins) — on CSR and SELL-8-32,
    a random-phase and a unit-vector start, one and two threads.
    Returns what differs, or None."""
    from repro.core.recurrence import to_storage
    from repro.core.stochastic import make_block_vector, unit_block_vector
    from repro.obs.metrics import NULL_METRICS
    from repro.sparse import SellMatrix
    from repro.sparse.backend import get_backend
    from repro.sparse.backend.native import _ptr, kernel
    from repro.sparse.fused import eta_anchors
    from repro.util.precision import get_precision
    from repro.util.rng import _cis

    suffix, simd = unit
    prec = get_precision(_PROFILES[suffix])
    n, r = h.n_rows, 3
    phases = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (r, n))
    want, got = np.empty((n, r), complex), np.empty((n, r), complex)
    _cis(phases, want)
    numpy_bk = get_backend("numpy")
    starts = {"phase": make_block_vector(n, r, seed=3),
              "unit": unit_block_vector(n, np.array([0, n // 2, n - 1]))}
    formats = {"csr": h, "sell": SellMatrix(h, chunk_height=8, sigma=32)}
    for threads in (1, 2):
        kernel("repro_phases", suffix, simd)(
            n, r, _ptr(phases), _ptr(got), r, threads)
        if got.tobytes() != want.tobytes():
            return f"repro_phases, {threads} thread(s)"
        for kind, start in starts.items():
            V = to_storage(start, prec)
            m2 = np.empty(r)
            kernel("repro_anchors", suffix, simd)(
                n, r, _ptr(V), _ptr(m2), threads)
            anchors = eta_anchors(V)
            if eta_anchors(V, m2=m2).tobytes() != anchors.tobytes():
                return f"repro_anchors, {kind} start, {threads} thread(s)"
            v = np.ascontiguousarray(V[:, 0])
            for fmt, A in formats.items():
                where = f"{fmt} walk, {kind} start, {threads} thread(s)"
                for x, ref in ((v, numpy_bk.spmv(A, v)),
                               (V, numpy_bk.spmmv(A, V))):
                    y = np.empty_like(ref)
                    _walk(unit, A, prec, 0, x, y, threads)
                    if y.tobytes() != ref.tobytes():
                        return f"store at r = {x.size // v.size}, {where}"
                plan = numpy_bk.plan(A, r, precision=prec)
                plan.anchors = anchors
                W_ref, bins_ref = numpy_bk._boot(A, V, None, scale.a,
                                                 scale.b, plan, NULL_METRICS)
                W, bins = np.empty_like(V), np.empty((2, 3 * r))
                flag = np.zeros(1, dtype=np.int64)
                _walk(unit, A, prec, 1, V, W, threads, scale.a, scale.b,
                      (anchors, bins, flag))
                if (W.tobytes(), bins.tobytes()) != \
                        (W_ref.tobytes(), bins_ref.tobytes()):
                    return f"boot, {where}"
                bins_ref = numpy_bk._step("aug_spmmv", A, V, W_ref, scale.a,
                                          scale.b, plan, NULL_METRICS)
                _walk(unit, A, prec, 2, V, W, threads, scale.a, scale.b,
                      (anchors, bins, flag))
                if (W.tobytes(), bins.tobytes()) != \
                        (W_ref.tobytes(), bins_ref.tobytes()):
                    return f"aug, {where}"
    return None


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
        _SIGNATURES,
        _unit_path,
        buildable_units,
        kernel,
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
            for base in _SIGNATURES:  # built, loaded, every kernel bound
                kernel(base, *unit)
            _report(unit_name(*unit), so, time.perf_counter() - t0, cold)
    if args.all:
        h, _ = build_topological_insulator(6, 5, 4)
        scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
        for unit in buildable_units():
            problem = _unit_parity(unit, h, scale)
            if problem:
                return _fail(f"unit parity, unit {unit_name(*unit)}: "
                             f"{problem} differs from the NumPy twin")
        print("units:   phases, anchors; csr and sell walks x store, boot, "
              "aug ok: every unit (2 starts, 1 and 2 threads)")

    numpy_bk = get_backend("numpy")
    native_bk = get_backend("native")

    # 2. parity on a small matrix: per engine one CSR NumPy reference,
    # which both formats on both backends must equal bit for bit (at
    # 9 x 8 x 6, sigma = 128 sorts the rows of a scope) ----------------
    h, _ = build_topological_insulator(9, 8, 6)
    s = SellMatrix(h, chunk_height=32, sigma=128)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    block = make_block_vector(h.n_rows, 8, seed=7)
    for engine in ("naive", "aug_spmv", "aug_spmmv"):
        ref = compute_eta(h, scale, 32, block, engine, backend=numpy_bk)
        for name, m in (("csr", h), ("sell", s)):
            for bk in (numpy_bk, native_bk):
                got = compute_eta(m, scale, 32, block, engine, backend=bk)
                if not np.array_equal(ref, got):
                    return _fail(
                        f"parity: {engine}/{name}/{bk.name} moments differ "
                        f"from numpy/csr (max |d| = "
                        f"{np.abs(ref - got).max():.2e})")
        print(f"parity:  {engine:>9} ok: csr, sell-32-128 x numpy, native "
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
