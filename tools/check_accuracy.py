#!/usr/bin/env python
"""Accuracy gate for the reduced-precision execution profiles.

For every engine x backend x precision combination, computes the DOS of
a small topological-insulator lattice under the reduced profile and
compares it point-by-point against the **fp64 run of the same engine
and backend** (isolating the storage-precision effect from engine or
backend differences).  The relative L-infinity error

    err = max_E |rho_p(E) - rho_64(E)| / max_E |rho_64(E)|

must stay within the documented budget:

* ``fp32``  — 1e-4.  Values and vectors are stored in complex64 but
  every dot product's terms are formed and reduced in fp64 (the one eta
  reduction, DESIGN §19), so the error is dominated by fp32 rounding of
  the recurrence vectors, growing roughly with sqrt(M): observed
  ~1.5e-5 at M=64; the budget leaves a ~6x margin.
* ``fp16v`` — 1e-1.  Vectors round-trip through float16 (re,im) pairs
  once per iteration; the recurrence amplifies the 2^-11 unit roundoff
  into an observed ~2e-2 at M=64, so this profile is an *exploratory*
  tier — use it where a few-percent DOS error is acceptable (e.g.
  scouting runs before a production fp32/fp64 sweep).

The ``naive`` engine is fp64/fp32 only: its three-live-block recurrence
has no per-step decode pass, so fp16v is rejected by construction (the
gate documents rather than tests that exclusion).

Exit status 0 means every combination is within budget; 1 pinpoints the
first breach.  Intended for CI next to the tier-1 suite: its lattice
proves the *byte accounting* of the reduced profiles, this tool proves
their *numerics*.

Every run prints an ``eta digest`` over all its eta arrays.  The
backends round alike (DESIGN §19), so ``--expect-digest`` checks a
second backend against the first one's digest instead of the budgets.

Usage::

    PYTHONPATH=src python tools/check_accuracy.py [--backend numpy]
        [--expect-digest HEX]
"""

from __future__ import annotations

import argparse
import hashlib
import sys

#: Relative L-infinity DOS error budget per precision profile.
BUDGETS = {"fp32": 1e-4, "fp16v": 1e-1}


def _fail(msg: str) -> int:
    print(f"FAIL: {msg}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="numpy",
                        choices=("numpy", "native", "auto"),
                        help="kernel backend to check (default numpy)")
    parser.add_argument("--nx", type=int, default=6)
    parser.add_argument("--ny", type=int, default=5)
    parser.add_argument("--nz", type=int, default=4)
    parser.add_argument("--moments", type=int, default=64)
    parser.add_argument("--vectors", type=int, default=4)
    parser.add_argument("--expect-digest", metavar="HEX",
                        help="require this eta digest (another backend's "
                        "run) instead of the error budgets")
    args = parser.parse_args(argv)

    import numpy as np

    from repro.core.moments import compute_eta, eta_to_moments
    from repro.core.reconstruct import reconstruct_dos
    from repro.core.scaling import lanczos_scale
    from repro.core.stochastic import make_block_vector
    from repro.physics.hamiltonian import build_topological_insulator
    from repro.sparse.backend import get_backend

    try:
        backend = get_backend(args.backend)
    except Exception as exc:  # noqa: BLE001 - report and bail
        return _fail(f"backend {args.backend!r} unavailable: {exc}")
    print(f"kernel backend: {backend.name}")

    H, _ = build_topological_insulator(args.nx, args.ny, args.nz)
    scale = lanczos_scale(H, seed=1)
    m = args.moments
    block = make_block_vector(H.n_rows, args.vectors, seed=3)

    digest = hashlib.sha256()

    def dos(engine: str, precision: str) -> np.ndarray:
        eta = compute_eta(H, scale, m, block, engine, backend=backend,
                          precision=precision)
        digest.update(eta.tobytes())
        mu = eta_to_moments(eta).mean(axis=0)
        _, rho = reconstruct_dos(mu.real / H.n_rows, scale, n_points=512)
        return rho

    failures = 0
    for engine in ("naive", "aug_spmv", "aug_spmmv"):
        ref = dos(engine, "fp64")
        ref_peak = float(np.max(np.abs(ref)))
        for prec, budget in BUDGETS.items():
            err = float(np.max(np.abs(dos(engine, prec) - ref))) / ref_peak
            if args.expect_digest:
                continue  # judged by the digest alone
            ok = err <= budget
            status = "ok" if ok else "FAIL"
            print(f"  {status}: {engine:10s} {prec:6s} "
                  f"L_inf rel err {err:.3e} (budget {budget:.0e})")
            if not ok:
                failures += 1
    print(f"eta digest: {digest.hexdigest()}")

    if args.expect_digest:
        if digest.hexdigest() != args.expect_digest:
            return _fail(f"eta digest differs from {args.expect_digest}")
        print("\nthe same eta bits as the expected digest")
        return 0
    if failures:
        return _fail(f"{failures} precision/engine combination(s) over "
                     "the DOS error budget")
    print("\nall precision profiles within the DOS accuracy budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
