#!/usr/bin/env python
"""Exactness gate for the serving layer's traffic amortization claim.

The serve layer's promise is the paper's Eq. 5-7 applied across users:
coalescing k requests into one width-k ``aug_spmmv`` block pays the
matrix stream once, so the *measured* bytes per request must fall as
the width grows — and must equal the analytic minimum-traffic model
(:func:`repro.perf.report.expected_counters`) to the byte, exactly as
the tier-1 lattice (``tests/lattice.py``) demands of the engines
themselves.

For widths 1, 2, 3, 4, 5, 8 this script submits that many width-1 DOS
requests to a fresh synchronous :class:`~repro.serve.KPMServer`,
asserts the requests coalesced into exactly one batch, and checks:

* measured batch bytes and flops == ``expected_counters(H, M, w)``
  (integer equality, zero tolerance),
* bytes-per-request strictly decreasing in w,
* the measured ``serve.bytes_per_request`` distribution agrees with
  the counters,
* every request's moments are bitwise identical to a solo
  ``KPMSolver.from_spec`` solve with the same pinned scale (fp64),
* the cache answers a repeat query with zero additional traffic.

Exit code 0 iff every check holds on both backends available here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.solver import KPMSolver  # noqa: E402
from repro.perf.report import expected_counters  # noqa: E402
from repro.serve import HamiltonianSpec, KPMServer, Request  # noqa: E402
from repro.sparse.backend import get_backend  # noqa: E402
from repro.sparse.backend.native import native_available  # noqa: E402

SPEC = HamiltonianSpec("topological_insulator", {"nx": 8, "ny": 8, "nz": 4})
M = 128
WIDTHS = (1, 2, 3, 4, 5, 8)

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(f"  FAIL {msg}")


def check_backend(backend: str) -> None:
    print(f"backend = {backend}")
    print(f"  {'width':>6} {'measured bytes':>15} {'model bytes':>13} "
          f"{'B/request':>12} {'B/F':>7}")
    per_request: list[float] = []
    solo_mu: dict[int, np.ndarray] = {}
    for w in WIDTHS:
        srv = KPMServer(max_width=w, backend=backend)
        tickets = [
            srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=s))
            for s in range(w)
        ]
        n_batches = srv.step()
        if n_batches != 1:
            fail(f"width {w}: expected 1 batch, ran {n_batches}")
            continue
        H, _model, scale = srv.operator(SPEC)
        _batch, counters = srv.last_batches[0]
        model = expected_counters(H, M, w)
        if counters.bytes_total != model.bytes_total:
            fail(f"width {w}: measured {counters.bytes_total} B != "
                 f"model {model.bytes_total} B")
        if counters.flops != model.flops:
            fail(f"width {w}: measured {counters.flops} F != "
                 f"model {model.flops} F")
        bpr = counters.bytes_total / w
        per_request.append(bpr)
        # the obs distribution must agree with the raw counters
        dist = srv.metrics.distributions.get("serve.bytes_per_request")
        if dist is None or dist.count != 1 or dist.max != bpr:
            fail(f"width {w}: serve.bytes_per_request distribution "
                 f"disagrees with counters")
        print(f"  {w:>6} {counters.bytes_total:>15,} "
              f"{model.bytes_total:>13,} {bpr:>12,.0f} "
              f"{counters.code_balance:>7.3f}")
        # bitwise parity of every coalesced request vs its solo solve
        for s, t in enumerate(tickets):
            if s not in solo_mu:
                solver = KPMSolver.from_spec(
                    SPEC, M, 1, scale_seed=0, seed=s, backend=backend
                )
                solo_mu[s] = solver.moments()
            if not np.array_equal(t.result().moments, solo_mu[s]):
                fail(f"width {w}: seed {s} moments != solo solve (fp64 "
                     f"bitwise)")
        # a repeat query must be served from cache with zero traffic
        before = counters.bytes_total
        t_hit = srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=0,
                                   kernel="lorentz"))
        if t_hit.via != "cache":
            fail(f"width {w}: repeat query not served from cache "
                 f"(via={t_hit.via!r})")
        if counters.bytes_total != before:
            fail(f"width {w}: cache hit charged traffic")
    falling = all(b < a for a, b in zip(per_request, per_request[1:]))
    if not falling:
        fail(f"bytes per request not strictly decreasing: {per_request}")
    else:
        print(f"  bytes/request strictly decreasing "
              f"({per_request[0]:,.0f} -> {per_request[-1]:,.0f}, "
              f"x{per_request[0] / per_request[-1]:.2f} amortization)")


def main() -> int:
    backends = ["numpy"]
    if native_available():
        backends.append("native")
    else:
        print("note: native backend unavailable, checking numpy only")
    for b in backends:
        get_backend(b)  # fail loudly if the name is wrong
        check_backend(b)
    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall serve traffic checks passed (measured == Eq. 5-7 model, "
          "exactly)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
