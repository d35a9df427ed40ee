"""``KPMSolver.dos`` re-executed as its constituent public calls, under spans.

Kept apart from ``harness.py`` because ``cli_walk.py`` imports it in the
fresh process it times, where every imported module is unattributed time.
"""

from __future__ import annotations


def walk_solve(rec, bk, A, scale, n_moments: int, seed: int, r: int,
               counters=None):
    """``KPMSolver.dos`` re-executed as its constituent public calls.

    Every call into a layer is wrapped in a span; the glue between them
    (what ``compute_eta`` itself does) is the ``solve`` span's self time
    and counts for ``core``.  Returns ``(moments, energies, rho)``.
    """
    import numpy as np
    from repro.core.moments import eta_to_moments
    from repro.core.reconstruct import reconstruct_dos
    from repro.core.stochastic import make_block_vector
    from repro.sparse.fused import col_dots
    from repro.util.counters import NULL_COUNTERS

    counters = NULL_COUNTERS if counters is None else counters
    a, b = scale.a, scale.b
    with rec.span("solve", "core"):
        with rec.span("make_block_vector", "core"):
            block = make_block_vector(A.n_rows, r, "phase", seed)
        with rec.span("plan", "backend"):
            plan = bk.plan(A, r)
        eta = np.empty((r, n_moments), dtype=np.complex128)
        V = block.astype(np.complex128, copy=True)
        with rec.span("spmmv", "backend"):
            W = bk.spmmv(A, V, counters=counters)
        np.multiply(V, b, out=plan.work_block)
        W -= plan.work_block
        W *= a
        eta[:, 0], eta[:, 1] = col_dots(V, W)
        for m in range(1, n_moments // 2):
            V, W = W, V
            with rec.span("aug_spmmv_step", "backend"):
                ee, eo = bk.aug_spmmv_step(A, V, W, a, b, plan=plan,
                                           counters=counters)
            eta[:, 2 * m] = ee
            eta[:, 2 * m + 1] = eo
        with rec.span("eta_to_moments", "core"):
            mu = eta_to_moments(eta).mean(axis=0).real
        with rec.span("reconstruct_dos", "core"):
            e_grid, rho = reconstruct_dos(
                mu, scale, n_points=max(2 * n_moments, 256), kernel="jackson")
    return mu, e_grid, rho
