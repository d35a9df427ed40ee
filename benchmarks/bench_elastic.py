"""Elastic rebalancing under a skewed rank: modeled win, measured cost.

Two halves, matching the two things elasticity changes:

1. **Modeled win** — a deterministic per-row timer makes rank 0 run 4x
   slower (the shared-tenant scenario from ROADMAP item 5).  The sim
   engine feeds that timer to the rebalance monitor exactly as the mp
   engine feeds measured busy seconds, so the busy times the report
   records at each boundary let us integrate the *modeled* wall clock —
   max over ranks per window — for a static partition vs. an elastic
   run that shifts rows off the slow rank.  This is the honest way to
   show the win on a CI box: a real ``slow`` fault injects a
   row-count-independent sleep, so moving rows would not move the
   measured clock at all.
2. **Measured cost** — on a *balanced* run, elasticity is pure
   overhead: a decision at every boundary (busy seconds, monitor
   bookkeeping) inside the one run.  We clock a plain run against the
   same run under ``elastic_eta`` and record the ratio.

Both halves assert the invariant that makes any of this deployable:
every eta is bitwise identical to the uninterrupted serial reference.  Writes ``results/BENCH_elastic.json``.
"""

import json
import time

import numpy as np
import pytest

from _support import RESULTS_DIR, emit, format_table, warn_if_single_core
from repro.core.moments import compute_eta
from repro.core.scaling import SpectralScale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.elastic import RebalancePolicy, elastic_eta
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.partition import RowPartition
from repro.physics import build_topological_insulator

NX, NZ = 24, 8        # N = 18,432 rows
R_BLOCK = 4
M = 64                # 32 inner iterations: room for several boundaries
ALIGN = 64            # ranks start on eta blocks
WORKERS = 3
SKEW = 4.0            # rank 0 runs this many times slower per row
REPS = 3


@pytest.fixture(scope="module")
def system():
    h, _ = build_topological_insulator(NX, NX, NZ)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    block = make_block_vector(h.n_rows, R_BLOCK, seed=2)
    ref = compute_eta(h, scale, M, block)
    return h, scale, block, ref


def skewed_timer(rank: int, n_rows: int) -> float:
    return n_rows * (SKEW if rank == 0 else 1.0)


def modeled_seconds(rep, n_rows: int) -> float:
    """Integrate the timer model: each window takes as long as its
    slowest rank — the report's ``busy`` up to each boundary (it already
    totals the window), then the last window's on the final weights."""
    last = RowPartition.from_weights(n_rows, rep.final_weights,
                                     align=ALIGN).counts()
    return sum(max(b.busy) for b in rep.boundaries if b.busy) + \
        max(skewed_timer(p, int(c)) for p, c in enumerate(last))


def test_elastic_bench_json(benchmark, system):
    h, scale, block, ref = system
    cores = warn_if_single_core("bench_elastic")
    pol = RebalancePolicy(interval=8)

    # -- half 1: modeled win under a 4x-skewed rank (sim timer) --------
    static_pol = RebalancePolicy(interval=8,
                                 threshold=float("inf"))  # never trips
    eta_static, rep_static = elastic_eta(
        h, scale, M, block, n_workers=WORKERS, policy=static_pol,
        engine="sim", timer=skewed_timer,
    )
    eta_reb, rep_reb = elastic_eta(
        h, scale, M, block, n_workers=WORKERS, policy=pol,
        engine="sim", timer=skewed_timer,
    )
    assert np.array_equal(eta_static, ref)
    assert np.array_equal(eta_reb, ref)
    assert rep_reb.rebalances >= 1 and rep_static.rebalances == 0
    t_static = modeled_seconds(rep_static, h.n_rows)
    t_reb = modeled_seconds(rep_reb, h.n_rows)
    assert t_reb < t_static, (
        f"rebalancing did not reduce modeled time "
        f"({t_static:.0f} -> {t_reb:.0f} row-units)"
    )
    rows0 = [b.offsets[1] - b.offsets[0] for b in rep_reb.boundaries]

    # -- half 2: measured overhead on a balanced run (mp engine) -------
    partw = RowPartition.equal(h.n_rows, WORKERS, align=ALIGN)
    plain_best = elastic_best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        eta_plain = distributed_eta(h, partw, scale, M, block,
                                    SimWorld(WORKERS))
        plain_best = min(plain_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        eta_elastic, rep = elastic_eta(
            h, scale, M, block, n_workers=WORKERS, policy=pol,
            engine="sim",
        )
        elastic_best = min(elastic_best, time.perf_counter() - t0)
    assert np.array_equal(eta_plain, ref)
    assert np.array_equal(eta_elastic, ref)
    overhead = elastic_best / plain_best

    payload = {
        "bench": "elastic",
        "n_rows": h.n_rows,
        "nnz": h.nnz,
        "r_block": R_BLOCK,
        "n_moments": M,
        "align": ALIGN,
        "workers": WORKERS,
        "skew": SKEW,
        "cpu_count": cores,
        "single_core_caveat": cores == 1,
        "modeled": {
            "unit": "row-units of the slowest rank, summed over windows",
            "static_partition": t_static,
            "with_rebalancing": t_reb,
            "speedup": t_static / t_reb,
            "rebalances": rep_reb.rebalances,
            "slow_rank_rows_per_window": rows0,
            "imbalance_first": rep_reb.boundaries[0].imbalance,
            "imbalance_last": rep_reb.boundaries[-1].imbalance,
        },
        "measured_balanced_overhead": {
            "plain_seconds": plain_best,
            "elastic_seconds": elastic_best,
            "ratio": overhead,
            "boundaries": len(rep.boundaries),
        },
        "eta_bitwise_everywhere": True,  # asserted above
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_elastic.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        ["static", f"{t_static:.0f}", 1.0,
         f"{rep_static.boundaries[0].imbalance:.2f}", "yes"],
        ["rebalanced", f"{t_reb:.0f}", t_static / t_reb,
         f"{rep_reb.boundaries[-1].imbalance:.2f}", "yes"],
    ]
    emit(
        "elastic",
        format_table(
            ["partition", "modeled time", "speedup", "imbalance", "bitwise"],
            rows,
        )
        + f"\n(rank 0 skewed {SKEW:g}x, {WORKERS} workers, "
        f"N = {h.n_rows:,} rows, M = {M}; balanced-run elastic overhead "
        f"ratio {overhead:.2f})",
    )
