"""Ablation: SELL-C-sigma chunk height C and sorting scope sigma.

The unified format of the paper's Ref. [13]: larger C suits wider SIMD
but inflates zero fill-in when row lengths vary inside a chunk; sorting
(sigma > C) restores the padding efficiency beta. The TI matrix has
nearly uniform rows (11-13 nnz), so beta stays high; a synthetic
power-law matrix shows the full effect.

Kernel runs use the layout-faithful pure-NumPy SELL reference
(:mod:`repro.sparse.sell_kernels`) — the backends' compiled products are
format-agnostic.
"""

import numpy as np
import pytest

from _support import emit, format_table
from repro.physics import build_topological_insulator
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.sparse.sell_kernels import sell_spmmv_chunked


def powerlaw_matrix(n=4096, seed=0):
    """Rows with power-law lengths — worst case for chunk padding."""
    rng = np.random.default_rng(seed)
    lengths = np.minimum((rng.pareto(1.5, size=n) + 1).astype(int) * 2, n // 4)
    rows = np.repeat(np.arange(n), lengths)
    cols = rng.integers(0, n, size=rows.size)
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    return CSRMatrix.from_coo(rows, cols, vals, (n, n))


CONFIGS = [(1, 1), (4, 1), (32, 1), (32, 128), (32, 4096), (256, 4096)]


def test_sell_beta_sweep(benchmark):
    mat = powerlaw_matrix()
    ti, _ = build_topological_insulator(8, 8, 4)

    def build():
        rows = []
        for c, sigma in CONFIGS:
            s_pl = SellMatrix(mat, chunk_height=c, sigma=max(sigma, 1))
            s_ti = SellMatrix(ti, chunk_height=c, sigma=max(sigma, 1))
            rows.append([f"C={c}, sigma={sigma}", s_pl.beta, s_ti.beta])
        return rows

    rows = benchmark(build)
    text = format_table(
        ["config", "beta (power-law rows)", "beta (TI matrix)"], rows
    )
    text += (
        "\n\nbeta = nnz / stored slots. Sorting (sigma >> C) recovers the"
        "\npadding lost to large C; the TI stencil is nearly uniform so"
        "\nits beta barely moves — one reason CRS/SELL-1 suffices for the"
        "\npaper's SpMMV (Section IV-A)."
    )
    emit("ablation_sell", text)

    by = {r[0]: r for r in rows}
    assert by["C=1, sigma=1"][1] == pytest.approx(1.0)  # CRS: no padding
    # big unsorted chunks waste slots on power-law rows ...
    assert by["C=32, sigma=1"][1] < 0.6
    # ... and sorting recovers most of it
    assert by["C=32, sigma=4096"][1] > by["C=32, sigma=1"][1] * 1.5
    # TI rows are near-uniform: beta stays high even unsorted
    assert by["C=32, sigma=1"][2] > 0.85


def test_sell_padding_costs_flops(benchmark):
    """Charged traffic/flops include the zero fill-in, so a badly padded
    SELL matrix is measurably more expensive per multiplication."""
    from repro.util.counters import PerfCounters

    mat = powerlaw_matrix(n=2048)
    x = np.ascontiguousarray(
        np.ones((2048, 4), dtype=complex)
    )

    def run():
        out = {}
        for c, sigma in ((1, 1), (32, 1), (32, 2048)):
            s = SellMatrix(mat, chunk_height=c, sigma=sigma)
            counters = PerfCounters()
            sell_spmmv_chunked(s, x, counters=counters)
            out[(c, sigma)] = (s.beta, counters.flops)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"C={c}, sigma={s}", beta, flops]
        for (c, s), (beta, flops) in data.items()
    ]
    emit(
        "ablation_sell_flops",
        format_table(["config", "beta", "charged flops"], rows),
    )
    assert data[(32, 1)][1] > data[(1, 1)][1]  # padding costs flops
    assert data[(32, 2048)][1] < data[(32, 1)][1]  # sorting recovers
