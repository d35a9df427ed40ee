"""KPM spectral filters: polynomial window projectors.

The eigenvalue-counting application (paper Refs. [8], [22]) pairs with a
second use of the same Chebyshev machinery: approximating the spectral
projector ``P = chi_[E1,E2](H)`` as a damped polynomial in ``H~`` and
applying it to block vectors — the filtering step of FEAST-style
subspace eigensolvers, whose subspace size KPM-DOS predicts.

The Chebyshev coefficients of the characteristic function of
``[x1, x2] in (-1, 1)`` are analytic:

    c_0 = (arccos x1 - arccos x2) / pi,
    c_m = 2 (sin(m arccos x1) - sin(m arccos x2)) / (m pi),

damped with a Jackson kernel against Gibbs ringing. Applying the filter
costs ``order`` SpMMVs over the block — the identical data-parallel
kernel as KPM stage 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.damping import get_kernel
from repro.core.recurrence import chebyshev_series
from repro.core.scaling import SpectralScale
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.validation import check_positive


def window_coefficients(
    x1: float, x2: float, order: int, kernel: str = "jackson"
) -> np.ndarray:
    """Damped Chebyshev coefficients of chi_[x1, x2] on (-1, 1).

    The returned array c satisfies
    ``chi(x) ~= c_0 + 2 sum_{m>=1} c_m T_m(x)`` after damping.
    """
    check_positive("order", order)
    if not -1.0 < x1 < x2 < 1.0:
        raise ValueError(
            f"need -1 < x1 < x2 < 1, got [{x1}, {x2}]"
        )
    t1, t2 = np.arccos(x1), np.arccos(x2)
    m = np.arange(1, order)
    c = np.empty(order)
    c[0] = (t1 - t2) / np.pi
    c[1:] = (np.sin(m * t1) - np.sin(m * t2)) / (m * np.pi)
    return c * get_kernel(kernel, order)


def evaluate_window(
    coeffs: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Scalar evaluation of the filter polynomial (tests / diagnostics)."""
    x = np.asarray(x, dtype=float)
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    m = np.arange(len(coeffs))
    t_table = np.cos(np.outer(m, theta))
    weights = np.full(len(coeffs), 2.0)
    weights[0] = 1.0
    return np.tensordot(coeffs * weights, t_table, axes=([0], [0]))


def apply_filter(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    block: np.ndarray,
    e_lo: float,
    e_hi: float,
    order: int = 512,
    kernel: str = "jackson",
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """Apply the polynomial window projector to a block of vectors.

    Returns ``P_approx @ block`` where P_approx ~ chi_[e_lo, e_hi](H).
    Components belonging to eigenvalues inside the window survive with
    weight ~1, outside decay to ~0 over the Jackson resolution
    ``~ spectral width * pi / order`` around the window edges.
    """
    if e_hi <= e_lo:
        raise ValueError(f"empty window [{e_lo}, {e_hi}]")
    single = block.ndim == 1
    v = np.ascontiguousarray(
        block[:, None] if single else block, dtype=DTYPE
    )
    x1 = float(np.clip(scale.to_unit(e_lo), -0.999999, 0.999999))
    x2 = float(np.clip(scale.to_unit(e_hi), -0.999999, 0.999999))
    if x2 <= x1:
        raise ValueError(
            f"window [{e_lo}, {e_hi}] collapses under the spectral map"
        )
    weights = 2.0 * window_coefficients(x1, x2, order, kernel)
    weights[0] /= 2.0

    out = chebyshev_series(H, scale.a, scale.b, v, weights, counters)
    return out[:, 0] if single else out


def filtered_subspace(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    e_lo: float,
    e_hi: float,
    n_vectors: int,
    *,
    order: int = 512,
    seed: int | None = None,
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """Orthonormal basis of the filtered random subspace.

    One FEAST-style filtering round: filter ``n_vectors`` random vectors
    through the window and orthonormalize. With ``n_vectors`` comfortably
    above the KPM eigencount of the window, the span captures the target
    eigenspace. Returns an orthonormal (N, n_vectors) block.
    """
    from repro.core.stochastic import make_block_vector

    check_positive("n_vectors", n_vectors)
    block = make_block_vector(H.n_rows, n_vectors, seed=seed)
    filtered = apply_filter(
        H, scale, block, e_lo, e_hi, order=order, counters=counters
    )
    q, _ = np.linalg.qr(filtered)
    return np.ascontiguousarray(q)
