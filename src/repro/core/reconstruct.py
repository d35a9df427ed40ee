"""Reconstruction of spectral quantities from Chebyshev moments.

Given kernel-damped moments ``g_m mu_m``, the expansion of the spectral
density in the Chebyshev variable x in [-1, 1] is

    f(x) = (1 / (pi sqrt(1 - x^2))) * [ g_0 mu_0 + 2 sum_{m>=1} g_m mu_m T_m(x) ].

This module evaluates that series (directly, or via a DCT-III on Chebyshev
nodes) and converts back to physical energies through the spectral map,
``rho(E) = a * f(a (E - b))``. It is the "second computationally
inexpensive step, independent of the KPM iteration" of paper Section II.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.damping import get_kernel
from repro.core.scaling import SpectralScale
from repro.util.errors import ShapeError
from repro.util.validation import check_positive


def chebyshev_grid(n_points: int) -> np.ndarray:
    """Chebyshev nodes x_k = cos(pi (k + 1/2) / K), ascending.

    These are the natural evaluation abscissae for the DCT-based fast
    reconstruction; they also cluster near the interval edges where the
    1/sqrt(1-x^2) weight varies fastest.
    """
    check_positive("n_points", n_points)
    k = np.arange(n_points)
    return np.cos(np.pi * (n_points - 0.5 - k) / n_points)


def reconstruct_chebyshev(
    moments: np.ndarray,
    x: np.ndarray,
    kernel: str = "jackson",
) -> np.ndarray:
    """Evaluate the damped Chebyshev series at arbitrary x in (-1, 1).

    Parameters
    ----------
    moments:
        (M,) or (..., M) moment array; reconstruction maps the last axis.
    x:
        Evaluation points strictly inside (-1, 1).
    kernel:
        Damping kernel name ('jackson', 'lorentz', 'dirichlet').

    Returns
    -------
    Density in the Chebyshev variable, shape ``moments.shape[:-1] + x.shape``.
    """
    moments = np.asarray(moments)
    x = np.asarray(x, dtype=float)
    if np.any((x <= -1.0) | (x >= 1.0)):
        raise ValueError("evaluation points must lie strictly inside (-1, 1)")
    m_count = moments.shape[-1]
    g = get_kernel(kernel, m_count)
    damped = moments * g
    theta = np.arccos(x)
    # T_m(x) = cos(m * arccos x): build (M, P) table once
    m_arr = np.arange(m_count)
    t_table = np.cos(np.outer(m_arr, theta))
    series = 2.0 * np.tensordot(damped, t_table, axes=([-1], [0]))
    series -= damped[..., 0][..., None] * t_table[0]  # m=0 term has weight 1
    return series / (np.pi * np.sqrt(1.0 - x**2))


@functools.lru_cache(maxsize=16)
def _dct3_twiddle(n: int) -> np.ndarray:
    """``2n exp(i pi m / 2n)``, m < n: turns a DCT-III into an inverse FFT."""
    twiddle = 2 * n * np.exp(0.5j * np.pi * np.arange(n) / n)
    twiddle.setflags(write=False)  # one array is handed to every caller
    return twiddle


def dct3(coeff: np.ndarray) -> np.ndarray:
    """Type-III DCT of the last axis (SciPy's unnormalised convention).

    ``y_k = c_0 + 2 sum_{m>=1} c_m cos(pi m (k + 1/2) / n)``.  With
    ``z_m = c_m exp(i pi m / 2n)`` this is ``c_0 + 2 Re sum_{m>=1} z_m
    exp(2 pi i m k / 2n)``: the first n outputs of a length-2n inverse
    real FFT of ``2n z`` (the half-spectrum padded with a zero Nyquist
    term; the imaginary part of ``z_0`` is none).  NumPy only — a native
    ``dos`` run imports no SciPy.
    """
    n = coeff.shape[-1]
    return np.fft.irfft(coeff * _dct3_twiddle(n), n=2 * n)[..., :n]


def reconstruct_chebyshev_dct(
    moments: np.ndarray,
    n_points: int,
    kernel: str = "jackson",
) -> tuple[np.ndarray, np.ndarray]:
    """Fast reconstruction on the Chebyshev grid via DCT-III.

    Evaluating ``sum_m c_m cos(m theta_k)`` on ``theta_k = pi(k+1/2)/K``
    is exactly a type-III discrete cosine transform, turning the O(M*P)
    direct sum into O(P log P). Returns ``(x_grid, density)`` with the
    grid ascending; the moment array may be batched on leading axes.
    """
    moments = np.asarray(moments)
    m_count = moments.shape[-1]
    if n_points < m_count:
        raise ValueError(
            f"n_points ({n_points}) must be >= number of moments ({m_count}) "
            "to resolve the highest Chebyshev harmonic"
        )
    g = get_kernel(kernel, m_count)
    damped = moments * g
    coeff = np.zeros(moments.shape[:-1] + (n_points,))
    coeff[..., :m_count] = damped.real
    # DCT-III computes y_k = x_0 + 2 sum_{m>=1} x_m cos(m theta_k) with
    # theta_k = pi (k + 1/2) / K — exactly g_0 mu_0 + 2 sum g_m mu_m T_m.
    series = dct3(coeff)
    x_desc = np.cos(np.pi * (np.arange(n_points) + 0.5) / n_points)
    density_desc = series / (np.pi * np.sqrt(1.0 - x_desc**2))
    return x_desc[::-1].copy(), density_desc[..., ::-1].copy()


def reconstruct_dos(
    moments: np.ndarray,
    scale: SpectralScale,
    energies: np.ndarray | None = None,
    n_points: int = 1024,
    kernel: str = "jackson",
    *,
    use_dct: bool | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct rho(E) on physical energies.

    Parameters
    ----------
    moments:
        (M,) trace moments (mu_0 = N reproduces a DOS integrating to N;
        divide by N beforehand for a normalized density).
    scale:
        The spectral map used during moment computation.
    energies:
        Explicit evaluation energies; if ``None``, the Chebyshev grid
        mapped into the spectral window is used (and the DCT fast path
        becomes available).
    n_points:
        Grid size when ``energies`` is None.
    use_dct:
        Force (True) or forbid (False) the DCT path; default: automatic
        (DCT whenever evaluating on the implicit Chebyshev grid).

    Returns
    -------
    (energies, rho):
        ``rho`` has the same leading batch axes as ``moments``.
    """
    moments = np.asarray(moments)
    if moments.ndim < 1:
        raise ShapeError("moments must have at least one axis")
    if energies is None:
        if use_dct is None or use_dct:
            x, density = reconstruct_chebyshev_dct(moments, n_points, kernel)
        else:
            x = chebyshev_grid(n_points)
            density = reconstruct_chebyshev(moments, x, kernel)
        return scale.from_unit(x), density * scale.density_jacobian()
    if use_dct:
        raise ValueError("use_dct=True requires energies=None (Chebyshev grid)")
    energies = np.asarray(energies, dtype=float)
    x = scale.to_unit(energies)
    inside = (x > -1.0) & (x < 1.0)
    density = np.zeros(moments.shape[:-1] + energies.shape)
    if np.any(inside):
        density[..., inside] = reconstruct_chebyshev(moments, x[inside], kernel)
    return energies, density * scale.density_jacobian()


def integrate_density(
    energies: np.ndarray, rho: np.ndarray, e_lo: float | None = None, e_hi: float | None = None
) -> float:
    """Trapezoidal integral of a reconstructed density over [e_lo, e_hi].

    With trace moments (mu_0 = N) the full integral approximates N; over a
    sub-interval it estimates the eigenvalue count — the paper's
    "eigenvalue counting for predetermination of sub-space sizes" use case
    (Refs. [8], [22]).
    """
    energies = np.asarray(energies, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if energies.shape != rho.shape[-len(energies.shape):]:
        raise ShapeError("energies and rho grids are inconsistent")
    lo = energies[0] if e_lo is None else e_lo
    hi = energies[-1] if e_hi is None else e_hi
    if hi < lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    mask = (energies >= lo) & (energies <= hi)
    if mask.sum() < 2:
        return 0.0
    return float(np.trapezoid(rho[..., mask], energies[mask], axis=-1))
