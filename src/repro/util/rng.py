"""Deterministic random-number-generator helpers.

KPM's stochastic trace estimation needs R independent random initial
vectors (paper Section II).  The ensembles are drawn from NumPy
generators, created here so that every call site makes them the same
way.  Each ensemble draw returns one vector of length ``n`` or, given
``r``, a C-contiguous (n, r) block whose column ``i`` is, bit for bit,
the vector the ``i``-th of ``r`` successive one-vector draws on the same
generator would return: a generator call of shape (k, n) yields k such
vectors, so a block takes one call (the phases take one per 1 MiB).
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged), so public APIs can take a single
    ``seed`` argument of any of those kinds.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_phase_vector(
    rng: np.random.Generator, n: int, r: int | None = None,
    dtype=np.complex128,
) -> np.ndarray:
    """Draw one random-phase vector ``exp(i*phi)`` with iid phases.

    Random-phase vectors are the standard choice for KPM stochastic trace
    estimation (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)): each entry
    has unit modulus, giving ``E[v v^H] = Identity`` and minimal estimator
    variance among rotation-invariant unit-modulus ensembles.
    """
    v = np.empty(n if r is None else (n, r), dtype=np.complex128)
    block = v.reshape(n, -1)
    # 1 MiB of phases per call: an (r, n) draw would be the peak of a solve
    step = max(1, (1 << 17) // n)
    for lo in range(0, block.shape[1], step):
        cols = block[:, lo:lo + step]
        phases = rng.uniform(0.0, 2.0 * np.pi, size=cols.shape[::-1])
        np.multiply(phases.T, 1j, out=cols)
    return np.exp(v, out=v).astype(dtype, copy=False)


def rademacher_vector(
    rng: np.random.Generator, n: int, r: int | None = None,
    dtype=np.complex128,
) -> np.ndarray:
    """Draw one Rademacher (+/-1) vector, cast to ``dtype``."""
    signs = 2.0 * rng.integers(0, 2, size=n if r is None else (r, n)) - 1.0
    return np.ascontiguousarray(signs.T, dtype=dtype)


def gaussian_vector(
    rng: np.random.Generator, n: int, r: int | None = None,
    dtype=np.complex128,
) -> np.ndarray:
    """Draw one complex standard-normal vector (unit component variance)."""
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        # a vector's n real parts, then its n imaginary parts
        g = rng.normal(size=(2, n) if r is None else (r, 2, n))
        v = (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2.0)
    else:
        v = rng.normal(size=n if r is None else (r, n))
    return np.ascontiguousarray(v.T, dtype=dtype)
