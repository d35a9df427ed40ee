"""Deterministic random-number-generator helpers.

KPM's stochastic trace estimation needs R independent random initial
vectors (paper Section II).  The ensembles are drawn from NumPy
generators, created here so that every call site makes them the same
way.
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
    rng: np.random.Generator, n: int, dtype=np.complex128
) -> np.ndarray:
    """Draw one random-phase vector ``exp(i*phi)`` with iid phases.

    Random-phase vectors are the standard choice for KPM stochastic trace
    estimation (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)): each entry
    has unit modulus, giving ``E[v v^H] = Identity`` and minimal estimator
    variance among rotation-invariant unit-modulus ensembles.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.exp(1j * phases).astype(dtype)


def rademacher_vector(
    rng: np.random.Generator, n: int, dtype=np.complex128
) -> np.ndarray:
    """Draw one Rademacher (+/-1) vector, cast to ``dtype``."""
    return (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(dtype)


def gaussian_vector(
    rng: np.random.Generator, n: int, dtype=np.complex128
) -> np.ndarray:
    """Draw one complex standard-normal vector (unit component variance)."""
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return (v / np.sqrt(2.0)).astype(dtype)
    return rng.normal(size=n).astype(dtype)
