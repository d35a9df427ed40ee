"""Argument-validation helpers producing consistent error messages."""

from __future__ import annotations

import numpy as np

from repro.util.errors import ShapeError


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_in_range(name: str, value, lo, hi) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_vector(name: str, v: np.ndarray, n: int) -> np.ndarray:
    """Validate that ``v`` is a length-``n`` vector; return it.

    Complex storage is 1-D of length ``n``; float16 half-complex storage
    carries a trailing (re, im) pair axis and must be ``(n, 2)``.
    """
    v = np.asarray(v)
    if v.dtype == np.float16:
        if v.ndim != 2 or v.shape != (n, 2):
            raise ShapeError(
                f"{name} must be float16 (re, im) pairs of shape ({n}, 2), "
                f"got shape {v.shape}"
            )
        return v
    if v.ndim != 1 or v.shape[0] != n:
        raise ShapeError(f"{name} must be a 1-D array of length {n}, got shape {v.shape}")
    return v


def check_block_vector(name: str, v: np.ndarray, n: int, r: int | None = None) -> np.ndarray:
    """Validate that ``v`` is an (n, R) row-major block vector; return it.

    The paper stores block vectors interleaved (row-major) so that the R
    entries of one matrix row are contiguous (Section IV-A). We enforce
    C-contiguity here because the fused kernels rely on that layout for
    their locality advantage.  float16 half-complex storage carries a
    trailing (re, im) pair axis: shape ``(n, R, 2)``.
    """
    v = np.asarray(v)
    pair = 1 if v.dtype == np.float16 else 0
    if v.ndim != 2 + pair or v.shape[0] != n or (pair and v.shape[-1] != 2):
        raise ShapeError(
            f"{name} must be a {'(n, R, 2) float16 pair' if pair else '2-D (n, R)'}"
            f" block vector with n={n}, got shape {v.shape}"
        )
    if r is not None and v.shape[1] != r:
        raise ShapeError(f"{name} must have R={r} columns, got {v.shape[1]}")
    if not v.flags.c_contiguous:
        raise ShapeError(f"{name} must be C-contiguous (row-major / interleaved)")
    return v
