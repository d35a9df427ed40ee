"""Stochastic estimators: random block vectors, LDOS.

KPM approximates traces by averaging over R random vectors,
``tr[A] ~= (1/R) sum_r <v_r|A|v_r>`` (paper Section II). This module
provides the vector ensembles and the stochastic *diagonal* estimator used for site-resolved LDOS maps
(paper Fig. 2, left panel).
"""

from __future__ import annotations

import numpy as np

from repro.core.recurrence import Recurrence
from repro.core.scaling import SpectralScale
from repro.obs.metrics import NULL_METRICS
from repro.sparse.backend import get_backend
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.errors import ShapeError
from repro.util.knobs import ExecConfig
from repro.util.precision import get_precision
from repro.util.rng import (
    gaussian_vector,
    make_rng,
    rademacher_vector,
    random_phase_vector,
)
from repro.util.validation import check_positive

_ENSEMBLES = {
    "phase": random_phase_vector,
    "rademacher": rademacher_vector,
    "gaussian": gaussian_vector,
}


def make_block_vector(
    n: int,
    r: int,
    kind: str = "phase",
    seed: int | None | np.random.Generator = None,
    *,
    config: ExecConfig | None = None,
) -> np.ndarray:
    """Draw an (n, R) C-contiguous block of random start vectors.

    ``kind`` selects the ensemble: ``'phase'`` (random complex phases —
    the KPM standard, E[v v^H] = Identity with minimal variance),
    ``'rademacher'`` (+/-1), or ``'gaussian'``.  A phase block's
    ``exp(i phi)`` runs on ``config``'s backend and team, the same bits.
    """
    check_positive("n", n)
    check_positive("r", r)
    try:
        draw = _ENSEMBLES[kind]
    except KeyError:
        raise ValueError(
            f"unknown ensemble {kind!r}; choose from {sorted(_ENSEMBLES)}"
        ) from None
    if kind != "phase":
        return draw(make_rng(seed), n, r)
    cfg = ExecConfig.of(config)
    bk, team = get_backend(cfg.backend), cfg.kernel_threads(work=n * r)
    return draw(make_rng(seed), n, r, fill=lambda p, out: bk.cis(p, out, team))


def unit_block_vector(n: int, sites: np.ndarray) -> np.ndarray:
    """Block of Cartesian unit vectors e_i for the given row indices.

    Used for *exact* (non-stochastic) LDOS on small systems and in tests
    as the reference for the stochastic diagonal estimator.
    """
    sites = np.asarray(sites, dtype=np.int64)
    if sites.ndim != 1:
        raise ShapeError(f"sites must be 1-D, got shape {sites.shape}")
    if sites.size and (sites.min() < 0 or sites.max() >= n):
        raise ValueError("site index out of range")
    block = np.zeros((n, sites.size), dtype=DTYPE)
    block[sites, np.arange(sites.size)] = 1.0
    return block


def ldos_moments(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    rows: np.ndarray,
    counters=NULL_METRICS,
    *,
    config: ExecConfig | None = None,
    **knobs,
) -> np.ndarray:
    """Stochastic diagonal (LDOS) moments for selected matrix rows.

    Estimates ``mu_m[i] = <i|T_m(H~)|i>`` via the diagonal estimator
    ``E_r[ conj(v_r[i]) * (T_m(H~) v_r)[i] ]``, valid for ensembles with
    independent zero-mean entries (phase/rademacher/gaussian). Unlike the
    trace computation, all M moments need their own |nu_m>, so this runs
    M - 1 (not M/2) blocked matrix applications — the doubling trick only
    exists for the *global* scalar products.

    With ``start_block`` = unit vectors on ``rows`` (R == len(rows)), the
    same loop returns the *exact* LDOS instead (used in tests).

    ``config``/knobs are :class:`~repro.util.knobs.ExecConfig`'s kernel
    knobs.  A narrow ``precision`` stores the block vectors as complex64
    (``'fp32'``) or float16 pairs (``'fp16v'``, via a per-step decode
    pass: the SpMMV streams the half layout, the recurrence
    recombination runs in fp32 and is rounded back to storage); the
    per-site products are accumulated in fp64 in every profile.

    Returns real (len(rows), M).
    """
    if n_moments < 2:
        raise ValueError(f"n_moments must be >= 2, got {n_moments}")
    cfg = ExecConfig.of(config, knobs)
    prec = get_precision(cfg.precision)
    rows = np.asarray(rows, dtype=np.int64)
    rec = Recurrence(H, scale.a, scale.b, start_block.shape[1], config=cfg,
                     sink=counters)
    rec.load(start_block)
    exact = _is_unit_block(start_block, rows)
    diag = np.arange(rows.size)
    out = np.zeros((rows.size, n_moments))
    for m, nu in enumerate(rec.iterates(n_moments)):
        # gather-then-widen: only the queried rows are decoded, and the
        # product accumulation is fp64 in every profile
        g = prec.decode(nu[rows]).astype(DTYPE, copy=False)
        if m == 0:
            conj0 = np.conj(g)
        prod = conj0 * g
        out[:, m] = prod[diag, diag].real if exact else prod.mean(axis=1).real
    return out


def _is_unit_block(block: np.ndarray, rows: np.ndarray) -> bool:
    """Detect the exact-LDOS case: block == unit vectors on ``rows``."""
    if block.shape[1] != rows.size:
        return False
    if not np.allclose(block[rows, np.arange(rows.size)], 1.0):
        return False
    return np.count_nonzero(block) == rows.size
