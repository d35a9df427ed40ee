"""Chebyshev moment computation — the paper's three optimization stages.

All engines compute the same mathematical object: for each stochastic
start vector |v_r> the sequence

    eta_0 = <nu_0|nu_0>,  eta_1 = <nu_1|nu_0>,
    eta_2m = <nu_m|nu_m>,  eta_2m+1 = <nu_{m+1}|nu_m>,   m = 1 .. M/2-1,

where |nu_m> = T_m(H~)|nu_0> via the two-term recurrence Eq. (3). The
doubling identities 2 T_m^2 = T_0 + T_2m and 2 T_m T_{m+1} = T_1 + T_{2m+1}
then yield the full set of M Chebyshev moments from M/2 matrix
applications (:func:`eta_to_moments`).

The engines differ only in *implementation* — exactly the paper's point:

* ``NAIVE``     — paper Fig. 3: spmv + axpy + scal + axpy + nrm2 + dot.
* ``AUG_SPMV``  — paper Fig. 4 (stage 1): one fused kernel per iteration.
* ``AUG_SPMMV`` — paper Fig. 5 (stage 2): all R vectors blocked, one
  matrix traversal per iteration.

Orthogonally, ``backend`` selects *who executes* the kernels — the
NumPy reference or the compiled native kernels — through
:mod:`repro.sparse.backend`.  The loop itself is written once, in
:class:`repro.core.recurrence.Recurrence`: its workspaces are hoisted
into a per-(matrix, R) plan, so the M/2 iterations run allocation-free —
the nu_m / nu_{m+1} buffers swap by reference and every kernel writes
into preallocated storage.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.checkpoint import RunContext, run_serial
from repro.core.recurrence import Recurrence, check_moments
from repro.core.scaling import SpectralScale
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.knobs import ExecConfig
from repro.util.precision import get_precision
from repro.util.validation import check_block_vector


class MomentEngine(str, Enum):
    """Which implementation computes the moments (identical results)."""

    NAIVE = "naive"
    AUG_SPMV = "aug_spmv"
    AUG_SPMMV = "aug_spmmv"


def compute_eta(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    engine: MomentEngine | str = MomentEngine.AUG_SPMMV,
    counters: PerfCounters = NULL_COUNTERS,
    *,
    metrics: MetricsRegistry = NULL_METRICS,
    config: ExecConfig | None = None,
    **knobs,
) -> np.ndarray:
    """Compute the raw scalar products eta for every start vector.

    Parameters
    ----------
    H:
        The (unscaled) sparse Hermitian operator.
    scale:
        Spectral map; the kernels apply ``H~ = a (H - b 1)`` on the fly —
        the rescaled matrix is never materialized (paper Figs. 4, 5).
    n_moments:
        Number of moments M (even); M/2 matrix applications per vector.
    start_block:
        (N, R) C-contiguous block of start vectors.
    engine:
        Which optimization stage to execute.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when live, every
        kernel invocation records a wall-time span with the counters'
        traffic/flop delta attached (free with the null default).
    config / knobs:
        The kernel knobs of :class:`~repro.util.knobs.ExecConfig`
        (``backend``, ``precision``, ``threads``, ``simd``).  The eta
        accumulation is fp64 in every storage profile; the naive engine
        runs fp16v through the backends' decode pass (half-storage SpMV
        + fp32 BLAS-1).

    Returns
    -------
    eta:
        Complex array (R, M); ``eta[r, 2m]`` is real (stored complex).
    """
    check_moments(n_moments)
    engine = MomentEngine(engine)
    cfg = ExecConfig.of(config, knobs)
    prec = get_precision(cfg.precision)
    start_block = check_block_vector("start_block", start_block, H.n_rows)
    if start_block.dtype == np.float16 and not prec.half_vectors:
        raise TypeError(
            "start_block uses float16 pair storage but precision is "
            f"{prec.name!r}; pass precision='fp16v'"
        )
    if engine is MomentEngine.AUG_SPMMV:
        # stage 2 is the checkpointable serial driver with checkpoints off
        return run_serial(cfg, RunContext(counters=counters, metrics=metrics),
                          H, scale, n_moments, start_block)
    # stages 0/1: one single-vector recurrence, re-loaded per column
    rec = Recurrence(H, scale.a, scale.b, 1, kernel=engine.value, config=cfg,
                     counters=counters, metrics=metrics)
    # (n, r) complex or (n, r, 2) f16 pair storage: r is axis 1 either way
    eta = np.empty((start_block.shape[1], n_moments), dtype=DTYPE)
    for i, row in enumerate(eta):
        rec.load(start_block[:, i])
        row[0], row[1] = rec.bootstrap()
        for m in range(1, n_moments // 2):
            row[2 * m], row[2 * m + 1] = rec.step()
    return eta


def eta_to_moments(eta: np.ndarray) -> np.ndarray:
    """Convert raw scalar products into Chebyshev moments.

    mu_0 = eta_0, mu_1 = eta_1,
    mu_2m   = 2 eta_2m   - mu_0,
    mu_2m+1 = 2 eta_2m+1 - mu_1        (m >= 1).

    Works on a single (M,) sequence or a stacked (R, M) array.
    """
    eta = np.asarray(eta)
    mu = 2.0 * eta
    mu[..., 0] = eta[..., 0]
    mu[..., 1] = eta[..., 1]
    mu[..., 2::2] -= eta[..., 0:1]
    mu[..., 3::2] -= eta[..., 1:2]
    return mu


def compute_dos_moments(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    n_moments: int,
    start_block: np.ndarray,
    engine: MomentEngine | str = MomentEngine.AUG_SPMMV,
    counters: PerfCounters = NULL_COUNTERS,
    *,
    metrics: MetricsRegistry = NULL_METRICS,
    config: ExecConfig | None = None,
    **knobs,
) -> np.ndarray:
    """Stochastic-trace DOS moments mu_m ~= tr[T_m(H~)].

    Averages the per-vector moments over the R start vectors:
    tr[A] ~= (1/R) sum_r <v_r|A|v_r> for iid random vectors with
    E[v v^H] = Identity (paper Section II). Returns a real (M,) array.
    """
    eta = compute_eta(H, scale, n_moments, start_block, engine, counters,
                      metrics=metrics, config=ExecConfig.of(config, knobs))
    mu = eta_to_moments(eta)
    return mu.mean(axis=0).real
