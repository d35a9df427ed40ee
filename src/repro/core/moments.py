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
:mod:`repro.core.recurrence`: every engine runs its rank program, and a
serial solve is that program on one rank (stages 0/1: once per column).
The :class:`~repro.core.recurrence.Recurrence` workspaces are hoisted
into a per-(matrix, R) plan, so the M/2 iterations run allocation-free —
the nu_m / nu_{m+1} buffers swap by reference and every kernel writes
into preallocated storage.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.checkpoint import RunContext, checkpointed_eta, run_ranks
from repro.core.scaling import SpectralScale
from repro.obs.metrics import NULL_METRICS
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.knobs import ExecConfig


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
    counters=NULL_METRICS,
    *,
    metrics=NULL_METRICS,
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
    counters / metrics:
        The run's one sink, as either keyword: a
        :class:`~repro.util.counters.PerfCounters` (or any
        :class:`~repro.obs.MetricsRegistry`) records a wall-time span per
        kernel call carrying its Table-I bytes and flops; two live sinks
        are refused (free with the null default).
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
    engine = MomentEngine(engine)
    if engine is MomentEngine.AUG_SPMMV:
        # stage 2 is the checkpointable entry with checkpoints off
        return checkpointed_eta(H, scale, n_moments, start_block,
                                counters=counters, metrics=metrics,
                                config=config, **knobs)
    return run_ranks(ExecConfig.of(config, knobs),
                     RunContext.of(counters=counters, metrics=metrics),
                     H, scale, n_moments, start_block, kernel=engine.value)


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
