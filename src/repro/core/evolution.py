"""Chebyshev time evolution — the KPM-family propagator.

The paper's conclusion announces applying the blocked-kernel findings
"to other blocked sparse linear algebra algorithms besides KPM"; the
canonical neighbor is Chebyshev time propagation, which expands

    exp(-i H t) |psi> = e^{-i b t} * [ c_0(tau) + 2 sum_{m>=1} c_m(tau)
                                       (-i)^m T_m(H~) ] |psi>,
    c_m(tau) = J_m(tau),   tau = a^{-1} t  (Bessel functions),

over exactly the same two-term recurrence and therefore the same
augmented (blocked) kernels as KPM-DOS. The expansion order follows from
tau: |J_m(tau)| collapses super-exponentially once m > tau, so
``order ~ tau + buffer`` gives machine precision.
"""

from __future__ import annotations

import numpy as np

from repro.core.recurrence import chebyshev_series
from repro.core.scaling import SpectralScale
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.validation import check_positive


def chebyshev_expansion_order(tau: float, tolerance: float = 1e-12) -> int:
    """Terms needed for |J_m(tau)| < tolerance beyond the last kept m.

    Uses the standard estimate: convergence sets in at m ~ tau; a
    logarithmic buffer covers the super-exponential tail.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    # beyond m ~ tau the Bessel envelope enters its Airy tail:
    # |J_m(tau)| ~ exp(-(2/3) c^{3/2}) at m = tau + c tau^{1/3}, so the
    # buffer must grow like tau^{1/3} * log(1/tol)^{2/3}
    c = (1.5 * np.log(1.0 / tolerance)) ** (2.0 / 3.0)
    buffer = c * max(tau, 1.0) ** (1.0 / 3.0) + 10.0
    return max(int(np.ceil(tau + buffer)), 4)


def evolve(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    psi0: np.ndarray,
    t: float,
    *,
    order: int | None = None,
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """Propagate |psi(t)> = exp(-i H t) |psi0>.

    ``psi0`` may be a single vector (N,) or a row-major block (N, R) —
    the blocked path runs the same SpMMV amortization as KPM stage 2.
    The spectral map must enclose spec(H) (use
    :func:`repro.core.scaling.lanczos_scale`).
    """
    single = psi0.ndim == 1
    psi = np.ascontiguousarray(
        psi0[:, None] if single else psi0, dtype=DTYPE
    )
    if psi.shape[0] != H.n_rows:
        raise ValueError(
            f"psi0 has {psi.shape[0]} rows but the operator has {H.n_rows}"
        )
    # H = H~ / a + b  =>  exp(-iHt) = exp(-ibt) exp(-i H~ tau), tau = t/a
    tau = abs(t) / scale.a
    sgn = 1.0 if t >= 0 else -1.0
    if order is None:
        order = chebyshev_expansion_order(tau)
    check_positive("order", order)

    from scipy.special import jv  # the one Bessel call: not a CLI start-up cost

    # weights c_0, 2 c_m (-i sgn)^m; the phase cycles exactly through
    # {1, -i, -1, i} (a complex power would round it)
    m = np.arange(order)
    weights = 2.0 * jv(m, tau) * np.array([1.0, -1j * sgn, -1.0, 1j * sgn])[m % 4]
    weights[0] /= 2.0

    out = chebyshev_series(H, scale.a, scale.b, psi, weights, counters)
    out *= np.exp(-1j * scale.b * t)
    return out[:, 0] if single else out


def autocorrelation(
    H: CSRMatrix | SellMatrix,
    scale: SpectralScale,
    psi0: np.ndarray,
    times: np.ndarray,
    *,
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """Survival amplitude C(t) = <psi0| exp(-i H t) |psi0> over ``times``.

    The Fourier transform of C(t) is the local spectral function — the
    time-domain counterpart of the KPM-DOS quantity.
    """
    times = np.asarray(times, dtype=float)
    psi0 = np.asarray(psi0, dtype=DTYPE)
    out = np.empty(times.shape, dtype=complex)
    for i, t in enumerate(times.ravel()):
        psi_t = evolve(H, scale, psi0, float(t), counters=counters)
        out.ravel()[i] = np.vdot(psi0, psi_t)
    return out
