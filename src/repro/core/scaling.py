"""Spectral rescaling of H into the Chebyshev interval [-1, 1].

KPM expands in Chebyshev polynomials, whose orthogonality interval is
[-1, 1]; the original operator must therefore be rescaled as

    H~ = a (H - b 1)                                   (paper Section II)

with ``a, b`` chosen so that spec(H~) is strictly inside [-1, 1].
"Suitable values a, b are determined initially with Gershgorin's circle
theorem or a few Lanczos sweeps" — both options are implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.backend import KernelBackend, get_backend
from repro.sparse.blas1 import dot, nrm2_sq
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.errors import ConvergenceError
from repro.util.knobs import ExecConfig
from repro.util.rng import make_rng
from repro.util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class SpectralScale:
    """The linear spectral map ``x = a (E - b)`` and its inverse.

    Attributes
    ----------
    a:
        Contraction factor (1 / half-width of the padded spectral window).
    b:
        Center of the spectral window.
    emin, emax:
        The estimated spectral bounds the map was derived from.
    """

    a: float
    b: float
    emin: float
    emax: float

    @classmethod
    def from_bounds(cls, emin: float, emax: float, epsilon: float = 0.01) -> "SpectralScale":
        """Build the map from spectral bounds with safety margin ``epsilon``.

        The spectrum is mapped into [-(1-epsilon), +(1-epsilon)]; KPM
        diverges if any eigenvalue of H~ leaves [-1, 1], so a small
        positive margin is essential with estimated bounds.
        """
        if not emax > emin:
            raise ValueError(f"need emax > emin, got [{emin}, {emax}]")
        check_in_range("epsilon", epsilon, 0.0, 0.5)
        half_width = (emax - emin) / (2.0 * (1.0 - epsilon))
        return cls(a=1.0 / half_width, b=(emax + emin) / 2.0, emin=emin, emax=emax)

    def to_unit(self, energy):
        """Map physical energy E to x = a (E - b) in [-1, 1]."""
        return self.a * (np.asarray(energy) - self.b)

    def from_unit(self, x):
        """Inverse map x -> E = x / a + b."""
        return np.asarray(x) / self.a + self.b

    def density_jacobian(self) -> float:
        """|dx/dE| = a: converts a density in x into a density in E."""
        return self.a


def gershgorin_scale(H: CSRMatrix, epsilon: float = 0.01) -> SpectralScale:
    """Spectral map from Gershgorin's circle theorem (cheap, rigorous).

    Gershgorin bounds always *enclose* the spectrum, so the resulting map
    is safe by construction — at the cost of a wider window (lower energy
    resolution per Chebyshev moment) than Lanczos-estimated bounds.
    """
    emin, emax = H.gershgorin_bounds()
    return SpectralScale.from_bounds(emin, emax, epsilon)


def lanczos_bounds(
    H: CSRMatrix | SellMatrix,
    n_iter: int = 50,
    seed: int | None | np.random.Generator = None,
    *,
    margin: float = 0.05,
    backend: KernelBackend | str = "auto",
    config: ExecConfig | None = None,
) -> tuple[float, float]:
    """Extremal-eigenvalue estimates from a plain Lanczos sweep.

    Runs ``n_iter`` Lanczos steps from a random start vector and returns
    the extreme Ritz values, stretched outward by ``margin`` times the
    spectral width (Ritz values approach the true extremes from inside, so
    an outward safety factor is required before use in KPM).

    The sweep's ``spmv`` runs on ``backend`` with the default
    :class:`~repro.util.knobs.ExecConfig`'s kernel threads — or, given a
    ``config``, on its backend and threads (``KPMSolver`` passes its
    own, so the scale and the solve share one).  Neither changes the
    bounds: every backend's fp64 ``spmv`` sums a row's products in
    storage order, bitwise alike at any thread count, and the dot
    products and norms are :mod:`~repro.sparse.blas1`'s fixed-order
    NumPy sums, not threaded BLAS (both tested).
    """
    check_positive("n_iter", n_iter)
    cfg = config if config is not None else ExecConfig(backend=backend)
    bk = get_backend(cfg.backend)
    plan = bk.plan(H, threads=cfg.kernel_threads(work=H.nnz), simd=cfg.simd)
    n = H.n_rows
    rng = make_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = v.astype(DTYPE)
    v /= np.sqrt(nrm2_sq(v))
    v_prev = np.zeros(n, dtype=DTYPE)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    m = min(n_iter, n)
    for _ in range(m):
        w = bk.spmv(H, v, plan=plan)
        # Re <v|w>: the real half of blas1.dot, bit for bit
        alpha = float(np.einsum("n,n->", v.real, w.real, dtype=np.float64)
                      + np.einsum("n,n->", v.imag, w.imag, dtype=np.float64))
        w -= alpha * v + beta * v_prev
        # one re-orthogonalization pass keeps the extreme Ritz values sane
        w -= dot(v, w) * v
        beta = float(np.sqrt(nrm2_sq(w)))
        alphas.append(alpha)
        if beta < 1e-14:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    if not alphas:
        raise ConvergenceError("Lanczos produced no Ritz values")
    t = np.diag(alphas)
    if betas:
        k = len(alphas)
        off = np.array(betas[: k - 1])
        t = t + np.diag(off, 1) + np.diag(off, -1)
    ritz = np.linalg.eigvalsh(t)
    lo, hi = float(ritz[0]), float(ritz[-1])
    width = max(hi - lo, 1e-300)
    return lo - margin * width, hi + margin * width


def lanczos_scale(
    H: CSRMatrix | SellMatrix,
    n_iter: int = 50,
    epsilon: float = 0.01,
    seed: int | None | np.random.Generator = None,
    *,
    backend: KernelBackend | str = "auto",
    config: ExecConfig | None = None,
) -> SpectralScale:
    """Spectral map from Lanczos bounds (tighter window than Gershgorin);
    ``backend`` and ``config`` as for :func:`lanczos_bounds`."""
    emin, emax = lanczos_bounds(H, n_iter=n_iter, seed=seed, backend=backend,
                                config=config)
    return SpectralScale.from_bounds(emin, emax, epsilon)
