"""BLAS level-1 kernels of the naive KPM algorithm (paper Fig. 3).

Each function runs as one span of an optional sink (a
:class:`~repro.obs.MetricsRegistry`) named after it, which charges the
*minimum* data traffic and flop count of paper Table I:

=========  =====================  ==========================
function   min. bytes per call     flops per call
=========  =====================  ==========================
axpy       3 N S_d                N (F_a + F_m)
scal       2 N S_d                N F_m
nrm2       N S_d                  N (F_a/2 + F_m/2)
dot        2 N S_d                N (F_a + F_m)
=========  =====================  ==========================

These are the building blocks the optimized kernels in
:mod:`repro.sparse.fused` make redundant: running the naive algorithm
through these functions transfers the 13 N S_d vector bytes per inner
iteration that optimization stage 1 cuts to 3 N S_d.

Mixed precision: ``S_d`` above is the *vector element* size, taken from
the operand's dtype (16 for complex128, 8 for complex64), so the charges
follow the active :mod:`~repro.util.precision` profile automatically.
Reductions (``dot``, ``nrm2_sq``) always accumulate in fp64 regardless
of storage precision — narrow storage never degrades the eta moments —
and never call BLAS: a threaded BLAS sums in an order that follows its
thread count, and its idle workers spin on the cores a kernel team is
about to take (DESIGN §10).
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import F_ADD, F_MUL
from repro.obs.metrics import NULL_METRICS


def _sd(x: np.ndarray) -> int:
    """Bytes per logical (complex) element of a vector storage array."""
    if x.dtype.kind == "c":
        return x.dtype.itemsize
    # float16 (re, im) pair storage: two halves per complex element
    return 2 * x.dtype.itemsize


def axpy(
    y: np.ndarray,
    alpha: complex,
    x: np.ndarray,
    counters=NULL_METRICS,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """In-place ``y += alpha * x``; returns ``y``.

    A real BLAS axpy allocates nothing; NumPy's ``y += alpha * x`` hides
    an ``alpha * x`` temporary. Passing ``work`` (any buffer of y's
    shape/dtype, contents destroyed) routes the product through it so the
    call is allocation-free — the moment-engine workspace plans do this.
    """
    n = y.shape[0]
    s_d = _sd(y)
    with counters.span("axpy") as sp:
        if work is not None:
            np.multiply(x, alpha, out=work)
            y += work
        else:
            y += alpha * x
        sp.charge("axpy", loads=2 * n * s_d, stores=n * s_d,
                  flops=n * (F_ADD + F_MUL))
    return y


def scal(
    alpha: complex,
    x: np.ndarray,
    counters=NULL_METRICS,
) -> np.ndarray:
    """In-place ``x *= alpha``; returns ``x``."""
    n = x.shape[0]
    s_d = _sd(x)
    with counters.span("scal") as sp:
        x *= alpha
        sp.charge("scal", loads=n * s_d, stores=n * s_d, flops=n * F_MUL)
    return x


def charge_dot(x: np.ndarray, span) -> None:
    """Charge ``span`` the Table-I cost of one :func:`dot` over ``x``'s
    length."""
    n = x.shape[0]
    span.charge("dot", loads=2 * n * _sd(x), flops=n * (F_ADD + F_MUL))


def charge_nrm2(x: np.ndarray, span) -> None:
    """Charge ``span`` the Table-I cost of one :func:`nrm2_sq` of ``x``."""
    n = x.shape[0]
    span.charge("nrm2", loads=n * _sd(x), flops=n * (F_ADD // 2 + F_MUL // 2))


def dot(
    x: np.ndarray,
    y: np.ndarray,
    counters=NULL_METRICS,
) -> complex:
    """Conjugated inner product ``<x|y> = sum(conj(x) * y)``.

    fp64-dtype einsum reductions over the real/imag component views, for
    every storage precision: one summation order, fixed by the length.
    """
    if x.dtype.kind == "c":
        xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    else:  # float16 (re, im) pairs
        xr, xi, yr, yi = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    with counters.span("dot") as sp:
        re = (np.einsum("n,n->", xr, yr, dtype=np.float64)
              + np.einsum("n,n->", xi, yi, dtype=np.float64))
        im = (np.einsum("n,n->", xr, yi, dtype=np.float64)
              - np.einsum("n,n->", xi, yr, dtype=np.float64))
        charge_dot(x, sp)
    return complex(re + 1j * im)


def nrm2_sq(
    x: np.ndarray,
    counters=NULL_METRICS,
) -> float:
    """Squared 2-norm ``<x|x>`` (the paper's eta_2m = <v|v>).

    fp64 accumulation for every storage precision (see :func:`dot`).
    """
    if x.dtype.kind == "c":
        xr, xi = x.real, x.imag
    else:
        xr, xi = x[..., 0], x[..., 1]
    with counters.span("nrm2") as sp:
        out = float(np.einsum("n,n->", xr, xr, dtype=np.float64)
                    + np.einsum("n,n->", xi, xi, dtype=np.float64))
        charge_nrm2(x, sp)
    return out
