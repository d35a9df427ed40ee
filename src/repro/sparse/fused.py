"""What every kernel backend and the recurrence share: the Table-I charges,
the recombination pass and the fp64-accumulated scalar products.

The kernels themselves live in the backends (:mod:`repro.sparse.backend`):
the naive chain of paper Fig. 3 once on the base class, the augmented
SpMV/SpMMV of Figs. 4 and 5 once per backend.  They all compute, in the
storage of ``w``/``W``,

    w_new = 2 a (H - b 1) v - w                                (Eq. (3))

and return the two KPM scalar products of the iteration,

    eta_even = <v|v>,     eta_odd = <w_new|v>.

Charges (paper Table I) come in three formulas, one function each —
:func:`charge_spmv`, :func:`charge_aug` and :func:`charge_col_dots`.
Every charge is linear in (rows, streamed slots), so the interior and
boundary phases of a split kernel, charged with their own rows and
slots, sum exactly to the whole-matrix charge; :func:`matrix_stream`
gives the whole-matrix arguments.  Byte widths follow the storage
profile (:mod:`repro.util.precision`); the fp16v profile charges its
half-width vector stream even where a backend computes on fp32 decodes.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.sell import SellMatrix
from repro.util.constants import F_ADD, F_MUL
from repro.util.counters import PerfCounters
from repro.util.precision import FP64, Precision

#: Per-row flops of one full KPM inner iteration beyond the SpMV part:
#: the paper's 7 F_a/2 + 9 F_m/2 (Table I, "KPM" row).
_ROW_FLOPS = 7 * F_ADD // 2 + 9 * F_MUL // 2


def matrix_stream(A, prec: Precision = FP64) -> tuple[int, int, int]:
    """``(rows, streamed slots, index bytes)`` of one traversal of ``A``.

    Slots are nnz for CSR and the padded slot count for SELL (the zero
    fill-in executes real loads and flops); the index width is the one
    the profile realizes for ``A``'s column count.
    """
    slots = A.stored_slots if isinstance(A, SellMatrix) else A.nnz
    return A.n_rows, slots, prec.index_bytes(A.n_cols)


def charge_spmv(
    counters: PerfCounters, name: str, rows: int, slots: int, s_index: int,
    r: int = 1, prec: Precision = FP64,
) -> None:
    """Table I, Sp(M)MV: ``slots (S_d + S_i) + 2 R N S_v`` bytes.

    The matrix is streamed once whatever the block width R.
    """
    s_x = prec.s_vector
    counters.charge(
        name,
        loads=slots * (prec.s_value + s_index) + r * rows * s_x,
        stores=r * rows * s_x,
        flops=r * slots * (F_ADD + F_MUL),
    )


def charge_aug(
    counters: PerfCounters, name: str, rows: int, slots: int, s_index: int,
    r: int = 1, prec: Precision = FP64,
) -> None:
    """Table I, augmented Sp(M)MV: ``slots (S_d + S_i) + 3 R N S_v`` bytes.

    One call is one fused inner iteration (paper Figs. 4 and 5): v and w
    read once, w written once, the shift, scale and both dots in flight.
    """
    s_x = prec.s_vector
    counters.charge(
        name,
        loads=slots * (prec.s_value + s_index) + 2 * r * rows * s_x,
        stores=r * rows * s_x,
        flops=r * (slots * (F_ADD + F_MUL) + rows * _ROW_FLOPS),
    )


def charge_col_dots(
    n_rows: int,
    r: int,
    counters: PerfCounters,
    name: str = "grid_dots",
    prec: Precision = FP64,
) -> None:
    """Charge of a column-dot post-pass over ``n_rows`` rows.

    The grid-eta path (:mod:`repro.dist.elastic`) recomputes the two KPM
    scalar products per fixed global row block instead of per rank, so
    the reduction order never depends on the partition.  The charge is
    linear in ``n_rows``, so the per-block charges of any partition of N
    rows sum to exactly the whole-matrix pass, keeping measured ==
    analytic accounting partition independent.
    """
    s_x = prec.s_vector
    counters.charge(
        name,
        loads=3 * n_rows * r * s_x,
        flops=r * n_rows * (F_ADD + F_MUL + F_ADD // 2 + F_MUL // 2),
    )


def _recombine(W, U, V, a: float, b: float) -> None:
    """In-place ``W <- 2a U - 2ab V - W`` with zero temporaries.

    ``U`` is consumed as workspace (it holds the SpMV result on entry and
    garbage on exit) — five in-place passes, no allocation.  All five are
    real-scalar elementwise operations, so the same code serves
    complex128, complex64, and float16 (re, im) pair storage.
    """
    two_a = 2.0 * a
    W *= -1.0
    U *= two_a
    W += U
    np.multiply(V, two_a * b, out=U)
    W -= U


def _components(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(real, imag) component views of complex or f16-pair storage."""
    if X.dtype.kind == "c":
        return X.real, X.imag
    return X[..., 0], X[..., 1]


def col_dots(V: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise ``<V|V>`` (real) and ``<W|V>`` without (N, R) temporaries.

    Works on the real/imaginary views so no conjugated copy of the block
    is ever materialized; only the (R,) outputs are allocated.  For
    complex128 blocks this is the paper-baseline path, bit-for-bit
    unchanged; narrower storage (complex64, f16 pairs) accumulates the
    same reductions in fp64 (the "on-the-fly fp64 dot accumulation" of
    the precision profiles), so eta — and hence the DOS — keeps fp64
    reduction accuracy regardless of how vectors are stored.
    """
    if V.dtype == np.complex128:
        vr, vi = V.real, V.imag
        wr, wi = W.real, W.imag
        eta_even = (np.einsum("nr,nr->r", vr, vr)
                    + np.einsum("nr,nr->r", vi, vi))
        re = np.einsum("nr,nr->r", wr, vr) + np.einsum("nr,nr->r", wi, vi)
        im = np.einsum("nr,nr->r", wr, vi) - np.einsum("nr,nr->r", wi, vr)
        return eta_even, re + 1j * im
    vr, vi = _components(V)
    wr, wi = _components(W)
    f64 = np.float64
    eta_even = (np.einsum("nr,nr->r", vr, vr, dtype=f64)
                + np.einsum("nr,nr->r", vi, vi, dtype=f64))
    re = (np.einsum("nr,nr->r", wr, vr, dtype=f64)
          + np.einsum("nr,nr->r", wi, vi, dtype=f64))
    im = (np.einsum("nr,nr->r", wr, vi, dtype=f64)
          - np.einsum("nr,nr->r", wi, vr, dtype=f64))
    return eta_even, re + 1j * im


def vec_dots(v: np.ndarray, w: np.ndarray) -> tuple[float, complex]:
    """Single-vector ``(<v|v>, <w|v>)`` with fp64 accumulation.

    Bitwise-identical to the historical ``np.vdot`` pair for complex128.
    """
    if v.dtype == np.complex128:
        return float(np.vdot(v, v).real), complex(np.vdot(w, v))
    vr, vi = _components(v)
    wr, wi = _components(w)
    f64 = np.float64
    ee = (np.einsum("n,n->", vr, vr, dtype=f64)
          + np.einsum("n,n->", vi, vi, dtype=f64))
    re = (np.einsum("n,n->", wr, vr, dtype=f64)
          + np.einsum("n,n->", wi, vi, dtype=f64))
    im = (np.einsum("n,n->", wr, vi, dtype=f64)
          - np.einsum("n,n->", wi, vr, dtype=f64))
    return float(ee), complex(re + 1j * im)
