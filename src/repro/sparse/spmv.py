"""Sparse matrix (multiple-)vector multiplication for CSR and SELL-C-sigma.

``spmv`` charges the paper's Table I minimum traffic
``N_nz (S_d + S_i) + 2 N S_d`` and ``N_nz (F_a + F_m)`` flops;
``spmmv`` charges the block generalization (matrix read once, R vectors).
For SELL matrices the *streamed* slot count (including zero fill-in, i.e.
``nnz / beta``) is charged, mirroring what the hardware kernel moves.

Implementation notes (cf. the hpc-parallel guides: vectorize, avoid
temporaries where cheap, respect memory layout):

* CSR products use a flat gather ``x[indices]`` followed by a segmented
  sum — every loop is inside NumPy.
* SELL products run over the (few) stencil diagonals of the ELLPACK view:
  for each slot column ``l`` one fused gather-multiply-accumulate over all
  rows. The block-vector variant gathers *rows* of the row-major block
  ``X[idx, :]`` — R contiguous elements per access, which is precisely the
  locality argument of paper Section IV-A for interleaved block vectors.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.csr import CSRMatrix, segment_sum
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE, F_ADD, F_MUL
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import ShapeError
from repro.util.precision import FP64, Precision, precision_of
from repro.util.validation import check_block_vector, check_vector


#: When True (default), the numerical work of spmv/spmmv is delegated to
#: a compiled CSR kernel (scipy.sparse) whose inner loop is precisely the
#: paper's row-major SpMMV access pattern — one fused gather-multiply-add
#: pass per matrix entry over R contiguous block-vector elements. The
#: pure-NumPy kernels below remain the layout-faithful reference
#: implementation (SELL chunk traversal, explicit padding) and are parity-
#: tested against the fast path; switch with :func:`set_fast_backend` to
#: study them (e.g. the SELL ablation bench does).
_FAST_BACKEND = True


def set_fast_backend(enabled: bool) -> bool:
    """Enable/disable the compiled CSR compute backend; returns the old
    setting. Accounting (counters, Table I charging) is identical either
    way — only the arithmetic implementation changes."""
    global _FAST_BACKEND
    old = _FAST_BACKEND
    _FAST_BACKEND = bool(enabled)
    return old


def _scipy_handle(A: CSRMatrix | SellMatrix, dtype=DTYPE) -> "_sp.csr_matrix":
    """Cached scipy CSR view of the matrix's numerical content.

    One handle per value dtype: the fp64 baseline keeps its historical
    ``_scipy_cache`` attribute; the complex64 handle (shared by the fp32
    and fp16v profiles) is cached separately and built by downcasting the
    fp64 handle's value array once.
    """
    # SciPy is this engine's alone: imported where it is called, so a
    # run on the native kernels never loads it
    import scipy.sparse as _sp

    handle = getattr(A, "_scipy_cache", None)
    if handle is None:
        if isinstance(A, CSRMatrix):
            handle = _sp.csr_matrix(
                (A.data, A.indices, A.indptr), shape=A.shape
            )
        else:
            csr = A.to_csr()
            handle = _sp.csr_matrix(
                (csr.data, csr.indices, csr.indptr), shape=csr.shape
            )
        A._scipy_cache = handle
    if np.dtype(dtype) == np.complex128:
        return handle
    narrow = getattr(A, "_scipy_cache32", None)
    if narrow is None:
        narrow = _sp.csr_matrix(
            (handle.data.astype(np.complex64), handle.indices,
             handle.indptr),
            shape=handle.shape,
        )
        A._scipy_cache32 = narrow
    return narrow


def _fast_product(A, X: np.ndarray, out: np.ndarray) -> None:
    """``out = A @ X`` through the compiled scipy CSR kernel.

    Uses the accumulate-into-``out`` entry points of
    ``scipy.sparse._sparsetools`` when available so the product allocates
    nothing (the workspace plans rely on this); falls back to the public
    operator otherwise.  The matrix-value dtype follows ``out``: fp32
    products run entirely in complex64.
    """
    try:  # allocation-free compiled CSR products (y += A x into caller storage)
        from scipy.sparse import _sparsetools
    except ImportError:  # pragma: no cover - very old scipy
        _sparsetools = None
    handle = _scipy_handle(A, dtype=out.dtype)
    X = X.astype(out.dtype, copy=False)
    if (
        _sparsetools is not None
        and X.flags.c_contiguous
        and out.flags.c_contiguous
    ):
        out.fill(0.0)
        m, k = handle.shape
        if X.ndim == 1:
            _sparsetools.csr_matvec(
                m, k, handle.indptr, handle.indices, handle.data, X, out
            )
        else:
            _sparsetools.csr_matvecs(
                m, k, X.shape[1], handle.indptr, handle.indices, handle.data,
                X.ravel(), out.ravel(),
            )
    else:
        out[:] = handle @ X


def _charge_spmv(
    A,
    n_vecs: int,
    counters: PerfCounters,
    name: str,
    prec: Precision = FP64,
) -> None:
    n = A.n_rows
    if isinstance(A, SellMatrix):
        slots = A.stored_slots
    else:
        slots = A.nnz
    s_v, s_x = prec.s_value, prec.s_vector
    s_i = prec.index_bytes(A.n_cols)
    counters.charge(
        name,
        loads=slots * (s_v + s_i) + n_vecs * n * s_x,
        stores=n_vecs * n * s_x,
        flops=n_vecs * slots * (F_ADD + F_MUL),
    )


def spmv(
    A: CSRMatrix | SellMatrix,
    x: np.ndarray,
    out: np.ndarray | None = None,
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    precision: Precision | None = None,
) -> np.ndarray:
    """Compute ``y = A @ x`` for a single vector.

    Parameters
    ----------
    A:
        Matrix in CSR or SELL-C-sigma storage.
    x:
        Input vector of length ``A.n_cols``; complex128, complex64, or
        float16 (re, im) pair storage of shape ``(n_cols, 2)``.
    out:
        Optional pre-allocated output of length ``A.n_rows`` (matching
        ``x``'s storage layout).
    counters:
        Sink for the Table-I minimum traffic/flop accounting.
    precision:
        Profile to charge; inferred from ``x``'s dtype when omitted.
        Backends pass it explicitly when they hand over pre-decoded
        complex views of half storage.
    """
    if not isinstance(A, (CSRMatrix, SellMatrix)):
        raise TypeError(f"unsupported matrix type {type(A).__name__}")
    prec = precision_of(x) if precision is None else precision
    half = x.dtype == np.float16
    if half:
        from repro.util.precision import FP16V

        xin = check_vector("x", FP16V.decode(x), A.n_cols)
        if out is None:
            out = np.empty((A.n_rows, 2), dtype=np.float16)
        elif out.shape != (A.n_rows, 2) or out.dtype != np.float16:
            raise ShapeError(
                f"out must be float16 of shape ({A.n_rows}, 2), got "
                f"{out.dtype} {out.shape}"
            )
        tgt = np.empty(A.n_rows, dtype=np.complex64)
    else:
        xin = check_vector("x", x, A.n_cols)
        if out is None:
            out = np.empty(A.n_rows, dtype=x.dtype)
        elif out.shape != (A.n_rows,):
            raise ShapeError(
                f"out must have shape ({A.n_rows},), got {out.shape}"
            )
        tgt = out

    with metrics.span("spmv", counters=counters):
        if _FAST_BACKEND:
            _fast_product(A, xin, tgt)
        elif isinstance(A, CSRMatrix):
            products = A.data * xin[A.indices.astype(np.int64)]
            tgt[:] = segment_sum(products, A.indptr)
        else:
            n_padded, lmax = A._ell_data.shape
            acc = np.zeros(n_padded, dtype=DTYPE)
            for l in range(lmax):
                acc += (A._ell_data[:, l]
                        * xin[A._ell_idx[:, l].astype(np.int64)])
            tgt[:] = acc[A.inv_perm[: A.n_rows]]
        if half:
            from repro.util.precision import FP16V

            FP16V.encode(tgt, out=out)
        _charge_spmv(A, 1, counters, "spmv", prec)
    return out


def spmmv(
    A: CSRMatrix | SellMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    counters: PerfCounters = NULL_COUNTERS,
    metrics: MetricsRegistry = NULL_METRICS,
    precision: Precision | None = None,
) -> np.ndarray:
    """Compute ``Y = A @ X`` for a row-major block vector ``X`` of width R.

    The matrix is traversed once regardless of R — the defining data-traffic
    property of SpMMV the paper's optimization stage 2 exploits.
    """
    if not isinstance(A, (CSRMatrix, SellMatrix)):
        raise TypeError(f"unsupported matrix type {type(A).__name__}")
    prec = precision_of(X) if precision is None else precision
    half = X.dtype == np.float16
    if half:
        from repro.util.precision import FP16V

        Xin = check_block_vector("X", FP16V.decode(X), A.n_cols)
        r = Xin.shape[1]
        if out is None:
            out = np.empty((A.n_rows, r, 2), dtype=np.float16)
        elif out.shape != (A.n_rows, r, 2) or out.dtype != np.float16:
            raise ShapeError(
                f"out must be float16 of shape ({A.n_rows}, {r}, 2), got "
                f"{out.dtype} {out.shape}"
            )
        tgt = np.empty((A.n_rows, r), dtype=np.complex64)
    else:
        Xin = check_block_vector("X", X, A.n_cols)
        r = Xin.shape[1]
        if out is None:
            out = np.empty((A.n_rows, r), dtype=X.dtype)
        elif out.shape != (A.n_rows, r):
            raise ShapeError(
                f"out must have shape ({A.n_rows}, {r}), got {out.shape}"
            )
        tgt = out

    with metrics.span("spmmv", counters=counters):
        if _FAST_BACKEND:
            _fast_product(A, Xin, tgt)
        elif isinstance(A, CSRMatrix):
            _csr_spmmv_blocked(A, Xin, tgt)
        else:
            _sell_spmmv_blocked(A, Xin, tgt)
        if half:
            from repro.util.precision import FP16V

            FP16V.encode(tgt, out=out)
        _charge_spmv(A, r, counters, "spmmv", prec)
    return out


#: Row-block size for the cache-blocked SpMMV paths: chosen so one block
#: of the accumulator (block * R * 16 bytes) plus scratch stays inside a
#: typical last level cache while the 13-ish stencil terms stream over it
#: (the cache-blocking idea of the paper's Ref. [31]).
_SPMMV_ROW_BLOCK = 8192


def _csr_spmmv_blocked(A: CSRMatrix, X: np.ndarray, out: np.ndarray) -> None:
    """CSR block-vector product without the (nnz, R) global temporary."""
    idx64 = A.indices.astype(np.int64, copy=False)
    n = A.n_rows
    for lo in range(0, n, _SPMMV_ROW_BLOCK):
        hi = min(lo + _SPMMV_ROW_BLOCK, n)
        p0, p1 = A.indptr[lo], A.indptr[hi]
        products = A.data[p0:p1, None] * X[idx64[p0:p1], :]
        out[lo:hi] = segment_sum(products, A.indptr[lo : hi + 1] - p0)


def _sell_spmmv_blocked(A: SellMatrix, X: np.ndarray, out: np.ndarray) -> None:
    """SELL block-vector product, row-blocked with reused gather buffers.

    For each row block the (block, R) accumulator stays cache-resident
    across all slot columns; gathers land in a preallocated buffer and
    are multiply-accumulated in place, so each slot column costs one
    gather pass instead of three temporaries.
    """
    ell_data = A._ell_data
    ell_idx = A._ell_idx
    n_padded, lmax = ell_data.shape
    r = X.shape[1]
    acc = np.empty((min(_SPMMV_ROW_BLOCK, n_padded), r), dtype=X.dtype)
    buf = np.empty_like(acc)
    for lo in range(0, n_padded, _SPMMV_ROW_BLOCK):
        hi = min(lo + _SPMMV_ROW_BLOCK, n_padded)
        blk = hi - lo
        a_blk = acc[:blk]
        b_blk = buf[:blk]
        a_blk[:] = 0.0
        for l in range(lmax):
            np.take(X, ell_idx[lo:hi, l].astype(np.int64), axis=0, out=b_blk)
            b_blk *= ell_data[lo:hi, l, None]
            a_blk += b_blk
        # scatter this sorted block back to original row order
        sorted_rows = A.perm[lo:hi]
        valid = sorted_rows < A.n_rows
        out[sorted_rows[valid]] = a_blk[valid]
