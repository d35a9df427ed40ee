"""Layout-faithful SELL-C-sigma kernels: the pure-NumPy SELL reference.

The NumPy backend multiplies through a compiled CSR product and the
native backend through C; both are *numerically* equivalent but neither
is NumPy code walking the actual SELL-C-sigma memory layout. The kernels
here do: chunk by chunk, slot-column major within the chunk, C rows per
SIMD "instruction" — a direct transcription of the SELL kernel of the
paper's Ref. [13] with the flat ``data``/``indices``/``chunk_ptr`` arrays
as the only matrix inputs. They validate the storage layout itself
(every byte of the flat arrays is consumed exactly once per traversal),
are the reference the backends are tested against, and run the SELL
ablation bench.  Like the backends they compute in the input's storage
dtype (complex128 or complex64) and charge the profile's Table-I bytes.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.fused import charge_spmv, matrix_stream
from repro.sparse.sell import SellMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import ShapeError
from repro.util.precision import precision_of
from repro.util.validation import check_block_vector, check_vector


def _complex_profile(x: np.ndarray):
    """The storage profile of complex input (half storage is refused)."""
    prec = precision_of(x)
    if prec.half_vectors:
        raise TypeError("the SELL reference kernels take complex input; "
                        "decode fp16v pair storage first")
    return prec


def sell_spmv_chunked(
    A: SellMatrix,
    x: np.ndarray,
    out: np.ndarray | None = None,
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """SpMV traversing the flat SELL arrays chunk by chunk.

    For each chunk c of height C and length L, slots are stored
    column-major: slot (j, lane) lives at ``chunk_ptr[c] + j*C + lane``.
    The inner update ``acc[lane] += data[slot] * x[idx[slot]]`` runs
    vectorized over the C lanes — the SIMD axis of the format.
    """
    x = check_vector("x", x, A.n_cols)
    prec = _complex_profile(x)
    if out is None:
        out = np.empty(A.n_rows, dtype=x.dtype)
    elif out.shape != (A.n_rows,):
        raise ShapeError(f"out must have shape ({A.n_rows},)")
    c = A.chunk_height
    data = A.data.astype(x.dtype, copy=False)
    acc_sorted = np.zeros(A.n_chunks * c, dtype=x.dtype)
    for ci in range(A.n_chunks):
        base = int(A.chunk_ptr[ci])
        length = int(A.chunk_len[ci])
        acc = acc_sorted[ci * c : (ci + 1) * c]
        for j in range(length):
            slot = slice(base + j * c, base + (j + 1) * c)
            acc += data[slot] * x[A.indices[slot].astype(np.int64)]
    out[:] = acc_sorted[A.inv_perm[: A.n_rows]]
    charge_spmv(counters, "sell_spmv_chunked", *matrix_stream(A, prec), 1,
                prec)
    return out


def sell_spmmv_chunked(
    A: SellMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """Block-vector SELL product over the flat chunk layout.

    The gather of one slot column reads C rows of X (R contiguous values
    each) — the block-vector generalization keeps the matrix traversal
    identical and widens only the vector axis, exactly the property the
    paper's stage-2 kernel exploits.
    """
    X = check_block_vector("X", X, A.n_cols)
    prec = _complex_profile(X)
    r = X.shape[1]
    if out is None:
        out = np.empty((A.n_rows, r), dtype=X.dtype)
    elif out.shape != (A.n_rows, r):
        raise ShapeError(f"out must have shape ({A.n_rows}, {r})")
    c = A.chunk_height
    data = A.data.astype(X.dtype, copy=False)
    acc_sorted = np.zeros((A.n_chunks * c, r), dtype=X.dtype)
    for ci in range(A.n_chunks):
        base = int(A.chunk_ptr[ci])
        length = int(A.chunk_len[ci])
        acc = acc_sorted[ci * c : (ci + 1) * c]
        for j in range(length):
            slot = slice(base + j * c, base + (j + 1) * c)
            acc += data[slot, None] * X[A.indices[slot].astype(np.int64), :]
    out[:] = acc_sorted[A.inv_perm[: A.n_rows], :]
    charge_spmv(counters, "sell_spmmv_chunked", *matrix_stream(A, prec), r,
                prec)
    return out


def validate_layout(A: SellMatrix) -> None:
    """Structural audit of the flat SELL arrays.

    Checks every invariant the kernels rely on; raises ``ShapeError`` on
    the first violation. Used by tests and available to users ingesting
    externally produced SELL data.
    """
    c = A.chunk_height
    if A.chunk_ptr.shape != (A.n_chunks + 1,):
        raise ShapeError("chunk_ptr length must be n_chunks + 1")
    if A.chunk_ptr[0] != 0:
        raise ShapeError("chunk_ptr must start at 0")
    widths = np.diff(A.chunk_ptr)
    if np.any(widths != A.chunk_len * c):
        raise ShapeError("chunk_ptr increments must equal chunk_len * C")
    if A.chunk_ptr[-1] != A.data.shape[0] or A.data.shape != A.indices.shape:
        raise ShapeError("flat arrays must cover exactly the stored slots")
    if A.indices.size and (
        A.indices.min() < 0 or int(A.indices.max()) >= A.n_cols
    ):
        raise ShapeError("slot column index out of range")
    nnz_seen = int(np.count_nonzero(A.data))
    if nnz_seen > A.nnz:
        raise ShapeError("more nonzero slots than recorded nnz")
