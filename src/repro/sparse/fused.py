"""What every kernel backend and the recurrence share: the Table-I charges,
the recombination pass and the one eta reduction.

The kernels themselves live in the backends (:mod:`repro.sparse.backend`):
the naive chain of paper Fig. 3 once on the base class, the augmented
SpMV/SpMMV of Figs. 4 and 5 once per backend.  They all compute, in the
storage of ``w``/``W``,

    w_new = 2 a (H - b 1) v - w                                (Eq. (3))

and return the two KPM scalar products of the iteration,

    eta_even = <v|v>,     eta_odd = <w_new|v>.

Charges (paper Table I) come in two formulas, one function each —
:func:`spmv_cost` and :func:`aug_cost`, ``(loads, stores, flops)`` of
one call, which a kernel span charges to the run's sink.  Every cost is
linear in (rows, streamed slots), so the interior and boundary phases of
a split kernel, charged with their own rows and slots, sum exactly to
the whole-matrix charge; :func:`matrix_stream` gives the whole-matrix
arguments.  Byte widths follow the storage profile
(:mod:`repro.util.precision`); the fp16v profile charges its half-width
vector stream even where a backend computes on fp32 decodes.

The two scalar products are reduced one way everywhere (DESIGN §19):
per 64-row block in row order — whatever the operator's format — each
block partial deposited exactly into two fp64 bins at the column's
anchor (:func:`eta_anchors`), so bins of threads, split phases, ranks
and segments add exactly and the bits of eta depend on no execution
knob.  :func:`eta_bins` is the NumPy implementation the C kernels
mirror; :func:`fold` turns bins into eta.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.sell import SellMatrix
from repro.util.constants import F_ADD, F_MUL
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


def spmv_cost(rows: int, slots: int, s_index: int, r: int = 1,
              prec: Precision = FP64) -> tuple[int, int, int]:
    """Table I, Sp(M)MV: ``(loads, stores, flops)`` of one call —
    ``slots (S_d + S_i) + 2 R N S_v`` bytes.

    The matrix is streamed once whatever the block width R.
    """
    s_x = prec.s_vector
    return (slots * (prec.s_value + s_index) + r * rows * s_x,
            r * rows * s_x, r * slots * (F_ADD + F_MUL))


def aug_cost(rows: int, slots: int, s_index: int, r: int = 1,
             prec: Precision = FP64) -> tuple[int, int, int]:
    """Table I, augmented Sp(M)MV: ``(loads, stores, flops)`` of one call
    — ``slots (S_d + S_i) + 3 R N S_v`` bytes.

    One call is one fused inner iteration (paper Figs. 4 and 5): v and w
    read once, w written once, the shift, scale and both dots in flight.
    """
    s_x = prec.s_vector
    return (slots * (prec.s_value + s_index) + 2 * r * rows * s_x,
            r * rows * s_x,
            r * (slots * (F_ADD + F_MUL) + rows * _ROW_FLOPS))


def _recombine(W, U, V, a: float, b: float, tmp) -> None:
    """In-place ``W <- (2a U - 2ab V) - W``, rounded in the C kernels'
    order (their row finishers), so every backend writes the same bits.

    ``U`` (the SpMV result on entry) and ``tmp`` (``U``'s shape and
    dtype) are consumed as workspace — four in-place passes, no
    allocation.  All four are real-scalar elementwise operations, so
    the same code serves complex128 and complex64.
    """
    two_a = 2.0 * a
    U *= two_a
    np.multiply(V, two_a * b, out=tmp)
    U -= tmp
    np.subtract(U, W, out=W)


def _components(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(real, imag) component views of complex or f16-pair storage."""
    if X.dtype.kind == "c":
        return X.real, X.imag
    return X[..., 0], X[..., 1]


#: Rows per eta block: the unit the one eta reduction sums in row order
#: before its exact deposit (DESIGN §19).
ETA_BLOCK = 64

#: Rows of one pass of :func:`eta_bins` (whole blocks): bounds its
#: scratch (:func:`eta_work`) to about ``4 × _CHUNK × R`` doubles.  A
#: pass is some 30 NumPy calls at any length, so one column takes 16 ×
#: as many rows a pass.
_CHUNK = 16 * ETA_BLOCK


def _cols(X: np.ndarray) -> np.ndarray:
    """A vector as its one-column block (complex or f16-pair storage)."""
    return X[:, None] if X.ndim == (1 if X.dtype.kind == "c" else 2) else X


#: Elements (rows x R) :func:`eta_anchors` squares a pass: bounds its
#: scratch to about 24 such elements' bytes, not a second block.
_ANCHOR_PASS = 1 << 12


def eta_anchors(block: np.ndarray, m2: np.ndarray | None = None
                ) -> np.ndarray:
    """The eta anchors of a start block ``nu_0``: per column the power of
    two ``A_k > 4 N max_i |nu_0,ik|^2`` (``N`` rows; 1 for a zero
    column), clipped to ``[2^-900, 2^900]``.

    A max, so any engine computes the same anchors from the global
    block; on a correctly scaled spectrum every partial sum of eta
    terms is at most ``|nu_0|^2 <= A / 4``.  ``m2``: the maxima if the
    native ``repro_anchors`` computed them, rounded as here.
    """
    X = _cols(np.asarray(block))
    n = X.shape[0]
    if m2 is None:
        X = np.ascontiguousarray(X)
        if X.dtype.kind == "c":  # squared as contiguous float arrays
            X = X.view(X.real.dtype).reshape(*X.shape, 2)
        m2 = np.zeros(X.shape[1])
        step = max(1, _ANCHOR_PASS // X.shape[1])
        for lo in range(0, X.shape[0], step):
            x = np.square(X[lo:lo + step], dtype=np.float64)
            np.maximum(m2, np.max(x[..., 0] + x[..., 1], axis=0), out=m2)
    return np.clip(np.ldexp(1.0, np.frexp(4.0 * n * m2)[1]),
                   2.0 ** -900, 2.0 ** 900)


def eta_work(n_rows: int, r: int) -> np.ndarray:
    """Scratch for :func:`eta_bins` over up to ``n_rows`` rows of width
    ``r`` — a kernel plan keeps one, so a step allocates nothing O(N)."""
    rows = min(-(-n_rows // ETA_BLOCK) * ETA_BLOCK,
               _CHUNK if r > 1 else 16 * _CHUNK)
    return np.empty(4 * rows * r + 6 * (rows // ETA_BLOCK) * r)


def _terms(V: np.ndarray, W: np.ndarray, out: np.ndarray,
           tmp: np.ndarray) -> None:
    """Per-row eta terms ``|v|^2``, ``re`` and ``im`` of ``conj(w) v``
    into ``out`` (3, rows, R) in fp64: each product rounded, then the
    sum — the kernels' DAG."""
    vr, vi = _components(V)
    wr, wi = _components(W)
    for dst, (x1, y1), (x2, y2), op in (
        (out[0], (vr, vr), (vi, vi), np.add),
        (out[1], (wr, vr), (wi, vi), np.add),
        (out[2], (wr, vi), (wi, vr), np.subtract),
    ):
        np.multiply(x1, y1, out=dst, dtype=np.float64)
        np.multiply(x2, y2, out=tmp, dtype=np.float64)
        op(dst, tmp, out=dst)


def _deposit(p: np.ndarray, h: np.ndarray, anchors: np.ndarray,
             bins: np.ndarray, escape: np.ndarray | None) -> None:
    """Deposit block partials ``p`` (3, nb, R) into ``bins`` (2, 3R): split
    each exactly at quanta ``A 2^-50`` / ``A 2^-82`` and sum — exact in
    any order.  A partial above its anchor sets ``escape`` to the first
    such bins element + 1 (sticky, the smallest wins).  ``p`` and ``h``
    are scratch."""
    r = anchors.size
    if escape is not None:
        np.abs(p, out=h)
        bad = ~(h <= anchors).all(axis=1)
        if bad.any():
            col = np.arange(r)
            j = int(np.stack([col, r + 2 * col, r + 2 * col + 1])[bad].min())
            if not escape[0] or j < escape[0]:
                escape[0] = j + 1
    e = 6.0 * anchors
    np.add(p, e, out=h)
    h -= e
    s1 = h.sum(axis=1)
    p -= h
    e *= 2.0 ** -32
    p += e
    p -= e
    for row, s in zip(bins, (s1, p.sum(axis=1))):
        row[:r] += s[0]
        row[r::2] += s[1]
        row[r + 1::2] += s[2]


def eta_bins(V: np.ndarray, W: np.ndarray, anchors: np.ndarray | None = None,
             escape: np.ndarray | None = None, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """The one eta reduction (DESIGN §19) of ``(<V|V>, <W|V>)`` per column.

    Returns the two fp64 bins (2, 3R) — ``[ee (R) | re, im (2R)]`` — of
    the rows' terms: summed in row order per 64-row block and each block
    deposited exactly at ``anchors`` (default: :func:`eta_anchors` of
    ``V``).  Bins of any split of the blocks add exactly; :func:`fold`
    gives eta.  ``work`` (:func:`eta_work`) is reused scratch.
    """
    V, W = _cols(V), _cols(W)
    n, r = V.shape[:2]
    if anchors is None:
        anchors = eta_anchors(V)
    bins = np.zeros((2, 3 * r)) if out is None else out
    bins[...] = 0.0
    if not n:
        return bins
    if work is None:
        work = eta_work(n, r)
    rows = work.size * ETA_BLOCK // (r * (4 * ETA_BLOCK + 6))  # a pass
    t = work[: 3 * rows * r].reshape(3, rows, r)
    tmp = work[3 * rows * r: 4 * rows * r].reshape(rows, r)
    p, h = work[4 * rows * r:].reshape(2, 3, rows // ETA_BLOCK, r)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        nb = -(-(hi - lo) // ETA_BLOCK)
        span = nb * ETA_BLOCK
        t[:, hi - lo: span] = 0.0
        _terms(V[lo:hi], W[lo:hi], t[:, : hi - lo], tmp[: hi - lo])
        # the block sums in row order: NumPy adds an axis that is not
        # the innermost in order, the innermost one pairwise
        blocks = t[:, :span].reshape(3, nb, ETA_BLOCK, r)
        if r > 1:
            np.add.reduce(blocks, axis=2, out=p[:, :nb])
        elif nb > 1:  # each kind's blocks as (64, nb) columns
            cols = tmp[:span].reshape(ETA_BLOCK, nb)
            for kind in range(3):
                np.copyto(cols, blocks[kind, ..., 0].T)
                np.add.reduce(cols, axis=0, out=p[kind, :nb, 0])
        else:  # one block: each kind by the sequential accumulate
            for kind in range(3):
                p[kind, 0, 0] = np.add.accumulate(
                    blocks[kind, 0, :, 0], out=tmp[:ETA_BLOCK, 0])[-1]
        _deposit(p[:, :nb], h[:, :nb], anchors, bins, escape)
    return bins


def fold(bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(eta_even, eta_odd)`` of bins (..., 2, 3R): ``bin1 + bin2``, as
    (..., R) float64 and (..., R) complex128."""
    s = bins[..., 0, :] + bins[..., 1, :]
    r = s.shape[-1] // 3
    return s[..., :r], s[..., r:].view(np.complex128)


def col_dots(V: np.ndarray, W: np.ndarray,
             anchors: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise ``<V|V>`` (real) and ``<W|V>`` by the one eta
    reduction, in fp64 whatever the storage profile."""
    return fold(eta_bins(V, W, anchors))
