"""The NumPy kernel backend: the C kernels' arithmetic, vectorized.

Every NumPy kernel of the package lives here.  The matrix product is
SciPy's compiled CSR kernel (``scipy.sparse._sparsetools``), whose inner
loop is the paper's row-major SpMMV access pattern — one fused
gather-multiply-add pass per matrix entry over R contiguous block-vector
elements; a SELL operator runs through its CSR image, as the one walk
of every format (its bits are the native SELL kernels').  The augmented
steps (paper Figs. 4 and 5) add the recombination and the two scalar
products as in-place NumPy passes over the plan's preallocated
workspaces, so a steady-state KPM iteration allocates nothing.  The
naive chain (Fig. 3) is the base class's.

Bits: every rounding follows the native kernels' (``_kernels.c``), so
the two backends return the same bits in every storage profile (DESIGN
§19) and this backend checks the C kernels byte for byte.  A row's
products are summed in storage order and the eta blocks in row order,
as every C walk sums them — stage 1 is the stage-2 walk on one column;
the recombination is the C finishers' ``(2a u - 2ab v) - w``
(:func:`~repro.sparse.fused._recombine`).

Precision: complex128 and complex64 operands flow straight through (the
profile is inferred from the dtype).  fp16v half storage is decoded into
the plan's complex64 scratch, computed in fp32, and encoded back — the
charges still follow the half-width layout.  Note the NumPy backend
*physically* streams whatever SciPy streams (e.g. int32 indices); the
charges model the profile's Table-I minimum layout, which is what the
native kernels actually realize — both backends are charged identically
so every model stays backend-independent.  The layout-faithful
pure-NumPy SELL traversal the backends are tested against is
:mod:`repro.sparse.sell_kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.backend import KernelBackend, KernelPlan
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import (
    _recombine,
    aug_cost,
    eta_bins,
    matrix_stream,
    spmv_cost,
)
from repro.util.precision import FP16V, precision_of
from repro.util.validation import check_block_vector, check_vector


def _scipy_handle(A, dtype):
    """Cached SciPy CSR view of the matrix's numerical content.

    One handle per value dtype: the complex128 handle, and a complex64
    one (shared by the fp32 and fp16v profiles) built by downcasting the
    complex128 handle's value array once.
    """
    # SciPy is this backend's alone: imported where it is called, so a
    # run on the native kernels never loads it
    import scipy.sparse as _sp

    cache = A.__dict__.setdefault("_scipy_cache", {})
    key = np.dtype(dtype)
    handle = cache.get(key)
    if handle is not None:
        return handle
    if key != np.complex128:
        wide = _scipy_handle(A, np.complex128)
        parts = (wide.data.astype(dtype), wide.indices, wide.indptr)
    else:
        csr = A if isinstance(A, CSRMatrix) else A.to_csr()
        parts = (csr.data, csr.indices, csr.indptr)
    cache[key] = handle = _sp.csr_matrix(parts, shape=A.shape)
    return handle


def _product(A, X: np.ndarray, out: np.ndarray) -> None:
    """``out = A @ X`` in ``out``'s complex dtype; allocates nothing.

    The accumulate-into-``out`` entry points of ``_sparsetools`` write
    caller storage directly (the workspace plans rely on this); a
    non-contiguous operand falls back to the public operator.
    """
    from scipy.sparse import _sparsetools

    handle = _scipy_handle(A, out.dtype)
    X = X.astype(out.dtype, copy=False)
    if X.flags.c_contiguous and out.flags.c_contiguous:
        out.fill(0.0)
        m, k = handle.shape
        if X.ndim == 1 or X.shape[1] == 1:  # one column: csr_matvec
            _sparsetools.csr_matvec(
                m, k, handle.indptr, handle.indices, handle.data, X.ravel(),
                out.ravel(),
            )
        else:
            _sparsetools.csr_matvecs(
                m, k, X.shape[1], handle.indptr, handle.indices, handle.data,
                X.ravel(), out.ravel(),
            )
    else:
        out[:] = handle @ X


def _scratch(plan, attr: str, shape: tuple, dtype) -> np.ndarray:
    """The plan's ``attr`` buffer when it fits, else a fresh one."""
    buf = getattr(plan, attr, None)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        return np.empty(shape, dtype=dtype)
    return buf


class NumpyBackend(KernelBackend):
    """NumPy/SciPy kernels — always available."""

    name = "numpy"

    def available(self) -> bool:
        return True

    # -- products --------------------------------------------------------
    def _product(self, kind, A, X, out, plan, sink):
        block = kind == "spmmv"
        X, prec, out = self._product_args(A, X, out, block)
        r = X.shape[1] if block else 1
        with sink.span(kind) as sp:
            self._apply(A, X, out)
            sp.charge(kind, *spmv_cost(*matrix_stream(A, prec), r, prec))
        return out

    @staticmethod
    def _apply(A, X: np.ndarray, out: np.ndarray) -> None:
        """``out = A @ X`` in storage; half storage through fp32."""
        if X.dtype != np.float16:
            _product(A, X, out)
            return
        tgt = np.empty(out.shape[:-1], dtype=np.complex64)
        _product(A, FP16V.decode(X), tgt)
        FP16V.encode(tgt, out=out)

    def plan(self, A, r: int = 1, precision=None, threads=None,
             simd=None, split=None) -> KernelPlan:
        plan = super().plan(A, r, precision, threads, simd, split)
        if split is not None:
            # each phase range's rows, over the full [local | halo]
            # column range (per-row data order kept: the W update is
            # bitwise the whole step's)
            plan.range_matrices = {
                (lo, hi): A if hi - lo == A.n_rows else A.extract_rows(lo, hi)
                for ranges in plan.phases for lo, hi in ranges
            }
        return plan

    # -- augmented steps (paper Figs. 4 and 5) ---------------------------
    def _step(self, name, A, V, W, a, b, plan, sink):
        if name == "aug_spmv":  # the walk's one-column view
            V = check_vector("v", V, A.n_cols)[:, None]
            W = check_vector("w", W, A.n_rows)[:, None]
        else:
            V = check_block_vector("V", V, A.n_cols)
            W = check_block_vector("W", W, A.n_rows, V.shape[1])
        prec = precision_of(V)
        with sink.span(name) as sp:
            bins = self._walk(A, V, W, a, b, plan, 0, A.n_rows)
            sp.charge(name, *aug_cost(*matrix_stream(A, prec), W.shape[1],
                                      prec))
        return bins

    def _aug_range(self, A, V, W, a, b, plan, row0, row1, bins):
        self._walk(plan.range_matrices[row0, row1], V, W, a, b, plan, row0,
                   row1, bins)

    def _walk(self, A, V, W, a, b, plan, row0, row1, bins=None):
        """The one augmented walk: ``W <- 2a(H - b)V - W`` and the eta
        bins over rows ``[row0, row1)`` of the (N, R) blocks, ``A`` being
        those rows of the operator (the whole matrix for ``[0, N)``).

        The product runs on ``A`` (a SELL operator: its CSR image), the
        recombination and the one eta reduction (DESIGN §19) on row
        views — one walk for every format.  Every rounding follows the
        C kernels', so both backends write the same bits.  Half storage
        is decoded into the plan's complex64 scratch (all of ``V``: its
        halo may have landed since the last phase), computed in fp32 and
        encoded back.
        Returns the bins: ``bins``, else the plan's (or fresh ones).
        """
        n, r = W.shape[:2]
        half = precision_of(V).half_vectors
        if half:
            vc = FP16V.decode(V, out=_scratch(plan, "vc", (V.shape[0], r),
                                               np.complex64))
            wc = _scratch(plan, "wc", (n, r), np.complex64)[row0:row1]
            FP16V.decode(W[row0:row1], out=wc)
        else:
            vc, wc = V, W[row0:row1]
        u, tmp = (_scratch(plan, name, (n, r), vc.dtype)[row0:row1]
                  for name in ("u_block", "work_block"))
        _product(A, vc, u)
        vn = vc[row0:row1]
        _recombine(wc, u, vn, a, b, tmp)
        anchors, own, escape = self._eta_state(plan, vc, n, r)
        bins = eta_bins(vn, wc, anchors, escape,
                        out=own if bins is None else bins,
                        work=self._eta_work(plan, n, r))
        if half:
            FP16V.encode(wc, out=W[row0:row1])
        return bins
