"""The NumPy kernel backend: the vectorized reference implementation.

Every NumPy kernel of the package lives here.  The matrix product is
SciPy's compiled CSR kernel (``scipy.sparse._sparsetools``), whose inner
loop is the paper's row-major SpMMV access pattern — one fused
gather-multiply-add pass per matrix entry over R contiguous block-vector
elements; SELL operators run through their CSR image.  The augmented
steps (paper Figs. 4 and 5) add the recombination and the two scalar
products as in-place NumPy passes over the plan's preallocated
workspaces, so a steady-state KPM iteration allocates nothing.  The
naive chain (Fig. 3) is the base class's.

Precision: complex128 and complex64 operands flow straight through (the
profile is inferred from the dtype).  fp16v half storage is decoded into
the plan's complex64 scratch, computed in fp32, and encoded back — the
charges still follow the half-width layout.  Note the NumPy backend
*physically* streams whatever SciPy streams (e.g. int32 indices); the
charges model the profile's Table-I minimum layout, which is what the
native kernels actually realize — the NumPy backend is the reference
implementation, charged identically so every model stays
backend-independent.  The layout-faithful pure-NumPy SELL traversal the
backends are tested against is :mod:`repro.sparse.sell_kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import KernelBackend, KernelPlan, SplitKernelPlan
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import (
    _recombine,
    charge_aug,
    charge_spmv,
    col_dots,
    matrix_stream,
    vec_dots,
)
from repro.util.counters import NULL_COUNTERS, PerfCounters
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

    handle = getattr(A, "_scipy_cache", None)
    if handle is None:
        csr = A if isinstance(A, CSRMatrix) else A.to_csr()
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


def _scratch(plan, attr: str, shape: tuple, dtype) -> np.ndarray:
    """The plan's ``attr`` buffer when it fits, else a fresh one."""
    buf = None if plan is None else getattr(plan, attr)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        return np.empty(shape, dtype=dtype)
    return buf


class NumpyBackend(KernelBackend):
    """NumPy/SciPy kernels — always available."""

    name = "numpy"

    def available(self) -> bool:
        return True

    # -- products --------------------------------------------------------
    def spmv(self, A, x, out=None, plan: KernelPlan | None = None,
             counters: PerfCounters = NULL_COUNTERS,
             metrics: MetricsRegistry = NULL_METRICS):
        x, prec, out = self._product_args(A, x, out)
        with metrics.span("spmv", counters=counters):
            self._apply(A, x, out)
            charge_spmv(counters, "spmv", *matrix_stream(A, prec), 1, prec)
        return out

    def spmmv(self, A, X, out=None, plan: KernelPlan | None = None,
              counters: PerfCounters = NULL_COUNTERS,
              metrics: MetricsRegistry = NULL_METRICS):
        X, prec, out = self._product_args(A, X, out, block=True)
        r = X.shape[1]
        with metrics.span("spmmv", counters=counters):
            self._apply(A, X, out)
            charge_spmv(counters, "spmmv", *matrix_stream(A, prec), r, prec)
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

    # -- augmented steps (paper Figs. 4 and 5) ---------------------------
    def aug_spmv_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Stage 1: shift, scale, recombination and both dot products,
        charged as one kernel touching each of v and w once —
        ``N_nz (S_d+S_i) + 3 N S_d`` bytes per call."""
        n = A.n_rows
        v = check_vector("v", v, n)
        w = check_vector("w", w, n)
        prec = precision_of(v)
        vc, wc = self._decode_pair(A, v, w, plan, None) \
            if prec.half_vectors else (v, w)
        u = _scratch(plan, "u", (n,), vc.dtype)
        with metrics.span("aug_spmv", counters=counters):
            _product(A, vc, u)
            _recombine(wc, u, vc, a, b)
            eta_even, eta_odd = vec_dots(vc, wc)
            charge_aug(counters, "aug_spmv", *matrix_stream(A, prec), 1, prec)
        if prec.half_vectors:
            FP16V.encode(wc, out=w)
        return eta_even, eta_odd

    def aug_spmmv_step(
        self, A, V, W, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Stage 2: the augmented SpMMV over row-major (N, R) blocks.

        ``V`` may span the rank's ``[local | halo]`` columns; the update
        and the per-column dots run over its first ``N`` rows.  Charged
        traffic: ``N_nz (S_d+S_i) + 3 R N S_d`` bytes per call — Eq. (4)'s
        final line divided by the M/2 iterations.
        """
        n = A.n_rows
        V = check_block_vector("V", V, A.n_cols)
        r = V.shape[1]
        W = check_block_vector("W", W, n, r)
        prec = precision_of(V)
        Vc, Wc = self._decode_pair(A, V, W, plan, r) \
            if prec.half_vectors else (V, W)
        U = _scratch(plan, "u_block", (n, r), Vc.dtype)
        with metrics.span("aug_spmmv", counters=counters):
            _product(A, Vc, U)
            Vn = Vc[:n]
            _recombine(Wc, U, Vn, a, b)
            eta_even, eta_odd = col_dots(Vn, Wc)
            charge_aug(counters, "aug_spmmv", *matrix_stream(A, prec), r, prec)
        if prec.half_vectors:
            FP16V.encode(Wc, out=W)
        return eta_even, eta_odd

    @staticmethod
    def _decode_pair(A, v, w, plan, r):
        """Decode f16 pair storage into complex64 working copies.

        Uses the plan's ``vc``/``wc`` scratch when it fits (zero
        steady-state allocation); ``r=None`` selects the single-vector
        shape.  ``v`` spans the full column range (local + halo), ``w``
        the rows.
        """
        width = 1 if r is None else r
        if (
            plan is not None
            and getattr(plan, "vc", None) is not None
            and plan.r == width
        ):
            vc, wc = plan.vc, plan.wc
            if r is None:
                vc, wc = vc[:, 0], wc[:, 0]
        else:
            shape_v = (A.n_cols,) if r is None else (A.n_cols, r)
            shape_w = (A.n_rows,) if r is None else (A.n_rows, r)
            vc = np.empty(shape_v, dtype=np.complex64)
            wc = np.empty(shape_w, dtype=np.complex64)
        FP16V.decode(v, out=vc)
        FP16V.decode(w, out=wc)
        return vc, wc

    # -- split (task-mode) kernels -------------------------------------
    # A phase is the plain kernel restricted to a row subset: the product
    # runs on the extracted phase sub-matrix (per-row data order
    # preserved, so the per-row sums — and hence the W update — are
    # bitwise the single-phase values), the recombination and dots on
    # contiguous views (interior) or gathered scratch (boundary).  Half
    # storage is decoded into the plan's complex64 scratch per phase — V
    # is re-decoded each phase because the halo exchange may land between
    # the interior and boundary phases.

    def split_plan(self, A, split, r: int = 1, precision=None,
                   threads=None, simd=None) -> SplitKernelPlan:
        plan = super().split_plan(A, split, r, precision, threads, simd)
        # phase sub-matrices over the full [local | halo] column range
        plan.interior_matrix = A.extract_rows(plan.row0, plan.row1)
        plan.boundary_matrix = A.take_rows(plan.rows)
        # compute-dtype phase outputs and boundary gather/scatter buffers
        cdt = plan.precision.compute_dtype
        for name, rows in (("u_interior", plan.n_interior),
                           ("u_boundary", plan.n_boundary),
                           ("v_boundary", plan.n_boundary),
                           ("w_boundary", plan.n_boundary)):
            setattr(plan, name, np.empty((rows, plan.r), dtype=cdt))
        if plan.precision.half_vectors:
            plan.vc = np.empty((A.n_cols, plan.r), dtype=cdt)
            plan.wc = np.empty((A.n_rows, plan.r), dtype=cdt)
        return plan

    def aug_spmv_interior(self, A, v, w, a, b, plan: SplitKernelPlan,
                          counters: PerfCounters = NULL_COUNTERS,
                          metrics: MetricsRegistry = NULL_METRICS):
        return self._phase("aug_spmv_int", A, v, w, a, b, plan, counters,
                           metrics)

    def aug_spmv_boundary(self, A, v, w, a, b, plan: SplitKernelPlan,
                          counters: PerfCounters = NULL_COUNTERS,
                          metrics: MetricsRegistry = NULL_METRICS):
        return self._phase("aug_spmv_bnd", A, v, w, a, b, plan, counters,
                           metrics)

    def aug_spmmv_interior(self, A, V, W, a, b, plan: SplitKernelPlan,
                           counters: PerfCounters = NULL_COUNTERS,
                           metrics: MetricsRegistry = NULL_METRICS):
        return self._phase("aug_spmmv_int", A, V, W, a, b, plan, counters,
                           metrics)

    def aug_spmmv_boundary(self, A, V, W, a, b, plan: SplitKernelPlan,
                           counters: PerfCounters = NULL_COUNTERS,
                           metrics: MetricsRegistry = NULL_METRICS):
        return self._phase("aug_spmmv_bnd", A, V, W, a, b, plan, counters,
                           metrics)

    def _phase(self, name, A, V, W, a, b, plan, counters, metrics):
        """One phase (``*_int`` or ``*_bnd``) of a split augmented step.

        ``aug_spmv_*`` phases take 1-D vectors and see the plan's (rows,
        1) scratch as vectors; ``aug_spmmv_*`` phases take (rows, R)
        blocks.
        """
        prec = precision_of(V)
        single = name.startswith("aug_spmv_")
        pick = (lambda buf: buf[:, 0]) if single else (lambda buf: buf)
        half = prec.half_vectors
        with metrics.span(name, counters=counters):
            vc = FP16V.decode(V, out=pick(plan.vc)) if half else V
            if name.endswith("_int"):
                lo, hi = plan.row0, plan.row1
                n_phase, nnz = plan.n_interior, plan.nnz_interior
                u = pick(plan.u_interior)
                _product(plan.interior_matrix, vc, u)
                vn = vc[lo:hi]
                if half:
                    wn = pick(plan.wc)[lo:hi]
                    FP16V.decode(W[lo:hi], out=wn)
                else:
                    wn = W[lo:hi]
                _recombine(wn, u, vn, a, b)
                if half:
                    FP16V.encode(wn, out=W[lo:hi])
            else:
                rows = plan.rows
                n_phase, nnz = plan.n_boundary, plan.nnz_boundary
                u = pick(plan.u_boundary)
                vn, wn = pick(plan.v_boundary), pick(plan.w_boundary)
                _product(plan.boundary_matrix, vc, u)
                # mode='clip' keeps the gather buffer-free (the default
                # 'raise' materializes a temporary); rows are validated
                # in range when the split plan is built
                np.take(vc, rows, axis=0, out=vn, mode="clip")
                if half:
                    FP16V.decode(W[rows], out=wn)
                else:
                    np.take(W, rows, axis=0, out=wn, mode="clip")
                _recombine(wn, u, vn, a, b)
                W[rows] = FP16V.encode(wn) if half else wn
            ee, eo = (vec_dots if single else col_dots)(vn, wn)
            charge_aug(counters, name, n_phase, nnz,
                       prec.index_bytes(A.n_cols), 1 if single else plan.r,
                       prec)
        return ee, eo
