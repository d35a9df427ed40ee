"""The NumPy kernel backend: vectorized reference implementation.

Thin adapter that routes the :class:`~repro.sparse.backend.KernelBackend`
interface onto the existing NumPy/SciPy kernels in
:mod:`repro.sparse.spmv` and :mod:`repro.sparse.fused`, feeding them the
plan's preallocated workspaces so a steady-state KPM iteration performs
zero array allocation (``out=`` everywhere; the recombination runs as
in-place passes through the plan's scratch buffers).

Precision: complex128 and complex64 operands flow straight through (the
underlying kernels infer the fp64/fp32 profile from the dtype).  fp16v
half storage is decoded into the plan's complex64 scratch, computed in
fp32, and encoded back — the charges still follow the half-width layout
(``precision=FP16V`` is threaded into the fused kernels and the part
charges).  Note the NumPy backend *physically* streams whatever SciPy
streams (e.g. int32 indices); the charges model the profile's Table-I
minimum layout, which is what the native kernels actually realize — the
NumPy backend is the reference implementation, charged identically so
every model stays backend-independent.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse import fused
from repro.sparse.backend import KernelBackend, KernelPlan, SplitKernelPlan
from repro.sparse.spmv import spmmv as _spmmv
from repro.sparse.spmv import spmv as _spmv
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.precision import FP16V, precision_of


def _plan_scratch(plan, v, block: bool = False):
    """Plan scratch buffers when their dtype matches the compute dtype."""
    if plan is None:
        return None, None
    u = plan.u_block if block else plan.u
    if u.dtype != v.dtype:
        return None, None
    return u, plan.work


class NumpyBackend(KernelBackend):
    """Pure NumPy/SciPy kernels — always available.

    Span recording is delegated to the underlying kernels in
    :mod:`repro.sparse.spmv` / :mod:`repro.sparse.fused` (which span
    themselves), so direct kernel calls and backend-dispatched calls
    produce identical metrics.
    """

    name = "numpy"

    def available(self) -> bool:
        return True

    def spmv(self, A, x, out=None, plan: KernelPlan | None = None,
             counters: PerfCounters = NULL_COUNTERS,
             metrics: MetricsRegistry = NULL_METRICS):
        return _spmv(A, x, out=out, counters=counters, metrics=metrics)

    def spmmv(self, A, X, out=None, plan: KernelPlan | None = None,
              counters: PerfCounters = NULL_COUNTERS,
              metrics: MetricsRegistry = NULL_METRICS):
        return _spmmv(A, X, out=out, counters=counters, metrics=metrics)

    def naive_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        if v.dtype == np.float16:
            # decode pass: half-storage SpMV + fp32 BLAS-1 (shared base
            # implementation, charge-identical to the native backend)
            return self._naive_step_half(
                A, v, w, a, b, plan, counters, metrics
            )
        scratch, work = _plan_scratch(plan, v)
        return fused.naive_kpm_step(
            A, v, w, a, b, scratch=scratch, counters=counters, scratch2=work,
            metrics=metrics,
        )

    def aug_spmv_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        if v.dtype == np.float16:
            vc, wc = self._decode_pair(A, v, w, plan, r=None)
            scratch, _ = _plan_scratch(plan, vc)
            ee, eo = fused.aug_spmv_step(
                A, vc, wc, a, b, scratch=scratch, counters=counters,
                metrics=metrics, precision=FP16V,
            )
            FP16V.encode(wc, out=w)
            return ee, eo
        scratch, _ = _plan_scratch(plan, v)
        return fused.aug_spmv_step(
            A, v, w, a, b, scratch=scratch, counters=counters, metrics=metrics
        )

    def aug_spmmv_step(
        self, A, V, W, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        if V.dtype == np.float16:
            Vc, Wc = self._decode_pair(A, V, W, plan, r=V.shape[1])
            scratch, _ = _plan_scratch(plan, Vc, block=True)
            ee, eo = fused.aug_spmmv_step(
                A, Vc, Wc, a, b, scratch=scratch, counters=counters,
                metrics=metrics, precision=FP16V,
            )
            FP16V.encode(Wc, out=W)
            return ee, eo
        scratch, _ = _plan_scratch(plan, V, block=True)
        return fused.aug_spmmv_step(
            A, V, W, a, b, scratch=scratch, counters=counters, metrics=metrics
        )

    # -- fp16v decode helpers ------------------------------------------

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
    # The phase update is the plain kernel restricted to a row subset:
    # the SpMMV runs on the extracted phase sub-matrix (per-row data
    # order preserved, so the per-row sums — and hence the W update —
    # are bitwise the single-phase values), the recombination and dots
    # on contiguous views (interior) or gathered scratch (boundary).
    # Half storage is decoded into the split plan's complex64 scratch
    # per phase — V is re-decoded each phase because the halo exchange
    # may land between the interior and boundary phases.

    def aug_spmv_interior(
        self, A, v, w, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        prec = precision_of(v)
        with metrics.span("aug_spmv_int", counters=counters):
            u = plan.u_interior.reshape(plan.n_interior)
            if prec.half_vectors:
                vc = plan.vc[:, 0]
                FP16V.decode(v, out=vc)
                vn = vc[plan.row0 : plan.row1]
                wn = plan.wc[plan.row0 : plan.row1, 0]
                FP16V.decode(w[plan.row0 : plan.row1], out=wn)
            else:
                vc = v
                vn = v[plan.row0 : plan.row1]
                wn = w[plan.row0 : plan.row1]
            _spmv(plan.interior_matrix, vc, out=u, counters=NULL_COUNTERS)
            fused._recombine(wn, u, vn, a, b)
            if prec.half_vectors:
                FP16V.encode(wn, out=w[plan.row0 : plan.row1])
            ee, eo = fused.vec_dots(vn, wn)
            fused.charge_aug_spmv_part(
                plan.n_interior, plan.nnz_interior, counters, "aug_spmv_int",
                prec, s_index=prec.index_bytes(A.n_cols),
            )
        return ee, eo

    def aug_spmv_boundary(
        self, A, v, w, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        prec = precision_of(v)
        with metrics.span("aug_spmv_bnd", counters=counters):
            rows = plan.rows
            u = plan.u_boundary.reshape(plan.n_boundary)
            vb = plan.v_boundary.reshape(plan.n_boundary)
            wb = plan.w_boundary.reshape(plan.n_boundary)
            if prec.half_vectors:
                vc = plan.vc[:, 0]
                FP16V.decode(v, out=vc)
                _spmv(plan.boundary_matrix, vc, out=u, counters=NULL_COUNTERS)
                np.take(vc, rows, axis=0, out=vb, mode="clip")
                FP16V.decode(w[rows], out=wb)
            else:
                _spmv(plan.boundary_matrix, v, out=u, counters=NULL_COUNTERS)
                # mode='clip' keeps the gather buffer-free (the default
                # 'raise' materializes a temporary); rows are validated
                # in range when the split plan is built
                np.take(v, rows, axis=0, out=vb, mode="clip")
                np.take(w, rows, axis=0, out=wb, mode="clip")
            fused._recombine(wb, u, vb, a, b)
            if prec.half_vectors:
                w[rows] = FP16V.encode(wb)
            else:
                w[rows] = wb
            ee, eo = fused.vec_dots(vb, wb)
            fused.charge_aug_spmv_part(
                plan.n_boundary, plan.nnz_boundary, counters, "aug_spmv_bnd",
                prec, s_index=prec.index_bytes(A.n_cols),
            )
        return ee, eo

    def aug_spmmv_interior(
        self, A, V, W, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        prec = precision_of(V)
        with metrics.span("aug_spmmv_int", counters=counters):
            u = plan.u_interior
            if prec.half_vectors:
                FP16V.decode(V, out=plan.vc)
                vn = plan.vc[plan.row0 : plan.row1]
                wn = plan.wc[plan.row0 : plan.row1]
                FP16V.decode(W[plan.row0 : plan.row1], out=wn)
                _spmmv(
                    plan.interior_matrix, plan.vc, out=u,
                    counters=NULL_COUNTERS,
                )
            else:
                vn = V[plan.row0 : plan.row1]
                wn = W[plan.row0 : plan.row1]
                _spmmv(plan.interior_matrix, V, out=u, counters=NULL_COUNTERS)
            fused._recombine(wn, u, vn, a, b)
            if prec.half_vectors:
                FP16V.encode(wn, out=W[plan.row0 : plan.row1])
            ee, eo = fused._col_dots(vn, wn)
            fused.charge_aug_spmmv_part(
                plan.n_interior, plan.nnz_interior, plan.r, counters,
                "aug_spmmv_int", prec, s_index=prec.index_bytes(A.n_cols),
            )
        return ee, eo

    def aug_spmmv_boundary(
        self, A, V, W, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        prec = precision_of(V)
        with metrics.span("aug_spmmv_bnd", counters=counters):
            rows = plan.rows
            u = plan.u_boundary
            vb = plan.v_boundary
            wb = plan.w_boundary
            if prec.half_vectors:
                FP16V.decode(V, out=plan.vc)
                _spmmv(
                    plan.boundary_matrix, plan.vc, out=u,
                    counters=NULL_COUNTERS,
                )
                np.take(plan.vc, rows, axis=0, out=vb, mode="clip")
                FP16V.decode(W[rows], out=wb)
            else:
                _spmmv(plan.boundary_matrix, V, out=u, counters=NULL_COUNTERS)
                # see aug_spmv_boundary: clip mode == allocation-free gather
                np.take(V, rows, axis=0, out=vb, mode="clip")
                np.take(W, rows, axis=0, out=wb, mode="clip")
            fused._recombine(wb, u, vb, a, b)
            if prec.half_vectors:
                W[rows] = FP16V.encode(wb)
            else:
                W[rows] = wb
            ee, eo = fused._col_dots(vb, wb)
            fused.charge_aug_spmmv_part(
                plan.n_boundary, plan.nnz_boundary, plan.r, counters,
                "aug_spmmv_bnd", prec, s_index=prec.index_bytes(A.n_cols),
            )
        return ee, eo
