"""The native kernel backend: compiled single-pass C kernels.

Marshals the CSR / SELL-C-sigma containers into the ctypes entry points
of ``_kernels.c`` (see :mod:`repro.sparse.backend.native`).  Unlike the
NumPy backend, the augmented kernels here really are one traversal of
the matrix stream per iteration with the recurrence update and both
scalar products computed inside the row loop — the kernel structure of
paper Figs. 4 and 5.

Precision dispatch: every kernel exists in each typed unit of
``_kernels.c`` (see :data:`repro.sparse.backend.native.KERNEL_SUFFIXES`;
:func:`repro.sparse.backend.native.kernel` builds a unit on first use)
and the profile is inferred from the vector operands — complex128,
complex64 and float16 pair storage map one-to-one onto the fp64 / fp32 /
fp16v profiles of :mod:`repro.util.precision`.  The matrix side streams
the profile's typed kernel pack (:func:`repro.sparse.compress.kernel_pack`):
narrowed values plus uint16-compressed column indices when the operator
is narrow enough, int32 fallback otherwise.

Accounting is charged through the exact same Table-I functions
(:mod:`repro.sparse.fused`) as the NumPy backend, and the naive chain
of paper Fig. 3 is the base class's over this backend's ``spmv``, so
:class:`~repro.util.counters.PerfCounters` totals and every
Table-I-derived model are backend-independent.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import KernelBackend, KernelPlan, SplitKernelPlan
from repro.sparse.backend.native import (
    _pc,
    _pi32,
    _pi64,
    _pidx,
    _pvec,
    kernel,
    load_library,
    simd_available,
    simd_f16c_available,
)
from repro.sparse.compress import kernel_pack
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import charge_aug, charge_spmv, matrix_stream
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import BackendError, ShapeError
from repro.util.precision import Precision, precision_of
from repro.util.validation import check_block_vector, check_vector

_KERNEL_DTYPES = (
    np.dtype(np.complex128),
    np.dtype(np.complex64),
    np.dtype(np.float16),
)


def _kernel_suffix(prec: Precision, indices: np.ndarray) -> str:
    """Exported-name suffix for this profile and realized index width."""
    if prec.is_fp64:
        return ""
    base = "_f16v" if prec.half_vectors else "_f32"
    if indices.dtype == np.uint16:
        base += "u16"
    return base


def _use_simd(simd: str | None, prec: Precision) -> bool:
    """Whether the vectorized (``_simd``) kernel family should run.

    ``simd`` is the plan's normalized knob (``None`` for plan-less calls
    ≡ ``"auto"``).  The scalar and ``_simd`` units are bitwise
    identical in fp64 results, so ``"auto"`` simply takes the fast family
    wherever the host builds it; the half-storage profiles additionally
    need the F16C converters.  An explicit ``"on"`` on a host that
    cannot build the vectorized units falls back to scalar *cleanly* — same
    numbers, plus a ``backend.native.simd_fallbacks`` health counter so
    the degradation is observable instead of silent.
    """
    if simd == "off":
        return False
    if simd_f16c_available() if prec.half_vectors else simd_available():
        return True
    if simd == "on":
        from repro.obs import GLOBAL_METRICS

        GLOBAL_METRICS.count("backend.native.simd_fallbacks")
    return False


def _as_kernel_block(name: str, X: np.ndarray, n: int) -> np.ndarray:
    """Validate an (n, R) block for the C kernels: contiguous storage."""
    X = check_block_vector(name, X, n)
    if X.dtype not in _KERNEL_DTYPES or not X.flags.c_contiguous:
        raise ShapeError(
            f"{name} must be C-contiguous complex128/complex64 (or float16 "
            "pair storage) for the native backend"
        )
    return X


def _as_kernel_vector(name: str, x: np.ndarray, n: int) -> np.ndarray:
    x = check_vector(name, x, n)
    if x.dtype not in _KERNEL_DTYPES or not x.flags.c_contiguous:
        raise ShapeError(
            f"{name} must be contiguous complex128/complex64 (or float16 "
            "pair storage) for the native backend"
        )
    return x


def _check_same_storage(av: np.ndarray, aw: np.ndarray) -> None:
    if av.dtype != aw.dtype:
        raise ShapeError(
            "v and w must share one precision profile's storage dtype, got "
            f"{av.dtype} and {aw.dtype}"
        )


class NativeBackend(KernelBackend):
    """Compiled C kernels (CSR + SELL-C-sigma), single pass per iteration."""

    name = "native"

    def available(self) -> bool:
        return load_library() is not None

    def kernel_family(self, plan) -> str:
        simd = _use_simd(plan.simd, plan.precision)
        return "native_simd" if simd else "native_scalar"

    # -- marshalling ---------------------------------------------------
    # The matrix-side pointers are cached on the matrix object (the
    # containers are immutable, same pattern as the ``_scipy_cache``
    # handle): ``data_as`` builds fresh ctypes wrappers per call, which
    # is measurable overhead when the distributed driver calls into the
    # kernels once per rank per iteration on small row blocks.  Narrow
    # profiles cache one pointer tuple per kernel suffix; the arrays
    # they point into live in the matrix's kernel-pack cache.
    @staticmethod
    def _csr_args(A: CSRMatrix, prec: Precision):
        if prec.is_fp64:
            args = getattr(A, "_native_arg_cache", None)
            if args is None:
                args = (_pi64(A.indptr), _pi32(A.indices), _pc(A.data))
                A._native_arg_cache = args
            return "", args
        values, indices = kernel_pack(A, prec)
        suffix = _kernel_suffix(prec, indices)
        cache = getattr(A, "_native_typed_args", None)
        if cache is None:
            cache = {}
            A._native_typed_args = cache
        args = cache.get(suffix)
        if args is None:
            args = (_pi64(A.indptr), _pidx(indices), _pvec(values))
            cache[suffix] = args
        return suffix, args

    @staticmethod
    def _sell_args(A: SellMatrix, prec: Precision):
        if prec.is_fp64:
            args = getattr(A, "_native_arg_cache", None)
            if args is None:
                args = (
                    A.n_chunks,
                    A.chunk_height,
                    _pi64(A.chunk_ptr),
                    _pi64(A.chunk_len),
                    _pi64(A.perm),
                    _pi32(A.indices),
                    _pc(A.data),
                )
                A._native_arg_cache = args
            return "", args
        values, indices = kernel_pack(A, prec)
        suffix = _kernel_suffix(prec, indices)
        cache = getattr(A, "_native_typed_args", None)
        if cache is None:
            cache = {}
            A._native_typed_args = cache
        args = cache.get(suffix)
        if args is None:
            args = (
                A.n_chunks,
                A.chunk_height,
                _pi64(A.chunk_ptr),
                _pi64(A.chunk_len),
                _pi64(A.perm),
                _pidx(indices),
                _pvec(values),
            )
            cache[suffix] = args
        return suffix, args

    # -- kernels -------------------------------------------------------
    def spmv(self, A, x, out=None, plan: KernelPlan | None = None,
             counters: PerfCounters = NULL_COUNTERS,
             metrics: MetricsRegistry = NULL_METRICS):
        x, prec, out = self._product_args(A, x, out)
        x = _as_kernel_vector("x", x, A.n_cols)
        vs = _use_simd(plan.simd if plan is not None else None, prec)
        with metrics.span("spmv", counters=counters):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                kernel("repro_csr_spmv", suf, vs)(
                    A.n_rows, *args, _pvec(x), _pvec(out)
                )
            else:
                suf, args = self._sell_args(A, prec)
                kernel("repro_sell_spmv", suf, vs)(
                    A.n_rows, *args, _pvec(x), _pvec(out)
                )
            charge_spmv(counters, "spmv", *matrix_stream(A, prec), 1, prec)
        return out

    def spmmv(self, A, X, out=None, plan: KernelPlan | None = None,
              counters: PerfCounters = NULL_COUNTERS,
              metrics: MetricsRegistry = NULL_METRICS):
        X, prec, out = self._product_args(A, X, out, block=True)
        X = _as_kernel_block("X", X, A.n_cols)
        r = X.shape[1]
        vs = _use_simd(plan.simd if plan is not None else None, prec)
        with metrics.span("spmmv", counters=counters):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                kernel("repro_csr_spmmv", suf, vs)(
                    A.n_rows, r, *args, _pvec(X), _pvec(out)
                )
            else:
                suf, (nc, c, *rest) = self._sell_args(A, prec)
                kernel("repro_sell_spmmv", suf, vs)(
                    A.n_rows, nc, c, r, *rest, _pvec(X), _pvec(out)
                )
            charge_spmv(counters, "spmmv", *matrix_stream(A, prec), r, prec)
        return out

    def aug_spmv_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        v = _as_kernel_vector("v", v, A.n_cols)
        w = _as_kernel_vector("w", w, A.n_rows)
        _check_same_storage(v, w)
        prec = precision_of(v)
        if plan is not None:
            ee, eo = plan.eta_even[:1], plan.eta_odd[:1]
        else:
            ee = np.empty(1, dtype=np.float64)
            eo = np.empty(1, dtype=DTYPE)
        threads = plan.threads if plan is not None else None
        vs = _use_simd(plan.simd if plan is not None else None, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmv", counters=counters, **meta):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                if threads is not None:
                    # an (n,) interleaved complex vector is memory-
                    # identical to an (n, 1) row-major block, so the
                    # threaded path reuses the blocked mt kernel at r=1
                    kernel("repro_csr_aug_spmmv_mt", suf, vs)(
                        A.n_rows, 1, threads, *args, _pvec(v), _pvec(w),
                        a, b, _pc(ee), _pc(eo),
                    )
                else:
                    kernel("repro_csr_aug_spmv", suf, vs)(
                        A.n_rows, *args, _pvec(v), _pvec(w), a, b,
                        _pc(ee), _pc(eo),
                    )
            elif isinstance(A, SellMatrix):
                if threads is not None:
                    suf, (nc, c, *rest) = self._sell_args(A, prec)
                    kernel("repro_sell_aug_spmmv_mt", suf, vs)(
                        A.n_rows, nc, c, 1, threads, *rest,
                        _pvec(v), _pvec(w), a, b, _pc(ee), _pc(eo),
                    )
                else:
                    suf, args = self._sell_args(A, prec)
                    kernel("repro_sell_aug_spmv", suf, vs)(
                        A.n_rows, *args, _pvec(v), _pvec(w), a, b,
                        _pc(ee), _pc(eo),
                    )
            else:
                raise TypeError(f"unsupported matrix type {type(A).__name__}")
            charge_aug(counters, "aug_spmv", *matrix_stream(A, prec), 1, prec)
        return float(ee[0]), complex(eo[0])

    def aug_spmmv_step(
        self, A, V, W, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        V = _as_kernel_block("V", V, A.n_cols)
        W = _as_kernel_block("W", W, A.n_rows)
        _check_same_storage(V, W)
        prec = precision_of(V)
        r = V.shape[1]
        if W.shape[1] != r:
            raise ShapeError(
                f"V and W must share a block width, got {r} and {W.shape[1]}"
            )
        if plan is not None and plan.r == r:
            ee, eo = plan.eta_even, plan.eta_odd
        else:
            ee = np.empty(r, dtype=np.float64)
            eo = np.empty(r, dtype=DTYPE)
        threads = plan.threads if plan is not None else None
        vs = _use_simd(plan.simd if plan is not None else None, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span("aug_spmmv", counters=counters, **meta):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                if threads is not None:
                    kernel("repro_csr_aug_spmmv_mt", suf, vs)(
                        A.n_rows, r, threads, *args, _pvec(V), _pvec(W),
                        a, b, _pc(ee), _pc(eo),
                    )
                else:
                    kernel("repro_csr_aug_spmmv", suf, vs)(
                        A.n_rows, r, *args, _pvec(V), _pvec(W), a, b,
                        _pc(ee), _pc(eo),
                    )
            elif isinstance(A, SellMatrix):
                suf, (nc, c, *rest) = self._sell_args(A, prec)
                if threads is not None:
                    kernel("repro_sell_aug_spmmv_mt", suf, vs)(
                        A.n_rows, nc, c, r, threads, *rest,
                        _pvec(V), _pvec(W), a, b, _pc(ee), _pc(eo),
                    )
                else:
                    kernel("repro_sell_aug_spmmv", suf, vs)(
                        A.n_rows, nc, c, r, *rest, _pvec(V), _pvec(W), a, b,
                        _pc(ee), _pc(eo),
                    )
            else:
                raise TypeError(f"unsupported matrix type {type(A).__name__}")
            charge_aug(counters, "aug_spmmv", *matrix_stream(A, prec), r,
                       prec)
        return ee.copy(), eo.copy()

    # -- split (task-mode) kernels -------------------------------------
    # The range/rows C kernels traverse the ORIGINAL local CSR arrays
    # with absolute row indexing (no extraction), write the phase's
    # rows of W with byte-for-byte the plain kernel's per-row
    # arithmetic, and return the phase's own eta partials.  CSR only:
    # SplitKernelPlan already rejects SELL at plan time.  The index-
    # width charge uses the WHOLE local operator's width so interior +
    # boundary partial charges still sum exactly to the unsplit charge.

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
        """One phase (``*_int``: the row range, ``*_bnd``: the gathered
        rows) of a split augmented step; ``aug_spmv_*`` on 1-D vectors."""
        if not isinstance(A, CSRMatrix):
            raise BackendError(
                "split (task-mode) kernels support CSR matrices only, got "
                f"{type(A).__name__}"
            )
        single = name.startswith("aug_spmv_")
        if single:
            V = _as_kernel_vector("v", V, A.n_cols)
            W = _as_kernel_vector("w", W, A.n_rows)
        else:
            V = _as_kernel_block("V", V, A.n_cols)
            W = _as_kernel_block("W", W, A.n_rows)
        _check_same_storage(V, W)
        prec = precision_of(V)
        r = 1 if single else V.shape[1]
        if name.endswith("_int"):
            walk, rows = "range", (plan.row0, plan.row1)
            n_phase, nnz = plan.n_interior, plan.nnz_interior
            ee, eo = plan.ee_interior, plan.eo_interior
        else:
            walk, rows = "rows", (plan.n_boundary, _pi64(plan.rows))
            n_phase, nnz = plan.n_boundary, plan.nnz_boundary
            ee, eo = plan.ee_boundary, plan.eo_boundary
        if single:
            ee, eo = ee[:1], eo[:1]
        threads = plan.threads
        vs = _use_simd(plan.simd, prec)
        meta = {} if threads is None else {"threads": threads}
        with metrics.span(name, counters=counters, **meta):
            suf, args = self._csr_args(A, prec)
            tail = (*args, _pvec(V), _pvec(W), a, b, _pc(ee), _pc(eo))
            if threads is not None:
                kernel(f"repro_csr_aug_spmmv_{walk}_mt", suf, vs)(
                    *rows, r, threads, *tail)
            elif single:
                kernel(f"repro_csr_aug_spmv_{walk}", suf, vs)(*rows, *tail)
            else:
                kernel(f"repro_csr_aug_spmmv_{walk}", suf, vs)(
                    *rows, r, *tail)
            charge_aug(counters, name, n_phase, nnz,
                       prec.index_bytes(A.n_cols), r, prec)
        if single:
            return float(ee[0]), complex(eo[0])
        return ee.copy(), eo.copy()
