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

import os
import threading

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import KernelBackend, KernelPlan
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
from repro.sparse.fused import charge_aug, charge_spmv, fold, matrix_stream
from repro.sparse.sell import SellMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import ShapeError
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


#: Idents of the threads that have started an OpenMP team, and whether
#: this process is a fork of one of them (:func:`_team`).
_TEAM_THREADS: set[int] = set()
_teamless = False


def _team(plan) -> int:
    """The C kernels' ``n_threads`` for ``plan`` (None or ``threads=None``:
    one).  libgomp keeps a thread's team alive across calls, and a child
    forked from that thread inherits the team's bookkeeping but not its
    threads: its first parallel region never returns.  So a fork from a
    thread that ran a team leaves a child that runs every kernel on one
    thread — the same bits (DESIGN §19); a fork from any other thread
    (the mp engine forks from a fresh one) keeps its teams."""
    threads = plan.threads if plan is not None else None
    if not threads or threads == 1 or _teamless:
        return 1
    _TEAM_THREADS.add(threading.get_ident())
    return threads


def _after_fork_in_child() -> None:
    global _teamless
    _teamless = _teamless or threading.get_ident() in _TEAM_THREADS
    _TEAM_THREADS.clear()  # the child's other threads are gone


os.register_at_fork(after_in_child=_after_fork_in_child)


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


def _aug_operands(A, V, W, single: bool) -> tuple:
    """``(V, W, profile, R)`` of one aug kernel call, checked for the C
    kernels: contiguous storage of one profile and one block width."""
    if single:
        V = _as_kernel_vector("v", V, A.n_cols)
        W = _as_kernel_vector("w", W, A.n_rows)
    else:
        V = _as_kernel_block("V", V, A.n_cols)
        W = _as_kernel_block("W", W, A.n_rows)
        if W.shape[1] != V.shape[1]:
            raise ShapeError(
                f"V and W must share a block width, got {V.shape[1]} "
                f"and {W.shape[1]}"
            )
    if V.dtype != W.dtype:
        raise ShapeError(
            "v and w must share one precision profile's storage dtype, got "
            f"{V.dtype} and {W.dtype}"
        )
    return V, W, precision_of(V), 1 if single else V.shape[1]


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
        nt = _team(plan)
        with metrics.span("spmv", counters=counters):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                kernel("repro_csr_spmv", suf, vs)(
                    A.n_rows, *args, _pvec(x), _pvec(out), nt
                )
            else:
                suf, args = self._sell_args(A, prec)
                kernel("repro_sell_spmv", suf, vs)(
                    A.n_rows, *args, _pvec(x), _pvec(out), nt
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
        nt = _team(plan)
        with metrics.span("spmmv", counters=counters):
            if isinstance(A, CSRMatrix):
                suf, args = self._csr_args(A, prec)
                kernel("repro_csr_spmmv", suf, vs)(
                    A.n_rows, r, *args, _pvec(X), _pvec(out), nt
                )
            else:
                suf, (nc, c, *rest) = self._sell_args(A, prec)
                kernel("repro_sell_spmmv", suf, vs)(
                    A.n_rows, nc, c, r, *rest, _pvec(X), _pvec(out), nt
                )
            charge_spmv(counters, "spmmv", *matrix_stream(A, prec), r, prec)
        return out

    def aug_spmv_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        ee, eo = self._step("aug_spmv", A, v, w, a, b, plan, counters,
                            metrics)
        return float(ee[0]), complex(eo[0])

    def aug_spmmv_step(
        self, A, V, W, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        return self._step("aug_spmmv", A, V, W, a, b, plan, counters,
                          metrics)

    def _step(self, kind, A, V, W, a, b, plan, counters, metrics):
        """One whole augmented step (``aug_spm(m)v``, on 1-D vectors for
        ``aug_spmv``); returns the fold of its bins (DESIGN §19)."""
        if not isinstance(A, (CSRMatrix, SellMatrix)):
            raise TypeError(f"unsupported matrix type {type(A).__name__}")
        threads = plan.threads if plan is not None else None
        meta = {} if threads is None else {"threads": threads}
        with metrics.span(kind, counters=counters, **meta):
            bins, prec, r = self._aug(kind, A, V, W, a, b, plan, 0, A.n_rows)
            charge_aug(counters, kind, *matrix_stream(A, prec), r, prec)
        return fold(bins)

    def _aug_range(self, A, V, W, a, b, plan, row0, row1, bins):
        self._aug("aug_spmmv", A, V, W, a, b, plan, row0, row1, bins)

    @staticmethod
    def _eta_ptrs(plan, anchors, bins, escape) -> tuple:
        """The kernels' (anchors, bins, escape) pointers.  A plan's arrays
        live as long as the plan, so their pointers are made once per
        (bins, anchors) pair (a pointer costs more than a small kernel
        call)."""
        if plan is None or escape is not plan.escape:  # fresh arrays
            return _pc(anchors), _pc(bins), _pi64(escape)
        cache = plan.__dict__.setdefault("_eta_ptrs", {})
        hit = cache.get(id(bins))  # the value holds bins: the id stays
        if hit is None or hit[0] is not anchors:
            hit = cache[id(bins)] = (anchors, bins, (
                _pc(anchors), _pc(bins), _pi64(escape)))
        return hit[2]

    def _aug(self, kind, A, V, W, a, b, plan, row0, row1, bins=None):
        """One C aug kernel: CSR over rows ``[row0, row1)`` of the
        ORIGINAL arrays, indexed in place; SELL whole.  Returns ``(bins,
        profile, R)`` — ``bins``, else the plan's (or fresh ones)."""
        V, W, prec, r = _aug_operands(A, V, W, kind == "aug_spmv")
        anchors, own, escape = self._eta_state(plan, V, A.n_rows, r)
        bins = own if bins is None else bins
        vs = _use_simd(plan.simd if plan is not None else None, prec)
        width = () if kind == "aug_spmv" else (r,)
        tail = (_pvec(V), _pvec(W), _team(plan), a, b,
                *self._eta_ptrs(plan, anchors, bins, escape))
        if isinstance(A, SellMatrix):
            suf, (nc, c, *rest) = self._sell_args(A, prec)
            kernel(f"repro_sell_{kind}", suf, vs)(
                A.n_rows, nc, c, *width, *rest, *tail)
        else:
            suf, args = self._csr_args(A, prec)
            kernel(f"repro_csr_{kind}", suf, vs)(
                row0, row1, *width, *args, *tail)
        return bins, prec, r
