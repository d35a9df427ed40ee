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
the sink's traffic fold and every Table-I-derived model are
backend-independent.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.sparse.backend import KernelBackend, KernelPlan
from repro.sparse.backend.native import (
    _ptr,
    kernel,
    load_library,
    simd_available,
    simd_f16c_available,
)
from repro.sparse.compress import kernel_pack
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import (_cols, aug_cost, eta_anchors,
                                matrix_stream, spmv_cost)
from repro.sparse.sell import SellMatrix
from repro.util.errors import ShapeError
from repro.util.precision import FP64, Precision, precision_of
from repro.util.validation import check_block_vector, check_vector

_KERNEL_DTYPES = (
    np.dtype(np.complex128),
    np.dtype(np.complex64),
    np.dtype(np.float16),
)

#: The unit whose ``repro_anchors`` reads a block of each storage dtype.
_ANCHOR_UNITS = dict(zip(_KERNEL_DTYPES, ("", "_f32", "_f16v")))


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
    the degradation is observable instead of silent.  Asked once per
    plan, when it is built (:func:`_plan_simd`), and once per plan-less
    call: ``REPRO_SIMD_DISABLE`` set later reaches the plans built later.
    """
    if simd == "off":
        return False
    if simd_f16c_available() if prec.half_vectors else simd_available():
        return True
    if simd == "on":
        from repro.obs import GLOBAL_METRICS

        GLOBAL_METRICS.count("backend.native.simd_fallbacks")
    return False


def _plan_simd(plan, prec: Precision) -> bool:
    """The kernel family ``plan``'s calls in profile ``prec`` run: the
    plan's own, resolved when :meth:`NativeBackend.plan` built it (or on
    a plan made elsewhere, at its first native call), or — no plan —
    asked now."""
    if plan is None:
        return _use_simd(None, prec)
    vs = plan.native_simd
    if vs is None:
        vs = plan.native_simd = _use_simd(plan.simd, plan.precision)
    if prec.half_vectors != plan.precision.half_vectors:
        return _use_simd(plan.simd, prec)  # vectors of another profile
    return vs


#: Idents of the threads that have started an OpenMP team, and whether
#: this process is a fork of one of them (:func:`_team`).
_TEAM_THREADS: set[int] = set()
_teamless = False


def _team(threads) -> int:
    """The C kernels' ``n_threads`` for a plan's ``threads`` (None: one).
    libgomp keeps a thread's team alive across calls, and a child
    forked from that thread inherits the team's bookkeeping but not its
    threads: its first parallel region never returns.  So a fork from a
    thread that ran a team leaves a child that runs every kernel on one
    thread — the same bits (DESIGN §19); a fork from any other thread
    (the mp engine forks from a fresh one) keeps its teams."""
    if not threads or threads == 1 or _teamless:
        return 1
    _TEAM_THREADS.add(threading.get_ident())
    return threads


def _after_fork_in_child() -> None:
    global _teamless
    _teamless = _teamless or threading.get_ident() in _TEAM_THREADS
    _TEAM_THREADS.clear()  # the child's other threads are gone


os.register_at_fork(after_in_child=_after_fork_in_child)


def _kernel_operand(name: str, X: np.ndarray, n: int,
                    block: bool) -> np.ndarray:
    """Validate a vector — ``block``: an (n, R) block — for the C
    kernels: contiguous storage of one profile's dtype."""
    X = (check_block_vector if block else check_vector)(name, X, n)
    if X.dtype not in _KERNEL_DTYPES or not X.flags.c_contiguous:
        raise ShapeError(
            f"{name} must be C-contiguous complex128/complex64 (or float16 "
            "pair storage) for the native backend"
        )
    return X


#: The walks' finishers, ``REPRO_FIN_*`` in ``_kernels.c``.
_STORE, _BOOT, _AUG = 0, 1, 2


class _Call:
    """One walk call with everything but ``(a, b)`` and the team
    resolved (DESIGN §18): ``fn(*head, n_threads, a, b, *eta)`` runs it,
    ``cost`` is its Table-I ``(loads, stores, flops)`` and ``meta`` its
    span's.  It holds the arrays its pointers point into — ``A``, ``V``,
    ``W``, ``anchors``, ``bins`` — so it is reused for exactly those
    objects (``is``), and a new ``anchors`` (:meth:`~repro.core.
    recurrence.Recurrence.load`) makes a new call."""

    __slots__ = ("A", "V", "W", "anchors", "bins", "fn", "head", "eta",
                 "cost", "meta")

    def fits(self, A, V, W, anchors, bins) -> bool:
        return (self.V is V and self.W is W and self.anchors is anchors
                and self.bins is bins and self.A is A)


class NativeBackend(KernelBackend):
    """Compiled C kernels (CSR + SELL-C-sigma), single pass per iteration."""

    name = "native"

    def available(self) -> bool:
        return load_library() is not None

    def plan(self, A, r: int = 1, precision=None, threads=None,
             simd=None, split=None) -> KernelPlan:
        plan = super().plan(A, r, precision, threads, simd, split)
        _plan_simd(plan, plan.precision)  # the family, fixed from here on
        return plan

    def kernel_family(self, plan) -> str:
        simd = _plan_simd(plan, plan.precision)
        return "native_simd" if simd else "native_scalar"

    # -- marshalling ---------------------------------------------------
    @staticmethod
    def _entry(fin, A, prec, vs, r, row0, row1, pack=None) -> tuple:
        """``(fn, head)``: ``A``'s walk in profile ``prec`` and family
        ``vs``, and its leading arguments — the finisher ``fin``, CSR's
        rows ``[row0, row1)`` (SELL: all), then the matrix's with the
        block width ``r``.

        The matrix's pointers are cached on it, one tuple per kernel
        suffix (the containers are immutable; ``data_as`` builds fresh
        ctypes wrappers per call); the arrays they point into live in its
        kernel-pack cache.  ``pack`` (``(values, indices)``, its index
        dtype picking the unit) replaces that pack, uncached.
        """
        values, indices = pack or kernel_pack(A, prec)
        suffix = _kernel_suffix(prec, indices)
        sell = isinstance(A, SellMatrix)
        cache = {} if pack else A.__dict__.setdefault("_native_args", {})
        args = cache.get(suffix)
        if args is None:
            head = (A.sigma, A.chunk_height, *map(_ptr, (
                A.chunk_ptr, A.chunk_len, A.perm, A.inv_perm))) if sell \
                else (_ptr(A.indptr),)
            args = cache[suffix] = (*head, _ptr(indices), _ptr(values))
        head = (fin, A.n_rows, *args[:2], r, *args[2:]) if sell else (
            fin, row0, row1, r, *args)
        return kernel(f"repro_{'sell' if sell else 'csr'}_aug_spmmv", suffix,
                      vs), head

    # -- kernels -------------------------------------------------------
    def _product(self, kind, A, X, out, plan, sink):
        """``kind`` (``spmv``/``spmmv``): the walk's store finisher."""
        block = kind == "spmmv"
        X, prec, out = self._product_args(A, X, out, block)
        X = _kernel_operand("X" if block else "x", X, A.n_cols, block)
        r = X.shape[1] if block else 1
        fn, head = self._entry(_STORE, A, prec, _plan_simd(plan, prec), r,
                               0, A.n_rows)
        with sink.span(kind) as sp:
            fn(*head, _ptr(X), _ptr(out), _team(plan and plan.threads),
               0.0, 0.0, None, None, None)
            sp.charge(kind, *spmv_cost(*matrix_stream(A, prec), r, prec))
        return out

    def _step(self, kind, A, V, W, a, b, plan, sink):
        """One whole augmented step (``aug_spm(m)v``; ``aug_spmv`` is the
        walk on 1-D vectors, r = 1); returns its bins (DESIGN §19): the
        plan's, or fresh ones without a fitting plan."""
        return self._run(kind, self._bind(kind, A, V, W, plan, 0, A.n_rows,
                                          None), a, b, plan, sink)

    @staticmethod
    def _run(kind, call, a, b, plan, sink):
        """``call`` in one span of ``sink``, charged as ``kind``."""
        with sink.span(kind, **call.meta) as sp:
            call.fn(*call.head, _team(plan and plan.threads), a, b, *call.eta)
            sp.charge(kind, *call.cost)
        return call.bins

    # -- set-up (DESIGN §13): each NumPy twin's bits in one team call --
    def cis(self, phases, out, threads=None) -> None:
        if out.dtype != np.complex128 or out.strides[1] != 16 \
                or out.shape != phases.shape[::-1]:
            return super().cis(phases, out, threads)
        phases = np.ascontiguousarray(phases, dtype=np.float64)
        kernel("repro_phases", "", _use_simd(None, FP64))(
            *phases.shape[::-1], _ptr(phases), _ptr(out),
            out.strides[0] // 16, _team(threads))

    def eta_anchors(self, block, threads=None) -> np.ndarray:
        X = _cols(np.asarray(block))
        suffix = _ANCHOR_UNITS.get(X.dtype)
        if suffix is None or not X.flags.c_contiguous:
            return super().eta_anchors(block, threads)
        m2 = np.empty(X.shape[1])
        kernel("repro_anchors", suffix, _use_simd(None, precision_of(X)))(
            X.shape[0], X.shape[1], _ptr(X), _ptr(m2), _team(threads))
        return eta_anchors(X, m2=m2)

    def _boot(self, A, V, W, a, b, plan, sink):
        """The walk's boot finisher, in the Sp(M)MV's span and charge."""
        kind = "spmmv" if V.ndim == (3 if V.dtype == np.float16 else 2) \
            else "spmv"
        W = self._product_args(A, V, W, kind == "spmmv")[2]
        call = self._bind(kind, A, V, W, plan, 0, A.n_rows, None)
        return W, self._run(kind, call, a, b, plan, sink)

    def _aug_range(self, A, V, W, a, b, plan, row0, row1, bins):
        call = self._bind("aug_spmmv", A, V, W, plan, row0, row1, bins)
        call.fn(*call.head, _team(plan and plan.threads), a, b, *call.eta)

    def _bind(self, kind, A, V, W, plan, row0, row1, bins) -> _Call:
        """The :class:`_Call` of one walk that writes ``W`` and reduces
        eta (``kind`` an aug step, or ``spm(m)v``: the bootstrap) — CSR
        over rows ``[row0, row1)`` of the ORIGINAL arrays, indexed in
        place; SELL whole — into ``bins``, else the plan's (or fresh ones).

        A plan keeps the calls it made, two per ``(kind, rows)`` (the
        recurrence alternates two buffers): a later call on the same
        objects is a lookup — no operand check, no pointer, no
        environment read.  Anything else checks and marshals its
        operands once, here.  The thread team is not bound: a fork
        changes it (:func:`_team`)."""
        aug = kind.startswith("aug")  # else the bootstrap: once a run
        calls = None
        if plan is not None and aug:
            calls = plan.native_calls.setdefault((kind, row0, row1), [])
            for call in calls:
                if call.fits(A, V, W, plan.anchors,
                             plan.bins if bins is None else bins):
                    return call
        if not isinstance(A, (CSRMatrix, SellMatrix)):
            raise TypeError(f"unsupported matrix type {type(A).__name__}")
        block = kind.endswith("spmmv")
        V = _kernel_operand("V" if block else "v", V, A.n_cols, block)
        W = _kernel_operand("W" if block else "w", W, A.n_rows, block)
        r = V.shape[1] if block else 1
        if block and W.shape[1] != r:
            raise ShapeError(
                f"V and W must share a block width, got {r} and {W.shape[1]}"
            )
        if V.dtype != W.dtype:
            raise ShapeError(
                "v and w must share one precision profile's storage dtype, "
                f"got {V.dtype} and {W.dtype}"
            )
        prec = precision_of(V)
        anchors, own, escape = self._eta_state(plan, V, A.n_rows, r)
        call = _Call()
        call.A, call.V, call.W = A, V, W
        call.anchors, call.bins = anchors, own if bins is None else bins
        fn, head = self._entry(_AUG if aug else _BOOT, A, prec,
                               _plan_simd(plan, prec), r, row0, row1)
        call.fn, call.head = fn, (*head, _ptr(V), _ptr(W))
        call.eta = (_ptr(anchors), _ptr(call.bins), _ptr(escape))
        call.cost = (aug_cost if aug else spmv_cost)(*matrix_stream(A, prec),
                                                     r, prec)
        threads = None if plan is None or not aug else plan.threads
        call.meta = {} if threads is None else {"threads": threads}
        if calls is not None and anchors is plan.anchors:  # a fitting plan
            calls.insert(0, call)
            del calls[2:]  # one per buffer of the recurrence's pair
        return call
