"""Pluggable kernel backends for the KPM inner-iteration kernels.

The moment engines, the distributed driver, and the CLI all consume the
four performance-critical kernels (``spmv``, ``spmmv``, ``aug_spmv``,
``aug_spmmv``) through the :class:`KernelBackend` interface defined
here.  Two implementations are registered:

``numpy``
    The reference kernels, all in
    :mod:`repro.sparse.backend.numpy_backend`: SciPy's compiled CSR
    product plus vectorized NumPy passes, driven through preallocated
    workspace plans so the steady-state iteration allocates nothing.
``native``
    Truly single-pass C kernels (CSR and SELL-C-sigma) compiled from
    ``_kernels.c`` on first use — see
    :mod:`repro.sparse.backend.native_backend`.  Unavailable hosts (no C
    compiler, or ``REPRO_NATIVE_DISABLE`` set) fall back to ``numpy``
    automatically under the ``auto`` selector.

The naive chain of paper Fig. 3 is written once, on
:class:`KernelBackend` over the backend's own ``spmv``.  Both backends
charge identical Table-I traffic/flop accounting
(:mod:`repro.sparse.fused`) to :class:`~repro.util.counters.PerfCounters`,
so every performance model in :mod:`repro.perf` works unchanged whichever
backend computed the numbers.

Usage::

    from repro.sparse.backend import get_backend

    bk = get_backend("auto")          # native if compilable, else numpy
    plan = bk.plan(H, r=32)           # workspaces sized once per (H, R)
    eta_even, eta_odd = bk.aug_spmmv_step(H, V, W, a, b, plan=plan)
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._lazy import lazy_exports
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.csr import CSRMatrix
from repro.sparse.fused import (
    ETA_BLOCK,
    charge_aug,
    eta_anchors,
    eta_bins,
    eta_work,
    fold,
)
from repro.sparse.sell import SellMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import BackendError, ShapeError
from repro.util.knobs import BACKEND_CHOICES, SIMD_CHOICES, resolve_simd
from repro.util.precision import FP16V, get_precision, precision_of
from repro.util.validation import check_block_vector, check_vector


class KernelPlan:
    """Preallocated workspaces for repeated kernel steps on one (A, R).

    Sized once per matrix/block-width pair and reused across all M/2
    inner iterations; the buffers are scratch (contents undefined between
    calls).  ``u`` holds the SpM(M)V result, ``work`` is a second pass
    buffer.  The eta reduction (DESIGN §19) keeps its state here:
    ``anchors`` (R,) — set by :meth:`~repro.core.recurrence.Recurrence.
    load`, else taken from the first ``V`` a step is given — the last
    step's ``bins`` (2, 3R), and ``escape``, 0 or one plus the first
    element whose block partial exceeded its anchor (sticky until
    cleared).

    ``precision`` selects the profile the plan serves.  ``u``/``work``
    are *compute*-dtype scratch (complex128 for fp64, complex64 for the
    narrow profiles — they hold intermediate SpM(M)V results, which are
    formed in the compute dtype even when vectors are stored narrower);
    the eta state is fp64 in every profile.  The fp16v profile adds complex64
    decode scratch (``vc``/``wc``) for the NumPy backend's half-storage
    paths.

    ``threads`` (None ≡ 1) is the native aug kernels' OpenMP team over
    eta blocks; no count changes a bit.  The NumPy backend accepts the
    knob and ignores it.

    ``simd`` (``None``/``"auto"``/``"on"``/``"off"``) selects the
    explicitly vectorized AVX2/F16C kernel family in the native backend;
    like ``threads`` it is carried on the plan and never changes fp64
    results bitwise.  ``"on"`` falls back to scalar cleanly (with an obs
    counter) when the host lacks the vectorized build; the NumPy backend
    accepts the knob and ignores it.

    ``split`` (an execution split in the shape of
    :class:`repro.dist.overlap.TaskSplit`, duck typed — ``row0``/``row1``
    — so this layer stays free of the distributed package) makes it a
    task-mode plan too.  The interior ``[row0, row1)`` must be a run of
    whole 64-row eta blocks; the boundary is the rows before and after
    it.  ``phases`` holds each phase's non-empty row ranges (interior,
    boundary), ``phase_rows``/``phase_nnz`` the counts its charge uses
    and ``phase_bins`` the bins (2, 3R) it leaves, which add to the
    whole step's exactly.  Split plans are CSR-only: the distributed
    engines partition CSR operators, so a SELL split has no consumer.
    """

    def __init__(self, A, r: int = 1, precision=None, threads=None,
                 simd=None, split=None) -> None:
        self.matrix = A
        self.precision = prec = get_precision(precision)
        self.r = int(r)
        self.threads = None if threads is None else max(1, int(threads))
        self.simd = resolve_simd(simd)
        n = A.n_rows
        shape = (n,) if self.r == 1 else (n, self.r)
        cdt = prec.compute_dtype
        self.u = np.empty(shape, dtype=cdt)
        self.work = np.empty(shape, dtype=cdt)
        # 2-D views of the same storage for the blocked engines, which
        # need (n, r) even when r == 1 (where u/work are 1-D vectors).
        self.u_block = self.u.reshape(n, self.r)
        self.work_block = self.work.reshape(n, self.r)
        self.anchors = None
        self.bins = np.zeros((2, 3 * self.r))
        self.escape = np.zeros(1, dtype=np.int64)
        self.eta_work = None  # made by the first NumPy eta reduction
        if prec.half_vectors:
            # complex64 decode scratch for the NumPy half-storage paths:
            # vc spans the full column range (local + halo), wc the rows
            self.vc = np.empty((A.n_cols, self.r), dtype=cdt)
            self.wc = np.empty((n, self.r), dtype=cdt)
            # half-storage SpM(M)V output scratch for the decode-pass
            # engines (naive, ldos): the matrix apply streams the half
            # layout, the BLAS-1 work happens on the decoded fp32 copies
            self.uh = (
                prec.vec_empty(n) if self.r == 1
                else prec.vec_empty(n, self.r)
            )
            self.uh_block = self.uh.reshape(n, self.r, 2)
        self.phases = None
        if split is not None:
            self._split(A, int(split.row0), int(split.row1))

    def _split(self, A, row0: int, row1: int) -> None:
        if not isinstance(A, CSRMatrix):
            raise BackendError(
                "split (task-mode) kernels support CSR matrices only — the "
                "distributed engines partition CSR operators; got "
                f"{type(A).__name__}"
            )
        n = A.n_rows
        if not (0 <= row0 <= row1 <= n) or row0 % ETA_BLOCK \
                or (row1 % ETA_BLOCK and row1 != n):
            raise BackendError(
                f"interior range [{row0}, {row1}) is not a run of whole "
                f"{ETA_BLOCK}-row eta blocks of [0, {n})"
            )
        self.phases = tuple(
            tuple((lo, hi) for lo, hi in ranges if hi > lo)
            for ranges in (((row0, row1),), ((0, row0), (row1, n)))
        )
        nnz = int(A.indptr[row1] - A.indptr[row0])
        self.phase_rows = (row1 - row0, n - row1 + row0)
        self.phase_nnz = (nnz, A.nnz - nnz)
        self.phase_bins = (np.zeros((2, 3 * self.r)),
                           np.zeros((2, 3 * self.r)))
        self.range_bins = np.zeros((2, 3 * self.r))  # a second range's


class KernelBackend(ABC):
    """Interface every kernel backend implements.

    ``A`` is a :class:`~repro.sparse.csr.CSRMatrix` or
    :class:`~repro.sparse.sell.SellMatrix`; block vectors are row-major
    (N, R) complex128.  The ``*_step`` kernels update ``w``/``W`` in
    place with ``w_new = 2a(H - b)v - w`` and return
    ``(eta_even, eta_odd)`` — see :mod:`repro.sparse.fused`.

    Every kernel accepts, besides the Table-I ``counters`` sink, a
    :class:`~repro.obs.MetricsRegistry`; implementations must record one
    span named after the kernel per invocation (with the counters
    attached, so measured wall time and charged traffic line up span by
    span).  Both are free when the null defaults are used.
    """

    name: str = "?"

    @abstractmethod
    def available(self) -> bool:
        """Whether this backend can run on the current host."""

    def plan(self, A, r: int = 1, precision=None, threads=None,
             simd=None, split=None) -> KernelPlan:
        """Allocate the workspaces for repeated steps on ``(A, r)``.

        ``threads`` is the native kernels' team size, ``simd`` the
        vectorized kernel family, ``split`` the task-mode phases; see
        :class:`KernelPlan`.
        """
        return KernelPlan(A, r, precision, threads, simd, split)

    def kernel_family(self, plan: KernelPlan) -> str:
        """Which kernel family ``plan``'s steps dispatch to right now."""
        return self.name

    @abstractmethod
    def spmv(self, A, x, out=None, plan: KernelPlan | None = None,
             counters: PerfCounters = NULL_COUNTERS,
             metrics: MetricsRegistry = NULL_METRICS):
        """``out = A @ x`` for a single vector.

        Of ``plan`` only the ``simd`` knob is read (the kernel family to
        run); the result goes to ``out``, never to plan scratch.
        """

    @abstractmethod
    def spmmv(self, A, X, out=None, plan: KernelPlan | None = None,
              counters: PerfCounters = NULL_COUNTERS,
              metrics: MetricsRegistry = NULL_METRICS):
        """``out = A @ X`` for a row-major (N, R) block vector.

        ``plan`` as for :meth:`spmv`.
        """

    @staticmethod
    def _product_args(A, x, out, block: bool = False) -> tuple:
        """``(x, profile, out)`` of one Sp(M)MV, validated.

        The one argument check of every backend's ``spmv``/``spmmv``:
        ``x`` must span ``A``'s columns, and ``out`` must have ``x``'s
        storage dtype and ``A``'s rows, so no backend narrows a result
        silently.
        """
        if not isinstance(A, (CSRMatrix, SellMatrix)):
            raise TypeError(f"unsupported matrix type {type(A).__name__}")
        x = (check_block_vector("X", x, A.n_cols) if block
             else check_vector("x", x, A.n_cols))
        prec = precision_of(x)
        shape = prec.vec_shape(A.n_rows, *prec.logical_shape(x)[1:])
        if out is None:
            return x, prec, np.empty(shape, dtype=x.dtype)
        if out.shape != shape or out.dtype != x.dtype:
            raise ShapeError(
                f"out must have shape {shape} and dtype {x.dtype}, got "
                f"{out.shape} / {out.dtype}"
            )
        return x, prec, out

    @staticmethod
    def _eta_state(plan, V, n_rows: int, r: int) -> tuple:
        """``(anchors, bins, escape)`` of one aug step: the plan's — its
        anchors taken from ``V``'s rows when it has none yet — or fresh
        ones for a call without a fitting plan."""
        if plan is None or plan.r != r:
            return (eta_anchors(V[:n_rows]), np.empty((2, 3 * r)),
                    np.zeros(1, dtype=np.int64))
        if plan.anchors is None:
            plan.anchors = eta_anchors(V[:n_rows])
        if plan.anchors.shape != (r,):  # the kernels read r of them
            raise ShapeError(f"eta anchors must have shape ({r},), got "
                             f"{plan.anchors.shape}")
        return plan.anchors, plan.bins, plan.escape

    @staticmethod
    def _eta_work(plan, n: int, r: int) -> np.ndarray | None:
        """The plan's :func:`~repro.sparse.fused.eta_work` for ``n`` rows
        (made on first use); None without a fitting plan."""
        if plan is None or plan.r != r:
            return None
        if plan.eta_work is None:
            plan.eta_work = eta_work(n, r)
        return plan.eta_work

    def naive_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Paper Fig. 3: this backend's SpMV plus separate BLAS-1 calls.

        Every operation is its own library call with its own pass over
        the vectors — ``u <- H v`` (spmv), ``u <- u - b v`` (axpy),
        ``w <- -w`` (scal), ``w <- w + 2a u`` (axpy), ``<v|v>`` (nrm2),
        ``<w|v>`` (dot) — on every backend; fusing more would make it
        stage 1.  Half storage (fp16v) streams the half layout through
        the SpMV (charged half-width), runs the BLAS-1 chain on fp32
        decodes (charged at their complex64 size) and rounds the new w
        back to storage once.  The nrm2 and dot values are the one eta
        reduction's (DESIGN §19), charged as the two library calls.
        """
        from repro.sparse.blas1 import axpy, charge_dot, charge_nrm2, scal

        n = A.n_rows
        v = check_vector("v", v, n)
        w = check_vector("w", w, n)
        if v.dtype != w.dtype:
            raise ShapeError(
                "v and w must share one precision profile's storage dtype, "
                f"got {v.dtype} and {w.dtype}"
            )
        half = v.dtype == np.float16
        if half and plan is not None and getattr(plan, "uh", None) is not None \
                and plan.r == 1:
            uh, vc, wc = plan.uh, plan.vc[:n, 0], plan.wc[:, 0]
            u, work = plan.u, plan.work
        elif half:
            uh = FP16V.vec_empty(n)
            vc, wc, u, work = (np.empty(n, dtype=np.complex64)
                               for _ in range(4))
        elif plan is not None and plan.u.dtype == v.dtype:
            u, work = plan.u, plan.work
        else:
            u, work = np.empty(n, dtype=v.dtype), None
        anchors, bins, escape = self._eta_state(plan, v, n, 1)
        with metrics.span("naive_step", counters=counters):
            if half:
                self.spmv(A, v, out=uh, plan=plan, counters=counters)
                FP16V.decode(uh, out=u)
                # the BLAS-1 chain runs on the fp32 decodes of v and w
                v, w16 = FP16V.decode(v, out=vc), w
                w = FP16V.decode(w16, out=wc)
            else:
                self.spmv(A, v, out=u, plan=plan, counters=counters)
            axpy(u, -b, v, counters=counters, work=work)
            scal(-1.0, w, counters=counters)
            axpy(w, 2.0 * a, u, counters=counters, work=work)
            charge_nrm2(v, counters)
            charge_dot(w, counters)
            ee, eo = fold(eta_bins(v, w, anchors, escape, out=bins,
                                   work=self._eta_work(plan, n, 1)))
            if half:
                FP16V.encode(w, out=w16)
        return float(ee[0]), complex(eo[0])

    @abstractmethod
    def aug_spmv_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Paper Fig. 4 (stage 1): fused single-vector update + dots."""

    @abstractmethod
    def aug_spmmv_step(
        self, A, V, W, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Paper Fig. 5 (stage 2): fused block update + column dots."""

    # -- task mode ------------------------------------------------------
    # The two phases of a split plan: the *interior* range, runnable
    # while the halo exchange is in flight, then the *boundary* ranges
    # around it.  A phase is the backend's augmented block walk over each
    # of its non-empty ranges — the whole step's walk, on fewer rows —
    # so the W update is bitwise the plain one, and each range reduces
    # whole eta blocks, so the phases' bins add to the plain step's
    # exactly, whatever the schedule.

    #: The backend's walk ``(A, V, W, a, b, plan, row0, row1, bins)``:
    #: the augmented block step over rows ``[row0, row1)`` of ``A``, its
    #: bins into ``bins``.  None: the backend has no task mode.
    _aug_range = None

    def split_plan(self, A, split, r: int = 1, precision=None,
                   threads=None, simd=None) -> KernelPlan:
        """:meth:`plan` for ``(A, r)`` with ``split``'s phases."""
        return self.plan(A, r, precision, threads, simd, split=split)

    def aug_spmmv_interior(
        self, A, V, W, a, b, plan: KernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Interior phase of the split augmented SpMMV."""
        return self._phase(0, A, V, W, a, b, plan, counters, metrics)

    def aug_spmmv_boundary(
        self, A, V, W, a, b, plan: KernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Boundary phase of the split augmented SpMMV."""
        return self._phase(1, A, V, W, a, b, plan, counters, metrics)

    def aug_spmmv_split_step(
        self, A, V, W, a, b, plan: KernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Both phases back to back; the synchronous task-mode step."""
        for phase in (0, 1):
            self._phase(phase, A, V, W, a, b, plan, counters, metrics)
        return fold(np.add(*plan.phase_bins))

    def _phase(self, phase, A, V, W, a, b, plan, counters, metrics):
        """One phase (0 interior, 1 boundary): one span and one charge
        under ``aug_spmmv_int|bnd``, even when it has no rows."""
        if self._aug_range is None:
            raise BackendError(
                f"backend {self.name!r} does not implement split kernels"
            )
        name = ("aug_spmmv_int", "aug_spmmv_bnd")[phase]
        bins = plan.phase_bins[phase]
        prec = precision_of(V)
        with metrics.span(name, counters=counters):
            bins.fill(0.0)
            for k, (lo, hi) in enumerate(plan.phases[phase]):
                self._aug_range(A, V, W, a, b, plan, lo, hi,
                                plan.range_bins if k else bins)
                if k:
                    bins += plan.range_bins
            charge_aug(counters, name, plan.phase_rows[phase],
                       plan.phase_nnz[phase], prec.index_bytes(A.n_cols),
                       plan.r, prec)
        return fold(bins)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------

_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}

#: Runtime health ledger: failures observed against each backend *after*
#: it loaded fine (compile crashes mid-run, repeated kernel errors, ...).
#: A quarantined backend is skipped by the ``auto`` selector until
#: :func:`reset_backend_health` — asking for it *by name* still works, so
#: an operator can always override the quarantine deliberately.
_HEALTH: dict[str, dict] = {}


def _health_entry(name: str) -> dict:
    if name not in _HEALTH:
        _HEALTH[name] = {"failures": 0, "quarantined": False, "last_error": None}
    return _HEALTH[name]


def report_backend_failure(
    name: str, reason: str = "", *, quarantine: bool = True
) -> None:
    """Record a runtime failure against a backend (see ``_HEALTH``).

    Called by the resilience supervisor when it classifies an engine
    failure as backend-induced; with ``quarantine=True`` (default) the
    ``auto`` selector stops handing the backend out.
    """
    from repro.obs import GLOBAL_METRICS

    entry = _health_entry(name)
    entry["failures"] += 1
    entry["last_error"] = reason or entry["last_error"]
    if quarantine:
        entry["quarantined"] = True
    GLOBAL_METRICS.count(f"backend.{name}.failures")


def backend_health() -> dict[str, dict]:
    """A copy of the runtime health ledger (for reports and tests)."""
    return {name: dict(entry) for name, entry in _HEALTH.items()}


def backend_quarantined(name: str) -> bool:
    """Whether the ``auto`` selector currently avoids this backend."""
    return bool(_HEALTH.get(name, {}).get("quarantined"))


def reset_backend_health(name: str | None = None) -> None:
    """Clear the health ledger (one backend, or all with ``None``)."""
    if name is None:
        _HEALTH.clear()
    else:
        _HEALTH.pop(name, None)


def register_backend(name: str, cls: type[KernelBackend]) -> None:
    """Register a backend class (or a zero-argument function that returns
    an instance) under ``name`` (replaces any previous)."""
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)


def _instance(name: str) -> KernelBackend:
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown kernel backend {name!r}; choose from "
            f"{sorted([*_REGISTRY, 'auto'])}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]


def get_backend(name: str | KernelBackend | None = "auto") -> KernelBackend:
    """Resolve a backend by name.

    ``'auto'`` (or None) prefers ``native`` when the C kernels compile on
    this host and silently falls back to ``numpy`` otherwise.  Asking for
    ``'native'`` explicitly raises :class:`~repro.util.errors.BackendError`
    when it is unavailable, with the compiler diagnostic attached.
    Passing an existing :class:`KernelBackend` returns it unchanged.
    """
    if isinstance(name, KernelBackend):
        return name
    name = (name or "auto").lower()
    if name == "auto":
        native = _instance("native")
        if native.available() and not backend_quarantined("native"):
            return native
        return _instance("numpy")
    backend = _instance(name)
    if not backend.available():
        from repro.sparse.backend.native import native_error

        reason = native_error() if name == "native" else "unavailable"
        raise BackendError(f"kernel backend {name!r} unavailable: {reason}")
    return backend


def available_backends() -> dict[str, bool]:
    """Availability of every registered backend on this host."""
    return {name: _instance(name).available() for name in sorted(_REGISTRY)}


def _numpy_backend() -> KernelBackend:
    from repro.sparse.backend.numpy_backend import NumpyBackend

    return NumpyBackend()


# Register the built-in implementations (import order matters: these
# modules import the base class from this package).  The NumPy backend
# loads on first use, so a run on the native kernels never imports it.
from repro.sparse.backend.native_backend import NativeBackend  # noqa: E402

register_backend("numpy", _numpy_backend)
register_backend(NativeBackend.name, NativeBackend)

__all__ = lazy_exports(__name__, {"numpy_backend": ("NumpyBackend",)}) + [
    "BACKEND_CHOICES",
    "SIMD_CHOICES",
    "resolve_simd",
    "KernelBackend",
    "KernelPlan",
    "NativeBackend",
    "available_backends",
    "backend_health",
    "backend_quarantined",
    "get_backend",
    "register_backend",
    "report_backend_failure",
    "reset_backend_health",
]
