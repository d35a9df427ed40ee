"""Pluggable kernel backends for the KPM inner-iteration kernels.

The moment engines, the distributed driver, and the CLI all consume the
four performance-critical kernels (``spmv``, ``spmmv``, ``aug_spmv``,
``aug_spmmv``) through the :class:`KernelBackend` interface defined
here.  Two implementations are registered:

``numpy``
    The vectorized NumPy/SciPy kernels of :mod:`repro.sparse.spmv` and
    :mod:`repro.sparse.fused`, driven through preallocated workspace
    plans so the steady-state iteration allocates nothing.
``native``
    Truly single-pass C kernels (CSR and SELL-C-sigma) compiled from
    ``_kernels.c`` on first use — see
    :mod:`repro.sparse.backend.native_backend`.  Unavailable hosts (no C
    compiler, or ``REPRO_NATIVE_DISABLE`` set) fall back to ``numpy``
    automatically under the ``auto`` selector.

Both backends charge identical Table-I traffic/flop accounting to
:class:`~repro.util.counters.PerfCounters`, so every performance model
in :mod:`repro.perf` works unchanged whichever backend computed the
numbers.

Usage::

    from repro.sparse.backend import get_backend

    bk = get_backend("auto")          # native if compilable, else numpy
    plan = bk.plan(H, r=32)           # workspaces sized once per (H, R)
    eta_even, eta_odd = bk.aug_spmmv_step(H, V, W, a, b, plan=plan)
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.util.constants import DTYPE
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.errors import BackendError
from repro.util.knobs import BACKEND_CHOICES, SIMD_CHOICES, resolve_simd


class KernelPlan:
    """Preallocated workspaces for repeated kernel steps on one (A, R).

    Sized once per matrix/block-width pair and reused across all M/2
    inner iterations; the buffers are scratch (contents undefined between
    calls).  ``u`` holds the SpM(M)V result, ``work`` is a second pass
    buffer, and the small ``eta`` buffers receive the per-column dots
    without per-call allocation.

    ``precision`` selects the profile the plan serves.  ``u``/``work``
    are *compute*-dtype scratch (complex128 for fp64, complex64 for the
    narrow profiles — they hold intermediate SpM(M)V results, which are
    formed in the compute dtype even when vectors are stored narrower);
    the eta buffers stay fp64/complex128 in every profile, matching the
    kernels' double-accumulated dots.  The fp16v profile adds complex64
    decode scratch (``vc``/``wc``) for the NumPy backend's half-storage
    paths.

    ``threads`` selects the intra-rank threaded (``_mt``) kernels:
    ``None`` (the default) runs the historical sequential kernels
    untouched; any explicit count >= 1 routes the augmented steps
    through the block-grid threaded variants, whose fp64 results are
    bitwise identical at every thread count (the grid and the
    block-order Kahan combine depend only on the problem).  The NumPy
    backend accepts the knob and ignores it — its vectorized reduction
    is trivially thread-count invariant.

    ``simd`` (``None``/``"auto"``/``"on"``/``"off"``) selects the
    explicitly vectorized AVX2/F16C kernel family in the native backend;
    like ``threads`` it is carried on the plan and never changes fp64
    results bitwise.  ``"on"`` falls back to scalar cleanly (with an obs
    counter) when the host lacks the vectorized build; the NumPy backend
    accepts the knob and ignores it.
    """

    def __init__(self, A, r: int = 1, precision=None, threads=None,
                 simd=None) -> None:
        from repro.util.precision import get_precision

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
        self.eta_even = np.empty(self.r, dtype=np.float64)
        self.eta_odd = np.empty(self.r, dtype=DTYPE)
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


class SplitKernelPlan:
    """Workspaces for the two-phase (task-mode) split kernels.

    Built once per ``(A, split, R)`` by :meth:`KernelBackend.split_plan`
    and reused across all inner iterations.  ``split`` is an execution
    split in the shape of :class:`repro.dist.overlap.TaskSplit` (duck
    typed — ``row0``/``row1``/``boundary`` — so this layer stays free of
    a dependency on the distributed package): a contiguous interior row
    range plus a sorted gathered boundary row list.

    The plan holds everything either backend needs allocation-free in
    the steady state: the extracted interior/boundary sub-matrices (full
    local+halo column range, for the NumPy phase kernels), gather/scatter
    scratch for the boundary rows, the contiguous int64 row list (for
    the native gathered kernel), and per-phase eta partial buffers.
    Split kernels are CSR-only: the distributed engines partition CSR
    operators, so a SELL split has no consumer.
    """

    def __init__(self, A, split, r: int = 1, precision=None,
                 threads=None, simd=None) -> None:
        from repro.sparse.csr import CSRMatrix
        from repro.util.precision import get_precision

        if not isinstance(A, CSRMatrix):
            raise BackendError(
                "split (task-mode) kernels support CSR matrices only — the "
                "distributed engines partition CSR operators; got "
                f"{type(A).__name__}"
            )
        self.matrix = A
        self.split = split
        self.precision = prec = get_precision(precision)
        self.r = int(r)
        self.threads = None if threads is None else max(1, int(threads))
        self.simd = resolve_simd(simd)
        self.row0 = int(split.row0)
        self.row1 = int(split.row1)
        self.rows = np.ascontiguousarray(split.boundary, dtype=np.int64)
        if self.rows.size and (
            self.rows[0] < 0 or self.rows[-1] >= A.n_rows
        ):
            raise BackendError(
                f"boundary rows outside [0, {A.n_rows}): "
                f"[{self.rows.min()}, {self.rows.max()}]"
            )
        if not (0 <= self.row0 <= self.row1 <= A.n_rows):
            raise BackendError(
                f"interior range [{self.row0}, {self.row1}) outside "
                f"[0, {A.n_rows})"
            )
        self.n_interior = self.row1 - self.row0
        self.n_boundary = int(self.rows.size)
        if self.n_interior + self.n_boundary != A.n_rows:
            raise BackendError(
                f"split covers {self.n_interior} + {self.n_boundary} rows, "
                f"matrix has {A.n_rows}"
            )
        self.nnz_interior = int(A.indptr[self.row1] - A.indptr[self.row0])
        self.nnz_boundary = int(A.nnz - self.nnz_interior)
        # phase sub-matrices (full column range — the NumPy kernels run
        # them against the whole [local | halo] input block)
        self.interior_matrix = A.extract_rows(self.row0, self.row1)
        self.boundary_matrix = self._gather_rows(A, self.rows)
        # steady-state scratch: SpMMV outputs per phase plus boundary
        # gather/scatter buffers (the boundary rows are non-contiguous).
        # Compute-dtype: these hold intermediates, not narrow storage.
        cdt = prec.compute_dtype
        shape_i = (self.n_interior, self.r)
        shape_b = (self.n_boundary, self.r)
        self.u_interior = np.empty(shape_i, dtype=cdt)
        self.u_boundary = np.empty(shape_b, dtype=cdt)
        self.v_boundary = np.empty(shape_b, dtype=cdt)
        self.w_boundary = np.empty(shape_b, dtype=cdt)
        # per-phase eta partials (native kernels write these in place)
        self.ee_interior = np.empty(self.r, dtype=np.float64)
        self.eo_interior = np.empty(self.r, dtype=DTYPE)
        self.ee_boundary = np.empty(self.r, dtype=np.float64)
        self.eo_boundary = np.empty(self.r, dtype=DTYPE)
        if prec.half_vectors:
            # complex64 decode scratch for the NumPy half-storage paths
            self.vc = np.empty((A.n_cols, self.r), dtype=cdt)
            self.wc = np.empty((A.n_rows, self.r), dtype=cdt)

    @staticmethod
    def _gather_rows(A, rows: np.ndarray):
        """Extract a gathered-row CSR sub-matrix (full column range)."""
        from repro.sparse.csr import CSRMatrix

        counts = A.nnz_per_row[rows] if rows.size else np.empty(0, np.int64)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=A.indices.dtype)
        data = np.empty(int(indptr[-1]), dtype=DTYPE)
        for k, i in enumerate(rows.tolist()):
            lo, hi = A.indptr[i], A.indptr[i + 1]
            indices[indptr[k] : indptr[k + 1]] = A.indices[lo:hi]
            data[indptr[k] : indptr[k + 1]] = A.data[lo:hi]
        return CSRMatrix(indptr, indices, data, (rows.size, A.n_cols))


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
             simd=None) -> KernelPlan:
        """Allocate the workspaces for repeated steps on ``(A, r)``.

        ``threads`` (None = sequential kernels) selects the intra-rank
        threaded kernel variants; ``simd`` the vectorized kernel family.
        See :class:`KernelPlan` for both knobs.
        """
        return KernelPlan(A, r, precision, threads, simd)

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

    @abstractmethod
    def naive_step(
        self, A, v, w, a, b, plan: KernelPlan | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Paper Fig. 3: SpMV + separate BLAS-1 calls."""

    def _naive_step_half(
        self, A, v, w, a, b, plan: KernelPlan | None,
        counters: PerfCounters, metrics: MetricsRegistry,
    ):
        """Decode-pass naive iteration for fp16v half storage.

        Shared by both backends (each supplies its own ``spmv``): the
        matrix apply streams the half layout — charged half-width, like
        every fp16v kernel — then the BLAS-1 chain of paper Fig. 3 runs
        on fp32 decodes (charged at their complex64 element size) and
        the new w is rounded back to storage.  Identical call structure
        and charges on either backend, and the same one-rounding-per-
        iteration accuracy contract as the fused fp16v kernels.
        """
        from repro.sparse.blas1 import axpy, dot, nrm2_sq, scal
        from repro.util.precision import FP16V

        n = A.n_rows
        if plan is not None and getattr(plan, "uh", None) is not None \
                and plan.r == 1:
            u16 = plan.uh
            vc, wc = plan.vc[:n, 0], plan.wc[:, 0]
            uc, work = plan.u, plan.work
        else:
            u16 = FP16V.vec_empty(n)
            vc = np.empty(n, dtype=np.complex64)
            wc = np.empty(n, dtype=np.complex64)
            uc = np.empty(n, dtype=np.complex64)
            work = np.empty(n, dtype=np.complex64)
        with metrics.span("naive_step", counters=counters):
            self.spmv(A, v, out=u16, plan=plan, counters=counters)
            FP16V.decode(v, out=vc)
            FP16V.decode(w, out=wc)
            FP16V.decode(u16, out=uc)
            axpy(uc, -b, vc, counters=counters, work=work)
            scal(-1.0, wc, counters=counters)
            axpy(wc, 2.0 * a, uc, counters=counters, work=work)
            eta_even = nrm2_sq(vc, counters=counters)
            eta_odd = dot(wc, vc, counters=counters)
            FP16V.encode(wc, out=w)
        return eta_even, eta_odd

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

    # -- split (task-mode) kernels -------------------------------------
    # Two-phase variants of the augmented kernels for overlapped
    # execution: the *interior* phase updates a contiguous halo-free row
    # range (runnable while the halo exchange is in flight), the
    # *boundary* phase the remaining gathered rows.  Each phase returns
    # its own eta partials; callers combine them in the fixed order
    # interior + boundary, which makes the result independent of the
    # execution schedule (sync == overlapped, bitwise).  The W update is
    # row-local, hence bitwise identical to the plain kernel.

    def split_plan(self, A, split, r: int = 1, precision=None,
                   threads=None, simd=None) -> SplitKernelPlan:
        """Allocate the split-kernel workspaces for ``(A, split, r)``."""
        return SplitKernelPlan(A, split, r, precision, threads, simd)

    def aug_spmv_interior(
        self, A, v, w, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Interior phase of the split augmented SpMV."""
        raise BackendError(
            f"backend {self.name!r} does not implement split kernels"
        )

    def aug_spmv_boundary(
        self, A, v, w, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Boundary phase of the split augmented SpMV."""
        raise BackendError(
            f"backend {self.name!r} does not implement split kernels"
        )

    def aug_spmmv_interior(
        self, A, V, W, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Interior phase of the split augmented SpMMV."""
        raise BackendError(
            f"backend {self.name!r} does not implement split kernels"
        )

    def aug_spmmv_boundary(
        self, A, V, W, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Boundary phase of the split augmented SpMMV."""
        raise BackendError(
            f"backend {self.name!r} does not implement split kernels"
        )

    def aug_spmv_split_step(
        self, A, v, w, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Both phases back to back; the synchronous task-mode step."""
        ee_i, eo_i = self.aug_spmv_interior(
            A, v, w, a, b, plan, counters=counters, metrics=metrics
        )
        ee_b, eo_b = self.aug_spmv_boundary(
            A, v, w, a, b, plan, counters=counters, metrics=metrics
        )
        return ee_i + ee_b, eo_i + eo_b

    def aug_spmmv_split_step(
        self, A, V, W, a, b, plan: SplitKernelPlan,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        """Both phases back to back; the synchronous task-mode step."""
        ee_i, eo_i = self.aug_spmmv_interior(
            A, V, W, a, b, plan, counters=counters, metrics=metrics
        )
        ee_b, eo_b = self.aug_spmmv_boundary(
            A, V, W, a, b, plan, counters=counters, metrics=metrics
        )
        return ee_i + ee_b, eo_i + eo_b

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
    """Register a backend class under ``name`` (replaces any previous)."""
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


# Register the built-in implementations (import order matters: these
# modules import the base class from this package).
from repro.sparse.backend.numpy_backend import NumpyBackend  # noqa: E402
from repro.sparse.backend.native_backend import NativeBackend  # noqa: E402

register_backend(NumpyBackend.name, NumpyBackend)
register_backend(NativeBackend.name, NativeBackend)

__all__ = [
    "BACKEND_CHOICES",
    "SIMD_CHOICES",
    "resolve_simd",
    "KernelBackend",
    "KernelPlan",
    "SplitKernelPlan",
    "NativeBackend",
    "NumpyBackend",
    "available_backends",
    "backend_health",
    "backend_quarantined",
    "get_backend",
    "register_backend",
    "report_backend_failure",
    "reset_backend_health",
]
