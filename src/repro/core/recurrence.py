"""The rank-local Chebyshev recurrence — the one copy every engine drives.

The whole paper is one loop, Eq. (3),

    nu_1 = a (H - b) nu_0,      nu_{m+1} = 2 a (H - b) nu_m - nu_{m-1},

whose body Figs. 3-5 swap from naive to ``aug_spmv`` to ``aug_spmmv``.
:class:`Recurrence` owns that loop body and its state for one rank: the
two live vectors ``(v, w)``, the kernel workspace plan, and every
storage-profile branch (the fp16v decode pass included).  The operator
is the rank's rectangular ``[local | halo]`` block, so a serial run is
simply the one-rank, empty-halo case — its kernel input *is* ``v`` and
no extra (N, R) buffer exists.

What an engine adds around it stays in the engine: communication (it
fills the halo tail of :attr:`Recurrence.x`), reductions, fault probes,
heartbeats, checkpoints, progress streaming.

State convention between calls: ``v = nu_m`` and ``w = nu_{m+1}`` (the
newest iterate), exactly the pair a :class:`~repro.core.checkpoint.
KpmCheckpoint` stores.
"""

from __future__ import annotations

import numpy as np

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.sparse.backend import get_backend
from repro.sparse.fused import _recombine, charge_col_dots, col_dots, vec_dots
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.knobs import ExecConfig
from repro.util.precision import Precision, get_precision
from repro.util.validation import check_positive


def check_moments(n_moments: int) -> None:
    """Raise unless ``n_moments`` is an even integer >= 2."""
    check_positive("n_moments", n_moments)
    if n_moments % 2 != 0 or n_moments < 2:
        raise ValueError(
            f"n_moments must be an even integer >= 2 (the recurrence yields "
            f"two moments per iteration), got {n_moments}"
        )


def to_storage(block: np.ndarray, prec: Precision) -> np.ndarray:
    """Private C-contiguous copy of ``block`` in the profile's storage.

    Complex input is narrowed (for fp64 just copied, once); float16
    input already is (re, im) pair storage and is copied as is.
    """
    if prec.half_vectors and block.dtype != np.float16:
        return prec.encode(block)
    return np.array(block, dtype=prec.vector_dtype, order="C")


class Recurrence:
    """State and kernels of the three-term recurrence on one rank.

    Parameters
    ----------
    A:
        The rank-local operator (CSR or SELL): ``n_rows`` local rows over
        ``n_cols = n_local + n_halo`` columns.  Square means no halo.
    a, b:
        The spectral map; the kernels apply ``a (H - b)`` on the fly.
    r:
        Block width R (1 for the single-vector kernels).
    kernel:
        ``'aug_spmmv'`` (block vectors, paper Fig. 5), or one of the
        single-vector stages ``'aug_spmv'`` (Fig. 4) / ``'naive'``
        (Fig. 3), which run on 1-D vectors with ``r == 1``.
    split:
        Optional interior/boundary execution split (the shape of
        :class:`repro.dist.overlap.TaskSplit`).  The fused step then runs
        as two phases — :meth:`interior` needs only the local part of
        :attr:`x`, so an engine can overlap it with its halo exchange —
        combined in the fixed order interior + boundary.
    dot_blocks:
        Optional list of local row slices (grid-eta mode): the scalar
        products are then taken per slice — ``(len(dot_blocks), R)``
        arrays instead of ``(R,)`` — so their reduction order depends
        only on the global block grid, never on the partition.
    config / knobs:
        The :class:`~repro.util.knobs.ExecConfig` whose ``backend``,
        ``precision``, ``threads`` and ``simd`` select the kernels; this
        is where the execution knobs meet the kernel plan.
    """

    def __init__(
        self,
        A,
        a: float,
        b: float,
        r: int,
        *,
        kernel: str = "aug_spmmv",
        split=None,
        dot_blocks: list[slice] | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
        config: ExecConfig | None = None,
        **knobs,
    ) -> None:
        cfg = ExecConfig.of(config, knobs)
        self.A = A
        self.a, self.b = a, b
        self.prec = prec = get_precision(cfg.precision)
        self._bk = bk = get_backend(cfg.backend)
        self._obs = {"counters": counters, "metrics": metrics}
        kw = dict(precision=prec, threads=cfg.kernel_threads(), simd=cfg.simd)
        self._plan = plan = bk.plan(A, r, **kw)
        self._split = None if split is None else bk.split_plan(A, split, r,
                                                               **kw)
        single = kernel != "aug_spmmv"
        dims = (A.n_cols,) if single else (A.n_cols, r)
        self._apply = bk.spmv if single else bk.spmmv
        self._kernel = {
            "naive": bk.naive_step,
            "aug_spmv": bk.aug_spmv_step,
            "aug_spmmv": bk.aug_spmmv_step,
        }[kernel]
        self._pair_dots = vec_dots if single else col_dots
        # the plan's scratch in this mode's shape (1-D vector / 2-D block)
        self._u, self._work = (
            (plan.u, plan.work) if single else (plan.u_block, plan.work_block)
        )
        if prec.half_vectors:
            self._vc, self._wc, self._uh = (
                (plan.vc[:, 0], plan.wc[:, 0], plan.uh) if single
                else (plan.vc, plan.wc, plan.uh_block)
            )
        self._blocks = dot_blocks
        if dot_blocks is not None:
            self._ee = np.empty((len(dot_blocks), r), dtype=np.float64)
            self._eo = np.empty((len(dot_blocks), r), dtype=np.complex128)
        # [local | halo] kernel input; without a halo the input is v itself
        self._xbuf = None if A.n_cols == A.n_rows else prec.vec_empty(*dims)
        self._partial = None  # interior-phase dots awaiting the boundary
        self.v = self.w = None

    def rebind(
        self, a: float, b: float, counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        """Reuse the plans for another run: a new spectral map and sinks.

        A parked mp worker keeps its rank's recurrence between solves;
        :meth:`load` then installs the new run's vectors.
        """
        self.a, self.b = a, b
        self._obs = {"counters": counters, "metrics": metrics}
        self._partial = None

    @property
    def kernel_family(self) -> str:
        """The kernels this recurrence runs (``numpy``, ``native_simd``,
        ``native_scalar``): resolved now, from the process's state."""
        return self._bk.kernel_family(self._plan)

    # -- state ---------------------------------------------------------
    @property
    def x(self) -> np.ndarray:
        """The kernel input ``[v | halo]``; engines fill ``x[n_rows:]``."""
        return self.v if self._xbuf is None else self._xbuf

    def load(self, v: np.ndarray, w: np.ndarray | None = None) -> None:
        """Install ``nu_0`` — or a checkpointed ``(nu_m, nu_{m+1})`` pair.

        Both are copied into private storage-dtype arrays, so the caller's
        blocks are never written and a resumed run streams exactly the
        bytes the interrupted one held.
        """
        self.v = to_storage(v, self.prec)
        self.w = None if w is None else to_storage(w, self.prec)
        self._stage()

    def _stage(self) -> None:
        if self._xbuf is not None:
            self._xbuf[: self.A.n_rows] = self.v

    def swap(self) -> np.ndarray:
        """Rotate the newest iterate into kernel-input position.

        Returns it (now ``v``): the vector the neighbours' halos need.
        """
        self.v, self.w = self.w, self.v
        self._stage()
        return self.v

    # -- scalar products -----------------------------------------------
    def _dots(self, v: np.ndarray, w: np.ndarray):
        """``(<v|v>, <w|v>)`` per rank, or per grid block in grid mode."""
        if self._blocks is None:
            return self._pair_dots(v, w)
        for i, sl in enumerate(self._blocks):
            self._ee[i], self._eo[i] = col_dots(v[sl], w[sl])
        return self._ee, self._eo

    # -- the recurrence ------------------------------------------------
    def bootstrap(self, dots: bool = True):
        """``w <- nu_1 = a (H - b) nu_0``; returns ``(eta_0, eta_1)``.

        Half storage recombines once in fp32 through the plan's decode
        scratch and rounds back; the dots read the pre-rounding values,
        exactly as the per-step kernels accumulate theirs in registers.
        """
        a, b, prec = self.a, self.b, self.prec
        w = self._apply(self.A, self.x, plan=self._plan, **self._obs)
        if prec.half_vectors:
            vc, wc = self._vc[: self.A.n_rows], self._wc
            prec.decode(self.v, out=vc)
            prec.decode(w, out=wc)
        else:
            vc, wc = self.v, w
        np.multiply(vc, b, out=self._work)
        wc -= self._work
        wc *= a
        if prec.half_vectors:
            prec.encode(wc, out=w)
        self.w = w
        return self._dots(vc, wc) if dots else None

    def interior(self) -> None:
        """Split mode, phase 1: update the halo-free rows.

        Reads only the local part of :attr:`x`, so it may run while the
        halo tail is still in flight; :meth:`update` finishes the step.
        """
        self._partial = self._bk.aug_spmmv_interior(
            self.A, self.x, self.w, self.a, self.b, plan=self._split,
            **self._obs,
        )

    def update(self):
        """Finish the fused step once :attr:`x` is complete.

        ``w <- 2a (H - b) v - w`` and ``(eta_2m, eta_2m+1) = (<v|v>,
        <w|v>)``.  In split mode this is the boundary phase (preceded by
        the interior phase unless :meth:`interior` already ran).  In grid
        mode the kernel's fused per-rank dots are discarded and retaken
        per global block: the extra pass is charged explicitly (linear in
        rows, so the total stays partition independent).  Grid-mode
        results are views of internal buffers, valid until the next call.
        """
        if self._split is None:
            eta = self._kernel(
                self.A, self.x, self.w, self.a, self.b, plan=self._plan,
                **self._obs,
            )
        else:
            if self._partial is None:
                self.interior()
            (ee_i, eo_i), self._partial = self._partial, None
            ee_b, eo_b = self._bk.aug_spmmv_boundary(
                self.A, self.x, self.w, self.a, self.b, plan=self._split,
                **self._obs,
            )
            eta = ee_i + ee_b, eo_i + eo_b
        if self._blocks is None:
            return eta
        charge_col_dots(self.A.n_rows, self._plan.r, self._obs["counters"],
                        prec=self.prec)
        return self._dots(self.v, self.w)

    def step(self):
        """One whole fused iteration: :meth:`swap`, then :meth:`update`."""
        self.swap()
        return self.update()

    def advance(self) -> np.ndarray:
        """One *unfused* iteration (SpM(M)V + recombination, no dots).

        For the consumers that need every ``nu_m`` itself — LDOS, the
        Chebyshev propagator, spectral filters.  They are serial, so the
        swap happens here and nothing refreshes a halo in between.
        Returns the new iterate (``w``), valid until the next call.
        """
        self.swap()
        prec = self.prec
        if prec.half_vectors:
            # the SpMMV streams the half layout; the recombination runs
            # in fp32 on decodes and is rounded back into w's storage
            vc, wc = self._vc[: self.A.n_rows], self._wc
            self._apply(self.A, self.x, out=self._uh, plan=self._plan,
                        **self._obs)
            prec.decode(self._uh, out=self._u)
            prec.decode(self.v, out=vc)
            prec.decode(self.w, out=wc)
            _recombine(wc, self._u, vc, self.a, self.b)
            prec.encode(wc, out=self.w)
        else:
            self._apply(self.A, self.x, out=self._u, plan=self._plan,
                        **self._obs)
            _recombine(self.w, self._u, self.v, self.a, self.b)
        return self.w

    def iterates(self, n: int):
        """Yield ``nu_0 .. nu_{n-1}``, each valid until the next one."""
        yield self.v
        if n > 1:
            self.bootstrap(dots=False)
            yield self.w
        for _ in range(2, n):
            yield self.advance()


def chebyshev_series(
    H, a: float, b: float, block: np.ndarray, weights: np.ndarray,
    counters: PerfCounters = NULL_COUNTERS,
) -> np.ndarray:
    """``sum_m weights[m] T_m(a (H - b)) block`` on the default backend.

    The expansion shared by the Chebyshev propagator and the spectral
    filters (Weisse et al., Rev. Mod. Phys. 78): only the weights differ.
    """
    rec = Recurrence(H, a, b, block.shape[1], counters=counters)
    rec.load(block)
    out = np.zeros_like(rec.v)
    for weight, nu in zip(weights, rec.iterates(len(weights))):
        out += weight * nu
    return out
