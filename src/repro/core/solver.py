"""High-level KPM solver facade.

:class:`KPMSolver` wires the full pipeline together — spectral scaling,
stochastic start vectors, a moment engine (any of the paper's three
optimization stages), kernel damping, and reconstruction — behind the
three physics-facing queries of the paper's application section:

* :meth:`KPMSolver.dos` — density of states (paper Fig. 1),
* :meth:`KPMSolver.ldos` — site-resolved local DOS (paper Fig. 2, left),
* :meth:`KPMSolver.spectral_function` — momentum-resolved A(k, E)
  (paper Fig. 2, right),

plus :meth:`KPMSolver.eigencount` for the eigenvalue-counting use case of
the paper's Refs. [8], [22].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import RunContext
from repro.core.moments import MomentEngine, compute_eta, eta_to_moments
from repro.core.reconstruct import integrate_density, reconstruct_dos
from repro.core.scaling import SpectralScale, gershgorin_scale, lanczos_scale
from repro.core.stochastic import ldos_moments, make_block_vector, unit_block_vector
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.physics.hamiltonian import plane_wave_vector
from repro.physics.lattice import Lattice3D
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.knobs import ExecConfig, check_rebalance, run_supervised
from repro.util.precision import get_precision
from repro.util.validation import check_positive


@dataclass
class DOSResult:
    """Reconstructed density of states.

    ``rho`` integrates to (approximately) the matrix dimension N —
    it counts eigenvalues per unit energy, like paper Eq. (2).
    """

    energies: np.ndarray
    rho: np.ndarray
    moments: np.ndarray
    scale: SpectralScale
    n_vectors: int
    kernel: str

    def normalized(self) -> "DOSResult":
        """Return a copy whose density integrates to 1."""
        n = self.moments[0]
        return DOSResult(
            self.energies, self.rho / n, self.moments / n,
            self.scale, self.n_vectors, self.kernel,
        )


@dataclass
class LDOSResult:
    """Site-resolved local density of states rho_i(E)."""

    energies: np.ndarray
    rho: np.ndarray  # (n_sites_queried, n_energies)
    rows: np.ndarray
    scale: SpectralScale
    kernel: str

    def at_energy(self, energy: float) -> np.ndarray:
        """LDOS of every queried row at the grid point nearest ``energy``."""
        idx = int(np.argmin(np.abs(self.energies - energy)))
        return self.rho[:, idx]


def dos_result_from_moments(
    mu: np.ndarray,
    scale: SpectralScale,
    *,
    kernel: str = "jackson",
    n_vectors: int = 1,
    energies: np.ndarray | None = None,
    n_points: int | None = None,
) -> DOSResult:
    """Reconstruct a :class:`DOSResult` from precomputed trace moments.

    Moments are kernel-free: damping happens here, at reconstruction.
    This is the path the serving layer takes on a moment-cache hit — a
    repeat query with a different kernel re-damps the stored ``mu``
    instead of re-running M/2 operator applications — and it produces
    exactly what :meth:`KPMSolver.dos` would for the same moments.
    """
    mu = np.asarray(mu)
    n_moments = mu.shape[-1]
    pts = n_points if n_points is not None else max(2 * n_moments, 256)
    e_grid, rho = reconstruct_dos(
        mu, scale, energies=energies, n_points=pts, kernel=kernel
    )
    return DOSResult(e_grid, rho, mu, scale, n_vectors, kernel)


@dataclass
class SpectralFunctionResult:
    """Momentum-resolved spectral function A(k, E)."""

    energies: np.ndarray
    a_ke: np.ndarray  # (n_k, n_energies)
    k_points: list = field(default_factory=list)

    def band_maximum(self) -> np.ndarray:
        """E position of the strongest spectral weight for each k."""
        return self.energies[np.argmax(self.a_ke, axis=1)]


class KPMSolver:
    """Kernel Polynomial Method solver for a sparse Hermitian operator.

    Parameters
    ----------
    H:
        Operator in CSR or SELL-C-sigma storage.
    n_moments:
        Chebyshev moments M (even). Energy resolution ~ spectral width / M.
    n_vectors:
        Stochastic vectors R (the paper's block width).
    scale:
        Explicit spectral map; default: estimated via ``bounds``.
    bounds:
        ``'lanczos'`` (tight, default) or ``'gershgorin'`` (rigorous).
    engine:
        Moment engine — ``'naive'``, ``'aug_spmv'`` or ``'aug_spmmv'``
        (paper optimization stages 0/1/2). Identical results, different
        kernel structure and speed.
    kernel:
        Damping kernel for reconstruction ('jackson' by default).
    seed:
        RNG seed for the stochastic vectors.
    counters:
        Optional traffic/flop accounting sink.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` recording per-kernel
        wall-time spans (with the counters' traffic attributed span by
        span) and, when built with a :class:`~repro.obs.Trace`, a JSONL
        trace of every span.  Free with the null default.
    dist_engine:
        ``None`` (serial, default), ``'sim'`` or ``'mp'``: the
        ``engine`` field of the execution config.  The distributed
        engines run the paper's data-parallel scheme — weighted row
        partition, halo exchange, one deferred global reduction.
    resilience:
        Optional :class:`~repro.resil.Resilience` configuration.  When
        set, every moment computation runs under a
        :class:`~repro.resil.Supervisor`: failed attempts are retried
        under its policy, resumed from the latest checkpoint, and
        degraded ``mp → sim → serial`` (and ``native → numpy``) instead
        of failing the solve.  The last run's
        :class:`~repro.resil.ResilienceReport` is exposed as
        ``solver.resilience_report``.
    config / knobs:
        How the solve executes: an :class:`~repro.util.knobs.ExecConfig`
        and/or its fields as keywords — ``workers``, ``weights``,
        ``backend``, ``precision``, ``threads``, ``simd``, ``overlap``
        (``'auto'`` here), ``reduction``, ``rebalance``, ``membership``.
        ``ExecConfig`` says what each does and which may move bits.  A
        ``rebalance`` policy needs a distributed engine or
        ``resilience``; the last elastic run's
        :class:`~repro.dist.elastic.ElasticReport` is exposed as
        ``solver.elastic_report``.
    """

    def __init__(
        self,
        H: CSRMatrix | SellMatrix,
        n_moments: int = 512,
        n_vectors: int = 8,
        *,
        scale: SpectralScale | None = None,
        bounds: str = "lanczos",
        engine: MomentEngine | str = MomentEngine.AUG_SPMMV,
        kernel: str = "jackson",
        vector_kind: str = "phase",
        seed: int | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        metrics: MetricsRegistry = NULL_METRICS,
        dist_engine: str | None = None,
        resilience=None,
        config: ExecConfig | None = None,
        **knobs,
    ) -> None:
        check_positive("n_moments", n_moments)
        check_positive("n_vectors", n_vectors)
        self.config = cfg = ExecConfig.of(
            config, knobs if dist_engine is None
            else {**knobs, "engine": dist_engine})
        if cfg.engine != "serial" and not isinstance(H, CSRMatrix):
            raise ValueError(
                "distributed engines partition CSR operators; convert "
                "SELL-C-sigma back with to_csr() first"
            )
        check_rebalance(cfg, resilience is not None)
        self.precision = get_precision(cfg.precision)
        self.H = H
        self.n_moments = int(n_moments)
        self.n_vectors = int(n_vectors)
        self.engine = MomentEngine(engine)
        self.kernel = kernel
        self.vector_kind = vector_kind
        self.seed = seed
        self.counters = counters
        self.metrics = metrics
        self.resilience = resilience
        #: the ElasticReport of the most recent elastic solve; None
        #: until one runs (or when rebalance is off).
        self.elastic_report = None
        #: the communicator of the most recent distributed solve
        #: (message log, per-rank accounting); None until one runs.
        self.world = None
        #: the ResilienceReport of the most recent supervised solve;
        #: None until one runs (or when resilience is not configured).
        self.resilience_report = None
        if scale is not None:
            self.scale = scale
        elif bounds == "gershgorin":
            if not isinstance(H, CSRMatrix):
                raise ValueError("gershgorin bounds require a CSRMatrix")
            self.scale = gershgorin_scale(H)
        elif bounds == "lanczos":
            self.scale = lanczos_scale(H, seed=seed, backend=cfg.backend)
        else:
            raise ValueError(
                f"bounds must be 'lanczos' or 'gershgorin', got {bounds!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec,
        n_moments: int = 512,
        n_vectors: int = 8,
        *,
        scale_seed: int | None = 0,
        **kwargs,
    ) -> "KPMSolver":
        """Build a solver from a canonical operator spec.

        ``spec`` is a :class:`~repro.serve.spec.HamiltonianSpec` (or its
        ``to_dict()`` form).  The spectral map is pinned with
        ``scale_seed`` — the same convention the serving layer uses to
        make a request's moments a pure function of its content key —
        so a solo ``from_spec`` solve is the bitwise reference for a
        coalesced server solve of the same spec.  The built model stays
        available as ``solver.model`` (site geometry for LDOS row
        selection etc.).
        """
        from repro.serve.spec import HamiltonianSpec

        if isinstance(spec, dict):
            spec = HamiltonianSpec.from_dict(spec)
        H, model = spec.build()
        if "scale" not in kwargs:
            kwargs["scale"] = lanczos_scale(H, seed=scale_seed)
        solver = cls(H, n_moments, n_vectors, **kwargs)
        solver.model = model
        return solver

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self.H.n_rows

    def _start_block(self) -> np.ndarray:
        return make_block_vector(
            self.dimension, self.n_vectors, self.vector_kind, self.seed
        )

    # ------------------------------------------------------------------
    def moments(self) -> np.ndarray:
        """Raw stochastic-trace Chebyshev moments mu_m ~= tr[T_m(H~)].

        Executed as ``config`` says (:func:`~repro.util.knobs.run_engine`)
        — under the fault-tolerance supervisor (retries, checkpoint
        recovery, engine degradation) when ``resilience`` is set.
        Identical values on every engine up to floating-point reduction
        order.
        """
        eta, self.world, report, self.resilience_report = run_supervised(
            self.config,
            RunContext(counters=self.counters, metrics=self.metrics),
            self.resilience, self.seed, self.H, self.scale, self.n_moments,
            self._start_block(), kernel=self.engine,
        )
        if report is not None:
            self.elastic_report = report
        return eta_to_moments(eta).mean(axis=0).real

    def dos(
        self,
        energies: np.ndarray | None = None,
        n_points: int | None = None,
    ) -> DOSResult:
        """Density of states (eigenvalues per unit energy).

        With ``energies=None`` the density is evaluated on the Chebyshev
        grid (fast DCT path); pass explicit energies to probe arbitrary
        windows, e.g. the narrow zoom of paper Fig. 1 (right panel).
        """
        mu = self.moments()
        pts = n_points if n_points is not None else max(2 * self.n_moments, 256)
        with self.metrics.span("reconstruct", phase="solver"):
            e_grid, rho = reconstruct_dos(
                mu, self.scale, energies=energies, n_points=pts,
                kernel=self.kernel,
            )
        return DOSResult(e_grid, rho, mu, self.scale, self.n_vectors, self.kernel)

    def ldos(
        self,
        rows: np.ndarray,
        energies: np.ndarray | None = None,
        n_points: int | None = None,
        *,
        exact: bool = False,
    ) -> LDOSResult:
        """Local DOS for the given matrix rows.

        ``exact=True`` uses one unit start vector per row (cost scales
        with ``len(rows)``; fine for small row sets / small systems),
        otherwise the stochastic diagonal estimator with ``n_vectors``
        random vectors covers *all* requested rows at once.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if exact:
            block = unit_block_vector(self.dimension, rows)
        else:
            block = self._start_block()
        mu = ldos_moments(self.H, self.scale, self.n_moments, block, rows,
                          self.counters, config=self.config)
        pts = n_points if n_points is not None else max(2 * self.n_moments, 256)
        e_grid, rho = reconstruct_dos(
            mu, self.scale, energies=energies, n_points=pts, kernel=self.kernel
        )
        return LDOSResult(e_grid, rho, rows, self.scale, self.kernel)

    def spectral_function(
        self,
        lattice: Lattice3D,
        k_points: list,
        energies: np.ndarray | None = None,
        n_points: int | None = None,
        orbitals: list[int] | None = None,
    ) -> SpectralFunctionResult:
        """Momentum-resolved spectral function A(k, E) (paper Fig. 2, right).

        For each k, sums ``<k,o| delta(E - H) |k,o>`` over the requested
        orbitals using exact plane-wave probe states — one KPM run of
        block width ``len(orbitals)`` per k-point.
        """
        orbitals = list(range(4)) if orbitals is None else list(orbitals)
        pts = n_points if n_points is not None else max(2 * self.n_moments, 256)
        all_rho = []
        e_grid = None
        for k in k_points:
            block = np.ascontiguousarray(
                np.stack(
                    [plane_wave_vector(lattice, k, o) for o in orbitals], axis=1
                )
            )
            eta = compute_eta(self.H, self.scale, self.n_moments, block,
                              self.engine, self.counters, config=self.config)
            mu = eta_to_moments(eta).sum(axis=0).real  # sum over orbitals
            e_grid, rho = reconstruct_dos(
                mu, self.scale, energies=energies, n_points=pts,
                kernel=self.kernel,
            )
            all_rho.append(rho)
        return SpectralFunctionResult(e_grid, np.array(all_rho), list(k_points))

    def eigencount(self, e_lo: float, e_hi: float) -> float:
        """Estimated number of eigenvalues in [e_lo, e_hi].

        Integrates the reconstructed DOS — the eigenvalue-counting
        application of the paper's Refs. [8], [22] (sub-space sizing for
        projection eigensolvers).
        """
        result = self.dos()
        return integrate_density(result.energies, result.rho, e_lo, e_hi)
