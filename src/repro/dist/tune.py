"""Offline search-driven configuration tuning (``repro tune``).

The paper tunes its kernels by hand: SELL-C-sigma chunk geometry per
architecture (Table I), process weights per heterogeneous device pair
(Fig. 11), block width R per memory budget, and the overlap mode per
interconnect.  This module automates that search on the machine at
hand: it measures short probe runs of the actual engines over a
declared search space — backend, sparse format (CSR / SELL-C-sigma and
its C/sigma geometry), block width R, rank count, per-rank weights,
communication overlap, intra-rank threads, SIMD kernel selection,
precision profile — and
persists the best configuration as a *tuned profile* keyed by (matrix
signature, machine signature).  ``repro dos --engine auto`` consults
the profile store and runs the tuned configuration when one matches.

Search strategy: a seeded random sample of the space (always including
the untuned default, so the tuner can never regress below it) is
pre-ranked by an analytic cost model (Eq. 5-7 traffic over the
effective parallel bandwidth), the most promising candidates are
measured for real, and the best measured point is refined by greedy
single-knob mutation until no neighbor improves.  Measurements run the
engine dispatch production runs use, so the score *is* the quantity
being optimized.

The profile store is a small JSON document; its default location is
``$REPRO_TUNE_PROFILE`` or ``~/.cache/repro/tuned.json``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from repro.util.knobs import ExecConfig, run_engine
from repro.util.validation import check_positive

__all__ = [
    "TuneConfig",
    "TuneSpace",
    "TuneResult",
    "DEFAULT_CONFIG",
    "matrix_signature",
    "machine_signature",
    "profile_key",
    "default_profile_path",
    "model_cost",
    "measure",
    "tune",
    "save_profile",
    "load_profiles",
    "lookup",
]

#: Schema version of the persisted profile store.
PROFILE_VERSION = 1


# ----------------------------------------------------------------------
#: The execution half of the untuned baseline: serial (one worker; 'mp'
#: names the engine a multi-worker point uses), sequential kernels.
_EXEC_DEFAULTS = dict(engine="mp", workers=1, overlap="off", simd="auto",
                      precision="fp64")
_EXEC_FIELDS = frozenset(f.name for f in fields(ExecConfig))

#: The profile store's flat keys, in their on-disk order.
_PROFILE_KEYS = ("backend", "fmt", "chunk", "sigma", "r", "engine", "workers",
                 "weights", "overlap", "threads", "simd", "precision")


@dataclass(frozen=True, init=False)
class TuneConfig:
    """One point of the search space: the shape knobs next to an
    :class:`~repro.util.knobs.ExecConfig`.

    ``fmt`` (``'csr'``/``'sell'``), ``chunk``/``sigma`` (SELL C and
    sigma, 1 = no sorting) and the block width ``r`` shape the operator;
    ``exec`` says how the probe runs, where ``engine`` is the
    distributed engine used once ``workers > 1`` (:attr:`execution` is
    the config actually run).  The execution knobs are also accepted as
    flat keywords and read as attributes — ``TuneConfig(workers=2,
    threads=4).threads`` — the profile store's flat keys.
    """

    fmt: str = "csr"
    chunk: int = 32
    sigma: int = 1
    r: int = 8
    exec: ExecConfig | None = None

    def __init__(self, fmt: str = "csr", chunk: int = 32, sigma: int = 1,
                 r: int = 8, exec: ExecConfig | None = None, **knobs) -> None:
        for name, value in (("fmt", fmt), ("chunk", chunk), ("sigma", sigma),
                            ("r", r)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "exec",
                           ExecConfig.of(exec, knobs, **_EXEC_DEFAULTS))
        if fmt not in ("csr", "sell"):
            raise ValueError(f"fmt must be 'csr' or 'sell', got {fmt!r}")
        check_positive("r", r)
        if sigma != 1 and sigma % chunk:
            raise ValueError(
                f"sigma must be 1 or a multiple of chunk, got "
                f"C={chunk} sigma={sigma}"
            )

    def __getattr__(self, name: str):
        if name in _EXEC_FIELDS:
            return getattr(self.exec, name)
        raise AttributeError(name)

    @property
    def execution(self) -> ExecConfig:
        """The config a probe or a tuned run executes."""
        return self.exec if self.exec.workers > 1 \
            else replace(self.exec, engine="serial")

    def to_dict(self) -> dict:
        d = {key: getattr(self, key) for key in _PROFILE_KEYS}
        d["weights"] = list(self.weights) if self.weights is not None else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TuneConfig":
        return cls(**d)


#: The untuned baseline: serial CSR fp64, sequential kernels.  Always a
#: member of the candidate pool, so ``tune()`` can never return a
#: configuration that measured slower than it.
DEFAULT_CONFIG = TuneConfig()


@dataclass(frozen=True)
class TuneSpace:
    """Candidate values per knob; the cartesian product is the space."""

    backends: tuple = ("auto",)
    fmts: tuple = ("csr", "sell")
    chunks: tuple = (8, 32)
    sigmas: tuple = (1, 128)
    rs: tuple = (4, 8, 16)
    engines: tuple = ("mp",)
    workers: tuple = (1, 2)
    weights: tuple = (None,)
    overlaps: tuple = ("off", "on")
    threads: tuple = (None, 2, 4)
    simds: tuple = ("auto", "off")
    precisions: tuple = ("fp64",)

    def sample(self, rng: np.random.Generator) -> TuneConfig:
        """One random (always-valid) point of the space."""
        chunk = int(rng.choice(self.chunks))
        sigma = int(rng.choice(self.sigmas))
        if sigma != 1:
            sigma = max(chunk, sigma - sigma % chunk)
        workers = int(rng.choice(self.workers))
        weights = self.weights[rng.integers(len(self.weights))]
        if weights is not None and len(weights) != workers:
            weights = None
        threads = self.threads[rng.integers(len(self.threads))]
        return TuneConfig(
            backend=str(rng.choice(self.backends)),
            fmt=str(rng.choice(self.fmts)),
            chunk=chunk,
            sigma=sigma,
            r=int(rng.choice(self.rs)),
            engine=str(rng.choice(self.engines)),
            workers=workers,
            weights=weights,
            overlap=str(rng.choice(self.overlaps)),
            threads=None if threads is None else int(threads),
            simd=str(rng.choice(self.simds)),
            precision=str(rng.choice(self.precisions)),
        )

    def neighbors(self, cfg: TuneConfig) -> list[TuneConfig]:
        """All single-knob mutations of ``cfg`` (the greedy neighborhood)."""
        out: list[TuneConfig] = []

        def push(**kw) -> None:
            try:
                cand = replace(cfg, **kw)
            except ValueError:
                return
            if cand != cfg:
                out.append(cand)

        for b in self.backends:
            push(backend=b)
        for f in self.fmts:
            push(fmt=f)
        if cfg.fmt == "sell":
            for c in self.chunks:
                s = cfg.sigma
                if s != 1:
                    s = max(c, s - s % c)
                push(chunk=c, sigma=s)
            for s in self.sigmas:
                if s != 1:
                    s = max(cfg.chunk, s - s % cfg.chunk)
                push(sigma=s)
        for r in self.rs:
            push(r=r)
        for w in self.workers:
            wts = cfg.weights
            if wts is not None and len(wts) != w:
                wts = None
            push(workers=w, weights=wts)
        if cfg.workers > 1:
            for e in self.engines:
                push(engine=e)
            for o in self.overlaps:
                push(overlap=o)
            for wts in self.weights:
                if wts is None or len(wts) == cfg.workers:
                    push(weights=wts)
        for t in self.threads:
            push(threads=None if t is None else int(t))
        for sm in self.simds:
            push(simd=sm)
        for p in self.precisions:
            push(precision=p)
        return out


@dataclass
class TuneResult:
    """Outcome of one tuning run."""

    config: TuneConfig
    seconds: float
    baseline_seconds: float
    signature: str
    #: every measured (config, seconds), in evaluation order
    evaluated: list = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Measured speedup over the untuned default (>= 1 by search
        construction: the default is always in the candidate pool)."""
        return self.baseline_seconds / max(self.seconds, 1e-300)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "seconds": self.seconds,
            "baseline_seconds": self.baseline_seconds,
            "signature": self.signature,
        }


# -- signatures and the profile store ----------------------------------
def matrix_signature(H) -> str:
    """Shape class of the operator: rows, nnz, and mean row length."""
    return f"n{H.n_rows}-nnz{H.nnz}-nnzr{H.nnz / max(H.n_rows, 1):.1f}"


def machine_signature() -> str:
    """Host class: ISA + core count (what the knobs actually depend on)."""
    return f"{platform.machine() or 'unknown'}-c{os.cpu_count() or 1}"


def profile_key(H) -> str:
    return f"{machine_signature()}|{matrix_signature(H)}"


def default_profile_path() -> Path:
    env = os.environ.get("REPRO_TUNE_PROFILE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "tuned.json"


def load_profiles(path: str | Path | None = None) -> dict:
    """The profile store as a dict (empty when absent or unreadable)."""
    p = Path(path) if path is not None else default_profile_path()
    try:
        doc = json.loads(p.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(doc, dict) or doc.get("version") != PROFILE_VERSION:
        return {}
    profiles = doc.get("profiles")
    return profiles if isinstance(profiles, dict) else {}

def save_profile(
    H, result: TuneResult, path: str | Path | None = None
) -> Path:
    """Insert/replace the profile for (machine, matrix); returns the path."""
    p = Path(path) if path is not None else default_profile_path()
    profiles = load_profiles(p)
    entry = result.to_dict()
    entry["saved_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    profiles[profile_key(H)] = entry
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_suffix(p.suffix + ".tmp")
    tmp.write_text(json.dumps(
        {"version": PROFILE_VERSION, "profiles": profiles}, indent=2,
    ))
    tmp.replace(p)
    return p


def lookup(H, path: str | Path | None = None) -> TuneConfig | None:
    """The tuned config for this (machine, matrix), or None."""
    entry = load_profiles(path).get(profile_key(H))
    if entry is None:
        return None
    try:
        return TuneConfig.from_dict(entry["config"])
    except (KeyError, TypeError, ValueError):
        return None


# -- scoring -----------------------------------------------------------
def model_cost(H, cfg: TuneConfig, n_moments: int = 32) -> float:
    """Analytic relative cost: Eq. 5-7 traffic over effective parallelism.

    A cheap pre-ranking for random candidates — bytes moved by one probe
    run (precision-priced, format-blind) divided by how many cores the
    configuration brings to bear — *not* a wall-time prediction.  Ties
    and format effects are left to the measurement stage.
    """
    from repro.perf.report import expected_counters

    expect = expected_counters(
        H, n_moments, cfg.r, "aug_spmmv", precision=cfg.precision
    )
    cores = os.cpu_count() or 1
    par = min(cores, cfg.workers * (cfg.exec.kernel_threads(cfg.workers) or 1))
    # mp ranks pay a spawn/halo overhead a core count doesn't capture;
    # charge a small constant per extra rank so the model prefers
    # threads over ranks at equal parallelism (matches measurement).
    overhead = 1.0 + 0.05 * (cfg.workers - 1)
    return float(expect.bytes_total) * overhead / par


def _build_operator(H, cfg: TuneConfig):
    if cfg.fmt == "sell":
        from repro.sparse.sell import SellMatrix

        return SellMatrix(H, chunk_height=cfg.chunk, sigma=cfg.sigma)
    return H


def measure(
    H,
    cfg: TuneConfig,
    *,
    n_moments: int = 32,
    seed: int = 0,
    repeats: int = 1,
) -> float:
    """Wall-time of one probe run of ``cfg`` (best of ``repeats``).

    Runs the engine dispatch production uses
    (:func:`~repro.util.knobs.run_engine`) on ``cfg.execution``.  SELL
    conversion and (for distributed configs) partitioning happen outside
    the timed region — one-time costs a long production run amortizes.
    """
    from repro.core.checkpoint import RunContext
    from repro.core.scaling import lanczos_scale
    from repro.core.stochastic import make_block_vector

    scale = lanczos_scale(H, seed=seed)
    block = make_block_vector(H.n_rows, cfg.r, "phase", seed)
    A = _prepare_probe(H, cfg)
    best = float("inf")
    for _ in range(max(1, int(repeats))):
        t0 = time.perf_counter()
        run_engine(cfg.execution, RunContext(), A, scale, n_moments, block)
        best = min(best, time.perf_counter() - t0)
    return best


def _prepare_probe(H, cfg):
    """The probe's operator: ``H`` converted to ``cfg.fmt`` — for a
    distributed config partitioned first, each rank's block converted."""
    if cfg.workers == 1:
        return _build_operator(H, cfg)
    from repro.dist.halo import partition_matrix
    from repro.dist.partition import RowPartition

    if cfg.weights is not None:
        part = RowPartition.from_weights(
            H.n_rows, list(cfg.weights), align=4
        )
    else:
        part = RowPartition.equal(H.n_rows, cfg.workers, align=4)
    A = partition_matrix(H, part)
    if cfg.fmt == "sell" and cfg.overlap != "on":
        # Per-rank SELL: each rank's rectangular local block (local
        # rows x local+halo columns) is sorted and chunked
        # independently, exactly how a heterogeneous machine would
        # format each device's share.  The overlap path keeps CSR —
        # its split-task plan slices the local block by row ranges
        # that SELL's row permutation does not preserve.
        from repro.sparse.sell import SellMatrix

        for blk in A.blocks:
            blk.matrix = SellMatrix(
                blk.matrix, chunk_height=cfg.chunk, sigma=cfg.sigma
            )
    return A


# -- the search driver -------------------------------------------------
def tune(
    H,
    *,
    space: TuneSpace | None = None,
    n_random: int = 8,
    n_measure: int = 5,
    greedy_rounds: int = 2,
    n_moments: int = 32,
    seed: int = 0,
    repeats: int = 1,
    measure_fn=None,
    log=None,
) -> TuneResult:
    """Random + greedy search for the fastest configuration on this host.

    1. **Seed** the pool with :data:`DEFAULT_CONFIG` plus ``n_random``
       random samples of ``space``.
    2. **Pre-rank** the samples by :func:`model_cost` and measure the
       default plus the ``n_measure`` most promising candidates.
    3. **Greedy refinement**: for up to ``greedy_rounds`` rounds,
       measure every unvisited single-knob neighbor of the incumbent
       and move to the best one; stop early when no neighbor improves.

    A candidate whose measurement raises (e.g. a format/backend combo
    unavailable on this host) scores ``inf`` and simply drops out.
    ``measure_fn(H, cfg)`` overrides the measurement (tests inject a
    deterministic cost here).  Returns a :class:`TuneResult` whose
    ``config`` is never slower than the measured untuned default.
    """
    space = space if space is not None else TuneSpace()
    rng = np.random.default_rng(seed)
    if measure_fn is None:
        def measure_fn(h, cfg):  # noqa: ANN001 - local default
            return measure(h, cfg, n_moments=n_moments, seed=seed,
                           repeats=repeats)

    seen: dict[TuneConfig, float] = {}
    evaluated: list[tuple[TuneConfig, float]] = []

    def score(cfg: TuneConfig) -> float:
        if cfg in seen:
            return seen[cfg]
        try:
            s = float(measure_fn(H, cfg))
        except Exception:  # noqa: BLE001 - invalid combos drop out
            s = float("inf")
        seen[cfg] = s
        evaluated.append((cfg, s))
        if log is not None:
            log(cfg, s)
        return s

    pool = {space.sample(rng) for _ in range(max(0, int(n_random)))}
    pool.discard(DEFAULT_CONFIG)
    ranked = sorted(pool, key=lambda c: model_cost(H, c, n_moments))

    baseline = score(DEFAULT_CONFIG)
    for cfg in ranked[: max(0, int(n_measure))]:
        score(cfg)

    best = min(seen, key=seen.get)
    for _ in range(max(0, int(greedy_rounds))):
        improved = False
        for cand in space.neighbors(best):
            if cand in seen:
                continue
            if score(cand) < seen[best]:
                improved = True
        incumbent = min(seen, key=seen.get)
        if incumbent == best or not improved:
            best = incumbent
            break
        best = incumbent

    return TuneResult(
        config=best,
        seconds=seen[best],
        baseline_seconds=baseline,
        signature=profile_key(H),
        evaluated=evaluated,
    )
