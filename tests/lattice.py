"""The knob lattice: one table of rows, one runner, four relations.

A :class:`Row` is one solve of TI 6×5×4 (480 rows: a partial last η
block) at :data:`M` moments on the first ``r`` of :data:`R_MAX` start
columns, under every :class:`~repro.util.knobs.ExecConfig` field, a
format, a stage kernel and one run event.  :func:`check` asserts, bit
for bit (DESIGN §19, "The lattice"):

1. η equals the reference of its (precision, naive | fused);
2. without a fault, the counters' bytes and flops equal the Table-I
   charge (``expected_counters``; a resumed half: its ``first_m=``);
3. on mp, the message log equals the sim twin's (:meth:`Row.twin`):
   two recordings, each rank's messages as the one rank program moved
   them, merged in rank order;
4. a stage-2 row's progress stream at cadence 1 — each leg's ``(n_eta,
   prefix)`` pairs — fires after every iteration from the leg's
   ``first_m`` (a resumed half: its own), each prefix the reference's
   (a served row's: its moments'); on mp it equals the sim twin's.  A
   fault row's leg spans both attempts: the retry resumes where the
   fault struck, so the stream is an uninterrupted run's, each prefix
   streamed once.  A served row streams through its tickets' partials.

The table is :data:`COVERING`, a strength-2 covering of :data:`DOMAINS`
under :func:`_forbidden`, and :data:`CASES`, named parity cases — mp ≡
sim ≡ serial, overlap, threads, simd, resume, recovery, coalescing —
each a test of its own module (:func:`case_test`).
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import KpmCheckpoint, RunContext
from repro.core.moments import eta_to_moments
from repro.core.recurrence import Recurrence
from repro.core.stochastic import make_block_vector
from repro.dist.elastic import RebalancePolicy, run_elastic
from repro.perf.report import expected_counters
from repro.resil import Resilience, RetryPolicy, Supervisor
from repro.serve import HamiltonianSpec, KPMServer, Request
from repro.sparse.backend.native import native_available
from repro.sparse.fused import fold
from repro.sparse.sell import SellMatrix
from repro.util.counters import PerfCounters
from repro.util.knobs import ExecConfig, run_engine

SPEC = HamiltonianSpec("topological_insulator", {"nx": 6, "ny": 5, "nz": 4})
M = 16  # eight inner iterations
R_MAX = 32
SKEW = {1: (1.0,), 2: (0.7, 0.3), 3: (0.6, 0.1, 0.3), 4: (0.4, 0.1, 0.2, 0.3)}
#: whether the C kernels build here, decided once as the suite collects;
#: without them a native or mixed row runs on numpy (the same bits)
NATIVE = native_available()

#: every value a row field takes in the covering
DOMAINS = {
    "engine": ("serial", "sim", "mp"),
    "workers": (1, 2, 3),
    "weights": ("equal", "skew"),
    "backend": ("numpy", "native", "mixed"),  # mixed: one per rank, on mp
    "precision": ("fp64", "fp32", "fp16v"),
    "threads": (None, 1, 2, "auto"),
    "simd": ("auto", "on", "off"),
    "overlap": ("auto", "on", "off"),
    "reduction": ("end", "every"),
    "fmt": ("csr", "sell"),
    "stage": ("naive", "aug_spmv", "aug_spmmv"),
    "r": (1, 3, 8),
    "event": ("none", "resume", "join", "leave", "rebalance", "fault",
              "serve"),
}
_ELASTIC = ("join", "leave", "rebalance")


def _forbidden(a: str, va, b: str, vb) -> bool:
    """Whether no row may hold ``a=va`` together with ``b=vb``."""
    for (x, vx), (y, vy) in (((a, va), (b, vb)), ((b, vb), (a, va))):
        distributed = (x == "engine" and vx != "serial"
                       or x == "event" and vx in _ELASTIC
                       or (x, vx) == ("backend", "mixed"))
        serial_only = (y, vy) == ("fmt", "sell") or (
            y == "stage" and vy != "aug_spmmv")
        if distributed and serial_only:
            return True  # the distributed engines run CSR stage 2 only
        if serial_only and x == "event" and vx != "none":
            return True  # so do checkpoints, faults and served batches
        if (x, vx) == ("engine", "serial") and y == "event" \
                and vy in _ELASTIC:
            return True
        if (x, vx) == ("backend", "mixed") and (
                y == "engine" and vy != "mp" or (y, vy) == ("workers", 1)
                or y == "event" and vy in ("join", "leave", "fault",
                                            "serve")):
            return True  # a backend per rank needs a fixed-size mp world
        if (x, vx) == ("event", "leave") and (y, vy) == ("workers", 1):
            return True
    return False


@dataclass(frozen=True)
class Row:
    """One solve; ``k`` places the event (the checkpoint cadence, the
    membership boundary, the fault's moment), ``then`` holds the fields
    a resumed run changes (default: every knob)."""

    engine: str = "serial"
    workers: int = 2
    weights: str | tuple = "equal"
    backend: str = "auto"
    precision: str = "fp64"
    threads: object = "auto"
    simd: str = "auto"
    overlap: str = "auto"
    reduction: str = "end"
    fmt: str = "csr"
    stage: str = "aug_spmmv"
    r: int = 3
    event: str = "none"
    k: int = 3
    then: tuple | None = None

    def config(self) -> ExecConfig:
        backend, weights = self.backend, self.weights
        if not NATIVE and backend in ("native", "mixed"):
            backend = "numpy"
        if backend == "mixed":
            backend = [("native", "numpy")[p % 2] for p in range(self.workers)]
        if isinstance(weights, str):
            weights = SKEW[self.workers] if weights == "skew" else None
        return ExecConfig(
            engine=self.engine, workers=self.workers, weights=weights,
            backend=backend, precision=self.precision, threads=self.threads,
            simd=self.simd, overlap=self.overlap, reduction=self.reduction)

    def second(self) -> Row:
        """The row a ``resume`` row's second run is."""
        if self.then is not None:
            return replace(self, **dict(self.then))
        flip = lambda v, a, b: b if v == a else a  # noqa: E731
        return replace(
            self, engine={"serial": "mp", "sim": "serial", "mp": "sim"}[
                self.engine], workers=3 if self.workers < 3 else 2,
            backend=flip(self.backend, "numpy", "native"),
            threads=2 if self.threads in (None, 1) else 1,
            simd=flip(self.simd, "off", "on"),
            overlap=flip(self.overlap, "off", "on"),
            weights=flip(self.weights, "skew", "equal"),
            reduction=flip(self.reduction, "end", "every"))

    @property
    def runs(self) -> tuple:
        return (self, self.second()) if self.event == "resume" else (self,)

    def twin(self) -> Row:
        """This row with every mp run on sim (and one backend)."""
        def sim(row):
            return replace(row, engine=row.engine.replace("mp", "sim"),
                           backend=row.backend.replace("mixed", "numpy"))

        then = self.then
        if self.event == "resume":
            then = tuple((f.name, getattr(sim(self.second()), f.name))
                         for f in fields(self) if f.name != "then")
        return replace(sim(self), then=then)

    def __str__(self) -> str:
        return "-".join(f"{f.name}={getattr(self, f.name)}"
                        for f in fields(self)
                        if getattr(self, f.name) != f.default)


# -- the operator, the references and the runner -----------------------

_STATE: dict = {}


def operator():
    """``(H, scale, block)``: the served operator and spectral map, and
    start columns — column k is a served ``seed=k`` request's."""
    if "op" not in _STATE:
        H, _model, scale = KPMServer().operator(SPEC)
        block = np.concatenate([make_block_vector(H.n_rows, 1, seed=k)
                                for k in range(R_MAX)], axis=1)
        _STATE["op"] = H, scale, np.ascontiguousarray(block)
        _STATE["sell"] = SellMatrix(H, chunk_height=8, sigma=32)
    return _STATE["op"]


def reference(row: Row) -> np.ndarray:
    """η of the row's columns, per (precision, naive | fused): the two
    things that move bits (DESIGN §19).  Every format sums η in CSR's
    row order, so a SELL row reads the CSR reference; stage 1 is the
    fused walk at R = 1, so its rows read the stage-2 block's columns.

    Driven by hand — bootstrap, then swap and update — rather than by
    the rank program every engine runs, so the engines are checked
    against an independent driver of the one loop body."""
    naive = row.stage == "naive"
    key = (row.precision, "naive" if naive else "fused")
    if key not in _STATE:
        H, scale, block = operator()
        rec = Recurrence(H, scale.a, scale.b,
                         1 if naive else R_MAX,
                         kernel="naive" if naive else "aug_spmmv",
                         precision=row.precision)
        eta = np.empty((R_MAX, M), dtype=complex)
        # the block kernel takes all columns at once, naive one by one
        for cols in range(R_MAX) if naive else [slice(None)]:
            rec.load(block[:, cols])
            bins = [rec.bootstrap().copy()]
            for _ in range(1, M // 2):
                rec.swap()
                bins.append(rec.update().copy())
            ee, eo = fold(np.array(bins))
            eta[cols, 0::2], eta[cols, 1::2] = ee.T.squeeze(), eo.T.squeeze()
        _STATE[key] = eta
    return _STATE[key][:row.r]


def _slow_rank0(rank: int, n_rows: int) -> float:
    return n_rows * (4.0 if rank == 0 else 1.0)  # a deterministic skew


def _traffic(c: PerfCounters) -> tuple:
    return c.bytes_loaded, c.bytes_stored, c.flops


def run(row: Row, ck: Path):
    """``(eta, counters, expected, log, legs)`` of ``row``, checkpointing
    to ``ck``: ``eta`` None for a served row (its moments are checked
    here), ``expected`` None for a fault, ``log`` None off the
    distributed engines, ``legs`` the ``(first_m, stream)`` of each run
    (of a stage-2 row: stages 0/1 stream nothing)."""
    H, scale, block = operator()
    A, r, prec = _STATE.get(row.fmt, H), row.r, row.precision
    block = np.ascontiguousarray(block[:, :r])
    cfg, counters, log = row.config(), PerfCounters(), None
    expected = expected_counters(A, M, r, row.stage, precision=prec)
    legs = [] if row.stage == "aug_spmmv" else None
    streams = dict(progress_every=1) if legs is not None else {}

    def leg(first_m: int = 1) -> dict:
        """The progress keywords of a run that records a new leg."""
        if legs is None:
            return {}
        legs.append((first_m, []))
        return dict(streams, progress=lambda n, eta: legs[-1][1].append(
            (n, eta.copy())))

    if row.event == "resume":
        eta, world, _ = run_engine(cfg, RunContext.of(
            checkpoint_every=row.k, checkpoint_path=ck, counters=counters,
            **leg()), A, scale, M, block)
        assert np.array_equal(eta, reference(row)), f"first half: {row}"
        assert _traffic(counters) == _traffic(expected), f"first half: {row}"
        next_m = KpmCheckpoint.load(ck).next_m
        assert 1 < next_m < M // 2, "a checkpoint mid-run"
        counters = PerfCounters()
        expected = expected_counters(A, M, r, first_m=next_m,
                                     precision=prec)
        eta, second, _ = run_engine(row.second().config(), RunContext.of(
            resume_from=ck, counters=counters, **leg(next_m)), A, scale, M,
            block)
        log = tuple(w.log.records for w in (world, second) if w)
    elif row.event in _ELASTIC:
        # any skew rebalances, to the timer's weights: mp measures its
        # busy times, but every world moves the same rows
        policy = RebalancePolicy(interval=row.k, windows=1, threshold=0.0
                                 if row.event == "rebalance" else 1e9)
        plan = {"join": f"join:m={row.k + 1}",
                "leave": f"leave:m={row.k + 1},rank=0"}.get(row.event)
        eta, report = run_elastic(
            replace(cfg, rebalance=policy, membership=plan),
            RunContext(sink=counters, **leg()), A, scale, M, block,
            timer=_slow_rank0)
        log = report.log.records
    elif row.event == "fault":
        fault = ("raise:rank=0" if row.engine == "serial"
                 else f"crash:rank={row.workers - 1}")
        sup = Supervisor(Resilience(
            policy=RetryPolicy(max_attempts=3), checkpoint_every=row.k,
            checkpoint_path=ck, fault_plan=f"{fault},m={row.k + 1}"))
        eta = sup.run_eta(A, scale, M, block, config=cfg, **leg())
        # one retry, resumed where the fault struck: the last checkpoint
        assert (sup.report.retries, sup.report.resumes) == (1, 1)
        assert sup.report.resume_m == row.k + 1
        expected, log = None, sup.last_world and sup.last_world.log.records
    elif row.event == "serve":
        srv = KPMServer(max_width=r, config=cfg, stream_every=1)
        tickets = [srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=k,
                                      precision=prec)) for k in range(r)]
        assert srv.step() == 1  # one coalesced batch
        batch, counters = srv.last_batches[0]
        got = np.array([t.result().moments for t in tickets])
        want = eta_to_moments(reference(row)).real
        assert np.array_equal(got, want), f"served moments moved: {row}"
        # the tickets' partials, stacked per n_eta, as moment prefixes
        ns = {tuple(n for n, _mu in t.partials) for t in tickets}
        assert len(ns) == 1, f"tickets streamed apart: {row}"
        legs = [(1, [(n, np.array([t.partials[i][1] for t in tickets]))
                     for i, n in enumerate(ns.pop())])]
        eta, log = None, batch.world and batch.world.log.records
    else:
        eta, world, _ = run_engine(cfg, RunContext(sink=counters, **leg()),
                                   A, scale, M, block, kernel=row.stage)
        log = world and world.log.records
    return eta, counters, expected, log, legs


def _streams_equal(a, b) -> bool:
    """Two runs' legs: the same ``first_m``, ``n_eta`` and prefix bits."""
    return [(m, [n for n, _ in s]) for m, s in a] == \
        [(m, [n for n, _ in s]) for m, s in b] and all(
        np.array_equal(x, y) for (_, s), (_, t) in zip(a, b)
        for (_, x), (_, y) in zip(s, t))


def check(row: Row) -> None:
    """Run ``row`` and assert its relations."""
    with tempfile.TemporaryDirectory() as tmp:
        eta, counters, expected, log, legs = run(row, Path(tmp, "row.npz"))
        ref = reference(row)
        assert eta is None or np.array_equal(eta, ref), f"eta moved: {row}"
        if expected is not None:
            assert _traffic(counters) == _traffic(expected), \
                f"traffic moved: {row}"
        if row.event == "serve":
            ref = eta_to_moments(ref).real
        for first_m, stream in legs or ():
            assert [n for n, _ in stream] == list(
                range(2 * first_m + 2, M + 1, 2)), f"stream moved: {row}"
            assert all(np.array_equal(prefix, ref[:, :n])
                       for n, prefix in stream), f"prefix moved: {row}"
        if any(leg.engine == "mp" for leg in row.runs):
            twin = run(row.twin(), Path(tmp, "twin.npz"))
            assert log == twin[3], f"mp log moved: {row}"
            assert _streams_equal(legs or (), twin[4] or ()), \
                f"mp stream moved: {row}"


# -- the table ---------------------------------------------------------

def pairs(row: dict):
    """The field-value pairs of ``row`` (a field -> value dict)."""
    return itertools.combinations(((f, row[f]) for f in DOMAINS), 2)


def allowed_pairs() -> set:
    every = [(f, v) for f, vs in DOMAINS.items() for v in vs]
    return {(p, q) for p, q in itertools.combinations(every, 2)
            if p[0] != q[0] and not _forbidden(*p, *q)}


def covering() -> list[Row]:
    """A strength-2 covering of :data:`DOMAINS` under :func:`_forbidden`,
    greedy and deterministic: a row starts at the first uncovered pair
    and takes, field by field, the allowed value covering the most
    uncovered pairs with the fields already chosen."""
    todo, rows = allowed_pairs(), []
    while todo:
        row = dict(min(todo, key=lambda pq: [list(DOMAINS).index(f)
                                             for f, _v in pq] + [str(pq)]))
        for f in DOMAINS:
            if f not in row:
                row[f] = max(
                    (v for v in DOMAINS[f]
                     if not any(_forbidden(f, v, g, row[g]) for g in row)),
                    key=lambda v: sum(((g, row[g]), (f, v)) in todo
                                      or ((f, v), (g, row[g])) in todo
                                      for g in row))
        todo -= set(pairs(row))
        rows.append(row)
    # k cycles over the run's eight iterations
    return [Row(**row, k=2 + i % 5) for i, row in enumerate(rows)]


COVERING = covering()


def product(**axes) -> list[Row]:
    """Every combination of ``axes`` (field -> values), as rows."""
    return [Row(**dict(zip(axes, vals)))
            for vals in itertools.product(*axes.values())]


def case_test(fn):
    """The test that checks the rows :data:`CASES` holds for ``fn``'s
    module and qualified name, parametrized by the entry's case ids."""
    entry = CASES[fn.__module__.rsplit(".", 1)[-1]][fn.__qualname__]
    if isinstance(entry, list):
        def test(*_self):
            for row in entry:
                check(row)
        return test
    if "." in fn.__qualname__:
        def test(self, case):
            for row in entry[case]:
                check(row)
    else:
        def test(case):
            for row in entry[case]:
                check(row)
    return pytest.mark.parametrize("case", list(entry))(test)


def _on_off(**kw) -> list[Row]:
    return [Row(simd="on", **kw), Row(simd="off", **kw)]


def _serve(engine="serial", widths=(), **kw) -> list[Row]:
    """Coalesced batches of ``widths``, and a request alone."""
    return [Row(engine=engine, event="serve", r=w, **kw)
            for w in (*widths, 1)]


N, MP, SIM, R = "native", "mp", "sim", Row

#: the named parity cases: module -> test qualname -> rows, or -> {case
#: id: rows}.  Two runs agree when each equals the reference.
CASES: dict = {"test_mp_engine": {
    # -- mp == sim == serial, the mp log == the sim log ------------------
    "TestParity.test_matches_serial_and_sim": {
        **{str(w): [R(engine=MP, workers=w, r=4)] for w in (1, 2, 4)},
        **{f"1-{b}": [R(engine=MP, workers=1, backend=b, r=4)]
           for b in ("numpy", N)}},
    "TestParity.test_skewed_weights":
        [R(engine=MP, workers=3, weights=(0.6, 0.1, 0.3), r=4)],
    "TestParity.test_block_widths":
        {str(r): [R(engine=MP, r=r)] for r in (1, 8, 32)},
    "TestParity.test_numpy_backend": [R(engine=MP, backend="numpy", r=4)],
    "TestParity.test_native_backend": [R(engine=MP, backend=N, r=4)],
    "TestParity.test_per_rank_backend_mix": product(
        engine=[MP], backend=[N, "mixed"], precision=DOMAINS["precision"]),
}, "test_task_overlap": {
    # -- task mode: the same bits, the same log --------------------------
    "TestOverlapParity.test_mp_equals_sim_bitwise":
        {str(w): [R(engine=MP, workers=w, overlap="on", r=4)] for w in (2, 3)},
    "TestOverlapParity.test_on_matches_off":
        product(engine=[SIM], workers=[3], overlap=["on", "off"], r=[4]),
    "TestOverlapParity.test_overlap_string_knob":
        product(engine=[SIM], overlap=["on", "auto"], r=[4]),
    "TestOverlapParity.test_native_backend_bitwise":
        [R(engine=MP, backend=N, overlap="on", r=4)],
    "TestOverlapParity.test_reduction_every":
        [R(engine=MP, overlap="on", reduction="every", r=4)],
    "TestOverlapParity.test_block_widths":
        {str(r): [R(engine=MP, overlap="on", r=r)] for r in (1, 8)},
    "TestOverlapParity.test_skewed_weights":
        [R(engine=MP, workers=3, weights=(0.6, 0.1, 0.3), overlap="on", r=4)],
    "TestSolverOverlap.test_solver_overlap_matches_sync":
        product(engine=[MP], overlap=["on", "off"], r=[2]),
}, "test_kpm_parallel": {
    # -- sim == serial at any rank count ---------------------------------
    "TestEquivalence.test_matches_serial_equal_partition": {
        **{str(w): [R(engine=SIM, workers=w, r=4)] for w in (1, 2, 3, 5)},
        **{f"1-{b}": [R(engine=SIM, workers=1, backend=b, r=4)]
           for b in ("numpy", N)}},
    "TestEquivalence.test_matches_serial_weighted":
        [R(engine=SIM, workers=3, weights=(0.55, 0.25, 0.2), r=4)],
    "TestEquivalence.test_reduction_every_same_result":
        [R(engine=SIM, workers=4, reduction="every", r=4)],
    "TestEquivalence.test_dos_moments_match": [R(engine=SIM, workers=3, r=4)],
}, "test_elastic": {
    # -- the partition, and resumes across worker counts -----------------
    "TestGridInvariance.test_sim_partition_independent": {
        "None": [R(engine=SIM, r=4)],
        "weights1": [R(engine=SIM, workers=4, r=4,
                       weights=(0.5, 0.5, 0.0001, 0.4999))],
        "weights2": [R(engine=SIM, workers=3, r=4, weights=(0.6, 0.1, 0.3))]},
    "TestGridInvariance.test_mp_matches_sim_bitwise":
        [R(engine=MP, workers=3, r=4)],
    "TestCrossWorkerResume.test_sim_resume": {
        f"{w}-{wid}": [R(engine=SIM, workers=4, r=4, event="resume", k=6,
                         then=(("workers", w), ("weights", wt)))]
        for w, wid, wt in ((2, "None", "equal"), (3, "None", "equal"),
                           (2, "weights2", (0.7, 0.3)),
                           (3, "weights3", (0.5, 0.125, 0.375)))},
    "TestCrossWorkerResume.test_mp_resume_matches_sim":
        [R(engine=MP, workers=4, r=4, event="resume", k=6,
           then=(("workers", 2),))],
}, "test_checkpoint": {
    "TestEquivalence.test_no_checkpointing_matches_engine": [R()],
    "TestEquivalence.test_resume_is_bit_exact":
        [R(event="resume", k=5, then=())],
    "TestResumeMidRun.test_resume_bitwise_per_backend":
        {b: [R(backend=b, event="resume", k=4, then=())]
         for b in ("numpy", N)},
    "TestResumeMidRun.test_matches_engine_per_backend":
        {b: [R(backend=b)] for b in ("numpy", N)},
    "TestResumeMidRun.test_cross_backend_resume":
        [R(backend="numpy", event="resume", k=4, then=(("backend", N),))],
    "TestResumeMidRun.test_matches_distributed_engines":
        {e: [R(engine=e)] for e in (SIM, MP)},
}, "test_precision_engines": {
    "TestEngineAccuracy.test_fp64_path_is_bitwise_baseline":
        {p: [R(precision=p)] * 2 for p in ("fp64", "fp32")},
    "TestEngineAccuracy.test_native_numpy_parity":
        {p: product(precision=[p], backend=["numpy", N])
         for p in ("fp32", "fp16v")},
    "TestEngineAccuracy.test_counters_match_model":
        {p: [R(precision=p)] for p in DOMAINS["precision"]},
}, "test_kernel_backends": {
    "TestNativeParity.test_moments_parity":
        product(backend=["numpy", N], stage=DOMAINS["stage"], r=[4]),
}, "test_threaded_kernels": {
    # -- threads: one bit pattern at every team size ---------------------
    "test_fp64_moments_bitwise_across_thread_counts": {
        f"{st}-{f}": product(backend=[N], fmt=[f], stage=[st],
                             threads=[1, 2, 4])
        for st in ("aug_spmv", "aug_spmmv") for f in ("csr", "sell")},
    "test_threaded_recurrence_matches_sequential_kernels":
        {f: product(backend=[N], fmt=[f], threads=[None, 2])
         for f in ("csr", "sell")},
    "test_checkpoint_resume_across_thread_counts":
        [R(backend=N, threads=2, event="resume", k=4, then=(("threads", 4),))],
    "test_serve_coalescing_invisible_at_any_thread_count":
        _serve(widths=(4,), backend=N, threads=2) + _serve(backend=N,
                                                            threads=4),
    "test_distributed_threads_match_serial": product(
        engine=[SIM], backend=[N], overlap=["off", "on"], threads=[1, 2, 4]),
    "test_numpy_backend_ignores_threads":
        product(backend=["numpy"], threads=[None, 4]),
    "test_moments_survive_engine_mix": product(backend=[N], threads=[1, 2, 4]),
    "test_solver_threads_knob":
        product(backend=[N], threads=[1, 4, "auto"], r=[2]),
}, "test_simd_kernels": {
    # -- simd: on == off ---------------------------------------------------
    "test_fp64_bitwise_on_off":
        {f"{t}-{r}-{f}": _on_off(backend=N, fmt=f, r=r, threads=t)
         for t in (None, 1, 2, 4) for r in (1, 8, 32)
         for f in ("csr", "sell")},
    "test_fp64_bitwise_on_off_single_vector_engines":
        {f"{st}-{f}": _on_off(backend=N, fmt=f, stage=st)
         for st in ("naive", "aug_spmv") for f in ("csr", "sell")},
    "test_narrow_profiles_bitwise_on_off":
        {p: _on_off(backend=N, precision=p, r=8)
         + _on_off(backend=N, precision=p, r=8, fmt="sell")
         for p in ("fp32", "fp16v")},
    "test_auto_equals_both": product(backend=[N], simd=["auto", "off"], r=[8]),
    "test_checkpoint_resume_across_simd_settings":
        [R(backend=N, simd="on", r=8, event="resume", k=3,
           then=(("simd", "off"),))],
    "test_distributed_bitwise_on_off":
        {e: _on_off(engine=e, backend=N, r=8) for e in (SIM, MP)},
    "test_elastic_grid_bitwise_on_off":
        product(engine=[SIM], backend=[N], simd=["off", "on"], r=[8])
        + [R(engine=SIM, backend=N, simd="on", workers=3, r=8)],
    "test_serve_coalescing_invisible_under_simd":
        _serve(widths=(4,), backend=N, simd="on") + _serve(backend=N,
                                                            simd="off"),
}, "test_elastic_membership": {
    "TestSolverKnob.test_mp_elastic_matches_sim_grid":
        [R(engine=MP, workers=3, backend="numpy", r=2, event="rebalance"),
         R(engine=SIM, backend="numpy", r=2)],
}, "test_recovery": {
    # -- a fault, the Supervisor's retry, the resumed tail ---------------
    "TestSerialRecoveryMatrix.test_bitwise_equal_to_unfaulted":
        {f"{r}-{b}": [R(backend=b, r=r, event="fault", k=4)]
         for r in (1, 3) for b in ("numpy", N)},
    "TestSimRecoveryMatrix.test_bitwise_equal_to_unfaulted":
        {str(w): [R(engine=SIM, workers=w, backend="numpy", r=2,
                    event="fault", k=4)] for w in (2, 3)},
}, "test_coalesce_parity": {
    # -- serve: a coalesced batch is each request alone ------------------
    "test_serial_fp64_bitwise": {f"{w}-{b}": _serve(widths=(w,), backend=b)
                                 for w in (2, 4, 8) for b in ("numpy", N)},
    "test_sim_fp64_bitwise":
        {f"{o}-{b}": _serve(SIM, (3,), workers=3, overlap=o, backend=b)
         for o in ("off", "on") for b in ("numpy", N)},
    "test_mp_fp64_bitwise": {o: _serve(MP, (4,), overlap=o)
                             for o in ("off", "on")},
    "test_cross_engine_batches_agree_to_tolerance":
        [R(engine=e, backend=b, event="serve", r=2) for e, b in (
            ("serial", "auto"), (SIM, "auto"), ("serial", "numpy"),
            ("serial", N))],
    "test_sim_narrow_profile_tolerance":
        {"fp32": _serve(SIM, (2,), precision="fp32")},
}}
