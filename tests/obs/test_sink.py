"""The one sink: kernel spans carry their bytes, PerfCounters is the fold.

Every kernel call is one span of the run's sink that charges its Table-I
``(loads, stores, flops)`` under its own family; a ``PerfCounters`` is
that sink read as the fold of its traffic table by family.  These tests
hold the contract end to end: the JSONL records folded by family equal
the fold equal ``expected_counters`` on every engine and backend, the
null sink allocates nothing, two live sinks are refused, and the calls
the end-to-end benchmark makes fill exactly what the model predicts.
"""

import itertools
import tracemalloc

import pytest

from repro import KPMSolver
from repro.core.checkpoint import checkpointed_eta
from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.elastic import elastic_eta
from repro.dist.halo import partition_matrix
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpWorld
from repro.dist.overlap import task_split
from repro.dist.partition import RowPartition
from repro.obs import NULL_METRICS, MetricsRegistry, Trace, read_trace
from repro.obs.metrics import _family
from repro.perf.report import expected_counters
from repro.resil import Supervisor
from repro.serve import KPMServer
from repro.sparse.backend import get_backend
from repro.sparse.backend.native import native_available
from repro.sparse.sell import SellMatrix
from repro.util.counters import NULL_COUNTERS, PerfCounters

M = 16
BACKENDS = ["numpy"] + (["native"] if native_available() else [])


@pytest.fixture(scope="module")
def ti():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(6, 5, 4)
    return h, lanczos_scale(h, seed=1)


def _by_family(rows) -> dict:
    """``{family: [bytes, flops, calls]}`` of ``(name, bytes, flops)``
    rows, rank prefixes dropped."""
    out = {}
    for name, nbytes, nflops in rows:
        acc = out.setdefault(_family(name), [0, 0, 0])
        acc[0] += nbytes
        acc[1] += nflops
        acc[2] += 1
    return out


def _table_by_family(sink) -> dict:
    out = {}
    for name, (loads, stores, flops, calls) in sink.traffic.items():
        acc = out.setdefault(_family(name), [0, 0, 0])
        acc[0] += loads + stores
        acc[1] += flops
        acc[2] += calls
    return out


def _totals(c) -> tuple:
    return c.bytes_loaded, c.bytes_stored, c.flops


def _iteration(h, r, engine, **kw):
    """The model's cost of one inner iteration of ``engine``."""
    c4, c2 = (expected_counters(h, m, r, engine, **kw) for m in (4, 2))
    return (c4.bytes_total - c2.bytes_total, c4.flops - c2.flops)


RUNS = {
    # label -> run(H, scale, block, backend, sink)
    "serial-naive": lambda h, s, b, bk, sink: compute_eta(
        h, s, M, b, "naive", sink, backend=bk),
    "serial-aug_spmv": lambda h, s, b, bk, sink: compute_eta(
        h, s, M, b, "aug_spmv", sink, backend=bk),
    "serial-aug_spmmv": lambda h, s, b, bk, sink: compute_eta(
        h, s, M, b, "aug_spmmv", sink, backend=bk),
    "sim": lambda h, s, b, bk, sink: distributed_eta(
        h, RowPartition.equal(h.n_rows, 3, align=64), s, M, b, SimWorld(3),
        backend=bk, metrics=sink, overlap=True),
    "mp": lambda h, s, b, bk, sink: distributed_eta(
        h, RowPartition.equal(h.n_rows, 2, align=64), s, M, b, MpWorld(2),
        backend=bk, metrics=sink, overlap=True),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_trace_fold_equals_counters_fold_equals_model(ti, tmp_path, backend,
                                                       run):
    """The span records of a JSONL trace, folded by family, equal the
    sink's traffic fold, whose totals equal ``expected_counters`` — on
    serial (every stage), sim and mp, on both backends.  Each record's
    B/F is its kernel's model balance."""
    h, scale = ti
    r = 1 if run in ("serial-naive", "serial-aug_spmv") else 3
    block = make_block_vector(h.n_rows, r, seed=2)
    path = tmp_path / "t.jsonl"
    with Trace(path) as trace:
        sink = PerfCounters(trace=trace)
        RUNS[run](h, scale, block, backend, sink)
    records = [(rec["name"], rec["bytes"], rec["flops"])
               for rec in read_trace(path) if "bytes" in rec]
    assert _by_family(records) == _table_by_family(sink)
    engine = run.removeprefix("serial-") if run.startswith("serial") \
        else "aug_spmmv"
    assert _totals(sink) == _totals(expected_counters(h, M, r, engine))
    if run in ("sim", "mp"):  # the split phases, per rank
        assert {"aug_spmmv_int", "aug_spmmv_bnd"} <= set(sink.calls)
    if run.startswith("serial"):  # each kernel record is the model's call
        width = r if engine == "aug_spmmv" else 1
        boot = expected_counters(h, 2, width, engine)
        per_call = {engine: _iteration(h, width, engine),
                    "spmv": (boot.bytes_total, boot.flops),
                    "spmmv": (boot.bytes_total, boot.flops)}
        for name, nbytes, nflops in records:
            if name in per_call:
                assert (nbytes, nflops) == per_call[name], name


@pytest.mark.parametrize("prec", ["fp64", "fp32", "fp16v"])
@pytest.mark.parametrize("r", [1, 8])
def test_overlap_splits_calls_into_interior_and_boundary(ti, r, prec):
    """Task mode charges every iteration as one ``aug_spmmv_int`` and one
    ``aug_spmmv_bnd`` call per rank: the per-family calls (not only the
    totals) are the model's, and the totals the serial minima."""
    h, scale = ti
    part = RowPartition.equal(h.n_rows, 3, align=64)
    splits = [task_split(blk) for blk in partition_matrix(h, part).blocks]
    block = make_block_vector(h.n_rows, r, seed=2)
    sink = PerfCounters()
    distributed_eta(h, part, scale, M, block, SimWorld(3), metrics=sink,
                    overlap=True, precision=prec)
    model = expected_counters(h, M, r, splits=splits, precision=prec)
    assert dict(sink.calls) == dict(model.calls) == {
        "spmmv": 3, "aug_spmmv_int": 3 * (M // 2 - 1),
        "aug_spmmv_bnd": 3 * (M // 2 - 1)}
    assert _totals(sink) == _totals(model) == _totals(
        expected_counters(h, M, r, precision=prec))


# -- the null sink -------------------------------------------------------

def _retained_and_peak(fn, n: int = 1000) -> tuple[int, int]:
    fn()
    fn()  # warm-ups: lazy imports, bound calls, plan first-touch
    tracemalloc.start()
    fn()
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    for _ in itertools.repeat(None, n):  # no loop counter objects
        fn()
    after, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return after - before, peak - before


@pytest.mark.parametrize("backend", BACKENDS)
def test_null_sink_allocates_nothing_over_steady_steps(ti, backend):
    """1,000 steady ``_step``s and split phases on the null sink keep
    nothing per step (under a byte each: what stays is the allocators'
    own caching), and hold no more than the kernel call's own small
    temporaries (ctypes arguments, NumPy scalars) at once — less than
    one column of the block."""
    h, scale = ti
    bk = get_backend(backend)
    r = 3
    V = make_block_vector(h.n_rows, r, seed=1)
    W = make_block_vector(h.n_rows, r, seed=2) * 0.5
    plan = bk.plan(h, r)
    blk = partition_matrix(h, RowPartition.equal(h.n_rows, 2, align=64)
                           ).blocks[0]
    split = bk.split_plan(blk.matrix, task_split(blk), r)
    Vs = make_block_vector(blk.matrix.n_cols, r, seed=3)
    Ws = make_block_vector(blk.matrix.n_rows, r, seed=4) * 0.5
    a, b = scale.a, scale.b
    steps = {
        "_step": lambda: bk._step("aug_spmmv", h, V, W, a, b, plan,
                                  NULL_METRICS),
        "phases": lambda: (
            bk._phase(0, blk.matrix, Vs, Ws, a, b, split, NULL_METRICS),
            bk._phase(1, blk.matrix, Vs, Ws, a, b, split, NULL_METRICS)),
    }
    for name, fn in steps.items():
        retained, peak = _retained_and_peak(fn)
        assert retained < 1000, f"{name}: {retained} bytes kept"
        assert peak < 16 * h.n_rows, f"{name}: {peak} bytes held at once"


def test_null_sink_is_one_constant():
    """One disabled sink: its span is a shared constant and its charge a
    no-op, whatever a span is given."""
    assert NULL_COUNTERS is NULL_METRICS
    assert NULL_METRICS.span("a") is NULL_METRICS.span("b", phase="p")
    with NULL_METRICS.span("k") as sp:
        sp.charge("k", 1, 2, 3)
    NULL_METRICS.charge("k", 1, 2, 3)
    assert NULL_METRICS.traffic == {} and NULL_METRICS.timers == {}


# -- two live sinks ------------------------------------------------------

def _entries(h, scale):
    block = make_block_vector(h.n_rows, 2, seed=2)
    bk = get_backend("numpy")
    v = block[:, 0].copy()
    part = RowPartition.equal(h.n_rows, 2, align=64)
    return {
        "spmmv": lambda **kw: bk.spmmv(h, block, **kw),
        "aug_spmmv_step": lambda **kw: bk.aug_spmmv_step(
            h, block.copy(), block.copy(), scale.a, scale.b, **kw),
        "naive_step": lambda **kw: bk.naive_step(
            h, v, v.copy(), scale.a, scale.b, **kw),
        "compute_eta": lambda **kw: compute_eta(h, scale, M, block, **kw),
        "checkpointed_eta": lambda **kw: checkpointed_eta(
            h, scale, M, block, **kw),
        "distributed_eta": lambda **kw: distributed_eta(
            h, part, scale, M, block, SimWorld(2), **kw),
        "elastic_eta": lambda **kw: elastic_eta(
            h, scale, M, block, n_workers=2, engine="sim", **kw),
        "KPMSolver": lambda **kw: KPMSolver(h, M, 2, scale=scale, **kw),
        "Supervisor": lambda **kw: Supervisor(**kw),
        "KPMServer": lambda **kw: KPMServer(**kw),
    }


@pytest.mark.parametrize("entry", ["spmmv", "aug_spmmv_step", "naive_step",
                                   "compute_eta", "checkpointed_eta",
                                   "distributed_eta", "elastic_eta",
                                   "KPMSolver", "Supervisor", "KPMServer"])
def test_two_live_sinks_are_refused(ti, entry):
    """A public entry given a live ``counters`` and a live ``metrics``
    raises before any kernel runs; one live sink (either keyword, or the
    same object twice) is fine."""
    h, scale = ti
    call = _entries(h, scale)[entry]
    with pytest.raises(ValueError, match="both live sinks"):
        call(counters=PerfCounters(), metrics=MetricsRegistry())
    one = PerfCounters()
    call(counters=one, metrics=one)
    call(metrics=PerfCounters())


# -- the calls the end-to-end benchmark makes ----------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_benchmark_calls_fill_the_model(ti, backend):
    """``bk.spmmv``, ``aug_spmmv_step``, ``naive_step``/``aug_spmv_step``,
    ``aug_spmmv_split_step`` and ``compute_eta``, each called with
    ``counters=PerfCounters()`` as the benchmark calls them, fill
    ``bytes_total`` and ``flops`` with ``expected_counters``' values."""
    h, scale = ti
    a, b = scale.a, scale.b
    bk = get_backend(backend)
    A = SellMatrix(h, 32, 1)
    r = 8
    V = make_block_vector(h.n_rows, r, seed=1)
    W = V * 0.5
    v, w = V[:, 0].copy(), W[:, 0].copy()
    got = {}

    def filled(name, fn):
        c = PerfCounters()
        fn(c)
        got[name] = (c.bytes_total, c.flops)

    filled("spmmv", lambda c: bk.spmmv(A, V, counters=c))
    filled("aug_spmmv_step", lambda c: bk.aug_spmmv_step(
        A, V, W, a, b, plan=bk.plan(A, r), counters=c))
    plan1 = bk.plan(A, 1)
    for name in ("naive_step", "aug_spmv_step"):
        filled(name, lambda c, step=getattr(bk, name): step(
            A, v, w, a, b, plan=plan1, counters=c))
    blk = partition_matrix(h, RowPartition.equal(h.n_rows, 2, align=64)
                           ).blocks[0]
    split = task_split(blk)
    Vs = make_block_vector(blk.matrix.n_cols, r, seed=1)
    Ws = make_block_vector(blk.matrix.n_rows, r, seed=2)
    filled("aug_spmmv_split_step", lambda c: bk.aug_spmmv_split_step(
        blk.matrix, Vs, Ws, a, b, bk.split_plan(blk.matrix, split, r),
        counters=c))
    filled("compute_eta", lambda c: compute_eta(
        A, scale, M, V, backend=backend, counters=c))

    boot = expected_counters(A, 2, r)
    assert got == {
        "spmmv": (boot.bytes_total, boot.flops),
        "aug_spmmv_step": _iteration(A, r, "aug_spmmv"),
        "naive_step": _iteration(A, 1, "naive"),
        "aug_spmv_step": _iteration(A, 1, "aug_spmv"),
        "aug_spmmv_split_step": _iteration(blk.matrix, r, "aug_spmmv",
                                           splits=[split]),
        "compute_eta": (expected_counters(A, M, r).bytes_total,
                        expected_counters(A, M, r).flops),
    }
