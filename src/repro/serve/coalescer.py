"""Request coalescing: stack concurrent solves into one wide block.

This is the serving-layer application of the paper's central
optimization.  Eq. 5-7 show that the blocked ``aug_spmmv`` kernel pays
the matrix stream (values + indices, the dominant traffic at KPM's
code balance) *once per iteration regardless of the block width*; only
the thin vector streams scale with the width.  Inside one solve that
amortization is the R-loop blocking of Sec. IV; across *users* it means
k concurrent requests against the same operator should never run k
separate recurrences — the coalescer concatenates their start columns
into one block, runs one wide solve, and slices each requester's
columns back out.

Correctness rests on a property the kernels guarantee (enforced by the
``REPRO_NOVEC`` pragmas in ``_kernels.c`` and the width-stable fp64
dot path, tested in ``tests/serve/test_coalesce_parity.py``): every
column of a block solve is computed independently and rounds
identically to a solo run of that column.  Under fp64 the coalesced
moments are *bitwise* the solo moments; the narrow profiles agree to
accumulation tolerance.

Batches are planned over the compatibility ``group_key`` (operator +
M + precision + spectral map) up to ``max_width`` columns, executed as
the server's :class:`~repro.util.knobs.ExecConfig` says (optionally
under a fresh batch-scoped :class:`~repro.resil.Supervisor`), measured by
a per-batch sink, a :class:`~repro.util.counters.PerfCounters` (whose
fold matches :func:`~repro.perf.report.expected_counters` exactly), and
streamed: each progress firing publishes every member request's moment
prefix to its ticket and the moment cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import RunContext
from repro.core.moments import eta_to_moments
from repro.core.stochastic import make_block_vector, unit_block_vector
from repro.obs.metrics import NULL_METRICS, PerfCounters
from repro.serve.queue import Ticket
from repro.util.knobs import ExecConfig, run_supervised

__all__ = ["Batch", "BatchItem", "execute_batch", "plan_batches"]


@dataclass
class BatchItem:
    """One request's slot in a coalesced batch: its column range."""

    ticket: Ticket
    col0: int
    col1: int

    @property
    def width(self) -> int:
        return self.col1 - self.col0


@dataclass
class Batch:
    """A set of compatible requests solved as one wide block."""

    group_key: str
    items: list[BatchItem] = field(default_factory=list)
    #: the communicator of the batch's distributed solve (leak checks,
    #: per-rank accounting); None for serial batches
    world: object = None
    #: the :class:`~repro.dist.elastic.ElasticReport` of an elastic
    #: batch solve (rebalance enabled); None otherwise
    elastic_report: object = None

    @property
    def width(self) -> int:
        return sum(i.width for i in self.items)

    @property
    def n_requests(self) -> int:
        return len(self.items)


def plan_batches(tickets: list[Ticket], max_width: int = 8) -> list[Batch]:
    """Group urgency-ordered tickets into batches of compatible requests.

    Greedy fill per ``group_key`` up to ``max_width`` total columns; a
    single request wider than ``max_width`` gets a batch of its own
    (never split — its columns must stay one contiguous solve).  Batch
    execution order follows the most urgent member of each group, so
    coalescing never starves a high-priority tenant behind an unrelated
    group.
    """
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    open_by_group: dict[str, Batch] = {}
    batches: list[Batch] = []
    for t in tickets:
        w = t.request.width
        batch = open_by_group.get(t.group_key)
        if batch is not None and batch.width + w > max_width:
            batch = None  # full: start a fresh batch for this group
            open_by_group.pop(t.group_key, None)
        if batch is None:
            batch = Batch(group_key=t.group_key)
            batches.append(batch)
            if w < max_width:
                open_by_group[t.group_key] = batch
        col0 = batch.width
        batch.items.append(BatchItem(t, col0, col0 + w))
        if batch.width >= max_width:
            open_by_group.pop(t.group_key, None)
    return batches


def _start_columns(request, n: int, config=None) -> np.ndarray:
    """The request's deterministic (n, width) start columns."""
    if request.kind == "ldos":
        return unit_block_vector(n, np.asarray(request.rows, dtype=np.int64))
    return make_block_vector(
        n, request.n_vectors, request.vector_kind, request.seed,
        config=config,
    )


def stack_start_block(batch: Batch, n: int, config=None) -> np.ndarray:
    """Concatenate every item's start columns into one C-contiguous
    (n, batch.width) block, in item (column-slot) order, on the batch's
    ``config`` (its backend writes the phases)."""
    cols = [_start_columns(i.ticket.request, n, config)
            for i in batch.items]
    return np.ascontiguousarray(np.concatenate(cols, axis=1))


def slice_moments(batch: Batch, eta_prefix: np.ndarray):
    """Per-item moment prefixes of a (width, n_eta) eta slab.

    Yields ``(item, mu)`` where ``mu`` is the request's own view of the
    doubled moments: the column-mean real trace for DOS, the per-row
    real diagonal moments for LDOS.  Slicing first keeps each request's
    values bitwise independent of its neighbours' columns.
    """
    for item in batch.items:
        rows = eta_to_moments(eta_prefix[item.col0:item.col1])
        if item.ticket.request.kind == "dos":
            yield item, rows.mean(axis=0).real
        else:
            yield item, rows.real


def execute_batch(
    batch: Batch,
    H,
    scale,
    *,
    resilience=None,
    metrics=NULL_METRICS,
    seed: int | None = None,
    stream_every: int = 0,
    on_partial=None,
    config: ExecConfig | None = None,
    **knobs,
) -> tuple[np.ndarray, PerfCounters]:
    """Run one coalesced batch; return ``(eta, batch_counters)``.

    The batch runs on its own sink, a fresh :class:`PerfCounters` that
    shares ``metrics``' trace and is merged into ``metrics`` afterwards,
    so the amortization is measurable request by request: for a serial
    width-w batch its fold equals ``expected_counters(H, M, w)``
    *exactly*, and ``bytes_total / n_requests`` is the per-request
    traffic that Eq. 5-7 predict falls with the width.  Recorded
    distributions: ``serve.batch.width`` (columns),
    ``serve.batch.requests``, ``serve.bytes_per_request`` and
    ``serve.bytes_per_column``.

    ``config``/knobs are the batch's
    :class:`~repro.util.knobs.ExecConfig`, run through the engine
    dispatch (:func:`~repro.util.knobs.run_engine`) — under a fresh
    batch-scoped :class:`~repro.resil.Supervisor` when ``resilience`` is
    set, so a crash mid-batch replays or degrades *these* columns and
    never touches other batches' delivered results.  A rebalance policy
    makes mp batches elastic; the :class:`ElasticReport` lands on
    ``batch.elastic_report`` so the server can carry learned weights
    into the next batch.

    ``on_partial(item, n_done, mu_prefix)`` fires for every member at
    every streamed prefix (requires ``stream_every > 0``).
    """
    cfg = ExecConfig.of(config, knobs)
    n_moments = batch.items[0].ticket.request.n_moments
    block = stack_start_block(batch, H.n_rows, cfg)
    sink = PerfCounters(trace=metrics.trace)

    progress = None
    if on_partial is not None and stream_every > 0:
        def progress(n_eta: int, eta_prefix: np.ndarray) -> None:
            for item, mu in slice_moments(batch, eta_prefix):
                on_partial(item, n_eta, mu)

    try:
        with metrics.span("serve.batch", phase="serve", width=batch.width,
                          requests=batch.n_requests):
            eta, batch.world, batch.elastic_report, report = run_supervised(
                cfg, RunContext(sink=sink, progress=progress,
                                progress_every=stream_every),
                resilience, seed, H, scale, n_moments, block,
            )
    finally:
        metrics.merge(sink)
    metrics.observe("serve.batch.width", batch.width)
    metrics.observe("serve.batch.requests", batch.n_requests)
    nbytes = sink.bytes_total
    if nbytes:
        metrics.observe("serve.bytes_per_request", nbytes / batch.n_requests)
        metrics.observe("serve.bytes_per_column", nbytes / batch.width)
    if report is not None:
        metrics.count("serve.batch.retries", report.retries)
        metrics.count("serve.batch.degradations", report.engine_degradations)
    if batch.elastic_report is not None:
        metrics.count("serve.batch.rebalances", batch.elastic_report.rebalances)
    return eta, sink
