"""The multi-tenant KPM solver server.

:class:`KPMServer` ties the serving pieces together.  ``submit()``
canonicalizes a :class:`~repro.serve.spec.Request` into its three
content-addressed keys and returns a :class:`~repro.serve.queue.Ticket`
after the cheapest sufficient action:

1. **Cache hit** — a complete moment set under the request's
   kernel-free ``moment_key`` already exists: the ticket is fulfilled
   immediately by re-damping the cached moments with the request's own
   kernel (zero operator traffic).
2. **In-flight dedup** — another ticket with the same ``moment_key``
   is already queued or solving: this ticket piggybacks on that solve
   (it still gets its own kernel at reconstruction).
3. **Enqueue** — the request joins the priority queue for the next
   coalescing round.

Batches are executed either synchronously (:meth:`step`, the
deterministic path the tests drive) or by a background worker thread
(:meth:`start`/:meth:`close`) that lingers briefly after the first
pending request so concurrent submitters land in the same batch — the
linger window is what turns independent tenants into one wide
``aug_spmmv`` block (paper Eq. 5-7).

Determinism contract: the server pins one spectral map per operator
(``lanczos_scale`` with the server's ``scale_seed``, computed outside
any batch's traffic accounting), and start vectors are derived from
each request's own seed — so a request's moments are a pure function
of its ``moment_key``, independent of batch composition (bitwise under
fp64), arrival order, and which tenant asked first.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from repro.core.reconstruct import reconstruct_dos
from repro.core.scaling import lanczos_scale
from repro.core.solver import DOSResult, LDOSResult, dos_result_from_moments
from repro.obs import MetricsRegistry
from repro.serve.cache import MomentCache, SpectraCache
from repro.serve.coalescer import execute_batch, plan_batches, slice_moments
from repro.serve.queue import RequestQueue, Ticket
from repro.serve.spec import Request
from repro.util.counters import NULL_COUNTERS, PerfCounters
from repro.util.knobs import ExecConfig, check_rebalance

__all__ = ["KPMServer"]


class KPMServer:
    """Async multi-tenant KPM solver with request coalescing.

    Parameters
    ----------
    max_width:
        Maximum columns per coalesced batch (the block width cap).
    resilience:
        Optional :class:`~repro.resil.Resilience`; each batch then runs
        under its own fresh Supervisor (batch-scoped retries,
        checkpoint recovery, and degradation — a fault in one batch
        never touches another batch's results).
    scale_seed:
        Seed of the pinned per-operator Lanczos spectral map.
    stream_every:
        Streaming cadence in inner iterations; 0 disables partial
        results.  (The mp engine streams the states it checkpoints: an
        elastic batch its segment boundaries, any other batch only with
        checkpointing configured in ``resilience``.)
    linger:
        Worker-thread batching window in seconds: after the first
        pending request, wait this long for more before solving.
    cache:
        The :class:`MomentCache` (a default-sized one when omitted).
    spectra_cache:
        The :class:`SpectraCache` of final reconstructed spectra (a
        default-sized one when omitted): a kernel-identical repeat of a
        cached request skips the DOS reconstruction entirely.
    metrics / counters:
        Server-wide observability sinks.  Every batch additionally gets
        a fresh per-batch :class:`PerfCounters` (merged into
        ``counters`` afterwards) so per-request traffic is measurable.
    config / knobs:
        Every batch's :class:`~repro.util.knobs.ExecConfig` (``engine``,
        ``workers``, ``backend``, ``threads``, ...; the precision is
        each request's own), validated here.  A knob that may move fp64
        bits (see ``ExecConfig``) is part of neither the cache keys nor
        the determinism contract above, which hold per configuration.
        With a ``rebalance`` policy — which needs a distributed engine
        or ``resilience`` — mp batches run elastically and the learned
        weights (and surviving worker count) carry over to the *next*
        batch: the server rebalances between batches.
    """

    def __init__(
        self,
        *,
        max_width: int = 8,
        resilience=None,
        scale_seed: int = 0,
        stream_every: int = 0,
        linger: float = 0.005,
        cache: MomentCache | None = None,
        spectra_cache: SpectraCache | None = None,
        metrics: MetricsRegistry | None = None,
        counters: PerfCounters = NULL_COUNTERS,
        config: ExecConfig | None = None,
        **knobs,
    ) -> None:
        self.config = ExecConfig.of(config, knobs)
        check_rebalance(self.config, resilience is not None)
        if max_width < 1:
            raise ValueError(f"max_width must be >= 1, got {max_width}")
        self.max_width = int(max_width)
        self.resilience = resilience
        self.scale_seed = int(scale_seed)
        self.stream_every = int(stream_every)
        self.linger = float(linger)
        self.cache = cache if cache is not None else MomentCache()
        self.spectra = spectra_cache if spectra_cache is not None \
            else SpectraCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = counters
        self.queue = RequestQueue()
        #: results of the most recent batches: list of (Batch, PerfCounters)
        self.last_batches: list = []
        self._operators: dict[str, tuple] = {}
        self._inflight: dict[str, list[Ticket]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def backend(self):
        """The kernel backend every batch runs on."""
        return self.config.backend

    @property
    def workers(self) -> int:
        """The next batch's rank count (an elastic batch may shrink it)."""
        return self.config.workers

    # -- operator cache ------------------------------------------------
    def operator(self, spec) -> tuple:
        """``(H, model, scale)`` for the spec, built & pinned on first use.

        The Lanczos spectral map is computed here with the server's
        ``scale_seed`` and *outside* any batch's PerfCounters — the
        scale is part of the operator's identity, not of any request's
        traffic — and reused verbatim by every batch and cache entry
        that references this operator.
        """
        digest = spec.digest
        with self._lock:
            entry = self._operators.get(digest)
        if entry is not None:
            return entry
        with self.metrics.span("serve.build_operator", phase="serve"):
            H, model = spec.build()
            scale = lanczos_scale(H, seed=self.scale_seed)
        with self._lock:
            entry = self._operators.setdefault(digest, (H, model, scale))
        return entry

    # -- submission ----------------------------------------------------
    def submit(self, request: Request) -> Ticket:
        """Canonicalize, then cache-hit / dedup / enqueue (see module doc)."""
        ticket = Ticket(
            request,
            request.request_key(self.scale_seed),
            request.moment_key(self.scale_seed),
            request.group_key(self.scale_seed),
            self.queue.next_seq(),
        )
        self.metrics.count("serve.requests")
        self.metrics.count(f"serve.tenant.{request.tenant}.requests")

        entry = self.cache.get(ticket.moment_key)
        if entry is not None:
            ticket.via = "cache"
            self.metrics.count("serve.cache.hits")
            self._fulfill(ticket, entry.moments)
            return ticket
        self.metrics.count("serve.cache.misses")

        with self._lock:
            followers = self._inflight.get(ticket.moment_key)
            if followers is not None:
                followers.append(ticket)
                ticket.via = "dedup"
                self.metrics.count("serve.dedup.hits")
                return ticket
            self._inflight[ticket.moment_key] = [ticket]

        partial = self.cache.peek_partial(ticket.moment_key)
        if partial is not None:
            ticket.add_partial(partial.n_done, partial.moments)
        self.queue.push(ticket)
        return ticket

    # -- batch execution -----------------------------------------------
    def step(self) -> int:
        """Drain the queue, solve every planned batch; returns the batch
        count.  Synchronous and deterministic — the test-facing path."""
        tickets = self.queue.drain()
        primaries = [t for t in tickets if not t.done]
        if not primaries:
            return 0
        batches = plan_batches(primaries, self.max_width)
        self.last_batches = []
        for batch in batches:
            self._run_batch(batch)
        return len(batches)

    def _run_batch(self, batch) -> None:
        req0 = batch.items[0].ticket.request
        H, _model, scale = self.operator(req0.spec)

        def on_partial(item, n_done: int, mu: np.ndarray) -> None:
            self.cache.put_partial(
                item.ticket.moment_key, mu, n_done, req0.n_moments,
                kind=item.ticket.request.kind,
            )
            for t in self._tickets_for(item.ticket):
                t.add_partial(n_done, mu)

        try:
            eta, counters = execute_batch(
                batch, H, scale, resilience=self.resilience,
                metrics=self.metrics, seed=self.scale_seed,
                stream_every=self.stream_every, on_partial=on_partial,
                config=replace(self.config, precision=req0.precision),
            )
        except Exception as exc:  # noqa: BLE001 - isolate to this batch
            self.metrics.count("serve.batch.failures")
            for item in batch.items:
                self.cache.discard(item.ticket.moment_key)
                for t in self._tickets_for(item.ticket):
                    t.fail(exc)
                self._retire(item.ticket)
            return
        self.metrics.count("serve.batches")
        erep = batch.elastic_report
        if erep is not None and erep.final_weights:
            # Rebalance between batches: the weights (and the surviving
            # worker count) the elastic solve converged on become the
            # next batch's starting point.  Numerics are unaffected —
            # grid-eta mode makes moments partition-independent.
            self.config = replace(self.config,
                                  weights=erep.final_weights,
                                  workers=erep.final_n_workers)
        if batch.n_requests > 1:
            self.metrics.count(
                "serve.requests_coalesced", batch.n_requests
            )
        if self.counters.enabled:
            self.counters.merge(counters)
        self.last_batches.append((batch, counters))

        for item, mu in slice_moments(batch, eta):
            t0 = item.ticket
            self.cache.put(
                t0.moment_key, mu, req0.n_moments, kind=t0.request.kind,
                meta={"spec": req0.spec.digest, "width": batch.width},
            )
            for t in self._tickets_for(t0):
                t.via = t.via if t.via == "dedup" else batch.width
                self._fulfill(t, mu)
            self._retire(t0)

    def _tickets_for(self, primary: Ticket) -> list[Ticket]:
        with self._lock:
            return list(self._inflight.get(primary.moment_key, [primary]))

    def _retire(self, primary: Ticket) -> None:
        with self._lock:
            self._inflight.pop(primary.moment_key, None)

    def _fulfill(self, ticket: Ticket, mu: np.ndarray) -> None:
        """Reconstruct with the *ticket's own* kernel and complete it.

        Kernel-identical repeats skip even this step: the final
        ``(energies, rho)`` arrays are cached under
        ``(moment_key, kernel, grid)`` in the :class:`SpectraCache`, so
        only a *new* kernel (or grid) on known moments pays the damping
        and Chebyshev evaluation.
        """
        req = ticket.request
        _H, _model, scale = self.operator(req.spec)
        pts = max(2 * req.n_moments, 256)
        skey = SpectraCache.key(ticket.moment_key, req.kernel, pts)
        entry = self.spectra.get(skey)
        if entry is not None:
            self.metrics.count("serve.spectra.hits")
            if req.kind == "dos":
                result = DOSResult(
                    entry.energies, entry.rho, mu, scale,
                    req.n_vectors, req.kernel,
                )
            else:
                result = LDOSResult(
                    entry.energies, entry.rho,
                    np.asarray(req.rows, dtype=np.int64), scale, req.kernel,
                )
        else:
            self.metrics.count("serve.spectra.misses")
            with self.metrics.span("serve.reconstruct", phase="serve"):
                if req.kind == "dos":
                    result = dos_result_from_moments(
                        mu, scale, kernel=req.kernel, n_vectors=req.n_vectors
                    )
                else:
                    e_grid, rho = reconstruct_dos(
                        mu, scale, n_points=pts, kernel=req.kernel
                    )
                    result = LDOSResult(
                        e_grid, rho, np.asarray(req.rows, dtype=np.int64),
                        scale, req.kernel,
                    )
            self.spectra.put(
                skey, result.energies, result.rho, meta={"kind": req.kind}
            )
        if ticket.deadline_at is not None \
                and time.monotonic() > ticket.deadline_at:
            self.metrics.count("serve.deadline_missed")
            self.metrics.count(f"serve.tenant.{req.tenant}.deadline_missed")
        ticket.fulfill(result)

    # -- background worker ---------------------------------------------
    def start(self) -> "KPMServer":
        """Run the batching loop in a daemon thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                if not self.queue.wait(timeout=0.05):
                    continue
                # linger: let concurrent submitters join this round's
                # batch — the window that creates coalescing width
                if self.linger > 0:
                    time.sleep(self.linger)
                self.step()

        self._thread = threading.Thread(
            target=loop, name="kpm-serve", daemon=True
        )
        self._thread.start()
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop the worker thread after finishing queued work."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.step()  # drain anything that raced the shutdown

    def __enter__(self) -> "KPMServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """Cache stats + the metrics snapshot, one JSON-able dict."""
        return {"cache": self.cache.stats(),
                "spectra": self.spectra.stats(),
                "metrics": self.metrics.snapshot()}
