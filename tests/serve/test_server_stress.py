"""Concurrency stress and fault isolation for the serving layer.

The server's hard guarantees under load: concurrent clients coalesce
(width >= 2 batches actually happen), every client still receives the
bitwise answer of a solo solve, duplicate submissions dedup onto one
solve, shared-memory segments of mp batches are always reclaimed, and
an injected worker crash mid-batch is retried/degraded *inside* that
batch without contaminating any other request's results.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.checkpoint import checkpointed_eta
from repro.core.moments import eta_to_moments
from repro.core.stochastic import make_block_vector
from repro.dist.shm import segment_exists
from repro.resil import FaultPlan, FaultSpec, Resilience, RetryPolicy
from repro.serve import HamiltonianSpec, KPMServer, Request
from repro.util.errors import RetryExhaustedError

SPEC = HamiltonianSpec("topological_insulator", {"nx": 6, "ny": 6, "nz": 4})
OTHER = HamiltonianSpec("topological_insulator", {"nx": 5, "ny": 5, "nz": 4})
M = 64


def solo_mu(srv: KPMServer, spec, seed: int) -> np.ndarray:
    """Bitwise reference: the request's columns solved alone, on the
    same backend the server runs."""
    H, _model, scale = srv.operator(spec)
    V = make_block_vector(H.n_rows, 1, "phase", seed)
    eta = checkpointed_eta(H, scale, M, V, backend=srv.backend)
    return eta_to_moments(eta).mean(axis=0).real


def test_concurrent_clients_coalesce_and_stay_bitwise():
    """12 clients, 3 tenants, mixed priorities/deadlines, one worker
    thread: everything coalesces and every answer is the solo answer."""
    srv = KPMServer(max_width=8, backend="numpy", linger=0.05)
    tickets: dict[int, object] = {}
    lock = threading.Lock()
    start = threading.Barrier(4)

    def client(tenant: int) -> None:
        start.wait()
        for s in range(tenant, 12, 3):
            t = srv.submit(Request(
                SPEC, n_moments=M, n_vectors=1, seed=s,
                tenant=f"tenant{tenant}", priority=tenant % 2,
                deadline=300.0,  # relative seconds (monotonic at submit)
            ))
            with lock:
                tickets[s] = t
    threads = [threading.Thread(target=client, args=(i,)) for i in range(3)]
    with srv:
        for th in threads:
            th.start()
        start.wait()
        for th in threads:
            th.join()
        results = {s: t.result(timeout=300.0) for s, t in tickets.items()}

    widths = [t.via for t in tickets.values() if isinstance(t.via, int)]
    assert widths and max(widths) >= 2, f"no coalescing happened: {widths}"
    assert srv.metrics.counters.get("serve.requests_coalesced", 0) >= 2
    for s, res in results.items():
        assert np.array_equal(res.moments, solo_mu(srv, SPEC, s)), s
    assert srv.metrics.counters.get("serve.deadline_missed", 0) == 0


def test_duplicate_submissions_dedup_to_one_solve():
    srv = KPMServer(max_width=8, backend="numpy", linger=0.05)
    req = Request(SPEC, n_moments=M, n_vectors=1, seed=42)
    with srv:
        tickets = [srv.submit(req) for _ in range(6)]
        mus = [t.result(timeout=300.0).moments for t in tickets]
    assert srv.metrics.counters.get("serve.dedup.hits", 0) >= 1
    for mu in mus[1:]:
        assert np.array_equal(mu, mus[0])
    # one batch of width 1 did all the work
    assert srv.metrics.counters.get("serve.batches") == 1


def test_mp_batches_release_shared_memory():
    srv = KPMServer(max_width=4, engine="mp", workers=2)
    for s in range(4):
        srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=s))
    assert srv.step() == 1
    batch, _counters = srv.last_batches[0]
    mw = batch.world
    assert mw is not None and mw.last_segment_names
    assert not any(segment_exists(nm) for nm in mw.last_segment_names)


def mp_solo_mu(spec, seed: int) -> np.ndarray:
    """Bitwise mp reference: a clean width-1 mp batch of the request."""
    ref = KPMServer(max_width=1, engine="mp", workers=2)
    t = ref.submit(Request(spec, n_moments=M, n_vectors=1, seed=seed))
    ref.step()
    return t.result().moments


def test_worker_crash_mid_batch_retries_without_contamination():
    """A planned mp worker crash in one batch: that batch retries under
    its own supervisor and still returns bitwise answers; a different
    group's batch in the same step is untouched."""
    resil = Resilience(
        policy=RetryPolicy(max_attempts=2),
        fault_plan=FaultPlan(specs=(FaultSpec("crash", rank=1, m=8),)),
    )
    srv = KPMServer(max_width=8, engine="mp", workers=2, resilience=resil)
    hit = [srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=s))
           for s in range(3)]
    bystander = srv.submit(Request(OTHER, n_moments=M, n_vectors=1, seed=0))
    assert srv.step() == 2  # two groups -> two batches
    assert srv.metrics.counters.get("serve.batch.retries", 0) >= 1
    for s, t in enumerate(hit):
        assert not t.failed
        assert np.array_equal(t.result().moments, mp_solo_mu(SPEC, s))
    assert np.array_equal(bystander.result().moments, mp_solo_mu(OTHER, 0))
    # the crashed attempt's segments are gone too
    for batch, _c in srv.last_batches:
        if batch.world is not None:
            assert not any(
                segment_exists(nm) for nm in batch.world.last_segment_names
            )


def test_exhausted_batch_fails_only_its_own_tickets():
    """Faults on every attempt with degradation disabled: the poisoned
    batch's tickets fail with RetryExhaustedError; a different group's
    batch in the same step still succeeds."""
    plan = FaultPlan(specs=tuple(
        FaultSpec("raise", rank=0, m=4, attempt=a) for a in (1, 2)
    ))
    resil = Resilience(
        policy=RetryPolicy(max_attempts=2), degrade=False, fault_plan=plan,
    )
    srv = KPMServer(max_width=8, backend="numpy", resilience=resil)
    doomed = [srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=s))
              for s in range(2)]
    # different M -> different group -> its own batch; M = 8 means the
    # recurrence never reaches iteration 4, so the plan never fires there
    survivor = srv.submit(Request(SPEC, n_moments=8, n_vectors=1, seed=0))
    assert srv.step() == 2
    for t in doomed:
        assert t.failed
        with pytest.raises(RetryExhaustedError):
            t.result()
    # failure never poisons the cache: a later retry must re-solve
    assert srv.cache.get(doomed[0].moment_key) is None
    assert not survivor.failed
    assert survivor.result().moments.shape == (8,)
    # and the server keeps serving: a fault-free server answers the
    # doomed request bitwise-correctly, nothing leaked across
    clean = KPMServer(max_width=8, backend="numpy")
    t_ok = clean.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=0))
    clean.step()
    assert np.array_equal(t_ok.result().moments, solo_mu(clean, SPEC, 0))


def test_streaming_partials_under_concurrency():
    """Streaming clients observe strictly growing, prefix-consistent
    partial moment sets that converge to the final answer — every
    ``stream_every`` iterations on each engine: a plain mp server (no
    resilience, no checkpoint) streams the serial server's partials."""
    streams = {}
    for engine, knobs in (("serial", {}), ("mp", {"workers": 2})):
        srv = KPMServer(max_width=8, backend="numpy", stream_every=2,
                        linger=0.05, engine=engine, **knobs)
        with srv:
            tickets = [
                srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=s))
                for s in range(4)
            ]
            results = [t.result(timeout=300.0) for t in tickets]
        for t, res in zip(tickets, results):
            assert [n for n, _mu in t.partials] == list(range(6, M, 4))
            for n_done, mu_p in t.partials:
                assert np.array_equal(mu_p, res.moments[:n_done])
        streams[engine] = [t.partials for t in tickets]
    for mp, serial in zip(streams["mp"], streams["serial"]):
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(mp, serial))
