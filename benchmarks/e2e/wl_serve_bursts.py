"""Workload ``serve_bursts``: an open-loop burst train through ``KPMServer``.

A burst of 8 requests is due every 50 ms (160 req/s, ~40 % busy) whether
or not earlier ones finished; latency runs from the burst's due time to
the ticket's completion.  One client thread submits on schedule and
collects completions; the server's worker thread is the second thread.

Burst mix: 5 fresh 1-vector DOS solves, M = 128 (3 on spec A = TI 8x8x4,
2 on spec B = A with another mass, so two coalescing groups), 1 LDOS on
A, 1 kernel-swap repeat (``lorentz``) and 1 exact repeat.  Three of four
repeats are drawn from the last 64 fresh requests (cache hits), one of
four from the whole history, most of which the 256-entry ``MomentCache``
has evicted (re-solve).  Cache writes and evictions sit beside cache
reads, so a gain for hits that costs misses (or the reverse) shows.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

import calibrate
import config
import harness
from spans import SpanRecorder, layer_self_times


#: how long the client waits for stragglers when an episode ends
DRAIN_TIMEOUT_S = 10.0


def make_schedule(cfg: dict, seed: int, n_bursts: int) -> list[list[dict]]:
    """Request descriptors of bursts ``0 .. n_bursts-1``; pure in ``seed``.

    Burst ``b`` depends only on draws made for bursts ``<= b``, so a
    longer schedule extends a shorter one.
    """
    rng = random.Random(seed)
    n_rows = cfg["nx"] * cfg["ny"] * cfg["nz"] * 4
    base = (seed + 1) * 1_000_000
    fresh: list[dict] = []
    out = []
    for b in range(n_bursts):
        burst = [{"spec": s, "kind": "dos", "seed": base + 5 * b + j,
                  "kernel": "jackson", "role": "fresh"}
                 for j, s in enumerate(cfg["fresh_specs"])]
        burst.append({"spec": "A", "kind": "ldos",
                      "rows": (rng.randrange(n_rows),), "kernel": "jackson",
                      "role": "ldos"})
        for kernel, role in (("lorentz", "swap"), ("jackson", "repeat")):
            recent = rng.random() < 0.75
            if not fresh:
                continue  # the very first burst has nothing to repeat
            pool_lo = max(0, len(fresh) - cfg["recent_window"]) if recent else 0
            src = fresh[rng.randrange(pool_lo, len(fresh))]
            burst.append({**src, "kernel": kernel, "role": role})
        fresh.extend(burst[:5])
        out.append(burst)
    return out


def _requests(state, burst: list[dict]):
    from repro.serve import Request

    out = []
    for d in burst:
        spec = state["specs"][d["spec"]]
        if d["kind"] == "dos":
            out.append(Request(spec=spec, kind="dos", n_moments=state["cfg"]["moments"],
                               n_vectors=1, seed=d["seed"], kernel=d["kernel"]))
        else:
            out.append(Request(spec=spec, kind="ldos", n_moments=state["cfg"]["moments"],
                               rows=d["rows"], kernel=d["kernel"]))
    return out


def setup(cfg: dict, seed: int) -> dict:
    lay = {}
    t0 = time.perf_counter()
    from repro.serve import HamiltonianSpec, KPMServer
    t1 = time.perf_counter()
    params = {"nx": cfg["nx"], "ny": cfg["ny"], "nz": cfg["nz"]}
    specs = {"A": HamiltonianSpec("topological_insulator", params),
             "B": HamiltonianSpec("topological_insulator",
                                  {**params, "mass": cfg["mass_b"]})}
    server = KPMServer(max_width=cfg["max_width"], backend="native",
                       linger=cfg["linger"])
    for spec in specs.values():
        server.operator(spec)  # build + pin the spectral map
    server.start()
    lay["import_s"] = t1 - t0
    lay["server_start_s"] = time.perf_counter() - t1
    state = {"cfg": cfg, "seed": seed, "specs": specs, "server": server,
             "setup_layers": lay, "next_burst": 0, "sent": 0, "samples": []}
    # one generous schedule; episodes consume it front to back
    state["schedule"] = make_schedule(cfg, seed, 1500)
    episode(state, cfg["warmup_bursts"], cfg["warmup_period_s"])
    return state


def teardown(state: dict) -> None:
    state["server"].close()


def episode(state: dict, n_bursts: int, period: float) -> dict:
    """Drive ``n_bursts`` bursts open loop; returns latencies and lateness.

    Latency of a request = completion observed by the client - the due
    time of its burst.  The client waits on the oldest outstanding
    ticket until the next burst is due, then sweeps every outstanding
    ticket for completion.
    """
    server, cfg = state["server"], state["cfg"]
    b0 = state["next_burst"]
    bursts = [_requests(state, d) for d in state["schedule"][b0:b0 + n_bursts]]
    state["next_burst"] = b0 + n_bursts
    outstanding: deque = deque()
    lat: list[float] = []
    late: list[float] = []
    failed = 0
    backlog_at_end = 0

    def record(tk, due: float, idx: int, now: float) -> None:
        nonlocal failed
        if tk.failed:
            failed += 1
            return
        lat.append(now - due)
        if idx % cfg["verify_every"] == 0:
            state["samples"].append((tk.request, tk.result()))

    def sweep(now: float) -> None:
        for item in list(outstanding):
            if item[0].done:
                outstanding.remove(item)
                record(*item, now)

    def wait_until(deadline: float) -> None:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                return
            if not outstanding:
                time.sleep(deadline - now)
                return
            try:
                outstanding[0][0].result(timeout=deadline - now)
            except TimeoutError:
                return
            except Exception:  # noqa: BLE001 - counted by sweep
                pass
            sweep(time.perf_counter())

    t0 = time.perf_counter() + 0.002
    for b, reqs in enumerate(bursts):
        due = t0 + b * period
        wait_until(due)
        late.append(time.perf_counter() - due)
        for req in reqs:
            tk = server.submit(req)
            if tk.done:  # cache hit: answered inside submit()
                record(tk, due, state["sent"], time.perf_counter())
            else:
                outstanding.append((tk, due, state["sent"]))
            state["sent"] += 1
        sweep(time.perf_counter())
    end_due = t0 + len(bursts) * period
    wait_until(end_due)
    backlog_at_end = len(outstanding)
    give_up = time.perf_counter() + DRAIN_TIMEOUT_S
    while outstanding and time.perf_counter() < give_up:
        wait_until(min(give_up, time.perf_counter() + 0.05))
    failed += len(outstanding)  # never completed
    return {"lat": lat, "late": late, "failed": failed,
            "sent": sum(len(r) for r in bursts),
            "backlog_at_end": backlog_at_end,
            "wall_s": time.perf_counter() - t0}


def _verify(state, log: harness.OpLog) -> None:
    """Solo NumPy-backend solves of the sampled requests, after timing."""
    import numpy as np
    from repro import KPMSolver

    solo = {}
    for req, result in state["samples"]:
        key = req.spec.digest
        if key not in solo:
            s = KPMSolver.from_spec(req.spec, req.n_moments, 1, backend="numpy")
            solo[key] = (s.H, s.scale)
        H, scale = solo[key]
        solver = KPMSolver(H, req.n_moments, 1, scale=scale, seed=req.seed,
                           kernel=req.kernel, backend="numpy")
        if req.kind == "dos":
            log.check(harness.digits(result.moments, solver.dos().moments))
        else:  # an LDOS answer carries its spectrum only
            ref = solver.ldos(np.asarray(req.rows), exact=True).rho
            log.check(harness.digits(result.rho, ref),
                      config.MIN_DIGITS_SPECTRUM, track=False)
    state["samples"] = []


def _account(log: harness.OpLog, ep: dict) -> None:
    log.add(ep["sent"], ep["failed"],
            f"{ep['failed']} of {ep['sent']} requests failed or timed out")


def run(state: dict, seconds: float) -> dict:
    cfg = state["cfg"]
    probe = calibrate.make_probe(cfg["probe"])
    ref_s = config.PROBE_REF_S[probe.name]
    log = harness.OpLog()
    probes = [probe()]
    episodes = []
    t_start = time.perf_counter()
    while True:
        ep = episode(state, cfg["bursts_per_episode"], cfg["burst_period_s"])
        _account(log, ep)
        episodes.append(ep)
        probes.append(probe())
        elapsed = time.perf_counter() - t_start
        if len(episodes) >= cfg["min_ops"] and \
                elapsed + 0.5 * elapsed / len(episodes) > seconds:
            break
    state["server"].close()
    _verify(state, log)

    lats = [ep["lat"] for ep in episodes]
    factors = calibrate.bracket_factors(probes, len(episodes), 1, ref_s,
                                        sensitivity=cfg["sensitivity"])
    raw = [calibrate.percentile(lat, 50) for lat in lats]
    within = sum(sum(1 for t in lat if t * f <= cfg["slo_s"])
                 for lat, f in zip(lats, factors))
    return harness.part(
        log, raw, [t * f for t, f in zip(raw, factors)],
        [calibrate.percentile(lat, 95) * f for lat, f in zip(lats, factors)],
        within, probes, probe,
        raw_p95_s=[calibrate.percentile(lat, 95) for lat in lats],
        gen_late_p95_ms=1e3 * calibrate.percentile(
            [t for ep in episodes for t in ep["late"]], 95),
        backlog_at_end=[ep["backlog_at_end"] for ep in episodes])


# ---------------------------------------------------------------------
# traced layer walk
# ---------------------------------------------------------------------

def _sync_walk(state, rec: SpanRecorder, n_bursts: int) -> dict:
    """Bursts driven synchronously: submit x 8, plan_batches, step.

    Even bursts are wrapped in spans, odd ones run bare, so the cost of
    the spans is the ratio of the two.  Needs a server whose worker
    thread is not running.  ``execute_batch`` is timed by the server's
    own registry (its ``serve.batch`` span), read around each step.
    """
    from repro.serve import plan_batches

    server, cfg = state["server"], state["cfg"]
    b0 = state["next_burst"]
    state["next_burst"] = b0 + n_bursts
    batch_timer = server.metrics.timer("serve.batch")
    w = {"miss": [], "hit": [], "spectra_hit": [], "keys": [], "bare": [],
         "widths": [], "batches": [], "batch_s": 0.0, "batch_n": 0,
         "stepped": 0}
    for b in range(n_bursts):
        descs = state["schedule"][b0 + b]
        reqs = _requests(state, descs)
        if b % 2:
            t0 = time.perf_counter()
            for req in reqs:
                server.submit(req)
            server.step()
            w["bare"].append(time.perf_counter() - t0)
            continue
        for req in reqs:  # the three content keys, on their own
            t0 = time.perf_counter()
            req.request_key(0), req.moment_key(0), req.group_key(0)
            w["keys"].append(time.perf_counter() - t0)
        rec.op_id = b
        with rec.span("burst", "walk"):
            for req, d in zip(reqs, descs):
                with rec.span("submit", "serve") as sp:
                    tk = server.submit(req)
                dt = sp["end"] - sp["start"]
                if tk.via == "cache":
                    w["spectra_hit" if d["role"] == "repeat" else "hit"].append(dt)
                elif tk.via is None:
                    w["miss"].append(dt)
            pending = server.queue.drain()
            with rec.span("plan_batches", "serve"):
                plan_batches(pending, cfg["max_width"])
            for t in pending:
                server.queue.push(t)
            total0, count0 = batch_timer.total, batch_timer.count
            with rec.span("step", "serve"):
                server.step()
        w["batch_s"] += batch_timer.total - total0
        w["batch_n"] += batch_timer.count - count0
        w["stepped"] += len(pending)
        # step() keeps the previous list when it had nothing to solve
        for batch, _counters in server.last_batches if pending else ():
            w["widths"].append(batch.width)
            w["batches"].append((batch.items[0].ticket.request.spec, batch.width))
    return w


def _bare_eta(state, batches) -> dict:
    """What the walk's batches cost as bare ``compute_eta`` calls.

    Also splits one such call, at the commonest width, into its kernel
    calls (the program's own registry times them) and the rest.
    """
    from repro.core.moments import compute_eta
    from repro.core.stochastic import make_block_vector
    from repro.obs import MetricsRegistry

    server, m = state["server"], state["cfg"]["moments"]
    specs = {s.digest: s for s, _ in batches}
    cost = {}
    for digest, width in set((s.digest, w) for s, w in batches):
        H, _model, scale = server.operator(specs[digest])
        block = make_block_vector(H.n_rows, width, "phase", 1)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            compute_eta(H, scale, m, block, backend="native")
            times.append(time.perf_counter() - t0)
        cost[(digest, width)] = statistics.median(times)
    common = statistics.mode([(s.digest, w) for s, w in batches])
    H, _model, scale = server.operator(specs[common[0]])
    registry = MetricsRegistry()
    compute_eta(H, scale, m, make_block_vector(H.n_rows, common[1], "phase", 1),
                backend="native", metrics=registry)
    kernels = sum(t["total"] for t in registry.snapshot()["timers"].values())
    return {"total_s": sum(cost[(s.digest, w)] for s, w in batches),
            "eta_s": cost[common], "eta_self_s": cost[common] - kernels}


def walk(state: dict, seconds: float) -> dict:
    cfg, server = state["cfg"], state["server"]
    probe = calibrate.make_probe(cfg["probe"])
    ref_s, sens = config.PROBE_REF_S[probe.name], cfg["sensitivity"]
    log = harness.OpLog()
    rec = SpanRecorder()
    # (a) synchronous walk on the warmed server, worker thread stopped
    server.close()
    p0 = probe()
    w = _sync_walk(state, rec, 100)
    p1 = probe()
    f = calibrate.factor(p0, p1, ref_s, sens)
    bare = _bare_eta(state, w["batches"])
    traced = [s["end"] - s["start"] for s in rec.spans if s["name"] == "burst"]
    steps = sum(s["end"] - s["start"] for s in rec.spans if s["name"] == "step")
    plans = [s["end"] - s["start"] for s in rec.spans if s["name"] == "plan_batches"]
    layers, wall = layer_self_times(rec.spans, "burst")
    dist = server.stats()["metrics"].get("distributions", {}).get(
        "serve.bytes_per_request", {})

    # (b) open-loop episodes at three rates on the restarted worker thread
    server.start()
    probes = [probe()]
    by_rate: dict[int, list[dict]] = {}
    stats0 = server.stats()
    for period_ms in (100, 50, 25, 100, 50, 25):
        ep = episode(state, cfg["bursts_per_episode"], period_ms / 1e3)
        _account(log, ep)
        probes.append(probe())
        ep["factor"] = calibrate.factor(probes[-2], probes[-1], ref_s, sens)
        by_rate.setdefault(8_000 // period_ms, []).append(ep)
        if period_ms == 50:
            ep["stats"] = server.stats()
    stats1 = server.stats()
    server.close()
    _verify(state, log)

    def ok(eps) -> bool:
        sent = sum(e["sent"] for e in eps)
        within = sum(sum(1 for t in e["lat"] if t * e["factor"] <= cfg["slo_s"])
                     for e in eps)
        return within / sent >= 0.95 and all(
            e["backlog_at_end"] <= 2 * cfg["max_width"] for e in eps)

    nominal = by_rate[160]
    cal160 = [t * e["factor"] for e in nominal for t in e["lat"]]
    wall_all = sum(e["wall_s"] for eps in by_rate.values() for e in eps)

    def delta(path):
        a, b = stats0, stats1
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    hits, misses = delta(("cache", "hits")), delta(("cache", "misses"))
    s_hits, s_misses = delta(("spectra", "hits")), delta(("spectra", "misses"))
    requests = delta(("metrics", "counters", "serve.requests"))
    busy = (delta(("metrics", "timers", "serve.batch", "total"))
            + delta(("metrics", "timers", "serve.reconstruct", "total")))

    out = harness.shared_metrics(log, probe, probes, layers, wall)
    out.update({
        "trace.overhead": statistics.median(traced) / statistics.median(w["bare"]),
        "serve.key_us": 1e6 * f * statistics.median(w["keys"]),
        "serve.submit_us": 1e6 * f * harness.median(w["miss"]),
        "serve.hit_us": 1e6 * f * harness.median(w["hit"]),
        "serve.spectra_hit_us": 1e6 * f * harness.median(w["spectra_hit"]),
        "serve.plan_us": 1e6 * f * statistics.median(plans),
        "serve.batch_ms": 1e3 * f * w["batch_s"] / max(w["batch_n"], 1),
        # a step is plan + batches + fulfilment of what it drained
        "serve.fulfill_us": 1e6 * f * max(
            steps - w["batch_s"] - sum(plans), 0.0) / max(w["stepped"], 1),
        "serve.overhead_share": 1.0 - bare["total_s"] / sum(traced),
        "core.eta_s": f * bare["eta_s"],
        "core.eta_self_s": f * bare["eta_self_s"],
        "serve.batch_width_mean": statistics.mean(w["widths"]),
        "serve.bytes_per_request":
            dist.get("total", 0.0) / max(dist.get("count", 0), 1),
        "serve.cache_hit_share": hits / max(hits + misses, 1),
        "serve.spectra_hit_share": s_hits / max(s_hits + s_misses, 1),
        "serve.dedup_share":
            delta(("metrics", "counters", "serve.dedup.hits")) / max(requests, 1),
        "serve.evictions_per_s": delta(("cache", "evictions")) / wall_all,
        "serve.busy_share": busy / wall_all,
        "serve.op_p95_s": calibrate.percentile(cal160, 95),
        "serve.op_p99_s": calibrate.percentile(cal160, 99),
        "serve.gen_late_p95_ms": 1e3 * calibrate.percentile(
            [t for e in nominal for t in e["late"]], 95),
        "serve.max_ok_rate_rps": float(max(
            [rate for rate, eps in by_rate.items() if ok(eps)], default=0)),
    })
    info = {"walk_bursts": len(traced), "layer_self_s": layers,
            "op_wall_s": wall,
            "rates": {rate: {"p50_s": calibrate.percentile(
                                 [t * e["factor"] for e in eps for t in e["lat"]], 50),
                             "p95_s": calibrate.percentile(
                                 [t * e["factor"] for e in eps for t in e["lat"]], 95),
                             "ok": ok(eps)}
                      for rate, eps in by_rate.items()}}
    return {"log": log, "metrics": out, "recorder": rec, "info": info}
