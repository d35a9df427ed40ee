"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``dos``     compute and print the DOS of a TI sample (or a .mtx file),
``info``    structural analysis of the TI matrix or a .mtx file,
``report``  the full model-driven performance report,
``scaling`` weak-scaling prediction table for the Piz Daint model,
``tune``    offline configuration search; saves a tuned profile that
            ``dos --engine auto`` consults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace


def _add_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nx", type=int, default=16)
    p.add_argument("--ny", type=int, default=0, help="default: same as --nx")
    p.add_argument("--nz", type=int, default=8)
    p.add_argument("--mtx", type=str, default=None,
                   help="read the matrix from a MatrixMarket file instead")


def _load_matrix(args, operator: bool = True):
    """The command's matrix: ``--mtx`` or a generated TI sample.  With
    ``operator`` a ``--mtx`` matrix must be one KPM can expand, else a
    :class:`~repro.util.errors.FormatError` (``check_operator``)."""
    if args.mtx:
        from repro.sparse.io import check_operator, read_matrix_market

        h = read_matrix_market(args.mtx)
        return check_operator(h) if operator else h
    from repro.physics import build_topological_insulator

    ny = args.ny or args.nx
    h, _ = build_topological_insulator(args.nx, ny, args.nz)
    return h


def _threads(args) -> dict:
    """``--threads`` as a config keyword — none when not given, so the
    config's own default (``'auto'``) applies."""
    return {} if args.threads is None else {"threads": args.threads}


def _apply_profile(args, h, cfg):
    """``--engine auto``: the tuned profile's execution knobs replace
    ``cfg``'s, except the ``--threads``/``--simd``/``--weights`` the user
    gave — never precision or the block width, which belong to the
    physics asked for.  Returns ``(h, cfg, simd shown)``."""
    from repro.dist.tune import lookup

    tuned = lookup(h, args.profile)
    if tuned is None:
        print("tuned profile: none for this matrix/machine "
              "(run 'repro tune'); using serial aug_spmmv defaults")
        return h, cfg, args.simd
    t = tuned.execution
    print(f"tuned profile: backend={t.backend} fmt={tuned.fmt} "
          f"workers={t.workers} overlap={t.overlap} "
          f"threads={t.threads} simd={t.simd}")
    cfg = replace(
        cfg, engine=t.engine, backend=t.backend, workers=t.workers,
        overlap=t.overlap, threads=cfg.threads if args.threads else t.threads,
        simd=args.simd or t.simd,
        weights=cfg.weights if args.weights else t.weights,
    )
    if tuned.fmt == "sell":  # a SELL profile is serial (TuneConfig)
        from repro.sparse.sell import SellMatrix

        if not isinstance(h, SellMatrix):
            h = SellMatrix(h, chunk_height=tuned.chunk, sigma=tuned.sigma)
    return h, cfg, args.simd or t.simd


def cmd_dos(args) -> int:
    import numpy as np

    from repro.core.reconstruct import integrate_density
    from repro.core.solver import KPMSolver
    from repro.obs.metrics import NULL_METRICS, PerfCounters
    from repro.sparse.backend import get_backend
    from repro.util.errors import BackendError
    from repro.util.knobs import ExecConfig, resolve_overlap

    if args.checkpoint_path and not args.checkpoint_every:
        args.usage_error("--checkpoint-path requires --checkpoint-every")
    h = _load_matrix(args)
    print(f"matrix: {h.n_rows:,} rows, {h.nnz:,} nnz ({h.nnzr:.2f}/row)")
    weights = None
    if args.weights:
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError:
            print(f"error: --weights must be comma-separated numbers, "
                  f"got {args.weights!r}", file=sys.stderr)
            return 1
    # sim/mp select a *distributed* engine, whose rank-local kernels are
    # always the stage-2 blocked ones (the paper's production scheme);
    # --rebalance / --elastic each turn on elastic execution: live skew
    # rebalancing, planned membership changes at boundaries (the
    # moments never depend on the partition).
    kernel = "aug_spmmv" if args.engine == "auto" else args.engine
    simd = args.simd
    try:
        cfg = ExecConfig(
            engine=args.engine if args.engine in ("sim", "mp") else None,
            workers=args.workers, weights=weights, backend=args.backend,
            precision=args.precision, simd=args.simd,
            overlap=args.overlap, rebalance=args.rebalance,
            membership=args.elastic, **_threads(args),
        )
        if args.engine == "auto":
            h, cfg, simd = _apply_profile(args, h, cfg)
        backend = get_backend(cfg.backend)
    except (ValueError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"kernel backend: {backend.name}")
    # --metrics / --trace turn on the observability layer: one sink of
    # per-kernel spans that carry their Table-I traffic, read by family
    # as PerfCounters, and (with --trace) one JSONL record per span.
    observe = args.metrics or args.trace
    trace = None
    if args.trace:
        from repro.obs import Trace

        trace = Trace(args.trace)
    sink = PerfCounters(trace=trace) if observe else NULL_METRICS
    # --retries / --fault-plan / --checkpoint-every turn on the
    # resilience supervisor: supervised retries, checkpoint recovery,
    # and graceful engine degradation.
    resil = None
    if (args.retries or args.fault_plan or args.checkpoint_every
            or args.stall_timeout is not None):
        from repro.resil import FaultPlan, Resilience, RetryPolicy

        try:
            plan = (FaultPlan.parse(args.fault_plan, seed=args.seed)
                    if args.fault_plan else None)
        except ValueError as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 1
        mp_timeouts = None
        if args.stall_timeout is not None:
            from repro.dist.mp import MpTimeouts

            mp_timeouts = MpTimeouts(stall=args.stall_timeout)
        resil = Resilience(
            policy=RetryPolicy(max_attempts=args.retries + 1),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
            degrade=args.degrade,
            fault_plan=plan,
            mp_timeouts=mp_timeouts,
        )
    distributed = cfg.engine != "serial"
    try:
        solver = KPMSolver(
            h, n_moments=args.moments, n_vectors=args.vectors, seed=args.seed,
            engine="aug_spmmv" if distributed else kernel, metrics=sink,
            resilience=resil,
            config=replace(cfg, backend=backend),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.precision != "fp64":
        prec = solver.precision
        print(f"precision: {prec.name} (values {np.dtype(prec.value_dtype).name}, "
              f"vectors {np.dtype(prec.vector_dtype).name}"
              f"{' pairs' if prec.half_vectors else ''}, fp64 dot accumulation)")
    if distributed:
        mode = "on" if resolve_overlap(cfg.overlap, cfg.workers) else "off"
        print(f"distributed engine: {cfg.engine} ({cfg.workers} workers, "
              f"overlap {mode})")
    if cfg.rebalance is not None or cfg.membership is not None:
        pol = cfg.rebalance
        bits = ["rebalancing off"] if pol is None else [
            f"rebalancing on, threshold={pol.threshold:g}",
            f"interval={pol.interval}"]
        if cfg.membership is not None:
            bits.append(f"plan '{cfg.membership}'")
        print("elastic: " + ", ".join(bits))
    if args.threads or cfg.threads not in (None, ExecConfig.threads):
        print(f"kernel threads: {cfg.threads}"
              + (" per rank" if distributed else ""))
    if simd is not None:
        from repro.sparse.backend.native import simd_available

        print(f"simd kernels: {simd} (compiled "
              f"{'available' if simd_available() else 'unavailable'})")
    if resil is not None:
        bits = [f"retries={args.retries}"]
        if args.checkpoint_every:
            bits.append(f"checkpoint every {args.checkpoint_every} iterations")
        if args.fault_plan:
            bits.append(f"fault plan '{args.fault_plan}'")
        print("resilience: supervised (" + ", ".join(bits) + ")")
    try:
        dos = solver.dos()
    except Exception as exc:
        if resil is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace is not None:
            trace.close()
    if solver.resilience_report is not None:
        print(solver.resilience_report.summary())
    if solver.elastic_report is not None:
        print(solver.elastic_report.summary())
    if distributed and solver.world is not None:
        log = solver.world.log
        phases = ", ".join(
            f"{k}: {v:,} B" for k, v in sorted(log.bytes_by_phase().items())
        )
        print(f"communication: {log.n_messages} messages, "
              f"{log.total_bytes:,} bytes ({phases})")
    total = integrate_density(dos.energies, dos.rho)
    print(f"DOS integral: {total:,.1f} (N = {h.n_rows:,})")
    step = max(len(dos.energies) // args.points, 1)
    print(f"{'E':>12} {'rho(E)':>14}")
    for e, r in zip(dos.energies[::step], dos.rho[::step]):
        print(f"{e:>12.4f} {r:>14.5g}")
    if observe:
        from repro.perf.report import measured_vs_model_section

        # Distributed runs use the stage-2 kernels and their merged
        # traffic folds to the serial charge, so the same model applies.
        eng = "aug_spmmv" if distributed else kernel
        print("\n== MEASURED vs MODEL ==")
        print(measured_vs_model_section(
            h, sink, args.moments, args.vectors, eng,
            precision=args.precision,
        ), end="")
        print("\n== METRICS ==")
        print(sink.summary())
    if trace is not None:  # the file read back: its spans per name
        from repro.obs import read_trace
        from repro.perf.report import trace_section

        trace.close()
        print(f"\ntrace: {trace.n_records} spans -> {trace.path}")
        print(trace_section(read_trace(trace.path)), end="")
    return 0


def cmd_info(args) -> int:
    from repro.sparse.stats import analyze, row_length_histogram, stencil_reuse_rows

    h = _load_matrix(args, operator=False)
    stats = analyze(h)
    print(f"shape:         {stats.n_rows} x {stats.n_cols}")
    print(f"nnz:           {stats.nnz:,} "
          f"({stats.nnzr_mean:.2f}/row, min {stats.nnzr_min}, "
          f"max {stats.nnzr_max})")
    print(f"bandwidth:     {stats.bandwidth}")
    print(f"diagonals:     {len(stats.diagonals)} carrying "
          f"{stats.diagonal_coverage:.1%} of nnz")
    print(f"corner wraps:  {stats.has_corner_entries} "
          "(periodic boundary diagonals)")
    print(f"stencil-like:  {stats.is_stencil_like}")
    print(f"reuse window:  {stencil_reuse_rows(h):.0f} rows")
    hist = row_length_histogram(h)
    print("row lengths:   "
          + ", ".join(f"{l}:{c}" for l, c in sorted(hist.items())))
    return 0


def cmd_serve(args) -> int:
    """Multi-tenant serving drill: concurrent clients, one server.

    Phase 1 submits ``--requests`` overlapping DOS queries from several
    tenant threads against one operator and lets the worker thread
    coalesce them.  Phase 2 sweeps coalescing widths 1/2/4/8
    synchronously and reports the measured traffic per request (the
    Eq. 5-7 amortization).  Phase 3 replays a request with a different
    damping kernel (a kernel-free cache hit).  With ``--fault-plan``
    the phase-1 batches run under a batch-scoped supervisor.
    ``--check`` turns the expectations into hard assertions.
    """
    import threading

    from repro.perf.report import expected_counters
    from repro.resil import FaultPlan, Resilience, RetryPolicy
    from repro.serve import HamiltonianSpec, KPMServer, Request

    ny = args.ny or args.nx
    spec = HamiltonianSpec(
        "topological_insulator", {"nx": args.nx, "ny": ny, "nz": args.nz}
    )
    resilience = None
    if args.fault_plan or args.retries:
        resilience = Resilience(
            policy=RetryPolicy(max_attempts=max(args.retries, 2)),
            fault_plan=(FaultPlan.parse(args.fault_plan, seed=args.seed)
                        if args.fault_plan else None),
        )
    # -- phase 1: concurrent tenants against the worker thread ---------
    try:
        srv = KPMServer(
            max_width=args.max_width, engine=args.engine,
            backend=args.backend, workers=args.workers, simd=args.simd,
            resilience=resilience, linger=0.05, stream_every=0,
            **_threads(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tickets = []
    t_lock = threading.Lock()

    def client(tenant: str, seeds: list[int]) -> None:
        for s in seeds:
            t = srv.submit(Request(
                spec, n_moments=args.moments, n_vectors=1, seed=s,
                tenant=tenant, priority=int(tenant[-1]) % 2,
            ))
            with t_lock:
                tickets.append(t)

    n_req = args.requests
    seeds = list(range(n_req))
    threads = [
        threading.Thread(target=client, args=(f"tenant{i}", seeds[i::3]))
        for i in range(3)
    ]
    with srv:
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        results = [t.result(timeout=600.0) for t in tickets]
    widths = [t.via for t in tickets if isinstance(t.via, int)]
    max_seen = max(widths) if widths else 0
    print(f"phase 1: {n_req} overlapping requests from 3 tenants -> "
          f"{srv.metrics.counters.get('serve.batches', 0):.0f} batches, "
          f"max coalesced width {max_seen}")
    assert len(results) == n_req

    # -- phase 2: width sweep, measured traffic per request ------------
    print(f"\nphase 2: traffic per request vs coalescing width "
          f"(M = {args.moments}, serial accounting)")
    print(f"{'width':>6} {'measured B/req':>15} {'model B/req':>13} "
          f"{'exact':>6}")
    per_request = []
    H = None
    for w in (1, 2, 4, 8):
        s2 = KPMServer(max_width=w)
        for s in range(w):
            s2.submit(Request(spec, n_moments=args.moments,
                              n_vectors=1, seed=s))
        s2.step()
        if H is None:
            H, _model, _scale = s2.operator(spec)
        _batch, counters = s2.last_batches[0]
        model = expected_counters(H, args.moments, w)
        bpr = counters.bytes_total / w
        exact = counters.bytes_total == model.bytes_total \
            and counters.flops == model.flops
        per_request.append(bpr)
        print(f"{w:>6} {bpr:>15,.0f} {model.bytes_total / w:>13,.0f} "
              f"{'yes' if exact else 'NO':>6}")
        if args.check and not exact:
            print("CHECK FAILED: measured != analytic counters")
            return 1
    falling = all(b < a for a, b in zip(per_request, per_request[1:]))
    print(f"traffic per request strictly decreasing: "
          f"{'yes' if falling else 'NO'}")

    # -- phase 3: kernel-free cache hit --------------------------------
    t_hit = srv.submit(Request(spec, n_moments=args.moments, n_vectors=1,
                               seed=0, kernel="lorentz"))
    hits = srv.cache.stats()["hits"]
    print(f"\nphase 3: re-query with kernel='lorentz' -> via={t_hit.via!r}, "
          f"cache hits = {hits}")

    print("\nserver metrics:")
    print(srv.metrics.summary())

    if args.check:
        failures = []
        if len(tickets) < 8:
            failures.append(f"only {len(tickets)} overlapping requests (< 8)")
        if max_seen < 2:
            failures.append(f"max coalesced width {max_seen} < 2")
        if hits < 1:
            failures.append("no cache hits")
        if not falling:
            failures.append("traffic per request not strictly decreasing")
        if resilience is not None and args.fault_plan:
            retries = srv.metrics.counters.get("serve.batch.retries", 0)
            if retries < 1:
                failures.append("fault plan given but no batch retries seen")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures))
            return 1
        print("CHECK PASSED")
    return 0


def cmd_tune(args) -> int:
    """Offline configuration search; persists the tuned profile."""
    from repro.dist.tune import (
        DEFAULT_CONFIG,
        TuneSpace,
        default_profile_path,
        save_profile,
        tune,
    )

    h = _load_matrix(args)
    print(f"matrix: {h.n_rows:,} rows, {h.nnz:,} nnz ({h.nnzr:.2f}/row)")

    def parse_list(raw, kind):
        out = []
        for tok in raw.split(","):
            tok = tok.strip()
            out.append(None if tok in ("none", "") else kind(tok))
        return tuple(out)

    try:
        space = TuneSpace(
            workers=parse_list(args.workers_list, int),
            threads=parse_list(args.threads_list, int),
            rs=parse_list(args.vectors_list, int),
            simds=tuple(args.simd_list.split(",")),
            precisions=tuple(args.precisions.split(",")),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def log(cfg, seconds):
        mark = " (default)" if cfg == DEFAULT_CONFIG else ""
        print(f"  {seconds:>9.4f}s  fmt={cfg.fmt:<4} R={cfg.r:<3} "
              f"workers={cfg.workers} overlap={cfg.overlap:<3} "
              f"threads={cfg.threads!s:<4} simd={cfg.simd:<4} "
              f"backend={cfg.backend}{mark}")

    print(f"probing: M={args.probe_moments}, best of {args.repeats} "
          f"repeat(s) per candidate")
    result = tune(
        h, space=space, n_random=args.random, n_measure=args.measure,
        greedy_rounds=args.greedy, n_moments=args.probe_moments,
        seed=args.seed, repeats=args.repeats, log=log,
    )
    c = result.config
    print(f"\nbest: fmt={c.fmt} (C={c.chunk}, sigma={c.sigma}) R={c.r} "
          f"workers={c.workers} overlap={c.overlap} threads={c.threads} "
          f"simd={c.simd} backend={c.backend} precision={c.precision}")
    print(f"measured {result.seconds:.4f}s vs untuned default "
          f"{result.baseline_seconds:.4f}s -> speedup {result.speedup:.2f}x "
          f"({len(result.evaluated)} candidates measured)")
    path = args.profile if args.profile else default_profile_path()
    saved = save_profile(h, result, path)
    print(f"profile saved: {saved} [{result.signature}]")
    print("use it with: repro dos --engine auto"
          + (f" --profile {saved}" if args.profile else ""))
    return 0


def cmd_report(args) -> int:
    from repro.perf.report import full_report

    print(
        full_report(
            nx=args.nx, ny=args.ny or args.nx, nz=args.nz, r=args.vectors,
            m=args.moments, nodes=args.nodes,
        )
    )
    return 0


def cmd_scaling(args) -> int:
    from repro.dist.scaling_model import ClusterModel

    cm = ClusterModel(r=args.vectors)
    nodes = [int(n) for n in args.nodes_list.split(",")]
    print(f"{'nodes':>7} {'case':>8} {'domain':>20} "
          f"{'Tflop/s':>9} {'eff':>7}")
    for case in ("square", "bar"):
        try:
            rows = cm.weak_scaling(case, nodes, m=args.moments)
        except ValueError as exc:
            print(f"  ({case}: {exc})", file=sys.stderr)
            continue
        for row in rows:
            print(
                f"{int(row['nodes']):>7} {case:>8} "
                f"{str(row['domain']):>20} {row['tflops']:>9.2f} "
                f"{row['efficiency']:>7.1%}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.util.knobs import (
        BACKEND_CHOICES,
        OVERLAP_CHOICES,
        PRECISION_CHOICES,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="KPM performance-engineering reproduction (IPDPS'15)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dos", help="compute a density of states")
    _add_matrix_args(p)
    p.add_argument("--moments", type=int, default=512)
    p.add_argument("--vectors", type=int, default=8)
    p.add_argument("--points", type=int, default=24,
                   help="rows of the printed table")
    p.add_argument("--engine", default="aug_spmmv",
                   choices=["naive", "aug_spmv", "aug_spmmv", "sim", "mp",
                            "auto"],
                   help="serial moment engine (paper stages 0/1/2), a "
                        "distributed run ('sim' = sequential SPMD "
                        "simulator, 'mp' = real worker processes over "
                        "shared memory), or 'auto' = apply the tuned "
                        "profile saved by 'repro tune'")
    p.add_argument("--workers", type=int, default=2,
                   help="rank count for --engine sim|mp")
    p.add_argument("--threads", type=str, default=None, metavar="N",
                   help="intra-rank kernel threads for the native backend: "
                        "an integer, or 'auto' (the default) = usable "
                        "cores/workers per rank; --threads 1 runs on one "
                        "core; results are bitwise identical at every count")
    p.add_argument("--simd", default=None, choices=["auto", "on", "off"],
                   help="native AVX2 vectorized kernels: 'auto' (use "
                        "when compiled in), 'on' (request; scalar fallback "
                        "when unavailable), 'off' (scalar); fp64 results "
                        "are bitwise identical either way")
    p.add_argument("--profile", type=str, default=None, metavar="FILE",
                   help="tuned-profile store consulted by --engine auto "
                        "(default: $REPRO_TUNE_PROFILE or "
                        "~/.cache/repro/tuned.json)")
    p.add_argument("--overlap", default="auto", choices=list(OVERLAP_CHOICES),
                   help="communication/computation overlap for sim|mp "
                        "(task-mode pipelining); auto = on with >1 rank")
    p.add_argument("--weights", type=str, default=None,
                   help="comma-separated per-rank partition weights "
                        "(default: equal split)")
    p.add_argument("--rebalance", type=str, default=None, metavar="MODE",
                   help="live skew rebalancing for --engine sim|mp: 'off', "
                        "'auto', or an imbalance threshold such as 0.4 "
                        "(the (max-min)/mean busy-time spread that "
                        "re-slices the ranks inside the run); the moments "
                        "never change")
    p.add_argument("--elastic", type=str, default=None, metavar="PLAN",
                   help="planned worker membership changes for --engine "
                        "sim|mp, applied inside the run at iteration "
                        "boundaries, e.g. 'join:m=8;leave:m=16,rank=0' "
                        "(joins take parked workers; with or without "
                        "--rebalance)")
    p.add_argument("--backend", default="auto", choices=list(BACKEND_CHOICES),
                   help="kernel backend (auto: native C kernels when a "
                        "compiler is available, else numpy)")
    p.add_argument("--precision", default="fp64",
                   choices=list(PRECISION_CHOICES),
                   help="storage profile: fp64 (baseline), fp32 (complex64 "
                        "values+vectors, compressed indices, fp64 dot "
                        "accumulation), fp16v (float16 pair vectors, fp32 "
                        "compute)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=0,
                   help="supervised retries per engine before degrading "
                        "(any value > 0 turns the resilience supervisor on)")
    p.add_argument("--fault-plan", type=str, default=None, metavar="PLAN",
                   help="inject planned faults, e.g. 'crash:rank=1,m=8' or "
                        "'stall:rank=0,m=4;corrupt-ckpt:attempt=2' "
                        "(kinds: crash, raise, stall, slow, corrupt-halo, "
                        "corrupt-ckpt)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="checkpoint the recurrence state every K inner "
                        "iterations (atomic .npz; enables crash recovery)")
    p.add_argument("--checkpoint-path", type=str, default=None, metavar="FILE",
                   help="checkpoint file (default: a temporary file removed "
                        "on success)")
    p.add_argument("--stall-timeout", type=float, default=None, metavar="S",
                   help="declare an mp worker wedged after S seconds "
                        "without a heartbeat (default: 120)")
    p.add_argument("--no-degrade", dest="degrade", action="store_false",
                   help="fail instead of degrading mp -> sim -> serial "
                        "(and native -> numpy) after exhausted retries")
    p.add_argument("--metrics", action="store_true",
                   help="record per-kernel wall-time spans and Table-I "
                        "traffic; print the measured-vs-model report")
    p.add_argument("--trace", type=str, default=None, metavar="FILE",
                   help="write one JSONL record per instrumented span to "
                        "FILE (implies the --metrics instrumentation)")
    p.set_defaults(fn=cmd_dos, usage_error=p.error)

    p = sub.add_parser(
        "serve",
        help="multi-tenant serving drill: coalescing, caching, traffic",
    )
    p.add_argument("--nx", type=int, default=8)
    p.add_argument("--ny", type=int, default=0, help="default: same as --nx")
    p.add_argument("--nz", type=int, default=4)
    p.add_argument("--moments", type=int, default=128)
    p.add_argument("--requests", type=int, default=8,
                   help="overlapping client requests in phase 1")
    p.add_argument("--max-width", type=int, default=8,
                   help="coalescing width cap (columns per batch)")
    p.add_argument("--engine", default="serial",
                   choices=["serial", "sim", "mp"],
                   help="batch execution engine")
    p.add_argument("--workers", type=int, default=2,
                   help="rank count for --engine sim|mp")
    p.add_argument("--threads", type=str, default=None, metavar="N",
                   help="intra-rank kernel threads per batch: an integer, or "
                        "'auto' (the default) = usable cores/workers per "
                        "rank; --threads 1 runs on one core; results are "
                        "bitwise identical at every count")
    p.add_argument("--simd", default=None, choices=["auto", "on", "off"],
                   help="native vectorized kernels per batch "
                        "(bitwise-invariant under fp64)")
    p.add_argument("--backend", default="auto", choices=list(BACKEND_CHOICES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=0,
                   help="batch-scoped supervised retries (> 0 enables the "
                        "resilience supervisor per batch)")
    p.add_argument("--fault-plan", type=str, default=None, metavar="PLAN",
                   help="inject planned faults into batch solves "
                        "(same syntax as 'dos --fault-plan')")
    p.add_argument("--check", action="store_true",
                   help="assert coalescing width >= 2, cache hits > 0, and "
                        "strictly falling traffic per request; exit 1 on "
                        "any failure")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "tune",
        help="offline configuration search; saves the tuned profile "
             "that 'dos --engine auto' consults",
    )
    _add_matrix_args(p)
    p.add_argument("--random", type=int, default=8,
                   help="random candidates sampled from the space")
    p.add_argument("--measure", type=int, default=5,
                   help="most promising candidates (by the analytic "
                        "traffic model) actually measured")
    p.add_argument("--greedy", type=int, default=2,
                   help="greedy single-knob refinement rounds")
    p.add_argument("--probe-moments", type=int, default=32,
                   help="moments per probe measurement")
    p.add_argument("--repeats", type=int, default=1,
                   help="probe repeats per candidate (best is scored)")
    p.add_argument("--workers-list", type=str, default="1,2",
                   help="comma-separated rank counts to search")
    p.add_argument("--threads-list", type=str, default="none,2,4",
                   help="comma-separated thread counts to search "
                        "('none' = sequential kernels)")
    p.add_argument("--vectors-list", type=str, default="4,8,16",
                   help="comma-separated block widths R to search")
    p.add_argument("--simd-list", type=str, default="auto,off",
                   help="comma-separated SIMD kernel modes to search "
                        "(auto/on/off; bitwise-invisible in fp64)")
    p.add_argument("--precisions", type=str, default="fp64",
                   help="comma-separated storage profiles to search "
                        "(beware: a non-fp64 profile changes results)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", type=str, default=None, metavar="FILE",
                   help="profile store to write (default: "
                        "$REPRO_TUNE_PROFILE or ~/.cache/repro/tuned.json)")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("info", help="analyze matrix structure")
    _add_matrix_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("report", help="model-driven performance report")
    _add_matrix_args(p)
    p.add_argument("--moments", type=int, default=2000)
    p.add_argument("--vectors", type=int, default=32)
    p.add_argument("--nodes", type=int, default=64)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("scaling", help="cluster weak-scaling prediction")
    p.add_argument("--nodes-list", default="1,4,16,64,256,1024")
    p.add_argument("--moments", type=int, default=2000)
    p.add_argument("--vectors", type=int, default=32)
    p.set_defaults(fn=cmd_scaling)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.util.errors import FormatError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:  # a bad input file: one line, not a trace
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
