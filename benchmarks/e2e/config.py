"""Constants of the end-to-end benchmark: sizes, probe references, metrics.

Everything a later PR must not change to claim a gain lives here.  The
probe references were fixed from 5.5 minutes of interleaved probing on
the host described in README.md ("Noise floor"); they only set the unit
of calibrated seconds (seconds of *this host at its typical speed*), so
a different host reads different absolute values but the same ratios.
"""

from __future__ import annotations

#: median probe time on the reference host (see module docstring)
PROBE_REF_S = {"spmm": 0.103, "py": 0.032, "proc": 0.450}

#: default ``--seconds`` (BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 16
#: per-op timeout; an op over it counts as failed
OP_TIMEOUT_S = 60.0
#: a verified op must agree with its reference to this many digits: on
#: the moments where the answer carries them; on the spectrum (whose
#: 1/sqrt(1-x^2) edge factor amplifies rounding ~100x) for LDOS answers,
#: which carry none; on the 5-significant-digit table the CLI prints
MIN_DIGITS = 12.0
MIN_DIGITS_SPECTRUM = 10.0
MIN_DIGITS_TABLE = 4.0

# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------
# ``probe``: calibration probe matched to the workload's bottleneck.
# ``sensitivity``: when the probe slows by x the workload slows by
#   x ** sensitivity (README, "Noise floor": the SELL solve suffers more
#   from the neighbours than SciPy's SpMM does, the serve path and the mp
#   solve -- sleeps, waits, two processes -- less than their probes).
# ``stride``: timed ops between two probes (closed-loop workloads).
# ``setup_samples``: fresh-process set-up samples per run (the cold
#   compile of cli_cold takes ~10 s, so the run-time cap leaves one).
# ``slo_s``: calibrated latency limit behind ``slo_ok_share``
#   (~1.4 x the p95 measured when the benchmark was defined).
# ``min_ops``: ops (episodes for serve_bursts) run even when
#   ``--seconds`` is shorter than that takes.

WORKLOADS = {
    "dos_blocked": {
        "why": "KPMSolver.dos on SELL-32-1 TI 32x32x8, M=128, R=32, native: the "
               "kernel layer does >=95% of the work (1 spmmv + 63 aug_spmmv_step); "
               "the plain single-threaded baseline",
        "probe": "spmm", "sensitivity": 1.5, "stride": 1, "setup_samples": 3,
        "slo_s": 2.0,
        "min_ops": 3,
        "nx": 32, "ny": 32, "nz": 8, "moments": 128, "vectors": 32,
        "chunk": 32, "sigma": 1,
    },
    "cli_cold": {
        "why": "fresh `python -m repro dos` per op (CSR, R=8): imports, assembly, "
               "Lanczos and .so load are ~75% of the work, the kernel ~25%; what "
               "lazy imports or faster set-up move and dos_blocked does not",
        "probe": "proc", "sensitivity": 1.0, "stride": 2, "setup_samples": 1,
        "slo_s": 2.6,
        "min_ops": 3,
        "nx": 32, "ny": 32, "nz": 8, "moments": 128, "vectors": 8,
    },
    "serve_bursts": {
        "why": "open loop, 8 requests every 50 ms through a threaded KPMServer on a "
               "1,024-row operator: keys, queue, coalescing and both caches (hits, "
               "evicted repeats, fresh keys) are ~40% of service time",
        "probe": "py", "sensitivity": 0.75, "stride": 1, "setup_samples": 3,
        "slo_s": 0.040,
        "min_ops": 2,
        "nx": 8, "ny": 8, "nz": 4, "moments": 128,
        "mass_b": 0.8, "fresh_specs": "AABBB", "max_width": 8, "linger": 0.005,
        "burst_period_s": 0.050, "bursts_per_episode": 40,
        # the warm-up fills the 256-entry MomentCache (6 new keys a burst)
        "warmup_bursts": 45, "warmup_period_s": 0.020,
        "recent_window": 64, "verify_every": 64,
    },
    "mp_ckpt": {
        "why": "KPMSolver.dos on 2 mp workers with 3 checkpoint saves per solve "
               "(M=512, R=8, CSR): repro.dist, core.checkpoint and repro.resil do "
               "half the work; the kernel layer runs as per-rank split kernels",
        "probe": "spmm", "sensitivity": 0.5, "stride": 1, "setup_samples": 3,
        "slo_s": 2.3,
        "min_ops": 3,
        "nx": 32, "ny": 32, "nz": 8, "moments": 512, "vectors": 8,
        "workers": 2, "checkpoint_every": 64,
    },
}

# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------
# End-to-end: (name, unit, better, bound).  ``bound`` is the share of
# the parent's median by which the metric may worsen before it counts
# as a regression, and the limit two sets of runs of the same code must
# agree within (aa.py).  All four are emitted by every workload.

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("slo_ok_share", "share", "higher", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

# Per-layer: (name, unit, better, moves).  ``moves`` names the
# end-to-end metric and workload the number should move (README has the
# same map as a table).  Every traced run prints every name; a metric
# reads 0 on a workload whose layer walk does not exercise it.

PER_LAYER = [
    # host / harness -- explain noise, move nothing
    ("host.probe_spmm_s", "s", "lower", "explains noise"),
    ("host.probe_py_s", "s", "lower", "explains noise"),
    ("host.probe_proc_s", "s", "lower", "explains noise"),
    ("host.probe_spread", "share", "lower", "explains noise"),
    ("host.triad_gbs", "GB/s", "higher", "denominator of the roofline share"),
    ("trace.overhead", "ratio", "lower", "cost of the walk's spans"),
    ("trace.attributed_share", "share", "higher", "walk completeness"),
    ("verify.result_digits", "digits", "higher", "correctness of every workload"),
    ("verify.ok_share", "share", "higher", "correctness of every workload"),
    # physics
    ("physics.build_s", "s", "lower", "setup_s dos_blocked/mp_ckpt; op_p50_s cli_cold"),
    ("physics.build_mrows_per_s", "Mrow/s", "higher", "same as physics.build_s"),
    # sparse
    ("sparse.sell_convert_s", "s", "lower", "setup_s dos_blocked"),
    ("sparse.sell_fill", "ratio", "lower", "op_p50_s dos_blocked (padding is streamed)"),
    ("sparse.kernel_pack_s", "s", "lower", "setup_s dos_blocked (fp32 profiles)"),
    # backend
    ("backend.compile_s", "s", "lower", "setup_s cli_cold"),
    ("backend.load_s", "s", "lower", "op_p50_s cli_cold; setup_s others"),
    ("backend.plan_s", "s", "lower", "op_p50_s dos_blocked"),
    ("backend.aug_spmmv_r32_s", "s", "lower", "op_p50_s dos_blocked (~64 x per call)"),
    ("backend.aug_spmmv_r32_gflops", "Gflop/s", "higher", "op_p50_s dos_blocked"),
    ("backend.aug_spmmv_r32_gbs", "GB/s", "higher", "op_p50_s dos_blocked"),
    ("backend.aug_spmmv_r32_bytes_per_flop", "B/flop", "lower", "op_p50_s dos_blocked"),
    ("backend.aug_spmmv_r32_mem_roofline_frac", "share", "higher", "op_p50_s dos_blocked"),
    ("backend.aug_spmmv_r8_csr_gflops", "Gflop/s", "higher", "op_p50_s cli_cold, serve_bursts"),
    ("backend.split_r8_gflops", "Gflop/s", "higher", "op_p50_s mp_ckpt"),
    ("backend.aug_spmv_r1_gbs", "GB/s", "higher", "none gated (stage-1 engine)"),
    ("backend.naive_r1_gbs", "GB/s", "higher", "none gated (stage-0 engine)"),
    ("backend.aug_spmmv_r32_fp32_gflops", "Gflop/s", "higher", "none gated (fp32 profile)"),
    ("backend.aug_spmmv_r32_fp16v_gflops", "Gflop/s", "higher", "none gated (fp16v profile)"),
    ("backend.aug_spmmv_r32_simd_off_gflops", "Gflop/s", "higher", "none gated (scalar twin)"),
    ("backend.aug_spmmv_r32_threads2_gflops", "Gflop/s", "higher", "none gated (threads=2)"),
    ("backend.aug_spmmv_r32_numpy_gflops", "Gflop/s", "higher", "none gated (reference)"),
    ("backend.model_residual_bytes", "B", "lower", "must be 0: measured == Eq. 5"),
    # core
    ("core.scale_s", "s", "lower", "op_p50_s cli_cold; setup_s others"),
    ("core.scale_first_s", "s", "lower", "op_p50_s cli_cold; setup_s others"),
    ("core.start_block_s", "s", "lower", "op_p50_s dos_blocked, mp_ckpt"),
    ("core.eta_s", "s", "lower", "op_p50_s dos_blocked"),
    ("core.eta_self_s", "s", "lower", "op_p50_s serve_bursts more than dos_blocked"),
    ("core.reconstruct_s", "s", "lower", "op_p50_s all (small)"),
    ("core.solver_overhead_s", "s", "lower", "op_p50_s dos_blocked"),
    ("core.checkpoint_save_s", "s", "lower", "op_p50_s mp_ckpt (x3 per op)"),
    ("core.checkpoint_load_s", "s", "lower", "none gated (resume path)"),
    ("core.checkpoint_mb", "MB", "lower", "op_p50_s mp_ckpt"),
    # dist
    ("dist.partition_s", "s", "lower", "op_p50_s mp_ckpt"),
    ("dist.mp_spawn_s", "s", "lower", "op_p50_s mp_ckpt"),
    ("dist.sim2_over_serial", "ratio", "lower", "none gated (sim engine)"),
    ("dist.mp1_over_serial", "ratio", "lower", "op_p50_s mp_ckpt (engine overhead)"),
    ("dist.mp2_over_serial", "ratio", "lower", "op_p50_s mp_ckpt"),
    ("dist.overlap_on_over_off", "ratio", "lower", "op_p50_s mp_ckpt (overlap is on)"),
    ("dist.elastic_over_plain", "ratio", "lower", "none gated (elastic stays out of the ops)"),
    ("dist.halo_bytes_per_iter", "B", "lower", "op_p50_s mp_ckpt"),
    ("dist.messages_per_iter", "count", "lower", "op_p50_s mp_ckpt"),
    ("dist.halo_wait_share", "share", "lower", "op_p50_s mp_ckpt"),
    ("dist.cpu_s_per_op", "s", "lower", "op_p50_s mp_ckpt"),
    # resil
    ("resil.supervisor_overhead_s", "s", "lower", "op_p50_s mp_ckpt"),
    ("resil.attempts_per_op", "count", "lower", "op_p50_s, correctness mp_ckpt"),
    ("resil.resumed_ops", "count", "lower", "must be 0 (stale-checkpoint trap)"),
    # serve
    ("serve.key_us", "us", "lower", "op_p50_s serve_bursts"),
    ("serve.submit_us", "us", "lower", "op_p50_s serve_bursts"),
    ("serve.hit_us", "us", "lower", "op_p50_s serve_bursts (hits)"),
    ("serve.spectra_hit_us", "us", "lower", "op_p50_s serve_bursts (exact repeats)"),
    ("serve.plan_us", "us", "lower", "op_p50_s serve_bursts"),
    ("serve.batch_ms", "ms", "lower", "op_p50_s, op_p95_s serve_bursts"),
    ("serve.fulfill_us", "us", "lower", "op_p50_s serve_bursts"),
    ("serve.overhead_share", "share", "lower", "op_p50_s serve_bursts"),
    ("serve.batch_width_mean", "count", "higher", "op_p50_s serve_bursts"),
    ("serve.cache_hit_share", "share", "higher", "op_p50_s serve_bursts"),
    ("serve.spectra_hit_share", "share", "higher", "op_p50_s serve_bursts"),
    ("serve.dedup_share", "share", "higher", "op_p50_s serve_bursts"),
    ("serve.evictions_per_s", "1/s", "lower", "op_p95_s serve_bursts (evicted repeats)"),
    ("serve.bytes_per_request", "B", "lower", "op_p50_s serve_bursts"),
    ("serve.busy_share", "share", "lower", "slo_ok_share serve_bursts"),
    ("serve.op_p95_s", "s", "lower", "none gated (10-16% spread run to run)"),
    ("serve.op_p99_s", "s", "lower", "none gated (17% spread)"),
    ("serve.gen_late_p95_ms", "ms", "lower", "explains noise (generator lateness)"),
    ("serve.max_ok_rate_rps", "req/s", "higher", "slo_ok_share serve_bursts"),
    # cli / obs
    ("cli.interp_s", "s", "lower", "op_p50_s cli_cold"),
    ("cli.numpy_scipy_import_s", "s", "lower", "op_p50_s cli_cold (not ours)"),
    ("cli.import_s", "s", "lower", "op_p50_s cli_cold"),
    ("cli.unattributed_share", "share", "lower", "walk completeness cli_cold"),
    ("obs.metrics_on_overhead", "ratio", "lower", "ROADMAP 5 budget (< 1.02)"),
    ("obs.trace_on_overhead", "ratio", "lower", "ROADMAP 5 budget (< 1.02)"),
]

END_TO_END_NAMES = [m[0] for m in END_TO_END]
PER_LAYER_NAMES = [m[0] for m in PER_LAYER]
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The content of BENCHMARK.json (test_harness.py checks they agree)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
