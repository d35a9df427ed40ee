"""Workload ``cli_cold``: one fresh ``python -m repro dos`` per op.

One op is spawn -> exit of ``python -m repro dos --nx 32 --nz 8
--moments 128 --vectors 8 --backend native --seed S`` with a warm
``.so`` cache, its stdout parsed and compared with the table an
in-process NumPy-backend solve prints.  Interpreter start, imports,
assembly, Lanczos and the ``.so`` load are ~75 % of it; the CSR R = 8
kernel ~25 %.  Closed loop, one client.  Set-up is measured by the
parent: the same command against an *empty* kernel cache (the gcc build).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import calibrate
import config
import harness
from spans import SpanRecorder, layer_self_times



def cli_command(cfg: dict, seed: int) -> list[str]:
    return [sys.executable, "-m", "repro", "dos",
            "--nx", str(cfg["nx"]), "--nz", str(cfg["nz"]),
            "--moments", str(cfg["moments"]), "--vectors", str(cfg["vectors"]),
            "--backend", "native", "--seed", str(seed)]


def setup(cfg: dict, seed: int) -> dict:
    # the op is a process of its own; the harness process sets nothing up
    return {"cfg": cfg, "seed": seed, "setup_layers": {}}


def parse_table(stdout: str) -> list[float]:
    """The numbers of the CLI's ``E  rho(E)`` table, plus the DOS integral."""
    vals: list[float] = []
    in_table = False
    for line in stdout.splitlines():
        if line.startswith("DOS integral:"):
            vals.append(float(line.split(":")[1].split("(")[0].replace(",", "")))
        elif line.split() == ["E", "rho(E)"]:
            in_table = True
        elif in_table:
            parts = line.split()
            if len(parts) != 2:
                break
            vals.extend(float(p) for p in parts)
    return vals


def _reference_table(cfg: dict, seed: int) -> list[float]:
    """What the CLI must print, from an in-process NumPy-backend solve."""
    from repro import KPMSolver, build_topological_insulator
    from repro.core.reconstruct import integrate_density

    H, _ = build_topological_insulator(cfg["nx"], cfg["ny"], cfg["nz"])
    dos = KPMSolver(H, cfg["moments"], cfg["vectors"], seed=seed,
                    backend="numpy").dos()
    lines = [f"DOS integral: {integrate_density(dos.energies, dos.rho):,.1f} (N)",
             f"{'E':>12} {'rho(E)':>14}"]
    step = max(len(dos.energies) // 24, 1)  # the CLI's default --points
    for e, r in zip(dos.energies[::step], dos.rho[::step]):
        lines.append(f"{e:>12.4f} {r:>14.5g}")
    return parse_table("\n".join(lines))


def run_cli(cmd: list[str], timeout: float = config.OP_TIMEOUT_S):
    """Run one CLI process; returns (stdout, exit status, peak RSS MiB).

    The child is reaped with ``os.wait4`` so that its own ``ru_maxrss``
    is read (``RUSAGE_CHILDREN`` would mix in the probe's interpreter).
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    with harness.op_deadline(timeout):
        try:
            stdout = proc.stdout.read()
            _pid, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            proc.stdout.close()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return stdout, proc.returncode, ru.ru_maxrss / 1024.0


def run(state: dict, seconds: float) -> dict:
    cfg, seed = state["cfg"], state["seed"]
    ref = _reference_table(cfg, seed)
    probe = calibrate.make_probe(cfg["probe"])
    cmd = cli_command(cfg, seed)
    peak = [0.0]

    def op(i):
        stdout, code, rss = run_cli(cmd)
        if code != 0:
            raise RuntimeError(f"CLI exited {code}")
        peak[0] = max(peak[0], rss)
        return harness.digits(parse_table(stdout), ref)

    op(0)  # warm the page cache for the interpreter, the packages and the .so
    out = harness.closed_loop(op, probe, seconds, cfg, harness.OpLog(),
                              config.MIN_DIGITS_TABLE)
    out["peak_rss_mb"] = peak[0]  # the CLI's, not this harness process's
    return out


# ---------------------------------------------------------------------
# traced layer walk
# ---------------------------------------------------------------------

_LOAD_CODE = (
    "import json, time\n"
    "from repro.sparse.backend import get_backend\n"
    "t0 = time.perf_counter()\n"
    "ok = get_backend('native').available()\n"
    "print(json.dumps({'load': time.perf_counter() - t0, 'ok': ok}))\n"
)


def _walk_process(rec: SpanRecorder, cfg: dict, seed: int) -> list[float]:
    """One traced op: ``cli_walk.py`` in a fresh process, spans merged in."""
    import json

    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_walk.py")
    with rec.span("op", "walk") as root:
        out = subprocess.run(
            [sys.executable, script, repr(time.perf_counter()),
             str(cfg["nx"]), str(cfg["ny"]), str(cfg["nz"]),
             str(cfg["moments"]), str(cfg["vectors"]), str(seed)],
            check=True, capture_output=True, text=True,
            timeout=config.OP_TIMEOUT_S)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    base = len(rec.spans)
    doc["spans"].append({"id": len(doc["spans"]), "name": "interpreter exit",
                         "layer": "python", "parent": None,
                         "start": doc["t_done"], "end": root["end"]})
    for sp in doc["spans"]:  # re-number under this op's root span
        sp["id"] += base
        sp["parent"] = root["id"] if sp["parent"] is None else sp["parent"] + base
        sp["op"] = rec.op_id
        rec.spans.append(sp)
    return parse_table(doc["table"])


def walk(state: dict, seconds: float) -> dict:
    import shutil
    import tempfile

    from repro import build_topological_insulator
    from repro.core.scaling import lanczos_scale
    from repro.perf.report import expected_counters

    cfg, seed = state["cfg"], state["seed"]
    m, r = cfg["moments"], cfg["vectors"]
    ref = _reference_table(cfg, seed)
    probe = calibrate.make_probe(cfg["probe"])
    ref_s, sens = config.PROBE_REF_S[probe.name], cfg["sensitivity"]
    log = harness.OpLog()
    rec = SpanRecorder()
    cmd = cli_command(cfg, seed)

    # interleaved cycles: probe, untraced op, walk op (both fresh processes)
    probes = [probe()]
    plain, factors = [], {}
    t_start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - t_start < 0.4 * seconds:
        t0 = time.perf_counter()
        stdout, code, _rss = run_cli(cmd)
        plain.append(time.perf_counter() - t0)
        if code != 0:
            log.fail(f"CLI exited {code}")
        else:
            log.ok(harness.digits(parse_table(stdout), ref), config.MIN_DIGITS_TABLE)
        rec.op_id = k
        log.ok(harness.digits(_walk_process(rec, cfg, seed), ref),
               config.MIN_DIGITS_TABLE)
        probes.append(probe())
        factors[k] = calibrate.factor(probes[-2], probes[-1], ref_s, sens)
        k += 1
    plain_cal = [t * factors[i] for i, t in enumerate(plain)]
    med = harness.span_medians(rec, factors)
    layers, wall = layer_self_times(rec.spans, "op")

    # cold compile: the same .so load against an empty kernel cache
    cold_dir = tempfile.mkdtemp(prefix="cold-", dir=os.environ["BENCH_TMP"])
    try:
        env = dict(os.environ, REPRO_NATIVE_CACHE=cold_dir)
        cold = harness.fresh_process(_LOAD_CODE, env=env)
    finally:
        shutil.rmtree(cold_dir, ignore_errors=True)
    warm = harness.fresh_process(_LOAD_CODE)
    probes.append(probe())
    f_compile = calibrate.factor(probes[-2], probes[-1], ref_s, sens)
    if not (cold["ok"] and warm["ok"]):
        log.fail("native backend unavailable")

    H, _ = build_topological_insulator(cfg["nx"], cfg["ny"], cfg["nz"])
    flops = expected_counters(H, m, r).flops

    out = harness.shared_metrics(log, probe, probes, layers, wall)
    out.update(_obs_overheads(H, lanczos_scale(H, seed=seed), m, r, seed))
    out.update({
        "trace.overhead": med["op"] / harness.median(plain_cal),
        "cli.unattributed_share": 1.0 - sum(layers.values()) / wall,
        "physics.build_s": med["build_topological_insulator"],
        "physics.build_mrows_per_s":
            H.n_rows / med["build_topological_insulator"] / 1e6,
        "backend.compile_s": (cold["load"] - warm["load"]) * f_compile,
        "backend.load_s": med["get_backend"],
        "backend.plan_s": med["plan"],
        "backend.aug_spmmv_r8_csr_gflops":
            flops / (med["spmmv"] + med["aug_spmmv_step"]) / 1e9,
        "core.scale_first_s": med["lanczos_scale"],
        "core.start_block_s": med["make_block_vector"],
        "core.eta_s": med["solve"] - med["make_block_vector"]
            - med["reconstruct_dos"] - med["eta_to_moments"],
        "core.reconstruct_s": med["reconstruct_dos"],
        "cli.interp_s": med["interpreter"],
        "cli.numpy_scipy_import_s": med["import numpy, scipy.sparse"],
        "cli.import_s": med["import repro.cli"],
    })
    info = {"walk_ops": k, "layer_self_s": layers, "op_wall_s": wall}
    return {"log": log, "metrics": out, "recorder": rec, "info": info}


def _obs_overheads(H, scale, m: int, r: int, seed: int) -> dict:
    """``KPMSolver.dos`` with a live registry / JSONL trace over the null one."""
    import tempfile

    from repro import KPMSolver
    from repro.obs import MetricsRegistry, Trace

    def solve(**kw):
        t0 = time.perf_counter()
        KPMSolver(H, m, r, scale=scale, seed=seed, backend="native", **kw).dos()
        return time.perf_counter() - t0

    times = {"null": [], "metrics": [], "trace": []}
    with tempfile.TemporaryDirectory(dir=os.environ["BENCH_TMP"]) as tmp:
        for i in range(5):  # interleaved so a slow wave hits all three alike
            times["null"].append(solve())
            times["metrics"].append(solve(metrics=MetricsRegistry()))
            trace = Trace(os.path.join(tmp, f"t{i}.jsonl"))
            times["trace"].append(solve(metrics=MetricsRegistry(trace=trace)))
            trace.close()
    null = harness.median(times["null"])
    return {"obs.metrics_on_overhead": harness.median(times["metrics"]) / null,
            "obs.trace_on_overhead": harness.median(times["trace"]) / null}
