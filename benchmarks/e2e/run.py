"""End-to-end + per-layer benchmark of the repo (see README.md here).

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed S]
                                  [--seconds T] [--trace [0|1]] [--quick]

Runs the named workload (default: all four) in fresh child processes,
verifies every result, prints every metric by name with its unit and,
as the last line of stdout, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of an untraced run
(``--trace 0``) or the per-layer metrics of a traced one (``--trace
1``).  ``--workload all`` also writes ``results/BENCH_e2e.json``.  Exits
non-zero when any op failed or went unverified.

This parent imports nothing from ``repro``: it spawns ``child.py``,
times its way to READY (set-up samples, bracketed by ``proc`` probes)
and collects the numbers the child measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import config  # noqa: E402

ROOT = HERE.parent.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
RESULTS = HERE / "results"

#: a run must end within the contract's 180 s; the watchdog fires before
RUN_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # everything the program or the harness writes stays in the checkout
    env["REPRO_NATIVE_CACHE"] = str(CACHE / "native")
    env["BENCH_TMP"] = str(CACHE / "tmp")
    env["BENCH_RESULTS"] = str(RESULTS)
    env["TMPDIR"] = str(CACHE / "tmp")
    return env


def ensure_native(env: dict) -> float:
    """Build the C kernels once per source version; returns seconds spent.

    A stamp of the backend's sources sits next to the cached ``.so`` so
    that a set-up sample never pays a compile by accident.
    """
    backend = SRC / "repro" / "sparse" / "backend"
    digest = hashlib.sha256()
    for name in ("_kernels.c", "native.py"):
        digest.update((backend / name).read_bytes())
    stamp = CACHE / "native" / "built.stamp"
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return 0.0
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "from repro.sparse.backend import get_backend; get_backend('native')"],
        env=env, check=True, timeout=600)
    stamp.write_text(digest.hexdigest())
    return time.perf_counter() - t0


class Child:
    """A ``child.py`` process: READY, then ``go`` or dismissal."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int,
                 env: dict) -> None:
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        self._watchdog = threading.Timer(RUN_TIMEOUT_S, self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _read(self, tag: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
            sys.stderr.write(line)
        raise RuntimeError(f"child ended before {tag} "
                           f"(exit {self.proc.wait()})")

    def ready(self) -> tuple[float, dict]:
        """Seconds from spawn to READY, and what the child reported."""
        doc = self._read("@READY")
        return time.perf_counter() - self.t_spawn, doc

    def go(self) -> dict:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        doc = self._read("@RESULT")
        self.close()
        return doc

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self._watchdog.cancel()
        self.proc.stdout.close()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()


def cold_cli_seconds(seed: int, env: dict, warm: bool) -> float:
    """cli_cold's set-up: the CLI command against an empty kernel cache."""
    import wl_cli_cold

    cmd = wl_cli_cold.cli_command(config.WORKLOADS["cli_cold"], seed)
    cold_dir = tempfile.mkdtemp(prefix="cold-", dir=env["BENCH_TMP"])
    try:
        cold_env = env if warm else dict(env, REPRO_NATIVE_CACHE=cold_dir)
        t0 = time.perf_counter()
        subprocess.run(cmd, env=cold_env, check=True, stdout=subprocess.DEVNULL,
                       timeout=RUN_TIMEOUT_S)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(cold_dir, ignore_errors=True)


def run_untraced(name: str, seed: int, seconds: float, quick: bool,
                 env: dict) -> dict:
    """Set-up samples and timed ops, both spread over fresh processes.

    Each of the ``setup_samples`` child processes is timed to READY
    between two ``proc`` probes and then runs its share of ``seconds``:
    fresh processes of the same code differ from one another by a few
    per cent (page placement), and pooling their ops takes that out of
    the run's median at no cost in time.
    """
    cfg = config.WORKLOADS[name]
    k = 1 if quick else cfg["setup_samples"]
    probe = calibrate.make_probe("proc")
    ref_s = config.PROBE_REF_S["proc"]
    setup = {"samples": k, "raw_s": [], "cal_s": [], "probe_proc_s": [],
             "layers": [], "cold_compile": name == "cli_cold" and not quick}
    parts = []
    for _ in range(k):
        before = probe()
        if name == "cli_cold":  # its set-up is the CLI's first run ever
            raw = cold_cli_seconds(seed, env, warm=quick)
            child = Child(name, seed, seconds / k, 0, env)
            child.ready()
        else:
            child = Child(name, seed, seconds / k, 0, env)
            raw, doc = child.ready()
            setup["layers"].append(doc["setup_layers"])
        after = probe()
        setup["raw_s"].append(raw)
        setup["cal_s"].append(raw * calibrate.factor(before, after, ref_s))
        setup["probe_proc_s"] += [before, after]
        parts.append(child.go())
    doc = pool(parts, cfg)
    doc["setup"] = setup
    if doc["metrics"] is not None:
        doc["metrics"]["setup_s"] = statistics.median(setup["cal_s"])
    return doc


def pool(parts: list[dict], cfg: dict) -> dict:
    """One run's numbers from the parts its processes measured."""
    samples = [t for p in parts for t in p["samples_s"]]
    raw = [t for p in parts for t in p["raw_s"]]
    probes = [t for p in parts for t in p["probes_s"]]
    log = {"attempted": sum(p["log"]["attempted"] for p in parts),
           "failed": sum(p["log"]["failed"] for p in parts),
           "min_digits": min(p["log"]["min_digits"] for p in parts),
           "errors": [e for p in parts for e in p["log"]["errors"]][:10]}
    log["succeeded"] = log["attempted"] - log["failed"]
    doc = {"metrics": None, "summary": None, "log": log, "parts": parts,
           "probe": {"name": cfg["probe"], "n": len(probes),
                     "p50_s": statistics.median(probes),
                     "ref_s": config.PROBE_REF_S[cfg["probe"]],
                     "nbytes": max(p["probe_nbytes"] for p in parts)}}
    if not samples:
        return doc
    if parts[0]["tails_s"] is None:  # closed loop: the pooled ops' own p95
        p95 = calibrate.percentile(samples, 95)
    else:  # serve_bursts: the median episode, like the p50
        p95 = statistics.median(t for p in parts for t in p["tails_s"])
    doc["summary"] = dict(calibrate.summarize(raw, samples), cal_p95_s=p95,
                          processes=len(parts))
    doc["metrics"] = {
        "op_p50_s": statistics.median(samples),
        # failed ops left no sample and so miss the limit
        "slo_ok_share": sum(p["within"] for p in parts) / max(log["attempted"], 1),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    return doc


def run_traced(name: str, seed: int, seconds: float, env: dict) -> dict:
    child = Child(name, seed, seconds, 1, env)
    child.ready()
    return child.go()


def host_info() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(5):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        if read(f"{base}/size"):
            caches[f"L{read(f'{base}/level')}{(read(f'{base}/type') or '')[:1]}"] = \
                read(f"{base}/size")
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10
                             ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "caches": caches, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "probe_ref_s": config.PROBE_REF_S}


def print_report(name: str, doc: dict, names: list[str], header: str) -> None:
    log = doc["log"]
    print(f"== {name}: {header} ==")
    print(f"   attempted {log['attempted']}  succeeded {log['succeeded']}  "
          f"failed {log['failed']}  min result digits {log['min_digits']:.1f}")
    for err in log["errors"]:
        print(f"   ! {err}")
    metrics = doc["metrics"] or {}
    for n in names:
        v = metrics.get(n)
        shown = "missing" if v is None else f"{v:.6g}"
        print(f"   {n:<42} {shown:>12} {config.UNITS[n]}")
    if doc.get("summary"):
        s, p = doc["summary"], doc["probe"]
        print(f"   samples: n={s['n']} from {s['processes']} process(es)  "
              f"raw p25/p50/p75 = {s['raw_p25_s']:.4g}/"
              f"{s['raw_p50_s']:.4g}/{s['raw_p75_s']:.4g} s  calibrated = "
              f"{s['cal_p25_s']:.4g}/{s['cal_p50_s']:.4g}/{s['cal_p75_s']:.4g} s, "
              f"p95 {s['cal_p95_s']:.4g} s")
        print(f"   probe {p['name']}: n={p['n']}  p50 {p['p50_s']:.4g} s "
              f"(ref {p['ref_s']} s)  buffers {p['nbytes'] / 2**20:.1f} MiB")
    if doc.get("setup"):
        st = doc["setup"]
        raw = " ".join(f"{t:.3f}" for t in st["raw_s"])
        print(f"   set-up: {st['samples']} fresh-process sample(s), raw {raw} s, "
              f"proc probe p50 {statistics.median(st['probe_proc_s']):.3f} s"
              + ("" if st["cold_compile"] or name != "cli_cold"
                 else "  (quick: warm kernel cache)"))
    if doc.get("info"):
        print(f"   info: {json.dumps(doc['info'])}")


def final_line(doc: dict, names: list[str]) -> tuple[str, bool]:
    log, metrics = doc["log"], doc["metrics"] or {}
    complete = all(metrics.get(n) is not None for n in names)
    correct = complete and log["failed"] == 0 and log["attempted"] >= 1
    return json.dumps({
        "correct": correct, "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": {n: {"value": metrics[n], "unit": config.UNITS[n]}
                    for n in names if metrics.get(n) is not None},
    }), correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*config.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=config.RUN_SECONDS)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: 3 ops / 2 episodes, one set-up sample")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seconds = 0.0 if args.quick else args.seconds
    env = child_env()
    shutil.rmtree(CACHE / "tmp", ignore_errors=True)
    for d in (CACHE / "native", CACHE / "tmp", RESULTS):
        d.mkdir(parents=True, exist_ok=True)
    built = ensure_native(env)
    if built:
        print(f"built the native kernels in {built:.1f} s", file=sys.stderr)

    names = list(config.WORKLOADS) if args.workload == "all" else [args.workload]
    record = {"host": host_info(), "seed": args.seed, "seconds": seconds,
              "quick": args.quick, "workloads": {}}
    all_correct, last = True, ""
    try:
        for name in names:
            entry = {}
            if not args.trace or args.workload == "all":
                doc = run_untraced(name, args.seed, seconds, args.quick, env)
                print_report(name, doc, config.END_TO_END_NAMES,
                             f"end to end, seed {args.seed}")
                last, ok = final_line(doc, config.END_TO_END_NAMES)
                all_correct &= ok
                entry["end_to_end"] = doc
            if args.trace:
                doc = run_traced(name, args.seed, seconds, env)
                print_report(name, doc, config.PER_LAYER_NAMES,
                             f"per layer (traced), seed {args.seed}")
                last, ok = final_line(doc, config.PER_LAYER_NAMES)
                all_correct &= ok
                entry["per_layer"] = doc
            record["workloads"][name] = entry
    finally:
        shutil.rmtree(CACHE / "tmp", ignore_errors=True)
    if args.workload == "all":
        (RESULTS / "BENCH_e2e.json").write_text(json.dumps(record, indent=1) + "\n")
        last = json.dumps({"correct": all_correct,
                           "results": str(RESULTS / "BENCH_e2e.json")})
    print(last)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
