"""Child-side helpers shared by the four workloads.

A workload module provides ``setup(cfg, seed)`` (everything up to READY,
including one untimed warm-up op), ``run(state, seconds)`` (the timed,
untraced phase) and ``walk(state, seconds)`` (the traced layer walk).
This module holds what they share: the bracketed closed loop, result
comparison, op time-outs, and leak / memory accounting.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import time
from contextlib import contextmanager

import calibrate
import config


@contextmanager
def op_deadline(seconds: float = config.OP_TIMEOUT_S):
    """Raise TimeoutError in the main thread when an op overruns."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"op exceeded {seconds:.0f}s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def digits(value, reference) -> float:
    """-log10(max abs deviation / max abs reference); 17 when bitwise equal."""
    import numpy as np

    value, reference = np.asarray(value), np.asarray(reference)
    if value.shape != reference.shape or not np.all(np.isfinite(value)):
        return 0.0
    dev = float(np.max(np.abs(value - reference)))
    if dev == 0.0:
        return 17.0
    scale = float(np.max(np.abs(reference))) or 1.0
    return max(0.0, min(17.0, -math.log10(dev / scale)))


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def peak_rss_mib(children: bool = False) -> float:
    """``ru_maxrss`` of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def cpu_seconds_tree() -> float:
    """user + sys CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class OpLog:
    """Attempted / failed accounting with the minimum verified digits."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.min_digits = 17.0
        self.errors: list[str] = []

    def ok(self, result_digits: float | None = None,
           floor: float = config.MIN_DIGITS) -> None:
        self.attempted += 1
        if result_digits is not None:
            self.check(result_digits, floor)

    def check(self, result_digits: float, floor: float = config.MIN_DIGITS,
              track: bool = True) -> None:
        """Verify an op already counted; too few digits make it a failure.

        ``track=False`` keeps a check with a floor of its own (a
        spectrum next to moments) out of the reported ``min_digits``.
        """
        if track:
            self.min_digits = min(self.min_digits, result_digits)
        if result_digits < floor:
            self.fail_last(f"only {result_digits:.1f} digits (floor {floor:.0f})")

    def fail_last(self, why: str) -> None:
        """Count an op already recorded as attempted as failed after all."""
        self.add(0, 1, why)

    def fail(self, why: str) -> None:
        self.add(1, 1, why)

    def add(self, attempted: int, failed: int, why: str = "") -> None:
        """Account for a batch of ops at once (an episode of requests)."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 10:
            self.errors.append(why)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "succeeded": self.attempted - self.failed,
                "min_digits": self.min_digits, "errors": self.errors}


def closed_loop(op, probe, seconds: float, cfg: dict, log: OpLog,
                floor: float = config.MIN_DIGITS) -> dict:
    """Run ``probe, op*stride, probe, ...`` for about ``seconds`` seconds.

    ``op(i)`` runs op number ``i`` and returns its verified digits (or
    raises).  Returns this process's part of the run (see :func:`part`).
    An op that raised is counted as failed and leaves no time sample.
    """
    ref = config.PROBE_REF_S[probe.name]
    stride, min_ops = cfg["stride"], cfg["min_ops"]
    probes = [probe()]
    raw: list[float] = []
    t_start = time.perf_counter()
    i = 0
    while True:
        group = []
        for _ in range(stride):
            t0 = time.perf_counter()
            try:
                with op_deadline():
                    d = op(i)
            except Exception as exc:  # noqa: BLE001 - an op failure is a data point
                log.fail(f"op {i}: {type(exc).__name__}: {exc}")
            else:
                group.append(time.perf_counter() - t0)
                log.ok(d, floor)
            i += 1
        # a group with a failed op is dropped whole (and takes no probe)
        # so that sample k still sits between probes k // stride and
        # k // stride + 1; the run is reported incorrect anyway
        if len(group) == stride:
            raw.extend(group)
            probes.append(probe())
        elapsed = time.perf_counter() - t_start
        cycle = elapsed / max(i // stride, 1)
        if i >= min_ops and elapsed + 0.5 * cycle > seconds:
            break
        if log.failed >= 3 and not raw:
            break  # nothing works; do not burn the whole budget
    cal = calibrate.calibrate_series(raw, probes, stride, ref, cfg["sensitivity"])
    return part(log, raw, cal, None, sum(1 for t in cal if t <= cfg["slo_s"]),
                probes, probe)


def part(log: OpLog, raw, samples, tails, within: int, probes, probe,
         **extra) -> dict:
    """One process's share of an untraced run, as ``run.py`` pools it.

    ``samples`` are calibrated seconds (one per op; one per episode, its
    p50, on ``serve_bursts``), ``raw`` the same uncalibrated, ``tails``
    each episode's calibrated p95 (None on the closed loops, whose p95
    is taken over the pooled ops), ``within`` the ops inside the limit.
    """
    return {"log": log, "raw_s": list(raw), "samples_s": list(samples),
            "tails_s": tails, "within": within, "probes_s": list(probes),
            "probe_nbytes": probe.nbytes, "peak_rss_mb": peak_rss_mib(),
            "extra": extra}


def cached_reference(tag: str, seed: int, compute):
    """The reference result, shared by a run's processes through a file.

    ``run.py`` empties ``BENCH_TMP`` before and after every run, so the
    file never outlives the code that wrote it.
    """
    import numpy as np

    path = os.path.join(os.environ["BENCH_TMP"], f"ref-{tag}-{seed}.npy")
    if os.path.exists(path):
        return np.load(path)
    ref = np.asarray(compute())
    tmp = f"{path}.{os.getpid()}.npy"
    np.save(tmp, ref)
    os.replace(tmp, path)
    return ref


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# -- pieces shared by the layer walks -----------------------------------

def kernel_rate(step, probe, sensitivity: float, calls: int = 20) -> float:
    """Calibrated median seconds per call of ``step()`` over ``calls`` calls."""
    ref = config.PROBE_REF_S[probe.name]
    step()  # first call touches fresh buffers
    p0 = probe()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    p1 = probe()
    return statistics.median(times) * calibrate.factor(p0, p1, ref, sensitivity)


def span_medians(rec, factors) -> dict[str, float]:
    """Calibrated per-op median total of each span name.

    ``factors[k]`` calibrates walk op ``k``; a name's value for an op is
    the *sum* of its spans in that op (63 kernel calls add up).
    """
    per_op: dict[str, dict[int, float]] = {}
    for s in rec.spans:
        if s["end"] is None or s["op"] not in factors:
            continue
        per_op.setdefault(s["name"], {}).setdefault(s["op"], 0.0)
        per_op[s["name"]][s["op"]] += (s["end"] - s["start"]) * factors[s["op"]]
    return {name: statistics.median(v.values()) for name, v in per_op.items()}


def shared_metrics(log: OpLog, probe, probes, layers: dict, wall: float) -> dict:
    """The per-layer rows every walk reports the same way.

    ``probes`` is the walk's own probe series; the two probes the
    workload does not use are sampled here, three times each.
    """
    series = {name: [calibrate.make_probe(name)() for _ in range(3)]
              for name in calibrate.PROBES if name != probe.name}
    series[probe.name] = probes
    out = {f"host.probe_{name}_s": median(v) for name, v in series.items()}
    out.update({
        "host.probe_spread": calibrate.quartile_spread(probes),
        "trace.attributed_share": sum(layers.values()) / wall,
        "verify.result_digits": log.min_digits,
        "verify.ok_share": (log.attempted - log.failed) / max(log.attempted, 1),
    })
    return out


def fresh_process(code: str, env=None, timeout: float = 120.0) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    import json
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=timeout)
    return json.loads(out.stdout.strip().splitlines()[-1])
