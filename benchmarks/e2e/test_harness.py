"""Self-tests of the benchmark harness: ``python -m pytest benchmarks/e2e``.

They check the harness's own arithmetic and invariants -- none of them
times the program, so they are quick and steady.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import calibrate
import config
import harness
import spans
import wl_cli_cold
import wl_serve_bursts

HERE = Path(__file__).resolve().parent


# -- calibration --------------------------------------------------------

def _wave_run(stride: int, n_ops: int = 40, op_s: float = 0.9, probe_s: float = 0.1):
    """A ``probe, op*stride, ...`` run on a host with a +-30 % slow wave."""
    def slowdown(t):  # 40 s period, like the waves seen on the host
        return 1.0 + 0.3 * math.sin(2 * math.pi * t / 40.0)

    t, probes, raw = 0.0, [], []

    def take(true_s):
        nonlocal t
        dt = true_s * slowdown(t + 0.5 * true_s)
        t += dt
        return dt

    probes.append(take(probe_s))
    for i in range(n_ops):
        raw.append(take(op_s))
        if (i + 1) % stride == 0:
            probes.append(take(probe_s))
    return raw, probes


def test_slow_wave_calibrates_to_within_3_percent():
    for stride in (1, 2):
        raw, probes = _wave_run(stride)
        assert max(raw) / min(raw) > 1.5  # the wave is really in the raw times
        cal = calibrate.calibrate_series(raw, probes, stride, ref_s=0.1)
        for t in cal:
            assert abs(t - 0.9) / 0.9 < 0.03
        assert abs(calibrate.percentile(cal, 50) - 0.9) / 0.9 < 0.01


def test_one_spiked_probe_does_not_move_its_neighbours():
    raw = [1.0] * 10
    probes = [0.1] * 11
    probes[5] = 0.35
    cal = calibrate.calibrate_series(raw, probes, 1, ref_s=0.1)
    assert all(abs(t - 1.0) < 1e-12 for t in cal)


def test_percentile():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert calibrate.percentile(xs, 0) == 1.0
    assert calibrate.percentile(xs, 100) == 4.0
    assert calibrate.percentile(xs, 50) == 2.5
    assert calibrate.percentile(xs, 25) == 1.75
    assert calibrate.percentile([7.0], 95) == 7.0
    assert calibrate.quartile_spread([1.0, 2.0, 3.0]) == 0.5


def test_pairing():
    probes = [1.0, 2.0, 4.0, 8.0]
    # reach 1: the mean of the two neighbours
    assert calibrate.bracket_factors(probes, 3, 1, 6.0, reach=1) == [4.0, 2.0, 1.0]
    # stride 2: samples 0,1 share a bracket, samples 2,3 the next
    f = calibrate.bracket_factors(probes, 4, 2, 6.0, reach=1)
    assert f == [4.0, 4.0, 2.0, 2.0]
    # reach 2: median of two probes on either side, one a side at the ends
    assert calibrate.bracket_factors(probes, 3, 1, 6.0) == [4.0, 2.0, 1.0]
    assert calibrate.bracket_factors(probes + [16.0], 4, 1, 6.0)[1:3] == [2.0, 1.0]
    try:
        calibrate.bracket_factors([1.0, 1.0], 3, 1, 1.0)
    except ValueError:
        pass
    else:
        raise AssertionError("too few probes must be refused")


def test_pooling_of_a_runs_processes():
    import run

    cfg = config.WORKLOADS["dos_blocked"]
    log = {"attempted": 2, "failed": 0, "min_digits": 15.0, "errors": []}
    parts = [
        {"log": log, "raw_s": [1.0, 3.0], "samples_s": [1.0, 3.0], "tails_s": None,
         "within": 2, "probes_s": [0.1, 0.1, 0.1], "probe_nbytes": 5, "peak_rss_mb": 10.0},
        {"log": dict(log, failed=1, min_digits=13.0, errors=["boom"]),
         "raw_s": [4.0], "samples_s": [2.0], "tails_s": None,
         "within": 1, "probes_s": [0.2, 0.2], "probe_nbytes": 5, "peak_rss_mb": 30.0},
    ]
    doc = run.pool(parts, cfg)
    assert doc["metrics"] == {"op_p50_s": 2.0, "slo_ok_share": 0.75, "peak_rss_mb": 30.0}
    assert doc["log"]["attempted"] == 4 and doc["log"]["failed"] == 1
    assert doc["log"]["min_digits"] == 13.0 and doc["log"]["errors"] == ["boom"]
    assert doc["summary"]["n"] == 3 and doc["summary"]["processes"] == 2
    # serve_bursts: samples are episode p50s; the tail is the median episode's p95
    for p, tails in zip(parts, ([5.0, 7.0], [9.0])):
        p["tails_s"] = tails
    assert run.pool(parts, cfg)["summary"]["cal_p95_s"] == 7.0
    # a run none of whose ops left a sample has no metrics (and is incorrect)
    empty = [dict(parts[0], raw_s=[], samples_s=[], within=0)]
    assert run.pool(empty, cfg)["metrics"] is None


def test_sensitivity_exponent():
    # probe 21 % slow: a workload of sensitivity 2 is taken to be 46 % slow
    f = calibrate.bracket_factors([1.21, 1.21], 1, 1, ref_s=1.0, sensitivity=2.0)
    assert abs(f[0] - 1 / 1.4641) < 1e-12
    assert abs(calibrate.factor(1.21, 1.21, 1.0, 0.5) - 1 / 1.1) < 1e-12
    assert calibrate.factor(0.5, 1.5, 1.0) == 1.0


# -- workload generation ------------------------------------------------

def test_schedule_is_a_pure_function_of_the_seed():
    cfg = config.WORKLOADS["serve_bursts"]
    a = wl_serve_bursts.make_schedule(cfg, 3, 120)
    assert a == wl_serve_bursts.make_schedule(cfg, 3, 120)
    assert a[:50] == wl_serve_bursts.make_schedule(cfg, 3, 50)  # prefix property
    assert a != wl_serve_bursts.make_schedule(cfg, 4, 120)


def test_schedule_mix():
    cfg = config.WORKLOADS["serve_bursts"]
    sched = wl_serve_bursts.make_schedule(cfg, 0, 400)
    assert all(len(b) == 8 for b in sched[1:]) and len(sched[0]) == 6
    fresh = [d["seed"] for b in sched for d in b if d["role"] == "fresh"]
    assert len(fresh) == len(set(fresh)) == 5 * 400  # fresh keys never repeat
    burst_of = {d["seed"]: i for i, b in enumerate(sched)
                for d in b if d["role"] == "fresh"}
    ages = [i - burst_of[d["seed"]] for i, b in enumerate(sched)
            for d in b if d["role"] in ("swap", "repeat")]
    assert min(ages) >= 1  # a repeat never refers to its own burst
    recent = sum(1 for a in ages if a <= cfg["recent_window"] // 5 + 1)
    assert 0.7 < recent / len(ages) < 0.9  # ~3 of 4 from the recent window
    for b in sched:
        assert [d["spec"] for d in b[:5]] == list(cfg["fresh_specs"])


# -- verification helpers -----------------------------------------------

def test_digits():
    assert harness.digits([1.0, 2.0], [1.0, 2.0]) == 17.0
    assert abs(harness.digits([1.0, 2.0 + 2e-10], [1.0, 2.0]) - 10.0) < 0.01
    assert harness.digits([1.0], [1.0, 2.0]) == 0.0
    assert harness.digits([float("nan")], [1.0]) == 0.0


def test_oplog_counts_low_digits_as_failed():
    log = harness.OpLog()
    log.ok(15.0)
    log.ok(config.MIN_DIGITS - 1)
    log.fail("boom")
    s = log.summary()
    assert (s["attempted"], s["failed"], s["succeeded"]) == (3, 2, 1)


def test_cli_table_parsing():
    out = ("matrix: 32,768 rows\nkernel backend: native\n"
           "DOS integral: 32,768.0 (N = 32,768)\n"
           "           E         rho(E)\n"
           "     -5.4848        0.41812\n"
           "      5.3982      1.2e-05\n")
    assert wl_cli_cold.parse_table(out) == [32768.0, -5.4848, 0.41812, 5.3982, 1.2e-05]


def test_closed_loop_brackets_and_failure_accounting():
    class Probe:
        name = "py"
        nbytes = 0

        def __call__(self):
            return config.PROBE_REF_S["py"]

    def op(i):
        if i == 2:
            raise RuntimeError("boom")
        return 17.0

    log = harness.OpLog()
    cfg = {"stride": 2, "min_ops": 6, "sensitivity": 1.0, "slo_s": 1.0}
    out = harness.closed_loop(op, Probe(), 0.0, cfg, log)
    assert log.attempted == 6 and log.failed == 1
    # the group holding the failed op is dropped whole: 2 groups remain
    assert len(out["raw_s"]) == len(out["samples_s"]) == 4
    assert len(out["probes_s"]) == 3 and out["within"] == 4


# -- spans --------------------------------------------------------------

def test_self_time_and_attribution():
    sp = [
        {"id": 0, "name": "op", "layer": "walk", "op": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "layer": "core", "op": 0, "parent": 0, "start": 1.0, "end": 7.0},
        {"id": 2, "name": "k", "layer": "backend", "op": 0, "parent": 1, "start": 2.0, "end": 4.0},
        {"id": 3, "name": "k", "layer": "backend", "op": 0, "parent": 1, "start": 4.0, "end": 6.0},
        {"id": 4, "name": "b", "layer": "cli", "op": 0, "parent": 0, "start": 7.0, "end": 9.0},
        {"id": 5, "name": "stray", "layer": "core", "op": 0, "parent": None, "start": 11.0, "end": 12.0},
    ]
    selfs = spans.self_times(sp)
    assert selfs[0] == 2.0 and selfs[1] == 2.0 and selfs[2] == 2.0
    layers, wall = spans.layer_self_times(sp, "op")
    assert wall == 10.0
    assert layers == {"core": 2.0, "backend": 4.0, "cli": 2.0}  # stray is out of scope


def test_recorder_nests_and_writes(tmp_path):
    rec = spans.SpanRecorder()
    rec.op_id = 7
    with rec.span("outer", "core"):
        with rec.span("inner", "backend"):
            pass
    assert rec.spans[1]["parent"] == 0 and rec.spans[0]["parent"] is None
    assert all(s["op"] == 7 and s["end"] >= s["start"] for s in rec.spans)
    path = tmp_path / "t.jsonl"
    rec.write_jsonl(path)
    assert [json.loads(line)["name"] for line in path.read_text().splitlines()] == \
        ["outer", "inner"]


# -- the manifest -------------------------------------------------------

def test_manifest_matches_config_and_contract():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert doc == config.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= doc["run_seconds"] <= 60
    # 4 + 22 x workloads runs must fit the driver's 3420 s with room to spare
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 12) < 3420
