"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 benchmarks/e2e/aa.py [--sets 2] [--runs 5] [--workload NAME ...]

Runs ``run.py`` untraced ``--runs`` times per set and workload, sets
interleaved (A B A B ...) so that a slow wave hits both, each run with
another seed.  For every end-to-end metric x workload it prints each
set's median and quartiles, each set's spread ((p75 - p25) / p50, which
the driver wants within the bound for everything but ``setup_s``), the
gap between the sets' medians (positive = the later set is worse) and
the bound.  Exits 1 when a gap or a spread exceeds its bound and writes
``results/AA.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import config  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not doc["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout[-2000:]}")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=5, help="runs per set (>= 3)")
    ap.add_argument("--seconds", type=float, default=config.RUN_SECONDS)
    ap.add_argument("--workload", nargs="*", default=list(config.WORKLOADS),
                    choices=list(config.WORKLOADS))
    args = ap.parse_args(argv)
    if args.runs < 3 or args.sets < 2:
        ap.error("need --runs >= 3 and --sets >= 2")

    values = {w: [{m: [] for m in config.END_TO_END_NAMES}
                  for _ in range(args.sets)] for w in args.workload}
    t0 = time.time()
    for r in range(args.runs):
        for s in range(args.sets):
            for w in args.workload:
                got = one_run(w, 1 + r, args.seconds)
                for m, v in got.items():
                    values[w][s][m].append(v)
                print(f"[{time.time() - t0:6.0f} s] run {r} set {'AB'[s % 2]}{s // 2 or ''} "
                      f"{w}: " + "  ".join(f"{m}={v:.4g}" for m, v in got.items()),
                      flush=True)

    rows, bad = [], []
    for w in args.workload:
        for name, _unit, better, bound in config.END_TO_END:
            sets = [statistics.quantiles(values[w][s][name], n=4)
                    for s in range(args.sets)]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in sets]
            first, last = sets[0][1], sets[-1][1]
            gap = (last - first) / first * (1 if better == "lower" else -1)
            row = {"workload": w, "metric": name, "bound": bound,
                   "sets": [{"p25": q1, "p50": q2, "p75": q3, "spread": sp,
                             "values": values[w][s][name]}
                            for s, ((q1, q2, q3), sp) in enumerate(zip(sets, spreads))],
                   "gap": gap}
            rows.append(row)
            if gap > bound:
                bad.append(f"{w}/{name}: gap {gap:+.1%} over bound {bound:.0%}")
            if name != "setup_s" and max(spreads) > bound:
                bad.append(f"{w}/{name}: spread {max(spreads):.1%} over bound {bound:.0%}")

    print(f"\n{'workload':<13}{'metric':<14}" + "".join(
        f"{'set ' + str(s) + ' p25/p50/p75':>34}{'spread':>8}" for s in range(args.sets))
        + f"{'gap':>8}{'bound':>7}")
    for row in rows:
        cells = "".join(
            f"{s['p25']:>12.5g}{s['p50']:>11.5g}{s['p75']:>11.5g}{s['spread']:>8.1%}"
            for s in row["sets"])
        print(f"{row['workload']:<13}{row['metric']:<14}{cells}"
              f"{row['gap']:>+8.1%}{row['bound']:>7.0%}")
    for line in bad:
        print("OVER: " + line)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "AA.json").write_text(json.dumps(
        {"runs": args.runs, "sets": args.sets, "seconds": args.seconds,
         "wall_s": time.time() - t0, "over": bad, "rows": rows}, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
