"""One workload in one fresh process: set up, report READY, wait, measure.

``run.py`` starts this as ``python child.py --workload W --seed S
--seconds T --trace 0|1``.  The child sets the workload up (including
one untimed warm-up op), prints ``@READY {json}`` and blocks on stdin:
``go`` makes it measure and print ``@RESULT {json}``; anything else (or
EOF) makes it exit, which is how the parent takes set-up samples.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(config.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=config.RUN_SECONDS)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    cfg = config.WORKLOADS[args.workload]
    mod = importlib.import_module(f"wl_{args.workload}")
    state = mod.setup(cfg, args.seed)
    print("@READY " + json.dumps({"setup_layers": state["setup_layers"]}),
          flush=True)
    if sys.stdin.readline().strip() != "go":
        getattr(mod, "teardown", lambda s: None)(state)
        return 0

    if args.trace:
        res = mod.walk(state, args.seconds)
        trace_path = os.path.join(os.environ["BENCH_RESULTS"],
                                  f"trace_{args.workload}.jsonl")
        res["recorder"].write_jsonl(trace_path)
        # every name on every traced run: 0 where this workload's walk
        # does not exercise the layer
        metrics = dict.fromkeys(config.PER_LAYER_NAMES, 0.0) | res["metrics"]
        doc = {"metrics": metrics, "info": res["info"],
               "trace_file": trace_path, "spans": len(res["recorder"].spans)}
    else:
        res = doc = mod.run(state, args.seconds)
    doc["log"] = res["log"].summary()
    print("@RESULT " + json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
