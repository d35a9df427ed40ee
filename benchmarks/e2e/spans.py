"""In-memory span recorder for the traced layer walks.

The benchmark measures every layer from outside: a walk wraps each call
into a public function of the program in ``with rec.span(name, layer)``.
Spans nest through a stack, carry the id of the op they belong to, stay
in memory while the walk runs and are written as JSON lines when the
workload ends.  A span's *self time* is its duration minus the part of
it covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str, layer: str):
        idx = len(self.spans)
        rec = {"id": idx, "name": name, "layer": layer, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> dict[int, float]:
    """Self time (duration minus child durations) of every closed span."""
    out = {s["id"]: s["end"] - s["start"] for s in spans if s["end"] is not None}
    for s in spans:
        if s["end"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_self_times(spans, root_name: str) -> tuple[dict[str, float], float]:
    """Per-layer self time under the spans named ``root_name``.

    Returns ``(layer -> seconds, root wall seconds)``.  The root's own
    self time is the *unattributed* remainder and is not in the dict, so
    ``sum(layers) / wall`` is the attributed share.
    """
    selfs = self_times(spans)
    roots = {s["id"] for s in spans if s["name"] == root_name and s["end"] is not None}
    wall = sum(s["end"] - s["start"] for s in spans if s["id"] in roots)
    # a span is in scope when its ancestor chain reaches a root
    in_scope: dict[int, bool] = {}
    layers: dict[str, float] = defaultdict(float)
    for s in spans:  # parents precede children in recording order
        if s["end"] is None:
            continue
        if s["id"] in roots:
            in_scope[s["id"]] = True
            continue
        in_scope[s["id"]] = in_scope.get(s["parent"], False)
        if in_scope[s["id"]]:
            layers[s["layer"]] += selfs[s["id"]]
    return dict(layers), wall
