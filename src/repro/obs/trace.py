"""JSONL span tracing for KPM runs.

One :class:`Trace` owns one append-only JSONL file; each record is a
single closed span (or point event) as a flat JSON object.  The schema
is deliberately minimal and self-describing:

========  ==========================================================
field     meaning
========  ==========================================================
``name``  span name — the kernel or phase (``"aug_spmmv"``,
          ``"halo_exchange"``, ``"checkpoint_save"``, ...)
``dt``    wall-clock duration in seconds
``ts``    absolute wall-clock epoch seconds at record emission
``phase`` optional grouping tag (``"bootstrap"``, ``"moments"``,
          ``"reduce"``, ...)
``bytes`` optional: minimum traffic charged inside the span
``flops`` optional: flops charged inside the span
(rest)    free-form metadata passed by the instrumentation site
========  ==========================================================

The emitter never buffers more than one line, so a crashed run leaves a
readable trace up to the failure point. :func:`read_trace` parses a file
back into the list of records; :func:`aggregate_spans` folds them into
per-name totals (count, wall time, bytes, flops) — the shape the report
tool prints.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Trace:
    """Append-only JSONL span emitter (context manager).

    Parameters
    ----------
    path:
        Output file; truncated on open (one trace file per run).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.n_records = 0

    def emit(self, record: dict) -> None:
        """Write one record (a flat JSON-serializable dict) as one line."""
        record = dict(record)
        record.setdefault("ts", time.time())
        self._fh.write(json.dumps(record, separators=(",", ":"), default=float))
        self._fh.write("\n")
        self._fh.flush()
        self.n_records += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryTrace(list):
    """A trace kept as its list of records: what an mp worker's sink
    writes, and ships to the parent inside its snapshot."""

    def emit(self, record: dict) -> None:
        self.append({**record, "ts": record.get("ts", time.time())})


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file back into its list of span records."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def aggregate_spans(records: list[dict]) -> dict[str, dict]:
    """Fold span records into per-name totals.

    Returns ``{name: {"count", "seconds", "bytes", "flops"}}`` with
    bytes/flops present only when at least one span carried them.
    """
    agg: dict[str, dict] = {}
    for rec in records:
        name = rec.get("name", "?")
        entry = agg.setdefault(
            name, {"count": 0, "seconds": 0.0, "bytes": 0, "flops": 0}
        )
        entry["count"] += 1
        entry["seconds"] += float(rec.get("dt", 0.0))
        entry["bytes"] += int(rec.get("bytes", 0))
        entry["flops"] += int(rec.get("flops", 0))
    return agg
