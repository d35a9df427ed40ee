"""In-process SPMD world and the message log.

:class:`SimWorld` plays the role of ``MPI_COMM_WORLD``: it owns per-rank
device labels and a :class:`MessageLog`.  Its ranks run the one rank
program (:mod:`repro.core.recurrence`) in lock-step in this process; every
rank records each transfer it makes — source, destination, byte count,
phase tag — so the network cost model can price an execution after the
fact, on this world or on the multiprocess one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import SimulationError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MessageRecord:
    """One logged transfer."""

    src: int
    dst: int
    nbytes: int
    phase: str


@dataclass
class MessageLog:
    """Ordered log of all simulated communication.

    The byte totals are maintained incrementally in :meth:`add` — a
    distributed run logs one record per message, and recomputing the
    totals by walking the whole log made every query O(messages).
    """

    records: list[MessageRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Rebuild the accumulators for logs constructed with pre-seeded
        # records (the dataclass field is part of the public signature).
        self._total_bytes = sum(r.nbytes for r in self.records)
        self._by_phase: dict[str, int] = {}
        for r in self.records:
            self._by_phase[r.phase] = self._by_phase.get(r.phase, 0) + r.nbytes

    def add(self, src: int, dst: int, nbytes: int, phase: str) -> None:
        nbytes = int(nbytes)
        self.records.append(MessageRecord(src, dst, nbytes, phase))
        self._total_bytes += nbytes
        self._by_phase[phase] = self._by_phase.get(phase, 0) + nbytes

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    @property
    def n_messages(self) -> int:
        return len(self.records)

    def bytes_by_phase(self) -> dict[str, int]:
        return dict(self._by_phase)

    def bytes_by_rank(self, n_ranks: int) -> np.ndarray:
        """Outgoing bytes per source rank (collectives attributed to src)."""
        out = np.zeros(n_ranks, dtype=np.int64)
        for r in self.records:
            if 0 <= r.src < n_ranks:
                out[r.src] += r.nbytes
        return out

    def clear(self) -> None:
        self.records.clear()
        self._total_bytes = 0
        self._by_phase = {}


class SimWorld:
    """A simulated communicator of ``n_ranks`` processes.

    ``devices`` optionally labels each rank (``'cpu'`` / ``'gpu'``); GPU
    ranks stage their communication buffers over PCI Express (paper
    Section VI-A), which the network model prices separately using these
    labels.
    """

    def __init__(self, n_ranks: int, devices: list[str] | None = None) -> None:
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        if devices is None:
            devices = ["cpu"] * self.n_ranks
        if len(devices) != self.n_ranks:
            raise SimulationError(
                f"need one device label per rank ({self.n_ranks}), "
                f"got {len(devices)}"
            )
        for d in devices:
            if d not in ("cpu", "gpu"):
                raise SimulationError(f"unknown device label {d!r}")
        self.devices = list(devices)
        self.log = MessageLog()

    def __repr__(self) -> str:
        return f"SimWorld(n_ranks={self.n_ranks}, devices={self.devices})"
