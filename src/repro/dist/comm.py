"""In-process SPMD communication simulator with message logging.

:class:`SimWorld` plays the role of ``MPI_COMM_WORLD``: it owns per-rank
device labels and a :class:`MessageLog`. Point-to-point transfers and
collectives are executed as immediate array copies (the simulator is
sequential, so no deadlock semantics are needed), while every transfer is
recorded with source, destination, byte count, and phase tag so the
network cost model can price an execution after the fact.
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


def log_allreduce(log: MessageLog, n_ranks: int, nbytes: int, phase: str) -> None:
    """Charge one allreduce to ``log`` as recursive-doubling stages.

    Shared by :class:`SimWorld` and the multiprocess engine's accounting
    shim (:mod:`repro.dist.mp`), so a real shared-memory reduction is
    priced identically to the simulated one: 2 log2(P) stages, one
    buffer-sized message per participating rank per stage.
    """
    if n_ranks <= 1:
        return
    stages = max(int(np.ceil(np.log2(n_ranks))), 1)
    for stage in range(stages):
        for rank in range(n_ranks):
            partner = rank ^ (1 << stage)
            if partner < n_ranks and partner != rank:
                log.add(rank, partner, nbytes, phase)


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
        #: the state of the most recent run's latest checkpoint (a
        #: ``KpmCheckpoint``; None when it did not checkpoint)
        self.last_checkpoint = None

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, data: np.ndarray, phase: str) -> np.ndarray:
        """Point-to-point transfer; returns the received array (a copy)."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise SimulationError(f"rank {src} attempted to send to itself")
        data = np.asarray(data)
        self.log.add(src, dst, data.nbytes, phase)
        return data.copy()

    def allreduce_sum(
        self, contributions: list[np.ndarray], phase: str = "allreduce"
    ) -> np.ndarray:
        """Global sum over per-rank arrays; every rank receives the result.

        Logged as the 2 log2(P) message stages of a recursive-doubling
        allreduce (the cost model prices latency separately; here we log
        the volume each rank moves: one buffer per stage).
        """
        if len(contributions) != self.n_ranks:
            raise SimulationError(
                f"allreduce needs one contribution per rank "
                f"({self.n_ranks}), got {len(contributions)}"
            )
        arrays = [np.asarray(c) for c in contributions]
        shape = arrays[0].shape
        for a in arrays[1:]:
            if a.shape != shape:
                raise SimulationError("allreduce contributions differ in shape")
        total = np.sum(arrays, axis=0)
        log_allreduce(self.log, self.n_ranks, arrays[0].nbytes, phase)
        return total

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise SimulationError(
                f"rank {rank} outside communicator of size {self.n_ranks}"
            )

    def __repr__(self) -> str:
        return f"SimWorld(n_ranks={self.n_ranks}, devices={self.devices})"
