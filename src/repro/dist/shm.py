"""POSIX shared memory for the multiprocess KPM engine: one resident,
nameless arena per world.

The :mod:`repro.dist.mp` engine moves block vectors between real OS
processes through a ``multiprocessing.shared_memory`` segment instead of
pickled pipe messages.  Each world owns one segment (an
:class:`ShmArena`) for its whole life; every run carves its named arrays
out of it at fixed offsets (:func:`layout` on the parent, :func:`carve`
on both sides), so a halo "transfer" is a plain array copy into a window
every rank has mapped, with no serialization and no per-run allocation.

The segment's *name* is the only thing that can leak: the parent
``shm_unlink``\\ s it as soon as every worker has mapped it, so
``/dev/shm`` holds no entry during or between runs and a killed parent
leaves nothing behind — the memory itself lives exactly as long as the
last process mapping it.  The arena grows (a new, larger segment, mapped
and unlinked the same way) only when a run needs larger shapes, and
between runs the parent drops its own page mappings (:meth:`ShmArena.evict`).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: Byte alignment of every carved array (one cache line, as the kernels'
#: own allocations).
_ALIGN = 64


@dataclass(frozen=True)
class ShmSpec:
    """Picklable placement of one shared array inside the arena."""

    offset: int
    shape: tuple[int, ...]
    dtype: str  # numpy dtype string, e.g. '<c16'

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def layout(arrays: dict) -> tuple[dict[str, ShmSpec], int]:
    """Place ``{key: (shape, dtype)}`` back to back; returns (specs, bytes)."""
    specs, offset = {}, 0
    for key, (shape, dtype) in arrays.items():
        spec = ShmSpec(offset, tuple(int(s) for s in shape), np.dtype(dtype).str)
        specs[key] = spec
        offset += -(-spec.nbytes // _ALIGN) * _ALIGN
    return specs, offset


def carve(buf, specs: dict[str, ShmSpec]) -> dict[str, np.ndarray]:
    """NumPy views of ``specs`` onto a mapped segment's buffer."""
    return {
        key: np.ndarray(s.shape, dtype=s.dtype, buffer=buf, offset=s.offset)
        for key, s in specs.items()
    }


class ShmArena:
    """Parent-side owner of one world's resident segment.

    :meth:`reserve` makes the segment at least ``nbytes`` long — a no-op
    when it already is, else a new segment whose name it returns for the
    workers to map; :meth:`unlink` then removes the name (the mapping
    stays valid in every process that holds it).
    """

    def __init__(self) -> None:
        self._seg: shared_memory.SharedMemory | None = None
        self._linked = False

    @property
    def buf(self):
        return self._seg.buf

    @property
    def name(self) -> str:
        return self._seg.name

    def reserve(self, nbytes: int) -> str | None:
        if self._seg is not None and self._seg.size >= nbytes:
            return None
        self.close()
        self._seg = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        self._linked = True
        return self._seg.name

    def evict(self) -> None:
        """Drop this process's page mappings of the segment.

        On a shared mapping ``MADV_DONTNEED`` frees nothing — the pages
        live on in the segment and the workers' mappings, and the next
        touch here faults them back — it only stops a parked world's
        arena from counting in this process's resident set.
        """
        mm = getattr(self._seg, "_mmap", None)
        if mm is not None and hasattr(mmap, "MADV_DONTNEED"):
            mm.madvise(mmap.MADV_DONTNEED)

    def unlink(self) -> None:
        if self._linked:
            self._linked = False
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Unlink (if still named) and unmap; views must be dead by now."""
        if self._seg is None:
            return
        self.unlink()
        try:
            self._seg.close()
        except OSError:  # pragma: no cover - platform quirk
            pass
        self._seg = None


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with this OS name still exists.

    Leak-check helper for tests: call it on names expected to be dead
    (attaching a dead name fails before any tracker registration, so the
    probe is side-effect free in that case).
    """
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    seg.close()
    return True
