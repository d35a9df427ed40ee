"""Communication-computation overlap: interior/boundary row splitting.

The classic halo-hiding technique (and the natural companion of the
paper's pipelining outlook): rows whose matrix entries reference only
local columns — the *interior* — can be multiplied while the halo
exchange is in flight; only the *boundary* rows must wait for remote
data.  :func:`task_split` computes the split the task-mode engines run:
the interior is the largest **contiguous** run of halo-free 64-row eta
blocks, the boundary the rows before and after it — every phase a row
range, so each reduces whole blocks.  Both kernel backends run it
as the two phases of ``KernelBackend._phase`` (``aug_spmmv_split_step``
runs both): their one augmented walk over each range, whose result is
bitwise the plain fused step's.

The benefit appears in the time model: per iteration, the exposed
communication shrinks from ``t_halo`` to ``max(0, t_halo - t_interior)``
(:func:`exposed_communication_time`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.halo import RankBlock
from repro.sparse.fused import ETA_BLOCK
from repro.util.knobs import OVERLAP_CHOICES, resolve_overlap  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class TaskSplit:
    """Execution-level interior/boundary split of one rank's local matrix.

    ``[row0, row1)`` is the largest *contiguous* run of whole halo-free
    64-row eta blocks; the boundary is every other local row, the ranges
    ``[0, row0)`` and ``[row1, n_rows)``.  Halo-free rows outside that
    run are deliberately boundary: they could run early, but a
    contiguous interior of whole blocks keeps the hot phase a single
    streaming pass and each phase's eta bins whole (the loss is small on
    banded partitions, where the halo-touching rows cluster at the block
    edges).

    ``nnz_interior`` / ``nnz_boundary`` drive the overlap time model
    with the *same* split the kernels execute, so the model's hidden
    fraction and the measured one are comparable.  ``n_cols`` is the
    local+halo column count of the rank's matrix — the analytic charge
    model (:func:`repro.perf.report.expected_counters`) needs it to
    price this rank's index stream under a narrow precision profile
    (uint16 iff ``n_cols`` fits).
    """

    row0: int
    row1: int
    n_rows: int
    nnz_interior: int
    nnz_boundary: int
    n_cols: int = 0

    @property
    def n_interior(self) -> int:
        return self.row1 - self.row0

    @property
    def n_boundary(self) -> int:
        return self.n_rows - self.n_interior

    @property
    def interior_fraction(self) -> float:
        """Interior share of the local compute, weighted by nnz.

        The split kernels stream matrix slots, so nnz (not rows) is the
        proxy for phase-1 compute time in
        :func:`exposed_communication_time`.
        """
        total = self.nnz_interior + self.nnz_boundary
        return self.nnz_interior / total if total else 1.0


def task_split(block: RankBlock) -> TaskSplit:
    """Compute the execution split the task-mode engines run.

    Interior = the largest contiguous run of 64-row eta blocks whose
    entries reference only local columns (``< n_local``); boundary =
    the rows before and after it.  Degenerate blocks are handled: no
    halo at all yields an all-interior split (empty boundary), a block
    with a halo column in every eta block an empty interior
    (``row0 == row1``).
    """
    mat = block.matrix
    n_local = block.n_local
    rows = np.repeat(np.arange(mat.n_rows), mat.nnz_per_row)
    touches_halo = np.zeros(mat.n_rows, dtype=bool)
    np.logical_or.at(
        touches_halo, rows, mat.indices.astype(np.int64) >= n_local
    )
    starts = np.arange(0, mat.n_rows, ETA_BLOCK)
    free = ~np.logical_or.reduceat(touches_halo, starts) if starts.size \
        else np.zeros(0, dtype=bool)
    # longest run of True in ``free`` (blocks): diff of the padded mask
    # gives the run starts (+1) and stops (-1)
    row0 = row1 = 0
    if free.any():
        edges = np.diff(np.concatenate(([False], free, [False])).astype(np.int8))
        b0 = np.nonzero(edges == 1)[0]
        b1 = np.nonzero(edges == -1)[0]
        k = int(np.argmax(b1 - b0))
        row0 = int(b0[k]) * ETA_BLOCK
        row1 = min(int(b1[k]) * ETA_BLOCK, mat.n_rows)
    nnz_interior = int(mat.indptr[row1] - mat.indptr[row0])
    return TaskSplit(
        row0=row0, row1=row1, n_rows=mat.n_rows,
        nnz_interior=nnz_interior,
        nnz_boundary=int(mat.nnz - nnz_interior),
        n_cols=mat.n_cols,
    )


def exposed_communication_time(
    t_halo: float, t_compute: float, interior_fraction: float
) -> float:
    """Per-iteration communication left exposed after overlap.

    The interior share of the compute hides the exchange; only the
    remainder is visible:
    ``max(0, t_halo - interior_fraction * t_compute)``.
    """
    if not 0.0 <= interior_fraction <= 1.0:
        raise ValueError(
            f"interior_fraction must be in [0, 1], got {interior_fraction}"
        )
    if t_halo < 0 or t_compute < 0:
        raise ValueError("times must be non-negative")
    return max(0.0, t_halo - interior_fraction * t_compute)
