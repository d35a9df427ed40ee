"""Communication-computation overlap: interior/boundary row splitting.

The classic halo-hiding technique (and the natural companion of the
paper's pipelining outlook): rows whose matrix entries reference only
local columns — the *interior* — can be multiplied while the halo
exchange is in flight; only the *boundary* rows must wait for remote
data.  :func:`task_split` computes the split the task-mode engines run:
the interior is the largest **contiguous** run of halo-free rows (so the
split kernels index the original local matrix in place, no extraction),
everything else is a gathered boundary row list.  Both kernel backends
consume it through their ``aug_spm(m)v_interior`` / ``..._boundary``
split kernels, whose result is bitwise the plain fused step's.

The benefit appears in the time model: per iteration, the exposed
communication shrinks from ``t_halo`` to ``max(0, t_halo - t_interior)``
(:func:`exposed_communication_time`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.halo import RankBlock
from repro.util.knobs import OVERLAP_CHOICES, resolve_overlap  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class TaskSplit:
    """Execution-level interior/boundary split of one rank's local matrix.

    ``[row0, row1)`` is the largest *contiguous* run of halo-free rows —
    the split kernels traverse it on the original local matrix with
    absolute indexing — and ``boundary`` gathers every other local row
    (sorted ascending).  Halo-free rows that fall outside the
    contiguous run are deliberately classified as boundary: they could
    run early, but a contiguous interior keeps the hot phase a single
    streaming pass (and the loss is small on banded partitions, where
    the halo-touching rows cluster at the block edges).

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
    boundary: np.ndarray
    n_rows: int
    nnz_interior: int
    nnz_boundary: int
    n_cols: int = 0

    @property
    def n_interior(self) -> int:
        return self.row1 - self.row0

    @property
    def n_boundary(self) -> int:
        return int(self.boundary.size)

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

    Interior = the largest contiguous run of rows whose entries reference
    only local columns (``< n_local``); boundary = every other row,
    gathered sorted.  Degenerate blocks are handled: no halo at all
    yields an all-interior split (empty boundary), an all-halo block an
    empty interior (``row0 == row1``).
    """
    mat = block.matrix
    n_local = block.n_local
    rows = np.repeat(np.arange(mat.n_rows), mat.nnz_per_row)
    touches_halo = np.zeros(mat.n_rows, dtype=bool)
    np.logical_or.at(
        touches_halo, rows, mat.indices.astype(np.int64) >= n_local
    )
    free = ~touches_halo
    # longest run of True in ``free``: diff of the padded mask gives the
    # run starts (+1) and stops (-1)
    row0 = row1 = 0
    if free.any():
        edges = np.diff(np.concatenate(([False], free, [False])).astype(np.int8))
        starts = np.nonzero(edges == 1)[0]
        stops = np.nonzero(edges == -1)[0]
        k = int(np.argmax(stops - starts))
        row0, row1 = int(starts[k]), int(stops[k])
    in_interior = np.zeros(mat.n_rows, dtype=bool)
    in_interior[row0:row1] = True
    boundary = np.nonzero(~in_interior)[0].astype(np.int64)
    per_row = mat.nnz_per_row
    nnz_interior = int(per_row[row0:row1].sum())
    return TaskSplit(
        row0=row0, row1=row1, boundary=boundary, n_rows=mat.n_rows,
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
