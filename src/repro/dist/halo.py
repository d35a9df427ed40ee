"""Halo (communication-pattern) extraction from a partitioned matrix.

For the data-parallel SpMMV each rank owns a contiguous row block of the
matrix and the corresponding block-vector rows. Off-block matrix columns
reference vector rows owned by other ranks; before each multiplication
those *halo* rows must be received (and, symmetrically, the locally owned
rows that others reference must be sent). This module computes that
pattern once from the sparsity structure — exactly what GHOST's setup
phase does — and rewrites each rank's local matrix to use
``[local | halo]`` column indexing so the kernels run unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dist.partition import RowPartition
from repro.sparse.csr import CSRMatrix
from repro.util.errors import PartitionError


@dataclass
class CommPattern:
    """Per-rank-pair transfer lists for one halo exchange.

    ``send_rows[(p, q)]`` — *local* row indices (within rank p's block)
    that p sends to q, in the order q stores them in its halo. The number
    of vector rows moved per exchange is ``len(send_rows[(p, q)])``;
    multiply by ``R * S_d`` for bytes at block width R.
    """

    send_rows: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def neighbors_of(self, rank: int) -> list[int]:
        """Ranks that ``rank`` sends to (symmetric patterns: also receives)."""
        return sorted({q for (p, q) in self.send_rows if p == rank})

    def rows_sent(self, rank: int) -> int:
        return sum(
            v.size for (p, _q), v in self.send_rows.items() if p == rank
        )

    def total_rows_exchanged(self) -> int:
        return sum(v.size for v in self.send_rows.values())

    def bytes_per_exchange(self, r: int, s_d: int = 16) -> int:
        """Total bytes moved in one halo exchange at block width R."""
        return self.total_rows_exchanged() * r * s_d


@dataclass
class RankBlock:
    """One rank's share of the distributed matrix.

    ``matrix`` has ``n_local`` rows and ``n_local + n_halo`` columns;
    columns ``>= n_local`` address the halo, grouped by source rank in
    ascending rank order (``halo_sources``/``halo_counts`` describe the
    layout; ``halo_global`` holds the original global indices).
    """

    rank: int
    row_start: int
    row_stop: int
    matrix: CSRMatrix
    halo_global: np.ndarray
    halo_sources: np.ndarray
    halo_counts: np.ndarray

    @property
    def n_local(self) -> int:
        return self.row_stop - self.row_start

    @property
    def n_halo(self) -> int:
        return int(self.halo_global.size)


@dataclass
class DistributedMatrix:
    """A CSR matrix split into rank blocks plus the halo pattern."""

    partition: RowPartition
    blocks: list[RankBlock]
    pattern: CommPattern
    n_global: int

    @property
    def n_ranks(self) -> int:
        return self.partition.n_ranks


#: Partitions memoised per matrix: the elastic driver's rebalances move
#: one operator through a few partitions, a server keeps one.
_MEMO_SIZE = 4


def partition_matrix(A: CSRMatrix, partition: RowPartition) -> DistributedMatrix:
    """Split ``A`` row-wise and derive the halo communication pattern.

    Memoised on ``A`` per partition (matrices are immutable by
    convention, as for ``_kernel_pack_cache``): every solve on the same
    operator and partition shares one :class:`DistributedMatrix`, so an
    mp world ships each rank block to its worker once.  The shared
    arrays are read-only.  A hit whose rank blocks were swapped since —
    :mod:`repro.dist.tune` formats them as per-rank SELL in place — is
    rebuilt.
    """
    if A.n_rows != A.n_cols:
        raise PartitionError("distributed KPM requires a square matrix")
    if partition.n_rows != A.n_rows:
        raise PartitionError(
            f"partition covers {partition.n_rows} rows, matrix has {A.n_rows}"
        )
    memo = getattr(A, "_partition_cache", None)
    if memo is None:
        memo = A._partition_cache = {}
    key = tuple(partition.offsets)
    hit = memo.pop(key, None)
    if hit is None or any(
        blk.matrix is not m for blk, m in zip(hit[0].blocks, hit[1])
    ):
        dist = _split(A, partition)
        hit = (dist, [blk.matrix for blk in dist.blocks])
    memo[key] = hit  # most recently used last
    while len(memo) > _MEMO_SIZE:
        memo.pop(next(iter(memo)))
    return hit[0]


def _split(A: CSRMatrix, partition: RowPartition) -> DistributedMatrix:
    n_ranks = partition.n_ranks
    offsets = np.asarray(partition.offsets, dtype=np.int64)

    blocks: list[RankBlock] = []
    pattern = CommPattern()
    for rank in range(n_ranks):
        lo, hi = partition.bounds(rank)
        a, z = int(A.indptr[lo]), int(A.indptr[hi])
        cols = A.indices[a:z]
        halo_global = np.unique(cols[(cols < lo) | (cols >= hi)]).astype(
            np.int64)
        owners = partition.owner_of(halo_global) if halo_global.size else np.empty(0, dtype=np.int64)
        # group halo slots by source rank (unique() already sorts globally,
        # and contiguous blocks mean sort-by-global == sort-by-(owner, global))
        halo_sources, halo_counts = (
            np.unique(owners, return_counts=True)
            if owners.size
            else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        # column remap: local rows -> [0, n_local), halo -> n_local + pos
        # (every column is one or the other); one copy of the values
        mapping = np.empty(A.n_cols, dtype=A.indices.dtype)
        mapping[lo:hi] = np.arange(hi - lo)
        mapping[halo_global] = (hi - lo) + np.arange(halo_global.size)
        remapped = CSRMatrix(A.indptr[lo:hi + 1] - a, mapping[cols],
                             A.data[a:z].copy(),
                             (hi - lo, (hi - lo) + halo_global.size))
        blocks.append(
            RankBlock(
                rank=rank, row_start=lo, row_stop=hi, matrix=remapped,
                halo_global=halo_global, halo_sources=halo_sources,
                halo_counts=halo_counts,
            )
        )
        # record the symmetric send lists: source rank p sends to this rank
        start = 0
        for p, cnt in zip(halo_sources.tolist(), halo_counts.tolist()):
            globals_from_p = halo_global[start : start + cnt]
            start += cnt
            pattern.send_rows[(p, rank)] = (
                globals_from_p - offsets[p]
            ).astype(np.int64)
    for blk in blocks:
        m = blk.matrix
        for arr in (m.indptr, m.indices, m.data, blk.halo_global,
                    blk.halo_sources, blk.halo_counts):
            arr.flags.writeable = False
    for rows in pattern.send_rows.values():
        rows.flags.writeable = False
    return DistributedMatrix(
        partition=partition, blocks=blocks, pattern=pattern, n_global=A.n_rows
    )
