"""Compressed Row Storage (CRS/CSR) built from scratch.

The paper stores the topological-insulator Hamiltonian in CRS for the
SpMMV-based kernels (Section IV-A: "the CRS format (similar to SELL-1) can
be used on both architectures without drawbacks") because vectorization
happens across the block-vector width, not across matrix rows.

The container is three flat NumPy arrays:

``indptr``  (int64, n_rows+1)  row start offsets into data/indices,
``indices`` (int32, nnz)       column index of each stored entry,
``data``    (complex128, nnz)  value of each stored entry,

with entries of one row stored consecutively and (by construction here)
sorted by column. 4-byte column indices mirror the paper's in-kernel
indexing (S_i = 4); ``indptr`` is 8-byte as the paper notes global
quantities need 64-bit indices.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.util.constants import DTYPE, IDTYPE
from repro.util.errors import FormatError, ShapeError


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum ``values`` over segments delimited by ``indptr``.

    Equivalent to ``[values[indptr[i]:indptr[i+1]].sum(axis=0) ...]`` but
    vectorized, and — unlike a bare ``np.add.reduceat`` — correct for empty
    segments (reduceat returns ``values[i]`` instead of 0 for them).

    ``values`` may be 1-D (nnz,) or 2-D (nnz, R); segments are along axis 0.
    """
    indptr = np.asarray(indptr)
    n = indptr.shape[0] - 1
    out_shape = (n,) + values.shape[1:]
    out = np.zeros(out_shape, dtype=values.dtype)
    lengths = np.diff(indptr)
    nonempty = np.nonzero(lengths > 0)[0]
    if nonempty.size == 0:
        return out
    starts = indptr[nonempty]
    if values.shape[0] == 0:
        return out
    sums = np.add.reduceat(values, starts, axis=0)
    # reduceat merges a segment with the next when consecutive starts are
    # equal; since we dropped empty segments, all starts here are strictly
    # increasing and each reduceat slot is exactly one nonempty segment —
    # except the region after the last start, which reduceat sums to the end
    # of `values`; that is exactly the last nonempty segment only if it ends
    # at len(values). Guard by trimming values to the last segment's end.
    last = nonempty[-1]
    end = indptr[last + 1]
    if end != values.shape[0]:
        sums = np.add.reduceat(values[:end], starts, axis=0)
    out[nonempty] = sums
    return out


class CSRMatrix:
    """A square-or-rectangular sparse matrix in CRS/CSR layout.

    Instances are immutable by convention: kernels never modify the three
    storage arrays. Use the classmethod constructors to build one.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        *,
        validate: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=IDTYPE)
        self.data = np.ascontiguousarray(data, dtype=DTYPE)
        self.shape = (int(shape[0]), int(shape[1]))
        if validate:
            self._validate()

    def __getstate__(self) -> dict:
        """Pickle the matrix, not its per-process caches (kernel packs,
        ctypes argument pointers, memoised partitions)."""
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        vals: Iterable[complex],
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
        drop_zeros: bool = False,
    ) -> "CSRMatrix":
        """Assemble from coordinate triplets.

        Entries are sorted by (row, col), one stable sort on the key
        ``row * n_cols + col``. Duplicate ``(row, col)`` entries (several
        Hamiltonian terms hitting one element) are summed left to right,
        in input order, into a zero, which turns every ``-0.0`` component
        into ``+0.0``, duplicated or not. With ``sum_duplicates=False``
        duplicates stay separate entries and every value keeps its bits.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=DTYPE)
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeError(
                f"COO triplet arrays must have identical shapes, got "
                f"{rows.shape}, {cols.shape}, {vals.shape}"
            )
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise FormatError("COO row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise FormatError("COO column index out of range")
        key = rows * n_cols
        key += cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        if sum_duplicates and key.size:
            key_new = np.concatenate(([True], key[1:] != key[:-1]))
            if key_new.all():
                vals += 0.0  # what summing into a zero does to -0.0
            else:
                group = np.cumsum(key_new) - 1
                uvals = np.zeros(int(group[-1]) + 1, dtype=DTYPE)
                np.add.at(uvals, group, vals)
                key, vals = key[key_new], uvals
        if drop_zeros and vals.size:
            keep = vals != 0
            key, vals = key[keep], vals[keep]
        rows = key // max(n_cols, 1)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        key -= rows * n_cols  # now the column of each entry
        return cls(indptr, key, vals, (n_rows, n_cols))

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense 2-D array, keeping entries with ``|a| > tol``."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"dense matrix must be 2-D, got shape {dense.shape}")
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n x n identity matrix."""
        idx = np.arange(n)
        return cls.from_coo(idx, idx, np.ones(n), (n, n))

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def nnz_per_row(self) -> np.ndarray:
        """Stored entries in each row (int64 array of length n_rows)."""
        return np.diff(self.indptr)

    @property
    def nnzr(self) -> float:
        """Average stored entries per row — the paper's ``N_nzr``."""
        return self.nnz / self.n_rows if self.n_rows else 0.0

    def memory_bytes(self, s_d: int = 16, s_i: int = 4) -> int:
        """Storage footprint: data + in-kernel indices (indptr excluded,
        matching the paper's per-entry accounting of N_nz*(S_d + S_i))."""
        return self.nnz * (s_d + s_i)

    # ------------------------------------------------------------------
    # conversions and derived matrices
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (small matrices / tests only)."""
        out = np.zeros(self.shape, dtype=DTYPE)
        rows = np.repeat(np.arange(self.n_rows), self.nnz_per_row)
        np.add.at(out, (rows, self.indices.astype(np.int64)), self.data)
        return out

    def transpose_conj(self) -> "CSRMatrix":
        """Return the conjugate transpose A^H as a new CSR matrix."""
        rows = np.repeat(np.arange(self.n_rows), self.nnz_per_row)
        return CSRMatrix.from_coo(
            self.indices.astype(np.int64),
            rows,
            np.conj(self.data),
            (self.n_cols, self.n_rows),
            sum_duplicates=False,
        )

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where not stored)."""
        n = min(self.shape)
        diag = np.zeros(n, dtype=DTYPE)
        rows = np.repeat(np.arange(self.n_rows), self.nnz_per_row)
        on_diag = rows == self.indices
        dr = rows[on_diag]
        keep = dr < n
        diag[dr[keep]] = self.data[on_diag][keep]
        return diag

    def scale_shift(self, a: float, b: float) -> "CSRMatrix":
        """Return ``a * (A - b * Identity)`` as a new CSR matrix.

        This materializes the paper's rescaled operator H~ = a(H - b 1);
        the fused kernels instead apply the shift/scale on the fly and never
        build this matrix — it exists for reference implementations/tests.
        """
        if self.n_rows != self.n_cols:
            raise ShapeError("scale_shift requires a square matrix")
        rows = np.repeat(np.arange(self.n_rows), self.nnz_per_row)
        n = self.n_rows
        all_rows = np.concatenate([rows, np.arange(n)])
        all_cols = np.concatenate([self.indices.astype(np.int64), np.arange(n)])
        all_vals = np.concatenate(
            [a * self.data, np.full(n, -a * b, dtype=DTYPE)]
        )
        return CSRMatrix.from_coo(all_rows, all_cols, all_vals, self.shape)

    def extract_rows(self, row_start: int, row_stop: int) -> "CSRMatrix":
        """Slice a contiguous row block (used for distributed partitioning).

        Columns keep their *global* indexing; callers remap them.
        """
        if not (0 <= row_start <= row_stop <= self.n_rows):
            raise ShapeError(
                f"row slice [{row_start}, {row_stop}) outside [0, {self.n_rows})"
            )
        lo = self.indptr[row_start]
        hi = self.indptr[row_stop]
        return CSRMatrix(
            self.indptr[row_start : row_stop + 1] - lo,
            self.indices[lo:hi].copy(),
            self.data[lo:hi].copy(),
            (row_stop - row_start, self.n_cols),
        )

    def remap_columns(self, mapping: np.ndarray, n_cols: int) -> "CSRMatrix":
        """Return a copy with ``indices[i] -> mapping[indices[i]]``.

        ``mapping`` must be defined (>= 0) for every referenced column.
        Used to convert global column indices into local+halo indices.
        """
        new_idx = mapping[self.indices.astype(np.int64)]
        if new_idx.size and new_idx.min() < 0:
            raise FormatError("column remap hit an unmapped (-1) column")
        return CSRMatrix(
            self.indptr.copy(), new_idx.astype(IDTYPE), self.data.copy(),
            (self.n_rows, n_cols),
        )

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Check A == A^H entrywise within ``tol`` (structural + values)."""
        if self.n_rows != self.n_cols:
            return False
        ah = self.transpose_conj()
        if not np.array_equal(ah.indptr, self.indptr):
            return False
        if not np.array_equal(ah.indices, self.indices):
            return False
        return bool(np.allclose(ah.data, self.data, atol=tol, rtol=0.0))

    def gershgorin_bounds(self) -> tuple[float, float]:
        """Real-spectrum enclosure from Gershgorin's circle theorem.

        For a Hermitian matrix every eigenvalue lies in
        ``[min_i(c_i - r_i), max_i(c_i + r_i)]`` with ``c_i = Re(A_ii)`` and
        ``r_i`` the off-diagonal absolute row sum. This is the paper's
        cheap option for determining the KPM rescaling (Section II).
        """
        if self.n_rows != self.n_cols:
            raise ShapeError("gershgorin_bounds requires a square matrix")
        rows = np.repeat(np.arange(self.n_rows), self.nnz_per_row)
        absdata = np.abs(self.data)
        rowsum = np.zeros(self.n_rows)
        np.add.at(rowsum, rows, absdata)
        centers = self.diagonal().real
        radii = rowsum - np.abs(self.diagonal())
        return float(np.min(centers - radii)), float(np.max(centers + radii))

    def bandwidth(self) -> int:
        """Maximum |row - col| over stored entries (0 for empty matrices)."""
        if self.nnz == 0:
            return 0
        rows = np.repeat(np.arange(self.n_rows), self.nnz_per_row)
        return int(np.max(np.abs(rows - self.indices)))

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.shape[0] != self.n_rows + 1:
            raise FormatError(
                f"indptr must have length n_rows+1={self.n_rows + 1}, "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise FormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.shape[0]:
            raise FormatError(
                f"indptr[-1]={self.indptr[-1]} does not match "
                f"len(indices)={self.indices.shape[0]}"
            )
        if self.indices.shape != self.data.shape:
            raise FormatError("indices and data must have equal length")
        if self.indices.size and (
            self.indices.min() < 0 or int(self.indices.max()) >= self.n_cols
        ):
            raise FormatError("column index out of range")

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nnzr={self.nnzr:.2f})"
        )
