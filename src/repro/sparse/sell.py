"""SELL-C-sigma: the unified sparse format for wide-SIMD CPUs and GPUs.

Reference: Kreutzer, Hager, Wellein, Fehske, Bishop, "A unified sparse
matrix data format for efficient general sparse matrix-vector
multiplication on modern processors with wide SIMD units", SIAM J. Sci.
Comput. 36(5):C401-C423 (2014) — the paper's Ref. [13].

Layout
------
Rows are grouped into *chunks* of height ``C``. Within a *sorting scope* of
``sigma`` consecutive rows, rows are sorted by descending nonzero count so
rows sharing a chunk have similar lengths. Every row in a chunk is padded
to the chunk's maximum length; padded slots hold ``value 0`` at ``column
row`` (self-referencing zero fill-in), so they are numerically inert yet
execute real flops — exactly as on hardware. The chunk stores its entries
column-major (SIMD lanes run down the chunk), concatenated chunk after
chunk in one flat array.

``C = 1`` degenerates to CRS (the paper calls CRS "similar to SELL-1");
``C = n_rows, sigma = 1`` degenerates to ELLPACK.

The *padding efficiency* ``beta = nnz / stored_slots`` quantifies the
zero-fill overhead; ``beta = 1`` means no padding.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.constants import DTYPE, IDTYPE
from repro.util.errors import FormatError
from repro.util.validation import check_positive


class SellMatrix:
    """A sparse matrix in SELL-C-sigma storage.

    Attributes
    ----------
    chunk_height:
        C — number of rows per chunk (SIMD/warp granularity).
    sigma:
        Sorting scope in rows (multiple of C recommended; 1 = no sorting).
    perm:
        ``perm[sorted_pos] = original_row``; kernels compute in sorted
        order and scatter results back through this permutation.
    chunk_len:
        Length (padded row width) of each chunk.
    chunk_ptr:
        Offset of each chunk's first slot in ``data``/``indices``.
    data, indices:
        Flat chunk-major, column-major-within-chunk value/column arrays.
    """

    def __init__(self, csr: CSRMatrix, chunk_height: int = 32, sigma: int = 1) -> None:
        check_positive("chunk_height", chunk_height)
        check_positive("sigma", sigma)
        if sigma != 1 and sigma % chunk_height != 0:
            raise FormatError(
                f"sigma ({sigma}) must be 1 or a multiple of chunk_height "
                f"({chunk_height})"
            )
        self.chunk_height = int(chunk_height)
        self.sigma = int(sigma)
        self.shape = csr.shape
        self.nnz = csr.nnz

        n = csr.n_rows
        c = self.chunk_height
        n_chunks = (n + c - 1) // c
        self.n_chunks = n_chunks
        n_padded = n_chunks * c

        lengths = np.zeros(n_padded, dtype=np.int64)
        lengths[:n] = csr.nnz_per_row

        # sigma-scope sorting: descending row length inside each scope
        # (stable, so equal lengths keep their row order).
        perm = np.lexsort((-lengths, np.arange(n_padded) // self.sigma))
        self.perm = perm  # perm[sorted_pos] -> original row (or padding row >= n)
        sorted_lengths = lengths[perm]

        self.chunk_len = sorted_lengths.reshape(n_chunks, c).max(axis=1)
        slots_per_chunk = self.chunk_len * c
        self.chunk_ptr = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum(slots_per_chunk, out=self.chunk_ptr[1:])
        total_slots = int(self.chunk_ptr[-1])

        # inverse permutation restricted to real rows
        self.inv_perm = np.empty(n_padded, dtype=np.int64)
        self.inv_perm[perm] = np.arange(n_padded)

        # Self-referencing padding: column = the row's own (original) index,
        # clipped into the *column* range (rectangular matrices may have
        # fewer columns than rows; any valid column works since the value
        # is zero).  Column-major within a chunk: slot (j, lane) of chunk
        # k is chunk_ptr[k] + j*C + lane, so chunk k's lanes repeat L_k times.
        pad_col = np.minimum(perm, csr.n_cols - 1).astype(IDTYPE)
        self.indices = np.repeat(pad_col.reshape(n_chunks, c), self.chunk_len,
                                 axis=0).ravel()
        self.data = np.zeros(total_slots, dtype=DTYPE)

        # One scatter of every stored entry: entry j of row r goes to
        # slot j of sorted position s = inv_perm[r].
        row_of = np.repeat(np.arange(n), csr.nnz_per_row)
        j = np.arange(csr.nnz) - csr.indptr[row_of]
        s_of = self.inv_perm[row_of]
        slot = self.chunk_ptr[s_of // c] + j * c + s_of % c
        self.data[slot] = csr.data
        self.indices[slot] = csr.indices

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnzr(self) -> float:
        """Average nonzeros per (real) row."""
        return self.nnz / self.n_rows if self.n_rows else 0.0

    @property
    def stored_slots(self) -> int:
        """Total slots including zero fill-in (what the kernel streams)."""
        return int(self.chunk_ptr[-1])

    @property
    def beta(self) -> float:
        """Padding efficiency nnz / stored_slots in (0, 1]."""
        slots = self.stored_slots
        return self.nnz / slots if slots else 1.0

    def memory_bytes(self, s_d: int = 16, s_i: int = 4) -> int:
        """Streamed bytes per full matrix traversal (includes padding)."""
        return self.stored_slots * (s_d + s_i)

    # ------------------------------------------------------------------
    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR, dropping the zero fill-in.

        Reads the flat arrays only: slot ``chunk_ptr[k] + j*C + lane``
        holds an entry of sorted row ``k*C + lane``.
        """
        orig_rows = np.repeat(self.perm.reshape(self.n_chunks, self.chunk_height),
                              self.chunk_len, axis=0).ravel()
        keep = (self.data != 0) & (orig_rows < self.n_rows)
        return CSRMatrix.from_coo(
            orig_rows[keep], self.indices[keep].astype(np.int64),
            self.data[keep], self.shape, sum_duplicates=True,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as dense (tests only)."""
        return self.to_csr().to_dense()

    def __repr__(self) -> str:
        return (
            f"SellMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"C={self.chunk_height}, sigma={self.sigma}, beta={self.beta:.3f})"
        )
