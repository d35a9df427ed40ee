"""Matrix import: MatrixMarket coordinate format.

Downstream users of the original GHOST library feed matrices from disk;
this module provides the same capability with the standard MatrixMarket
(.mtx) exchange format — every coordinate field (real, complex, integer,
pattern) and symmetry (general, symmetric, hermitian, skew-symmetric),
read into a :class:`~repro.sparse.csr.CSRMatrix` (``repro dos --mtx``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.errors import FormatError

_FIELDS = {"real", "complex", "integer", "pattern"}
_SYMMETRIES = {"general", "symmetric", "hermitian", "skew-symmetric"}


def check_operator(A: CSRMatrix) -> CSRMatrix:
    """``A`` if KPM can expand it — square, non-empty, finite entries,
    Hermitian (to 1e-12) — else a :class:`FormatError` naming the fault.
    ``info`` describes any matrix; ``dos`` and ``tune`` check."""
    if A.n_rows != A.n_cols:
        raise FormatError(f"operator must be square, got {A.n_rows} x "
                          f"{A.n_cols}")
    if A.n_rows == 0 or A.nnz == 0:
        raise FormatError("operator is empty (no rows or no entries)")
    if not np.isfinite(A.data).all():
        raise FormatError("operator has a non-finite (nan/inf) entry")
    if not A.is_hermitian():
        raise FormatError("operator is not Hermitian: KPM needs a real "
                          "spectrum (store it 'hermitian' or 'symmetric')")
    return A


def read_matrix_market(path: str | Path) -> CSRMatrix:
    """Read a MatrixMarket coordinate file into a :class:`CSRMatrix`.

    Symmetric/Hermitian/skew-symmetric storage is expanded to the full
    matrix; ``pattern`` entries become 1.0.
    """
    path = Path(path)
    with path.open() as fh:
        header = fh.readline()
        parts = header.strip().split()
        if (
            len(parts) != 5
            or parts[0] != "%%MatrixMarket"
            or parts[1].lower() != "matrix"
            or parts[2].lower() != "coordinate"
        ):
            raise FormatError(f"not a MatrixMarket coordinate file: {header!r}")
        field = parts[3].lower()
        symmetry = parts[4].lower()
        if field not in _FIELDS:
            raise FormatError(f"unknown field {field!r}")
        if symmetry not in _SYMMETRIES:
            raise FormatError(f"unknown symmetry {symmetry!r}")

        line = fh.readline()
        while line.startswith("%") or not line.strip():
            line = fh.readline()
        try:
            n_rows, n_cols, nnz = (int(t) for t in line.split())
        except ValueError:
            raise FormatError(f"bad size line: {line!r}") from None

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.complex128)
        for i in range(nnz):
            toks = fh.readline().split()
            if len(toks) < 2:
                raise FormatError(f"truncated file at entry {i}")
            rows[i] = int(toks[0]) - 1
            cols[i] = int(toks[1]) - 1
            if field == "pattern":
                vals[i] = 1.0
            elif field == "complex":
                vals[i] = float(toks[2]) + 1j * float(toks[3])
            else:
                vals[i] = float(toks[2])

    if symmetry != "general":
        off = rows != cols
        mr, mc, mv = cols[off], rows[off], vals[off]
        if symmetry == "hermitian":
            mv = np.conj(mv)
        elif symmetry == "skew-symmetric":
            mv = -mv
        rows = np.concatenate([rows, mr])
        cols = np.concatenate([cols, mc])
        vals = np.concatenate([vals, mv])
    return CSRMatrix.from_coo(rows, cols, vals, (n_rows, n_cols),
                              sum_duplicates=False)
