"""CSRMatrix construction, validation, and derived operations."""

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix, segment_sum
from repro.util.errors import FormatError, ShapeError


class TestSegmentSum:
    def test_basic(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        indptr = np.array([0, 2, 4])
        assert np.allclose(segment_sum(v, indptr), [3.0, 7.0])

    def test_empty_segments(self):
        v = np.array([1.0, 2.0, 3.0])
        indptr = np.array([0, 0, 2, 2, 3, 3])
        assert np.allclose(segment_sum(v, indptr), [0, 3, 0, 3, 0])

    def test_all_empty(self):
        out = segment_sum(np.empty(0), np.array([0, 0, 0]))
        assert np.allclose(out, [0, 0])

    def test_2d_values(self):
        v = np.arange(8.0).reshape(4, 2)
        indptr = np.array([0, 1, 4])
        out = segment_sum(v, indptr)
        assert out.shape == (2, 2)
        assert np.allclose(out[0], [0, 1])
        assert np.allclose(out[1], v[1:].sum(axis=0))

    def test_trailing_extra_values_ignored(self):
        v = np.array([1.0, 2.0, 99.0])
        out = segment_sum(v, np.array([0, 2]))
        assert np.allclose(out, [3.0])

    def test_matches_python_reference(self, rng):
        lengths = rng.integers(0, 5, size=20)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        v = rng.normal(size=indptr[-1])
        ref = [v[indptr[i]:indptr[i + 1]].sum() for i in range(20)]
        assert np.allclose(segment_sum(v, indptr), ref)


class TestFromCoo:
    def test_duplicates_summed(self):
        m = CSRMatrix.from_coo([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0], (2, 2))
        assert m.nnz == 2
        d = m.to_dense()
        assert d[0, 1] == 3.0
        assert d[1, 0] == 5.0

    def test_duplicates_kept_when_disabled(self):
        m = CSRMatrix.from_coo(
            [0, 0], [1, 1], [1.0, 2.0], (2, 2), sum_duplicates=False
        )
        assert m.nnz == 2

    def test_drop_zeros(self):
        m = CSRMatrix.from_coo(
            [0, 1], [0, 1], [0.0, 2.0], (2, 2), drop_zeros=True
        )
        assert m.nnz == 1

    def test_sorted_within_rows(self, rng):
        n = 15
        rows = rng.integers(0, n, 60)
        cols = rng.integers(0, n, 60)
        vals = rng.normal(size=60)
        m = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        for i in range(n):
            seg = m.indices[m.indptr[i]:m.indptr[i + 1]]
            assert np.all(np.diff(seg) > 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix.from_coo([2], [0], [1.0], (2, 2))
        with pytest.raises(FormatError):
            CSRMatrix.from_coo([0], [5], [1.0], (2, 2))
        with pytest.raises(FormatError):
            CSRMatrix.from_coo([-1], [0], [1.0], (2, 2))

    def test_mismatched_triplets_rejected(self):
        with pytest.raises(ShapeError):
            CSRMatrix.from_coo([0, 1], [0], [1.0], (2, 2))

    def test_empty_matrix(self):
        m = CSRMatrix.from_coo([], [], [], (3, 3))
        assert m.nnz == 0
        assert np.allclose(m.to_dense(), 0)


def coo_oracle(rows, cols, vals, shape, sum_duplicates=True, drop_zeros=False):
    """(indptr, indices, data) as a (row, col) ``lexsort`` and an
    ``add.at`` into zeros build them: the bytes ``from_coo`` must keep."""
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    vals = np.asarray(vals, np.complex128)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and rows.size:
        new = np.empty(rows.shape, dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(new) - 1
        uvals = np.zeros(int(group[-1]) + 1, dtype=np.complex128)
        np.add.at(uvals, group, vals)
        rows, cols, vals = rows[new], cols[new], uvals
    if drop_zeros and vals.size:
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols.astype(np.int32), vals


def random_coo(seed, shape, nnz, *, distinct=False):
    """COO triplets with repeated coordinates (unless ``distinct``),
    ``+0.0``/``-0.0`` components and rows ``>= shape[0] // 2`` empty."""
    rng = np.random.default_rng(seed)
    half = max(shape[0] // 2, 1)
    if distinct:
        flat = rng.choice(half * shape[1], size=nnz, replace=False)
        rows, cols = flat // shape[1], flat % shape[1]
    else:
        rows = rng.integers(0, half, nnz)
        cols = rng.integers(0, shape[1], nnz)
    vals = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    signed = rng.choice(np.array([0.0, -0.0, 1.5, -2.0]), size=(nnz, 2))
    pick = rng.random(nnz) < 0.3
    vals[pick] = [complex(a, b) for a, b in signed[pick]]
    return rows, cols, vals


class TestFromCooOracle:
    """``from_coo`` against its previous body, byte for byte."""

    @pytest.mark.parametrize("shape", [(24, 24), (31, 9), (7, 40)])
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("sum_duplicates", [True, False])
    @pytest.mark.parametrize("drop_zeros", [False, True])
    def test_bytes_equal(self, shape, distinct, sum_duplicates, drop_zeros):
        for seed in range(4):
            coo = random_coo(seed, shape, 60, distinct=distinct)
            m = CSRMatrix.from_coo(*coo, shape, sum_duplicates=sum_duplicates,
                                   drop_zeros=drop_zeros)
            ref = coo_oracle(*coo, shape, sum_duplicates, drop_zeros)
            for got, want in zip((m.indptr, m.indices, m.data), ref):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_negative_zero_becomes_positive_when_summing(self):
        m = CSRMatrix.from_coo([0, 1], [1, 0], [complex(-0.0, -0.0), 1.0],
                               (2, 2))
        assert not np.signbit(m.data.view(np.float64)).any()
        kept = CSRMatrix.from_coo([0], [1], [complex(-0.0, -0.0)], (2, 2),
                                  sum_duplicates=False)
        assert np.signbit(kept.data.view(np.float64)).all()

    def test_duplicates_sum_in_input_order(self):
        # (1e16 + 1.0) - 1e16 is 0.0; an order adding the 1.0 last gives 1.0
        m = CSRMatrix.from_coo([0, 0, 0], [0, 0, 0], [1e16, 1.0, -1e16],
                               (1, 1))
        assert m.data[0] == 0.0


class TestValidation:
    def test_bad_indptr_start(self):
        with pytest.raises(FormatError, match="indptr"):
            CSRMatrix(np.array([1, 2]), np.array([0]), np.array([1.0]), (1, 1))

    def test_decreasing_indptr(self):
        with pytest.raises(FormatError):
            CSRMatrix(
                np.array([0, 2, 1]),
                np.array([0, 0]),
                np.array([1.0, 1.0]),
                (2, 2),
            )

    def test_indptr_tail_mismatch(self):
        with pytest.raises(FormatError):
            CSRMatrix(np.array([0, 2]), np.array([0]), np.array([1.0]), (1, 1))

    def test_column_out_of_range(self):
        with pytest.raises(FormatError):
            CSRMatrix(np.array([0, 1]), np.array([3]), np.array([1.0]), (1, 2))

    def test_dense_requires_2d(self):
        with pytest.raises(ShapeError):
            CSRMatrix.from_dense(np.zeros(4))


class TestDerivedOps:
    def test_dense_roundtrip(self, small_hermitian):
        m, dense = small_hermitian
        assert np.allclose(m.to_dense(), dense)

    def test_identity(self):
        assert np.allclose(CSRMatrix.identity(4).to_dense(), np.eye(4))

    def test_diagonal(self, small_hermitian):
        m, dense = small_hermitian
        assert np.allclose(m.diagonal(), np.diag(dense))

    def test_diagonal_rectangular(self):
        m = CSRMatrix.from_coo([0, 1], [0, 1], [2.0, 3.0], (2, 5))
        assert np.allclose(m.diagonal(), [2.0, 3.0])

    def test_transpose_conj(self, small_hermitian):
        m, dense = small_hermitian
        assert np.allclose(m.transpose_conj().to_dense(), dense.conj().T)

    def test_is_hermitian(self, small_hermitian):
        m, _ = small_hermitian
        assert m.is_hermitian()

    def test_non_hermitian_detected(self):
        m = CSRMatrix.from_coo([0], [1], [1.0 + 1j], (2, 2))
        assert not m.is_hermitian()

    def test_rectangular_not_hermitian(self):
        m = CSRMatrix.from_coo([0], [0], [1.0], (2, 3))
        assert not m.is_hermitian()

    def test_scale_shift(self, small_hermitian):
        m, dense = small_hermitian
        s = m.scale_shift(2.0, 0.5)
        assert np.allclose(s.to_dense(), 2.0 * (dense - 0.5 * np.eye(40)))

    def test_scale_shift_square_only(self):
        m = CSRMatrix.from_coo([0], [0], [1.0], (2, 3))
        with pytest.raises(ShapeError):
            m.scale_shift(1.0, 0.0)

    def test_gershgorin_encloses_spectrum(self, small_hermitian):
        m, dense = small_hermitian
        lam = np.linalg.eigvalsh(dense)
        lo, hi = m.gershgorin_bounds()
        assert lo <= lam.min() and lam.max() <= hi

    def test_extract_rows(self, small_hermitian):
        m, dense = small_hermitian
        sub = m.extract_rows(10, 25)
        assert sub.shape == (15, 40)
        assert np.allclose(sub.to_dense(), dense[10:25])

    def test_extract_rows_bounds_checked(self, small_hermitian):
        m, _ = small_hermitian
        with pytest.raises(ShapeError):
            m.extract_rows(-1, 10)
        with pytest.raises(ShapeError):
            m.extract_rows(5, 41)

    def test_remap_columns(self):
        m = CSRMatrix.from_coo([0, 1], [3, 1], [1.0, 2.0], (2, 4))
        mapping = np.array([-1, 0, -1, 1])
        r = m.remap_columns(mapping, 2)
        d = r.to_dense()
        assert d[0, 1] == 1.0 and d[1, 0] == 2.0

    def test_remap_unmapped_column_rejected(self):
        m = CSRMatrix.from_coo([0], [0], [1.0], (1, 2))
        with pytest.raises(FormatError):
            m.remap_columns(np.array([-1, 0]), 1)

    def test_bandwidth(self):
        m = CSRMatrix.from_coo([0, 3], [3, 0], [1.0, 1.0], (4, 4))
        assert m.bandwidth() == 3
        assert CSRMatrix.from_coo([], [], [], (2, 2)).bandwidth() == 0

    def test_nnzr_and_memory(self, ti_periodic):
        h, _ = ti_periodic
        assert h.nnzr == pytest.approx(13.0)
        assert h.memory_bytes() == h.nnz * 20

    def test_repr(self, small_hermitian):
        m, _ = small_hermitian
        assert "CSRMatrix" in repr(m)
