"""MatrixMarket reading, against files from SciPy's independent writer."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from repro.sparse.io import read_matrix_market
from repro.util.errors import FormatError


def mmwrite(path, dense, symmetry="general"):
    """Write ``dense`` as a MatrixMarket coordinate file with SciPy."""
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(dense), symmetry=symmetry)


class TestRoundTrip:
    def test_complex_general(self, small_hermitian, tmp_path):
        _, dense = small_hermitian
        p = tmp_path / "m.mtx"
        mmwrite(p, dense)
        assert "complex general" in p.read_text().splitlines()[0]
        back = read_matrix_market(p)
        assert np.allclose(back.to_dense(), dense)

    def test_hermitian_compact(self, ti_small, tmp_path):
        h, _ = ti_small
        p = tmp_path / "h.mtx"
        mmwrite(p, h.to_dense(), symmetry="hermitian")
        back = read_matrix_market(p)
        assert np.allclose(back.to_dense(), h.to_dense())
        # compact file stores roughly half the entries
        n_lines = sum(1 for _ in p.open()) - 2
        assert n_lines < 0.6 * h.nnz

    def test_real_matrix_field(self, tmp_path):
        dense = np.array([[0.0, 2.0], [2.0, 0.0]])
        p = tmp_path / "r.mtx"
        mmwrite(p, dense)
        assert "real" in p.read_text().splitlines()[0]
        back = read_matrix_market(p)
        assert np.allclose(back.to_dense(), dense)

    def test_symmetric_real(self, tmp_path):
        dense = np.array([[1.0, 2.0], [2.0, 3.0]])
        p = tmp_path / "s.mtx"
        mmwrite(p, dense, symmetry="symmetric")
        assert "symmetric" in p.read_text().splitlines()[0]
        assert np.allclose(read_matrix_market(p).to_dense(), dense)


class TestReadFormats:
    def test_pattern(self, tmp_path):
        p = tmp_path / "p.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        m = read_matrix_market(p)
        assert np.allclose(m.to_dense(), np.eye(2))

    def test_skew_symmetric(self, tmp_path):
        p = tmp_path / "sk.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n2 1 3.0\n"
        )
        m = read_matrix_market(p)
        d = m.to_dense()
        assert d[1, 0] == 3.0 and d[0, 1] == -3.0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "cm.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 2 1\n1 2 5.0\n"
        )
        m = read_matrix_market(p)
        assert m.to_dense()[0, 1] == 5.0


class TestErrors:
    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("not a matrix\n1 1 0\n")
        with pytest.raises(FormatError):
            read_matrix_market(p)

    def test_array_format_rejected(self, tmp_path):
        p = tmp_path / "arr.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(FormatError):
            read_matrix_market(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        with pytest.raises(FormatError):
            read_matrix_market(p)
