"""Dirac Gamma matrices: Clifford algebra and block structure."""

import numpy as np
import pytest

from repro.physics.dirac import (
    GAMMA,
    hopping_block,
    onsite_block,
)


class TestCliffordAlgebra:
    def test_gamma0_identity(self):
        assert np.allclose(GAMMA[0], np.eye(4))

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_hermitian(self, a):
        assert np.allclose(GAMMA[a], GAMMA[a].conj().T)

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_unit_square(self, a):
        assert np.allclose(GAMMA[a] @ GAMMA[a], np.eye(4))

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    def test_anticommute(self, a, b):
        anti = GAMMA[a] @ GAMMA[b] + GAMMA[b] @ GAMMA[a]
        assert np.allclose(anti, 0)

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_traceless(self, a):
        assert abs(np.trace(GAMMA[a])) < 1e-14


class TestBlocks:
    def test_onsite_block_diagonal(self):
        """Diagonality of the on-site block yields the 13-entry stencil."""
        blk = onsite_block(0.7, mass=1.0)
        assert np.allclose(blk, np.diag(np.diag(blk)))

    def test_onsite_block_values(self):
        blk = onsite_block(0.5, mass=2.0)
        assert np.allclose(np.diag(blk), 0.5 + 4.0 * np.diag(GAMMA[1]))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_hopping_two_entries_per_row(self, j):
        blk = hopping_block(j, t=1.0)
        per_row = (np.abs(blk) > 1e-14).sum(axis=1)
        assert np.all(per_row == 2)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_hopping_scales_with_t(self, j):
        assert np.allclose(hopping_block(j, 2.5), 2.5 * hopping_block(j, 1.0))

    def test_hopping_direction_validated(self):
        with pytest.raises(ValueError):
            hopping_block(4)
        with pytest.raises(ValueError):
            hopping_block(0)

    def test_hopping_plus_conjugate_is_hermitian_pair(self):
        """T + T^H (same-site limit) must be Hermitian."""
        for j in (1, 2, 3):
            t = hopping_block(j)
            assert np.allclose(t + t.conj().T, (t + t.conj().T).conj().T)
