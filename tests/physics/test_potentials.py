"""The quantum-dot superlattice potential."""

import numpy as np
import pytest

from repro.physics.lattice import Lattice3D
from repro.physics.potentials import dot_superlattice_potential


class TestSuperlattice:
    def test_paper_defaults(self):
        """V_dot = 0.153, spacing D = 100 (paper Fig. 2)."""
        lat = Lattice3D(200, 200, 2)
        v = dot_superlattice_potential(lat)
        assert set(np.unique(v)) == {0.0, 0.153}

    def test_dot_count_matches_period(self):
        lat = Lattice3D(40, 40, 1)
        v = dot_superlattice_potential(lat, v_dot=1.0, spacing=10, radius=2.0)
        # 4x4 superlattice cells, each with one dot of ~pi*r^2 sites
        n_dots_sites = (v != 0).sum()
        per_dot = n_dots_sites / 16
        assert 9 <= per_dot <= 16  # ~13 sites in a radius-2 disk

    def test_periodic_tiling(self):
        lat = Lattice3D(20, 20, 1)
        v = dot_superlattice_potential(lat, v_dot=1.0, spacing=10, radius=2.0)
        grid = v.reshape(20, 20)  # z, then y-major? one z-layer: (y, x)
        # translation by one period maps the pattern onto itself
        assert np.allclose(grid, np.roll(grid, 10, axis=0))
        assert np.allclose(grid, np.roll(grid, 10, axis=1))

    def test_surface_flag(self):
        lat = Lattice3D(20, 20, 3)
        v = dot_superlattice_potential(lat, v_dot=1.0, spacing=10)
        _, _, z = lat.all_coords()
        assert np.all(v[z != 0] == 0)

    def test_dots_centred_on_multiples_of_the_spacing(self):
        """A dot sits at (0, 0, 0), none at (D/2, D/2, 0)."""
        lat = Lattice3D(20, 20, 1)
        v = dot_superlattice_potential(lat, v_dot=1.0, spacing=10, radius=2.0)
        assert v[lat.site_index(0, 0, 0)] == 1.0
        assert v[lat.site_index(5, 5, 0)] == 0.0

    def test_radius_validated(self):
        lat = Lattice3D(10, 10, 1)
        with pytest.raises(ValueError):
            dot_superlattice_potential(lat, radius=0.0)
        with pytest.raises(ValueError):
            dot_superlattice_potential(lat, spacing=0)
