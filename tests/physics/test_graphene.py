"""Graphene honeycomb model (second KPM workload)."""

import hashlib

import numpy as np
import pytest

from repro.physics.graphene import (
    GrapheneModel,
    build_graphene_dot_lattice,
    graphene_dot_potential,
)


class TestStructure:
    def test_dimensions(self):
        m = GrapheneModel(5, 4)
        assert m.n_sites == 40

    def test_three_neighbors_per_site(self):
        h, _ = build_graphene_dot_lattice(6, 6)
        # off-diagonal entries only (no potential): 3 per site
        assert np.all(h.nnz_per_row == 3)

    def test_hermitian(self):
        h, _ = build_graphene_dot_lattice(5, 5)
        assert h.is_hermitian()

    def test_bipartite_no_aa_coupling(self):
        h, _ = build_graphene_dot_lattice(4, 4)
        d = h.to_dense()
        # A (even) sites couple only to B (odd) sites
        assert np.allclose(d[0::2, 0::2], 0)
        assert np.allclose(d[1::2, 1::2], 0)

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            GrapheneModel(0, 3)

    def test_potential_validated(self):
        m = GrapheneModel(3, 3)
        with pytest.raises(ValueError):
            m.build(np.zeros(5))


class TestSpectrum:
    def test_bandwidth_3t(self):
        """Nearest-neighbor graphene spectrum lies in [-3t, 3t]."""
        h, _ = build_graphene_dot_lattice(8, 8, t=1.0)
        lam = np.linalg.eigvalsh(h.to_dense())
        assert lam.min() >= -3.0 - 1e-9
        assert lam.max() <= 3.0 + 1e-9
        assert lam.max() == pytest.approx(3.0)  # k=0 state exists on 8x8

    def test_particle_hole_symmetric(self):
        h, _ = build_graphene_dot_lattice(6, 6)
        lam = np.linalg.eigvalsh(h.to_dense())
        assert np.allclose(lam, -lam[::-1], atol=1e-9)

    def test_dot_potential_breaks_symmetry(self):
        h, _ = build_graphene_dot_lattice(8, 8, v_dot=0.4, spacing=4.0)
        lam = np.linalg.eigvalsh(h.to_dense())
        assert not np.allclose(lam, -lam[::-1], atol=1e-6)


class TestGeometry:
    def test_positions_shape(self):
        m = GrapheneModel(4, 4)
        assert m.site_positions().shape == (32, 2)

    def test_nearest_neighbor_distance(self):
        """All coupled pairs sit at the graphene bond length 1/sqrt(3)."""
        m = GrapheneModel(6, 6)
        h = m.build()
        pos = m.site_positions()
        d = h.to_dense()
        rows, cols = np.nonzero(np.abs(d) > 0)
        # exclude wrap-around bonds when checking raw distances
        diff = pos[rows] - pos[cols]
        dist = np.linalg.norm(diff, axis=1)
        bond = 1.0 / np.sqrt(3.0)
        interior = dist < 2.0
        assert np.allclose(dist[interior], bond, atol=1e-9)

    def test_dot_potential_values(self):
        m = GrapheneModel(10, 10)
        v = graphene_dot_potential(m, 0.3, spacing=5.0, radius=1.0)
        assert set(np.unique(v)) <= {0.0, 0.3}
        assert (v != 0).sum() > 0


class TestAssemblyBytes:
    """The assembled arrays, pinned; a 1-cell-wide lattice reaches one B
    site through two bonds, so it takes ``from_coo``'s summing path."""

    @pytest.mark.parametrize("ncx, ncy, spacing, digest", [
        (24, 16, 6.0, "6ec349e8558a9f4bbc2b2e133d86e2b2"
                      "3d90b66516fb1789855562b1b3b7783e"),
        (1, 6, 3.0, "14cae4ab22a4af9b373e3ba9d99207048"
                    "a6382a7dfca64f8d6e84d0412dec8ca"),
    ])
    def test_pinned(self, ncx, ncy, spacing, digest):
        g, _ = build_graphene_dot_lattice(ncx, ncy, v_dot=0.4, spacing=spacing)
        h = hashlib.sha256()
        for a in (g.indptr, g.indices, g.data):
            h.update(a.tobytes())
        assert h.hexdigest() == digest
