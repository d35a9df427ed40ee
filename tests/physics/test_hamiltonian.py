"""The TI Hamiltonian: structure, Hermiticity, spectrum, plane waves."""

import hashlib

import numpy as np
import pytest

from repro.physics.hamiltonian import (
    TopologicalInsulatorModel,
    build_topological_insulator,
    plane_wave_vector,
)
from repro.physics.lattice import Lattice3D
from repro.physics.potentials import dot_superlattice_potential


def csr_digest(m):
    """sha256 of a CSR matrix's (indptr, indices, data) bytes."""
    h = hashlib.sha256()
    for a in (m.indptr, m.indices, m.data):
        h.update(a.tobytes())
    return h.hexdigest()


class TestAssemblyBytes:
    """The assembled arrays, pinned: every η bit downstream rests on them.
    A 2-wide periodic axis hops to the same neighbor both ways, so its
    operator takes ``from_coo``'s duplicate-summing path."""

    @pytest.mark.parametrize("dims, digest", [
        ((32, 32, 8), "5a047033280ceea4598617f9d41dd2e0"
                      "92997ab1ab66facda5d807bd212766b5"),
        ((6, 5, 4), "9426ac618a6b1eb01c1a89aa60494cdf"
                    "8e2df1a6e0d84a55db99a1dd8b26717e"),
        ((2, 6, 3), "17531198d09bb99e9aefd178d47a8cb6"
                    "4f4e86352bd4aaa74c503d3416f253c0"),
    ])
    def test_pinned(self, dims, digest):
        h, _ = build_topological_insulator(*dims)
        assert csr_digest(h) == digest


class TestStructure:
    def test_dimension(self, ti_small):
        h, model = ti_small
        assert h.n_rows == 4 * 6 * 5 * 4 == model.dimension

    def test_hermitian(self, ti_small):
        h, _ = ti_small
        assert h.is_hermitian()

    def test_hermitian_with_potential(self):
        lat = Lattice3D(4, 4, 3)
        model = TopologicalInsulatorModel(lat)
        pot = dot_superlattice_potential(lat, 0.5, spacing=2, radius=1.0)
        assert model.build(pot).is_hermitian()

    def test_nnz_fully_periodic_is_13_per_row(self, ti_periodic):
        h, _ = ti_periodic
        assert np.all(h.nnz_per_row == 13)

    def test_nnz_matches_expected_count(self, ti_small):
        h, model = ti_small
        assert h.nnz == model.expected_nnz()

    def test_open_z_fewer_entries_on_faces(self, ti_small):
        h, model = ti_small
        lat = model.lattice
        # rows on the z=0 face miss one neighbor: 11 entries instead of 13
        face = lat.boundary_sites(2, 0)
        face_rows = 4 * face
        assert np.all(h.nnz_per_row[face_rows] == 11)

    def test_nnzr_about_13(self):
        h, _ = build_topological_insulator(10, 10, 10)
        assert 12.0 < h.nnzr <= 13.0

    def test_periodic_corner_diagonals(self):
        """Periodic x/y produce the 'outlying diagonals in the corners'."""
        h, _ = build_topological_insulator(6, 4, 2)
        assert h.bandwidth() > 4 * 6 * 4  # wrap in y reaches across planes

    def test_potential_shape_validated(self, ti_small):
        _, model = ti_small
        with pytest.raises(ValueError, match="potential"):
            model.build(np.zeros(3))


class TestSpectrum:
    def test_within_gershgorin(self, ti_small):
        h, _ = ti_small
        lam = np.linalg.eigvalsh(h.to_dense())
        lo, hi = h.gershgorin_bounds()
        assert lo <= lam.min() and lam.max() <= hi

    def test_clean_spectrum_symmetric(self, ti_periodic):
        """The clean TI model is particle-hole symmetric: the spectrum is
        symmetric around 0 (chiral partner via the anticommuting Gammas)."""
        h, _ = ti_periodic
        lam = np.linalg.eigvalsh(h.to_dense())
        assert np.allclose(lam, -lam[::-1], atol=1e-9)

    def test_bulk_gap_present(self):
        """The paper's parameters put the model in an insulating phase
        with a gap around E = 0 for a fully periodic (bulk) sample."""
        h, _ = build_topological_insulator(6, 6, 6, pbc=(True, True, True))
        lam = np.linalg.eigvalsh(h.to_dense())
        gap = lam[lam > 0].min() - lam[lam < 0].max()
        assert gap > 0.5

    def test_potential_shifts_spectrum(self, ti_small):
        h0, model = ti_small
        pot = np.full(model.lattice.n_sites, 0.3)
        h1 = model.build(pot)
        lam0 = np.linalg.eigvalsh(h0.to_dense())
        lam1 = np.linalg.eigvalsh(h1.to_dense())
        assert np.allclose(lam1, lam0 + 0.3, atol=1e-9)

    def test_hopping_scale(self):
        """Doubling t doubles the clean spectrum (mass scales with t here
        only through the explicit mass parameter, kept proportional)."""
        h1, _ = build_topological_insulator(4, 4, 2, t=1.0, mass=1.0)
        h2, _ = build_topological_insulator(4, 4, 2, t=2.0, mass=2.0)
        lam1 = np.linalg.eigvalsh(h1.to_dense())
        lam2 = np.linalg.eigvalsh(h2.to_dense())
        assert np.allclose(lam2, 2 * lam1, atol=1e-9)


class TestPlaneWave:
    def test_normalized(self):
        lat = Lattice3D(6, 6, 2)
        psi = plane_wave_vector(lat, (0.5, -0.3, 0.0), orbital=1)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_orbital_selection(self):
        lat = Lattice3D(4, 4, 1)
        psi = plane_wave_vector(lat, (0, 0, 0), orbital=2)
        nz = np.nonzero(psi)[0]
        assert np.all(nz % 4 == 2)

    def test_invalid_orbital(self):
        with pytest.raises(ValueError):
            plane_wave_vector(Lattice3D(2, 2, 1), (0, 0, 0), orbital=4)

    def test_k0_is_uniform(self):
        lat = Lattice3D(3, 3, 3)
        psi = plane_wave_vector(lat, (0, 0, 0), orbital=0)
        vals = psi[0::4]
        assert np.allclose(vals, vals[0])

    def test_bloch_phase(self):
        lat = Lattice3D(8, 1, 1)
        k = 2 * np.pi / 8
        psi = plane_wave_vector(lat, (k, 0, 0), orbital=0)
        ratio = psi[4] / psi[0]  # site x=1 over x=0, orbital 0
        assert ratio == pytest.approx(np.exp(1j * k))
