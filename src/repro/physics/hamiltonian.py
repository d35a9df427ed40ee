"""Assembly of the topological-insulator Hamiltonian (paper Eq. (1)).

The operator

    H = -t * sum_{n, j=1..3} [ Psi+_{n+e_j} (Gamma_1 - i Gamma_{j+1})/2 Psi_n
                               + H.c. ]
        + sum_n Psi+_n (V_n Gamma_0 + 2 Gamma_1) Psi_n

acts on 4 orbital/spin components per site of an Nx x Ny x Nz lattice
(periodic in x, y; open in z), so the matrix dimension is
``N = 4 Nx Ny Nz``. With the Gamma representation of
:mod:`repro.physics.dirac` the on-site block is diagonal and every hopping
block has two entries per row, giving 13 nonzeros per bulk row — the
paper's ``N_nz ~= 13 N``. The matrix is complex Hermitian; several
sub-diagonals plus the periodic wrap-around diagonals "in the matrix
corners" make it a stencil but *not* a band matrix, exactly as described
in paper Section I-B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.physics.dirac import hopping_block, onsite_block
from repro.physics.lattice import Lattice3D
from repro.sparse.csr import CSRMatrix
from repro.util.constants import DTYPE

#: Orbital components per lattice site.
N_ORBITALS = 4


@dataclass(frozen=True)
class TopologicalInsulatorModel:
    """Parameter bundle for the TI Hamiltonian.

    Attributes
    ----------
    lattice:
        Site geometry and boundary conditions.
    t:
        Hopping amplitude (energy unit; paper sets t = 1).
    mass:
        Coefficient of the on-site ``2 * mass * Gamma_1`` Wilson term
        (paper value: 1, i.e. the term "2 Gamma_1").
    """

    lattice: Lattice3D
    t: float = 1.0
    mass: float = 1.0

    @property
    def dimension(self) -> int:
        """Matrix dimension N = 4 Nx Ny Nz."""
        return N_ORBITALS * self.lattice.n_sites

    def build(self, potential: np.ndarray | None = None) -> CSRMatrix:
        """Assemble H as a :class:`CSRMatrix`.

        Parameters
        ----------
        potential:
            Real on-site potential V_n, one value per lattice site (linear
            index order); ``None`` means the clean system.
        """
        lat = self.lattice
        n_sites = lat.n_sites
        if potential is None:
            potential = np.zeros(n_sites)
        potential = np.asarray(potential, dtype=float)
        if potential.shape != (n_sites,):
            raise ValueError(
                f"potential must have one entry per site ({n_sites}), "
                f"got shape {potential.shape}"
            )

        # COO triplets, written in place: the on-site term in (orbital,
        # site) order, then each direction's hops in C-order (block entry,
        # orientation, pair) -- the order duplicates sum in.
        pairs = [lat.neighbor_pairs(axis) for axis in range(3)]
        blocks = [hopping_block(j, self.t) for j in (1, 2, 3)]
        end = N_ORBITALS * n_sites
        nnz = end + sum(2 * np.count_nonzero(block) * src.size
                        for block, (src, _) in zip(blocks, pairs))
        rows, cols = np.empty((2, nnz), dtype=np.int64)
        vals = np.empty(nnz, dtype=DTYPE)

        # --- on-site term: diagonal in our Gamma representation ----------
        onsite_diag = np.real(np.diag(onsite_block(0.0, self.mass)))
        np.add(N_ORBITALS * np.arange(n_sites), np.arange(N_ORBITALS)[:, None],
               out=rows[:end].reshape(N_ORBITALS, n_sites))
        cols[:end] = rows[:end]
        vals[:end].reshape(N_ORBITALS, n_sites)[...] = potential + onsite_diag[:, None]

        # --- hopping terms, one block per direction and orientation ------
        for block, (src, dst) in zip(blocks, pairs):
            orows, ocols = np.nonzero(block)
            lo, end = end, end + 2 * orows.size * src.size
            r = rows[lo:end].reshape(orows.size, 2, src.size)
            # forward: row block at dst, column block at src;
            # Hermitian conjugate: row at src, column at dst
            np.add(N_ORBITALS * dst, orows[:, None], out=r[:, 0])
            np.add(N_ORBITALS * src, ocols[:, None], out=r[:, 1])
            cols[lo:end].reshape(r.shape)[...] = r[:, ::-1]
            ovals = block[orows, ocols]
            vals[lo:end].reshape(r.shape)[...] = np.stack(
                [ovals, np.conj(ovals)], axis=1)[..., None]

        return CSRMatrix.from_coo(rows, cols, vals,
                                  (self.dimension, self.dimension))

    def expected_nnz(self) -> int:
        """Exact stored-entry count for the clean system.

        1 diagonal entry per row plus 2 entries per row per realized
        neighbor hop (each direction contributes both orientations).
        Rows on open boundaries have fewer hops.
        """
        lat = self.lattice
        total = N_ORBITALS * lat.n_sites  # diagonal
        for axis in range(3):
            src, _ = lat.neighbor_pairs(axis)
            # each (src,dst) pair puts 8 entries in forward + 8 in conjugate
            # = 2 per row for the 8 involved rows; total entries = 16 pairs.
            total += 16 * src.size
        return total


def build_topological_insulator(
    nx: int,
    ny: int,
    nz: int,
    *,
    t: float = 1.0,
    mass: float = 1.0,
    potential: np.ndarray | None = None,
    pbc: tuple[bool, bool, bool] = (True, True, False),
) -> tuple[CSRMatrix, TopologicalInsulatorModel]:
    """Convenience builder: lattice + model + matrix in one call.

    Returns ``(H, model)`` so callers keep the geometry for later use
    (LDOS site selection, plane-wave construction, partition geometry).
    """
    model = TopologicalInsulatorModel(Lattice3D(nx, ny, nz, pbc), t=t, mass=mass)
    return model.build(potential), model


def plane_wave_vector(
    lattice: Lattice3D, k: tuple[float, float, float], orbital: int
) -> np.ndarray:
    """Normalized plane-wave state |k, orbital> on the 4-component lattice.

    ``psi_{n,o} = exp(i k . r_n) delta_{o,orbital} / sqrt(n_sites)`` — the
    probe state for the momentum-resolved spectral function A(k, E) of
    paper Fig. 2 (right panel). ``k`` is in radians per lattice constant.
    """
    if not 0 <= orbital < N_ORBITALS:
        raise ValueError(f"orbital must be in [0, {N_ORBITALS}), got {orbital}")
    x, y, z = lattice.all_coords()
    phase = np.exp(1j * (k[0] * x + k[1] * y + k[2] * z)) / np.sqrt(lattice.n_sites)
    psi = np.zeros(N_ORBITALS * lattice.n_sites, dtype=DTYPE)
    psi[N_ORBITALS * np.arange(lattice.n_sites) + orbital] = phase
    return psi
