"""Graphene quantum-dot superlattice model (paper Refs. [20], [21]).

Pieper et al. (PRB 89, 165121) — cited by the paper for the quantum-dot
physics — study dot-bound and dispersive states in *graphene* quantum-dot
superlattices. We implement that model as a second KPM workload: a
nearest-neighbor tight-binding Hamiltonian on the honeycomb lattice,

    H = -t sum_<ij> c+_i c_j + sum_i V_i c+_i c_i ,

real symmetric with 3 off-diagonal entries per bulk row (coordination
number of the honeycomb lattice) plus the potential diagonal. Its DOS has
the characteristic linear vanishing at E = 0 (Dirac point) and van Hove
singularities at |E| = t — sharp features that make it a good acceptance
test for the KPM reconstruction pipeline.

Geometry: the standard two-site unit cell on an ``ncx x ncy`` cell grid,
periodic in both directions. Site index = ``2*(cx + ncx*cy) + s`` with
sublattice s in {0, 1}; neighbor of an A site (s=0): the B site of the
same cell, of the cell at (cx-1, cy), and of the cell at (cx, cy-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.constants import DTYPE
from repro.util.validation import check_positive


@dataclass(frozen=True)
class GrapheneModel:
    """Honeycomb-lattice tight-binding model parameters."""

    ncx: int
    ncy: int
    t: float = 1.0

    def __post_init__(self) -> None:
        check_positive("ncx", self.ncx)
        check_positive("ncy", self.ncy)

    @property
    def n_sites(self) -> int:
        """Total sites: 2 per unit cell."""
        return 2 * self.ncx * self.ncy

    @property
    def dimension(self) -> int:
        return self.n_sites

    def cell_index(self, cx, cy) -> np.ndarray:
        """Linear cell index with periodic wrapping."""
        cx = np.asarray(cx) % self.ncx
        cy = np.asarray(cy) % self.ncy
        return cx + self.ncx * cy

    def site_positions(self) -> np.ndarray:
        """Cartesian positions (n_sites, 2) with unit lattice constant.

        Lattice vectors a1 = (1, 0), a2 = (1/2, sqrt(3)/2); the B
        sublattice is displaced by (1/2, 1/(2 sqrt(3))).
        """
        cells = np.arange(self.ncx * self.ncy)
        cx = cells % self.ncx
        cy = cells // self.ncx
        base = np.stack(
            [cx + 0.5 * cy, (np.sqrt(3.0) / 2.0) * cy], axis=1
        )
        delta = np.array([0.5, 0.5 / np.sqrt(3.0)])
        pos = np.empty((self.n_sites, 2))
        pos[0::2] = base
        pos[1::2] = base + delta
        return pos

    def build(self, potential: np.ndarray | None = None) -> CSRMatrix:
        """Assemble the Hamiltonian as a CSR matrix.

        ``potential`` holds one real value per *site* (dimension
        ``n_sites``), e.g. from :func:`graphene_dot_potential`.
        """
        n = self.n_sites
        if potential is None:
            potential = np.zeros(n)
        potential = np.asarray(potential, dtype=float)
        if potential.shape != (n,):
            raise ValueError(
                f"potential must have shape ({n},), got {potential.shape}"
            )
        cells = np.arange(self.ncx * self.ncy)
        cx = cells % self.ncx
        cy = cells // self.ncx
        # three B neighbors of each A site, (neighbor, orientation, cell)
        # in C order: the A -> B hop, then its conjugate
        a_sites = np.broadcast_to(2 * cells, (3, cells.size))
        b_sites = 2 * self.cell_index(cx + np.array([[0], [-1], [0]]),
                                      cy + np.array([[0], [0], [-1]])) + 1
        # store diagonal entries only where the potential acts (keeps the
        # clean lattice at exactly 3 nonzeros per row)
        sites = np.nonzero(potential != 0.0)[0]
        return CSRMatrix.from_coo(
            np.concatenate([np.stack([a_sites, b_sites], axis=1).ravel(), sites]),
            np.concatenate([np.stack([b_sites, a_sites], axis=1).ravel(), sites]),
            np.concatenate([np.full(6 * cells.size, -self.t, dtype=DTYPE),
                            potential[sites]]),
            (n, n),
            drop_zeros=False,
        )


def graphene_dot_potential(
    model: GrapheneModel,
    v_dot: float,
    spacing: float,
    radius: float | None = None,
) -> np.ndarray:
    """Quantum-dot superlattice potential on the honeycomb lattice.

    Dots of strength ``v_dot`` and radius ``radius`` (default spacing/4)
    centered on a square grid of period ``spacing`` in Cartesian space.
    """
    check_positive("spacing", spacing)
    if radius is None:
        radius = spacing / 4.0
    pos = model.site_positions()
    dx = (pos[:, 0] + 0.5 * spacing) % spacing - 0.5 * spacing
    dy = (pos[:, 1] + 0.5 * spacing) % spacing - 0.5 * spacing
    return np.where(dx**2 + dy**2 <= radius**2, v_dot, 0.0)


def build_graphene_dot_lattice(
    ncx: int,
    ncy: int,
    *,
    t: float = 1.0,
    v_dot: float = 0.0,
    spacing: float = 10.0,
) -> tuple[CSRMatrix, GrapheneModel]:
    """Convenience builder mirroring :func:`build_topological_insulator`."""
    model = GrapheneModel(ncx, ncy, t=t)
    pot = (
        graphene_dot_potential(model, v_dot, spacing)
        if v_dot != 0.0
        else None
    )
    return model.build(pot), model
