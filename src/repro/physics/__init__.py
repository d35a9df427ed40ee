"""Application substrate: quantum lattice models producing sparse matrices.

The paper's benchmark application is the 3D topological-insulator
Hamiltonian of Eq. (1) — a complex Hermitian matrix of dimension
``N = 4 Nx Ny Nz`` with about 13 nonzeros per row, periodic in x and y,
open in z, optionally decorated with a quantum-dot superlattice potential.
This subpackage builds that matrix from scratch, plus a graphene
quantum-dot model (the paper's Refs. [20], [21]) as a second workload.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "dirac": ("GAMMA", "gamma_matrices"),
    "lattice": ("Lattice3D",),
    "potentials": ("dot_superlattice_potential",),
    "hamiltonian": ("TopologicalInsulatorModel",
                    "build_topological_insulator"),
    "graphene": ("GrapheneModel", "build_graphene_dot_lattice"),
})
