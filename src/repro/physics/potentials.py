"""External potentials V_n imposed on the lattice.

The paper's application decorates the topological insulator with "an
external electric potential V_n that is used to create a superlattice
structure of quantum dots" (Fig. 2: dot strength V_dot = 0.153, dot
spacing D = 100). The generator returns one real value per lattice site in
linear-index order; the Hamiltonian assembler multiplies by Gamma_0.
"""

from __future__ import annotations

import numpy as np

from repro.physics.lattice import Lattice3D
from repro.util.validation import check_positive


def dot_superlattice_potential(
    lattice: Lattice3D,
    v_dot: float = 0.153,
    spacing: int = 100,
    radius: float | None = None,
) -> np.ndarray:
    """Square superlattice of quantum dots with period ``spacing`` (paper D).

    Defaults mirror the paper's Fig. 2 parameters (V_dot = 0.153, D = 100).
    Dots are hard-walled disks of strength ``v_dot`` in the surface layer
    z = 0, centred on the grid ``(i*D, j*D)``; ``radius`` defaults to
    ``D/4``. For faithful tiling, ``spacing`` should divide the periodic
    extents; other values are allowed (edge dots get clipped).
    """
    check_positive("spacing", spacing)
    if radius is None:
        radius = spacing / 4.0
    check_positive("radius", radius)
    x, y, z = lattice.all_coords()
    # distance to the nearest dot center in each direction: centers sit on
    # multiples of the spacing, so fold coordinates into [-D/2, D/2).
    dx = (x + 0.5 * spacing) % spacing - 0.5 * spacing
    dy = (y + 0.5 * spacing) % spacing - 0.5 * spacing
    return np.where((dx**2 + dy**2 <= radius**2) & (z == 0), v_dot, 0.0)
