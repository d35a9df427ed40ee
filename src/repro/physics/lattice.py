"""3D cuboid lattice with configurable boundary conditions.

The paper treats finite ``Nx x Ny x Nz`` samples with periodic boundary
conditions in x and y (producing the "outlying diagonals in the matrix
corners") and open boundaries in z. Site linearization is x-fastest:

    site(x, y, z) = x + Nx * (y + Ny * z)

so that the distributed row partition along z (or y) produces contiguous
row blocks, matching the slab decomposition of the parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive


@dataclass(frozen=True)
class Lattice3D:
    """A finite Nx x Ny x Nz lattice.

    Parameters
    ----------
    nx, ny, nz:
        Extents in each direction.
    pbc:
        Per-axis periodic flags; the paper's setting is
        ``(True, True, False)``.
    """

    nx: int
    ny: int
    nz: int
    pbc: tuple[bool, bool, bool] = (True, True, False)

    def __post_init__(self) -> None:
        check_positive("nx", self.nx)
        check_positive("ny", self.ny)
        check_positive("nz", self.nz)
        if len(self.pbc) != 3:
            raise ValueError(f"pbc must have 3 entries, got {self.pbc!r}")

    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        """Number of lattice sites Nx*Ny*Nz."""
        return self.nx * self.ny * self.nz

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    def extent(self, axis: int) -> int:
        """Extent along ``axis`` in {0, 1, 2}."""
        return self.shape[axis]

    # ------------------------------------------------------------------
    def site_index(self, x, y, z) -> np.ndarray:
        """Linear site index for (arrays of) coordinates, x-fastest."""
        x = np.asarray(x)
        y = np.asarray(y)
        z = np.asarray(z)
        return x + self.nx * (y + self.ny * z)

    def site_coords(self, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inverse of :meth:`site_index`: (x, y, z) of linear indices."""
        n = np.asarray(n)
        x = n % self.nx
        rest = n // self.nx
        y = rest % self.ny
        z = rest // self.ny
        return x, y, z

    def all_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of every site, in linear-index order."""
        return self.site_coords(np.arange(self.n_sites))

    # ------------------------------------------------------------------
    def neighbor_pairs(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """All (source, destination) site pairs for a +1 hop along ``axis``.

        Destination is ``source + e_axis``. With periodic boundary
        conditions the hop wraps around; with open boundaries, edge sites
        have no partner and are omitted. Both arrays have equal length:
        ``n_sites`` for a periodic axis (with extent > 1), otherwise
        ``n_sites * (extent-1)/extent``.

        For an axis of extent 1, periodic wrapping would produce a
        self-hop ``n -> n``; these are omitted as unphysical (and they
        would double-count with the Hermitian-conjugate term).
        """
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
        coords = list(self.all_coords())
        extent = self.extent(axis)
        if extent == 1:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        shifted = coords[axis] + 1
        if self.pbc[axis]:
            keep = np.ones(self.n_sites, dtype=bool)
            shifted = shifted % extent
        else:
            keep = shifted < extent
            shifted = np.minimum(shifted, extent - 1)
        src = np.arange(self.n_sites)[keep]
        coords[axis] = shifted
        dst = self.site_index(*coords)[keep]
        return src, dst

    def boundary_sites(self, axis: int, side: int) -> np.ndarray:
        """Sites on the ``side`` (0 = low, 1 = high) face along ``axis``."""
        x, y, z = self.all_coords()
        coords = (x, y, z)[axis]
        target = 0 if side == 0 else self.extent(axis) - 1
        return np.nonzero(coords == target)[0]

    def __repr__(self) -> str:
        return (
            f"Lattice3D({self.nx}x{self.ny}x{self.nz}, "
            f"pbc={tuple(self.pbc)}, sites={self.n_sites})"
        )
