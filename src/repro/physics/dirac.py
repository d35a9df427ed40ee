"""The 4x4 Dirac Gamma matrices entering the TI Hamiltonian (paper Eq. (1)).

The Hamiltonian couples a local orbital-and-spin degree of freedom (4
components per lattice site) through five matrices: ``Gamma_0 = Identity``
and four Hermitian, mutually anticommuting, unit-square matrices
``Gamma_1..Gamma_4`` satisfying the Clifford algebra

    {Gamma_a, Gamma_b} = 2 delta_ab * Identity,   a, b in {1..4}.

The paper cites the operator "for the sake of completeness although its
precise form is not relevant" — any faithful Clifford representation gives
the same spectrum. We use the tensor-product representation common in the
topological-insulator literature (e.g. Schubert et al., PRB 85, 201105):

    Gamma_1 = tau_z (x) sigma_0     (the "mass" matrix, diagonal)
    Gamma_2 = tau_x (x) sigma_x
    Gamma_3 = tau_x (x) sigma_y
    Gamma_4 = tau_x (x) sigma_z

with tau/sigma the Pauli matrices in orbital/spin space. Gamma_1 being
diagonal makes the on-site term ``V_n Gamma_0 + 2 Gamma_1`` diagonal, which
yields exactly 1 on-site nonzero per matrix row; each hopping block
``(Gamma_1 - i Gamma_{j+1})/2`` contributes 2 nonzeros per row and
direction, so a bulk row has 1 + 6*2 = 13 nonzeros — the paper's
``N_nz ~= 13 N``.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import DTYPE

#: Pauli matrices (sigma_0 is the 2x2 identity).
SIGMA_0 = np.eye(2, dtype=DTYPE)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=DTYPE)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=DTYPE)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=DTYPE)


def gamma_matrices() -> list[np.ndarray]:
    """Return ``[Gamma_0, Gamma_1, Gamma_2, Gamma_3, Gamma_4]``.

    Gamma_0 is the 4x4 identity; Gamma_1..Gamma_4 obey the Clifford
    algebra (verified by the test suite).
    """
    g0 = np.eye(4, dtype=DTYPE)
    g1 = np.kron(SIGMA_Z, SIGMA_0)
    g2 = np.kron(SIGMA_X, SIGMA_X)
    g3 = np.kron(SIGMA_X, SIGMA_Y)
    g4 = np.kron(SIGMA_X, SIGMA_Z)
    return [g0, g1, g2, g3, g4]


#: Module-level cached list [Gamma_0 .. Gamma_4].
GAMMA: list[np.ndarray] = gamma_matrices()


def hopping_block(j: int, t: float = 1.0) -> np.ndarray:
    """The 4x4 hopping block along lattice direction ``j`` in {1, 2, 3}.

    Implements the paper's ``-t (Gamma_1 - i Gamma_{j+1}) / 2``, i.e. the
    matrix that couples site ``n + e_j`` (row) to site ``n`` (column); the
    Hermitian conjugate partner is added separately by the assembler.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"direction j must be 1, 2 or 3, got {j}")
    return (-t * 0.5) * (GAMMA[1] - 1j * GAMMA[j + 1])


def onsite_block(v: float, mass: float = 1.0) -> np.ndarray:
    """The 4x4 on-site block ``v * Gamma_0 + 2 * mass * Gamma_1``.

    The paper writes the on-site term as ``V_n Gamma_0 + 2 Gamma_1``
    (mass = 1 in units of the hopping t); we keep ``mass`` adjustable so
    the topological phase can be tuned in the examples.
    """
    return v * GAMMA[0] + (2.0 * mass) * GAMMA[1]

