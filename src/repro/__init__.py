"""repro — reproduction of *Performance Engineering of the Kernel
Polynomial Method on Large-Scale CPU-GPU Systems* (Kreutzer, Hager,
Wellein, Pieper, Alvermann, Fehske — IPDPS 2015, DOI
10.1109/IPDPS.2015.76).

Quick tour
----------

>>> from repro import build_topological_insulator, KPMSolver
>>> H, model = build_topological_insulator(16, 16, 8)
>>> solver = KPMSolver(H, n_moments=256, n_vectors=8, seed=0)
>>> dos = solver.dos()
>>> float(dos.rho.max()) > 0
True

Subpackages
-----------

``repro.sparse``   CRS and SELL-C-sigma formats; naive, augmented-SpMV
                   (stage 1) and augmented-SpMMV (stage 2) kernels.
``repro.physics``  the 3D topological-insulator Hamiltonian (Eq. (1)),
                   quantum-dot superlattice potentials, graphene model.
``repro.core``     the KPM-DOS pipeline: scaling, moments, damping,
                   reconstruction, stochastic estimators, solver facade.
``repro.perf``     Table II architectures, Table I/Eqs. (4)-(7) balance
                   accounting, rooflines (Eqs. (9)-(11)), traffic models,
                   cache simulator (Omega, Eq. (8)).
``repro.hw``       functional Kepler-GPU simulator executing the Fig. 6
                   kernel with transaction counting.
``repro.dist``     simulated-MPI and multiprocess distributed KPM, weighted
                   heterogeneous partitioning, halo exchange, network
                   model, and the cluster scaling model (Fig. 12,
                   Table III).
``repro.resil``    fault-tolerant execution: retry policy, fault injection,
                   the supervisor (checkpoint-resume, engine degradation).
``repro.serve``    the coalescing multi-tenant KPM server: content-addressed
                   requests, moment/spectra caches, batched block solves.
``repro.obs``      runtime observability: metrics registry, spans, JSONL
                   traces.

Every name here and in the subpackages resolves on first use
(:mod:`repro._lazy`): ``import repro`` loads nothing, and a run imports
the modules it calls.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [*lazy_exports(__name__, {
    "core.solver": ("KPMSolver", "DOSResult", "LDOSResult"),
    "core.moments": ("MomentEngine",),
    "physics.hamiltonian": ("TopologicalInsulatorModel",
                            "build_topological_insulator"),
    "physics.lattice": ("Lattice3D",),
    "sparse.csr": ("CSRMatrix",),
    "sparse.sell": ("SellMatrix",),
    "util.knobs": ("ExecConfig",),
}), "__version__"]
