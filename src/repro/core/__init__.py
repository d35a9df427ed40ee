"""The paper's primary contribution: the KPM-DOS solver pipeline.

Layers (bottom-up):

* :mod:`repro.core.scaling` — spectral interval estimation (Gershgorin /
  Lanczos) and the linear map H~ = a (H - b 1) into [-1, 1].
* :mod:`repro.core.moments` — the three moment engines corresponding to
  the paper's optimization stages (Figs. 3, 4, 5).
* :mod:`repro.core.damping` — Jackson / Lorentz / Dirichlet kernel
  coefficients g_m.
* :mod:`repro.core.reconstruct` — Chebyshev series -> rho(E), local DOS,
  spectral function A(k, E).
* :mod:`repro.core.stochastic` — random block vectors and the
  stochastic LDOS estimator.
* :mod:`repro.core.solver` — the user-facing :class:`KPMSolver`.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "scaling": ("SpectralScale", "gershgorin_scale", "lanczos_bounds",
                "lanczos_scale"),
    "damping": ("jackson_kernel", "lorentz_kernel", "dirichlet_kernel",
                "get_kernel"),
    "moments": ("MomentEngine", "compute_eta", "eta_to_moments"),
    "stochastic": ("make_block_vector",),
    "reconstruct": ("reconstruct_chebyshev", "reconstruct_dos",
                    "chebyshev_grid"),
    "solver": ("KPMSolver", "DOSResult", "LDOSResult",
               "SpectralFunctionResult"),
    "evolution": ("evolve", "autocorrelation", "chebyshev_expansion_order"),
    "checkpoint": ("KpmCheckpoint", "checkpointed_eta"),
})
