"""Performance-model substrate: architectures, balance, rooflines, caches.

Implements the paper's entire modelling apparatus:

* :mod:`repro.perf.arch` — the benchmark systems of paper Table II.
* :mod:`repro.perf.balance` — the byte/flop accounting of paper Table I
  and the code-balance formulas Eqs. (4)-(7).
* :mod:`repro.perf.roofline` — the roofline model Eq. (9), the
  LLC-refined custom roofline Eq. (11), and the GPU timing model behind
  Figs. 10-11.
* :mod:`repro.perf.traffic` — analytic per-memory-level traffic models
  (DRAM / L2 / texture cache) for all kernel variants (Figs. 9-10).
* :mod:`repro.perf.cachesim` — an LRU cache simulator measuring the
  actual transfer volume V_meas, hence Omega = V_meas / V_KPM (Eq. (8)).
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "arch": ("Architecture", "IVB", "SNB", "K20M", "K20X", "NodeConfig",
             "EMMY_NODE", "PIZ_DAINT_NODE", "ARCHITECTURES"),
    "balance": ("TrafficFlops", "table1_min_bytes", "table1_flops",
                "kpm_min_traffic", "kpm_flops", "bmin", "bmin_limit",
                "KPM_FLOPS_PER_ROW"),
    "roofline": ("roofline", "memory_bound_performance", "llc_code_balance",
                 "custom_roofline", "cpu_kernel_performance",
                 "gpu_kernel_performance", "node_performance"),
    "traffic": ("gpu_level_traffic", "omega_parametric"),
    "cachesim": ("LRUCache", "simulate_kpm_omega", "kpm_access_stream"),
    "energy": ("EnergyModel", "variant_energy_table"),
    "report": ("full_report",),
})
