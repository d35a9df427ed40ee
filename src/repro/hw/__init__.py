"""Functional GPU (SIMT) simulator.

The paper's GPU kernel (Section IV-C, Fig. 6) is the non-trivial piece of
the implementation: warps laid out along block-vector rows for coalesced
vector access, matrix entries broadcast to the lanes of a row through the
read-only (texture) cache, warp re-indexing for the on-the-fly dot
products, and intra-warp shuffle reductions (log2(warpSize) steps).

This subpackage *executes* that kernel functionally — warp by warp, with
predication, shuffle semantics, and per-memory-level transaction counting
— so we can (a) validate the algorithm against the NumPy kernels and
(b) validate the analytic traffic model of :mod:`repro.perf.traffic`
against counted transactions at small scale.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "warp": ("shfl_down", "warp_reduce_sum"),
    "gpu": ("KeplerGpu", "GpuRunStats", "GpuLaunchConfig"),
    "timing": ("GpuTimingModel",),
})
