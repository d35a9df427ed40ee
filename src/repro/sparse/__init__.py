"""Sparse-matrix substrate: storage formats and computational kernels.

This subpackage implements, from scratch, everything the paper's KPM solver
needs from a sparse linear-algebra library:

* :mod:`repro.sparse.csr` — the CRS/CSR format (paper Section IV-A notes
  CRS ≙ SELL-1 and is the format of choice for SpMMV).
* :mod:`repro.sparse.sell` — SELL-C-σ (Kreutzer et al., SIAM J. Sci.
  Comput. 36(5), 2014), the unified CPU/GPU format, with chunk height C,
  sorting scope σ, and padding efficiency β.
* :mod:`repro.sparse.blas1` — the BLAS level-1 calls of the naive
  algorithm (paper Fig. 3) with byte/flop accounting per paper Table I.
* :mod:`repro.sparse.spmv` — sparse matrix–(multiple-)vector products.
* :mod:`repro.sparse.fused` — the paper's contribution at kernel level:
  the augmented SpMV (optimization stage 1, Fig. 4) and augmented SpMMV
  (optimization stage 2, Fig. 5) with on-the-fly shift/scale/dot fusion.
* :mod:`repro.sparse.backend` — pluggable kernel backends: the NumPy
  reference and the compiled native C kernels behind one interface.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "csr": ("CSRMatrix",),
    "sell": ("SellMatrix",),
    "blas1": ("axpy", "scal", "dot", "nrm2_sq"),
    "spmv": ("spmv", "spmmv"),
    "io": ("read_matrix_market", "write_matrix_market"),
    "stats": ("analyze", "stencil_reuse_rows", "row_length_histogram"),
    "fused": ("naive_kpm_step", "aug_spmv_step", "aug_spmmv_step",
              "aug_spmmv_nodot_step"),
    "backend": ("BACKEND_CHOICES", "KernelBackend", "KernelPlan",
                "available_backends", "get_backend"),
})
