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
* :mod:`repro.sparse.backend` — the kernels: Sp(M)MV, the naive chain
  (Fig. 3) and the paper's contribution at kernel level, the augmented
  SpMV (optimization stage 1, Fig. 4) and augmented SpMMV (stage 2,
  Fig. 5), in two backends behind one interface — the NumPy reference
  and the compiled native C kernels.  Reach them through
  :func:`~repro.sparse.backend.get_backend`.
* :mod:`repro.sparse.fused` — what the backends share: the Table-I
  charges, the recombination pass and the fp64-accumulated dots.
* :mod:`repro.sparse.sell_kernels` — the layout-faithful pure-NumPy
  SELL-C-σ traversal the backends are tested against.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "csr": ("CSRMatrix",),
    "sell": ("SellMatrix",),
    "blas1": ("axpy", "scal", "dot", "nrm2_sq"),
    "io": ("read_matrix_market",),
    "stats": ("analyze", "stencil_reuse_rows", "row_length_histogram"),
    "backend": ("BACKEND_CHOICES", "KernelBackend", "KernelPlan",
                "available_backends", "get_backend"),
})
