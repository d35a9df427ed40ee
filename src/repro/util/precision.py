"""Precision profiles: mixed-precision storage for the bandwidth-bound kernels.

The paper's roofline argument (Sections III and V) makes KPM memory-
bandwidth-bound once the solver is blocked: after code balance drops to
Eq. (7)'s ~0.35 bytes/flop limit the only remaining lever is moving
fewer bytes per nonzero.  The classic KPM review (Weisse et al., RMP
2006) observes that single precision is typically sufficient for
Chebyshev moment accumulation once the spectrum is rescaled into
[-1, 1] — the recurrence is a bounded polynomial map, so storage
rounding does not amplify.

A :class:`Precision` profile bundles every storage decision the kernels
make:

``fp64``
    The paper's baseline: complex128 matrix values and vectors
    (S_d = 16), 4-byte column indices.  Bitwise identical to the
    pre-precision code path everywhere.
``fp32``
    complex64 matrix values *and* vectors (8 bytes each) with narrow
    (compressed) column indices.  All scalar products still form their
    terms in fp64 and reduce them by the one eta reduction (DESIGN §19),
    so the eta moments stay accurate and deterministic.
``fp16v``
    The opt-in half-storage tier: matrix values stay complex64, but
    block *vectors* are stored as interleaved (re, im) float16 pairs
    (4 bytes per complex element) and promoted to fp32 inside the
    kernels (fp16 storage / fp32 compute).  The dots reduce in fp64 as
    for ``fp32``.

Index compression rides along: after the distributed partition
renumbers columns into [local | halo] order (and for any serial
operator with at most 65,536 columns), local column indices fit in
uint16, so the narrow profiles charge and stream S_i = 2 instead of 4.
The fp64 profile always keeps the paper's S_i = 4 so every published
Table-I number is untouched.

Half-complex vectors are NumPy arrays of shape ``(..., 2)`` float16 —
the trailing axis is the (re, im) pair, matching the interleaved memory
layout the C kernels read.  Because row indexing, row gathers
(``np.take(..., axis=0)``) and real-scalar elementwise arithmetic all
act on leading axes only, the distributed halo machinery handles these
arrays through exactly the same code paths as complex blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import S_D, S_I
from repro.util.knobs import PRECISION_CHOICES  # noqa: F401  (re-exported)

#: Largest column count addressable by uint16 indices (index values are
#: 0 .. n_cols-1, so exactly 65,536 columns still fit).
UINT16_MAX_COLS: int = 1 << 16

#: Bytes per uint16 column index.
S_I_NARROW: int = 2


@dataclass(frozen=True)
class Precision:
    """One storage profile for matrix values, vectors, and indices.

    Attributes
    ----------
    name:
        User-facing profile name (``'fp64'``, ``'fp32'``, ``'fp16v'``).
    value_dtype:
        NumPy dtype of the matrix-value stream the kernels read.
    vector_dtype:
        Scalar dtype of vector storage: a complex dtype, or
        ``float16`` for the half-complex (re, im) pair layout.
    s_value:
        Bytes per streamed matrix value element (paper: part of S_d).
    s_vector:
        Bytes per stored complex vector element.
    narrow_indices:
        Whether this profile compresses eligible column indices to
        uint16 (the fp64 baseline never does, preserving S_i = 4).
    """

    name: str
    value_dtype: object
    vector_dtype: object
    s_value: int
    s_vector: int
    narrow_indices: bool

    # -- classification ------------------------------------------------
    @property
    def is_fp64(self) -> bool:
        return self.name == "fp64"

    @property
    def half_vectors(self) -> bool:
        """True when vectors are stored as float16 (re, im) pairs."""
        return np.dtype(self.vector_dtype) == np.float16

    @property
    def compute_dtype(self):
        """Complex dtype the arithmetic runs in (fp16 promotes to fp32)."""
        return np.complex128 if self.is_fp64 else np.complex64

    # -- index compression ---------------------------------------------
    def index_dtype(self, n_cols: int):
        """Narrowest index dtype this profile uses for ``n_cols`` columns."""
        if self.narrow_indices and n_cols <= UINT16_MAX_COLS:
            return np.uint16
        return np.int32

    def index_bytes(self, n_cols: int) -> int:
        """S_i of this profile for a matrix with ``n_cols`` columns."""
        if self.narrow_indices and n_cols <= UINT16_MAX_COLS:
            return S_I_NARROW
        return S_I

    # -- vector storage ------------------------------------------------
    def vec_shape(self, *dims: int) -> tuple[int, ...]:
        """Storage shape of a logical ``dims`` vector/block (adds the
        trailing (re, im) pair axis for half storage)."""
        return (*dims, 2) if self.half_vectors else tuple(dims)

    def vec_empty(self, *dims: int) -> np.ndarray:
        return np.empty(self.vec_shape(*dims), dtype=self.vector_dtype)

    def vec_zeros(self, *dims: int) -> np.ndarray:
        return np.zeros(self.vec_shape(*dims), dtype=self.vector_dtype)

    def logical_shape(self, arr: np.ndarray) -> tuple[int, ...]:
        """Logical (complex-element) shape of a storage array."""
        return arr.shape[:-1] if self.half_vectors else arr.shape

    def encode(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Convert a complex array into this profile's vector storage.

        Always copies (the result is private storage).  ``out`` may be a
        preallocated storage array of the matching shape.
        """
        src = np.asarray(src)
        if not self.half_vectors:
            if out is None:
                return np.ascontiguousarray(src, dtype=self.vector_dtype).copy() \
                    if src.dtype == self.vector_dtype else \
                    src.astype(self.vector_dtype)
            np.copyto(out, src, casting="same_kind" if out.dtype == src.dtype
                      else "unsafe")
            return out
        if out is None:
            out = np.empty((*src.shape, 2), dtype=np.float16)
        out[..., 0] = src.real
        out[..., 1] = src.imag
        return out

    def decode(self, storage: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Convert vector storage back to the profile's compute dtype.

        ``out`` (compute-dtype, logical shape) makes the call
        allocation-free; the workspace plans rely on this.
        """
        if not self.half_vectors:
            if out is None:
                return storage.astype(self.compute_dtype, copy=True)
            np.copyto(out, storage, casting="unsafe"
                      if out.dtype != storage.dtype else "same_kind")
            return out
        if out is None:
            out = np.empty(storage.shape[:-1], dtype=self.compute_dtype)
        out.real = storage[..., 0]
        out.imag = storage[..., 1]
        return out


#: The paper's baseline profile — everything exactly as before this layer.
FP64 = Precision("fp64", np.complex128, np.complex128, S_D, S_D, False)

#: Single-precision values and vectors, fp64-accumulated dots.
FP32 = Precision("fp32", np.complex64, np.complex64, 8, 8, True)

#: fp16 vector storage / fp32 compute; matrix values stay complex64.
FP16V = Precision("fp16v", np.complex64, np.float16, 8, 4, True)

PRECISIONS: dict[str, Precision] = {p.name: p for p in (FP64, FP32, FP16V)}


def get_precision(precision: "Precision | str | None") -> Precision:
    """Resolve a profile by name (``None`` means the fp64 baseline)."""
    if precision is None:
        return FP64
    if isinstance(precision, Precision):
        return precision
    try:
        return PRECISIONS[str(precision).lower()]
    except KeyError:
        raise ValueError(
            f"unknown precision {precision!r}; choose from "
            f"{sorted(PRECISIONS)}"
        ) from None


def precision_of(vec: np.ndarray) -> Precision:
    """Infer the profile from a vector storage array's dtype.

    The three profiles have disjoint vector storage dtypes (complex128 /
    complex64 / float16 pairs), so any kernel can recover the active
    profile — and hence the correct Table-I byte charges — from its
    vector operand alone, keeping every existing call site valid.
    """
    dt = vec.dtype
    if dt == np.complex128:
        return FP64
    if dt == np.complex64:
        return FP32
    if dt == np.float16:
        return FP16V
    raise TypeError(
        f"no precision profile stores vectors as dtype {dt}; expected "
        "complex128, complex64, or float16 (re, im) pairs"
    )
