"""Determinism of the vectorized (_simd) native kernels.

The SIMD kernels vectorize across independent sums, never inside one:
one vector lane per block column (the blocked kernels) or per row (the
single-vector walks), each row summed in storage order whether the
scalar or the AVX2 build executes it, so fp64 moments are bitwise
identical across ``simd='on'`` and ``simd='off'``
— at every block width R, every thread count, every format, and
composed with every subsystem that relies on kernel determinism
(checkpoint resume, the distributed engines, elastic grid mode, serve
coalescing).  These tests pin that contract, the forced-scalar drill
(``REPRO_SIMD_DISABLE``), the clean ``simd='on'`` fallback, and the
half-float converter parity (the scalar software converter must agree
with numpy/F16C on every finite pattern, subnormals included).

On a host without AVX2 the on/off comparisons degenerate to
scalar-vs-scalar — still a valid (if trivial) run of the contract — so
nothing here is gated on the CPU, only on the native backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.moments import compute_eta
from repro.core.scaling import SpectralScale
from repro.core.stochastic import ldos_moments, make_block_vector
from repro.obs import NULL_METRICS
from repro.physics import build_topological_insulator
from repro.sparse.backend.native import (
    native_available,
    simd_available,
    simd_compiled_mask,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.precision import FP16V
from tests.lattice import case_test

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

M = 16


@pytest.fixture(scope="module")
def ti():
    h, _ = build_topological_insulator(6, 6, 4)
    scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
    blocks = {r: make_block_vector(h.n_rows, r, seed=11) for r in (1, 8, 32)}
    return h, scale, blocks


# ---------------------------------------------------------------------
# the tentpole invariant: bitwise on/off, all knobs
# ---------------------------------------------------------------------

@case_test
def test_fp64_bitwise_on_off(): ...
@case_test
def test_fp64_bitwise_on_off_single_vector_engines(): ...
@case_test
def test_narrow_profiles_bitwise_on_off(): ...


@needs_native
def test_ldos_bitwise_on_off(ti):
    h, scale, blocks = ti
    rows = np.array([0, 17, 101])
    on = ldos_moments(h, scale, M, blocks[8], rows, backend="native",
                      simd="on")
    off = ldos_moments(h, scale, M, blocks[8], rows, backend="native",
                       simd="off")
    np.testing.assert_array_equal(on, off)


@case_test
def test_auto_equals_both(): ...


@needs_native
def test_invalid_simd_rejected(ti):
    from repro.util.errors import BackendError

    h, scale, blocks = ti
    with pytest.raises(BackendError, match="simd"):
        compute_eta(h, scale, M, blocks[1], "aug_spmmv", backend="native",
                    simd="fast")


# ---------------------------------------------------------------------
# register tiles: the _simd code path is a function of r
# ---------------------------------------------------------------------

def _ragged_operator(n_rows, n_cols, seed=3):
    """Row lengths 0..11 with row 5 empty: SELL chunks get padding slots."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 12, size=n_rows)
    lengths[5] = 0
    rows = np.repeat(np.arange(n_rows), lengths)
    cols = np.concatenate(
        [rng.choice(n_cols, size=k, replace=False) for k in lengths])
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    return CSRMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))


def _blocked_outputs(bk, A, V, W, prec, simd):
    """Every blocked kernel's outputs on (A, V, W), as (n, r, ...) /
    (r,) arrays keyed by kernel variant: plain, threads=2, spmmv and —
    CSR only — the interior + boundary split pair at threads None and 2."""
    from repro.dist.overlap import TaskSplit

    a, b = 0.3, 0.1
    n, r = A.n_rows, prec.logical_shape(V)[1]
    plan = bk.plan(A, r, precision=prec, simd=simd)
    out = {"spmmv": (bk.spmmv(A, V, plan=plan),)}
    for threads in (None, 2):
        plan = bk.plan(A, r, precision=prec, threads=threads, simd=simd)
        w = W.copy()
        out["aug", threads] = (w, *bk.aug_spmmv_step(A, V, w, a, b, plan=plan))
        if isinstance(A, CSRMatrix) and n == A.n_cols:
            split = TaskSplit(row0=0, row1=64, n_rows=n, nnz_interior=0,
                              nnz_boundary=0)  # eta blocks
            sp = bk.split_plan(A, split, r, precision=prec, threads=threads,
                               simd=simd)
            w = W.copy()
            eta = (*bk._phase(0, A, V, w, a, b, sp, NULL_METRICS),
                   *bk._phase(1, A, V, w, a, b, sp, NULL_METRICS))
            out["split", threads] = (w, *eta)
    return out


@needs_native
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
def test_tiles_bytes_on_off_and_column_independence(precision):
    """W and eta, byte for byte, at every width the tiles cut differently.

    r = 1..40 and 64 walks every combination of the 16 / 8 / 4 / 2 / 1
    column tiles.  77 rows are no multiple of any chunk height (phantom
    lanes), row lengths are ragged (padding slots) and one row is empty.
    Per operator, width and kernel variant: simd='on' == simd='off' on
    the bytes of W and eta, and column k of the r-wide call == the r = 1
    call on that column alone (the coalescing contract at kernel level).
    """
    from repro.sparse.backend import get_backend
    from repro.util.precision import get_precision

    bk = get_backend("native")
    prec = get_precision(precision)
    h = _ragged_operator(77, 77)
    operators = [h] + [SellMatrix(h, chunk_height=c, sigma=s)
                       for c in (1, 4, 8, 32) for s in (1, 32)]
    widths = (*range(1, 41), 64)
    if not prec.is_fp64:
        # past 65,536 columns the narrow profiles stream int32 indices:
        # their own template expansion, hence their own tiles
        operators.append(_ragged_operator(23, 65_600))
    rng = np.random.default_rng(8)

    def storage(n):
        x = rng.normal(size=(n, 64)) + 1j * rng.normal(size=(n, 64))
        return prec.encode(x)

    def cut(X, k0, k1):
        return np.ascontiguousarray(X[:, k0:k1])

    for A in operators:
        wide = A.n_cols != A.n_rows
        V64, W64 = storage(A.n_cols), storage(A.n_rows)
        solo = [] if wide else [
            _blocked_outputs(bk, A, cut(V64, k, k + 1), cut(W64, k, k + 1),
                             prec, "on")
            for k in range(64)
        ]
        for r in ((3, 21) if wide else widths):
            V, W = cut(V64, 0, r), cut(W64, 0, r)
            on = _blocked_outputs(bk, A, V, W, prec, "on")
            off = _blocked_outputs(bk, A, V, W, prec, "off")
            assert on.keys() == off.keys()
            for key, arrays in on.items():
                label = f"{type(A).__name__} r={r} {key}"
                for got, want in zip(arrays, off[key]):
                    assert got.tobytes() == want.tobytes(), label
                for k in range(0 if wide else r):
                    for got, alone in zip(arrays, solo[k][key]):
                        # W / Y: column k of the block; eta: entry k
                        col = got[:, k] if got.ndim > 1 else got[k]
                        one = alone[:, 0] if alone.ndim > 1 else alone[0]
                        assert col.tobytes() == one.tobytes(), (label, k)


# ---------------------------------------------------------------------
# forced-scalar drill and the 'on' fallback
# ---------------------------------------------------------------------

@needs_native
def test_forced_scalar_drill(ti, monkeypatch):
    """REPRO_SIMD_DISABLE flips every path to scalar, bitwise unchanged."""
    h, scale, blocks = ti
    want = compute_eta(h, scale, M, blocks[8], "aug_spmmv",
                       backend="native", simd="off")
    monkeypatch.setenv("REPRO_SIMD_DISABLE", "1")
    assert not simd_available()
    for simd in ("auto", "on", "off"):
        got = compute_eta(h, scale, M, blocks[8], "aug_spmmv",
                          backend="native", simd=simd)
        np.testing.assert_array_equal(got, want)


@needs_native
def test_on_fallback_counts(ti, monkeypatch):
    """simd='on' without the kernels falls back cleanly and is counted."""
    from repro.obs import GLOBAL_METRICS

    h, scale, blocks = ti
    monkeypatch.setenv("REPRO_SIMD_DISABLE", "1")
    before = GLOBAL_METRICS.counters.get("backend.native.simd_fallbacks", 0)
    compute_eta(h, scale, M, blocks[1], "aug_spmmv", backend="native",
                simd="on")
    after = GLOBAL_METRICS.counters.get("backend.native.simd_fallbacks", 0)
    assert after > before


# ---------------------------------------------------------------------
# composition with the determinism-dependent subsystems
# ---------------------------------------------------------------------

@case_test
def test_checkpoint_resume_across_simd_settings(): ...
@case_test
def test_distributed_bitwise_on_off(): ...
@case_test
def test_elastic_grid_bitwise_on_off(): ...
@case_test
def test_serve_coalescing_invisible_under_simd(): ...


# ---------------------------------------------------------------------
# half-float converter parity (the subnormal regression trap)
# ---------------------------------------------------------------------

@needs_native
@pytest.mark.parametrize("scalar_only", [True, False],
                         ids=["scalar", "vector"])
def test_half_converters_match_numpy_on_all_finite_patterns(
        monkeypatch, scalar_only):
    """Every finite f16 pattern round-trips the native kernels exactly.

    Streams all 65536 bit patterns (as re/im pairs) through an identity
    SpMV in half storage under both the scalar software converter
    (forced via ``REPRO_SIMD_DISABLE``) and the F16C build, and compares
    with numpy's own float16 -> float32 conversion.  This is the test
    that catches the scalar converter's historical subnormal off-by-one
    (exponent 127-15-shift instead of 127-14-shift halved every
    subnormal value).
    """
    from repro.sparse.backend import get_backend

    if scalar_only:
        monkeypatch.setenv("REPRO_SIMD_DISABLE", "1")
    patterns = np.arange(65536, dtype=np.uint32).astype(np.uint16)
    half = patterns.view(np.float16)
    finite = np.isfinite(half)
    n = 32768  # 65536 values = 32768 (re, im) pairs
    v = np.ascontiguousarray(half.reshape(n, 2))
    eye = CSRMatrix.identity(n)
    out = get_backend("native").spmv(eye, v)
    got = FP16V.decode(out)
    got = np.stack([got.real, got.imag], axis=-1).reshape(-1)
    ref = half.astype(np.float32)
    np.testing.assert_array_equal(
        got[finite], ref[finite],
        err_msg="half converter diverges from numpy "
                f"(scalar_only={scalar_only})",
    )


@needs_native
def test_simd_compiled_mask_reports_isa():
    """The mask is stable and consistent with the availability API."""
    mask = simd_compiled_mask()
    assert mask == simd_compiled_mask()  # memoized / deterministic
    if not (mask & 1):
        assert not simd_available()
