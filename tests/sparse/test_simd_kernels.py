"""Determinism of the vectorized (_simd) native kernels.

The SIMD kernels vectorize the augmented/split kernels with a *fixed
lane-blocked reduction*: every fp64 dot accumulates in the same 8-lane
blocks whether the scalar or the AVX2 build executes it, so fp64
moments are bitwise identical across ``simd='on'`` and ``simd='off'``
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

from repro.core.checkpoint import checkpointed_eta
from repro.core.moments import compute_eta
from repro.core.scaling import SpectralScale
from repro.core.stochastic import ldos_moments, make_block_vector
from repro.physics import build_topological_insulator
from repro.sparse.backend.native import (
    native_available,
    simd_available,
    simd_compiled_mask,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.precision import FP16V

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


def _operator(h, fmt: str):
    if fmt == "sell":
        return SellMatrix(h, chunk_height=8, sigma=32)
    return h


# ---------------------------------------------------------------------
# the tentpole invariant: bitwise on/off, all knobs
# ---------------------------------------------------------------------

@needs_native
@pytest.mark.parametrize("fmt", ["csr", "sell"])
@pytest.mark.parametrize("r", [1, 8, 32])
@pytest.mark.parametrize("threads", [None, 1, 2, 4])
def test_fp64_bitwise_on_off(ti, fmt, r, threads):
    """eta(simd='on') and eta(simd='off') are one bit pattern."""
    h, scale, blocks = ti
    A = _operator(h, fmt)
    on = compute_eta(A, scale, M, blocks[r], "aug_spmmv", backend="native",
                     threads=threads, simd="on")
    off = compute_eta(A, scale, M, blocks[r], "aug_spmmv", backend="native",
                      threads=threads, simd="off")
    np.testing.assert_array_equal(on, off)


@needs_native
@pytest.mark.parametrize("fmt", ["csr", "sell"])
@pytest.mark.parametrize("engine", ["naive", "aug_spmv"])
def test_fp64_bitwise_on_off_single_vector_engines(ti, fmt, engine):
    h, scale, blocks = ti
    A = _operator(h, fmt)
    blk = np.ascontiguousarray(blocks[8][:, :3])
    on = compute_eta(A, scale, M, blk, engine, backend="native", simd="on")
    off = compute_eta(A, scale, M, blk, engine, backend="native", simd="off")
    np.testing.assert_array_equal(on, off)


@needs_native
@pytest.mark.parametrize("precision", ["fp32", "fp16v"])
def test_narrow_profiles_bitwise_on_off(ti, precision):
    """Narrow storage rounds identically too: same DAG, same lanes."""
    h, scale, blocks = ti
    for A in (h, _operator(h, "sell")):
        on = compute_eta(A, scale, M, blocks[8], "aug_spmmv",
                         backend="native", precision=precision, simd="on")
        off = compute_eta(A, scale, M, blocks[8], "aug_spmmv",
                          backend="native", precision=precision, simd="off")
        np.testing.assert_array_equal(on, off)


@needs_native
def test_ldos_bitwise_on_off(ti):
    h, scale, blocks = ti
    rows = np.array([0, 17, 101])
    on = ldos_moments(h, scale, M, blocks[8], rows, backend="native",
                      simd="on")
    off = ldos_moments(h, scale, M, blocks[8], rows, backend="native",
                       simd="off")
    np.testing.assert_array_equal(on, off)


@needs_native
def test_auto_equals_both(ti):
    """'auto' (and the None default) picks one of the two bit patterns."""
    h, scale, blocks = ti
    auto = compute_eta(h, scale, M, blocks[8], "aug_spmmv",
                       backend="native", simd="auto")
    default = compute_eta(h, scale, M, blocks[8], "aug_spmmv",
                          backend="native")
    off = compute_eta(h, scale, M, blocks[8], "aug_spmmv",
                      backend="native", simd="off")
    np.testing.assert_array_equal(auto, off)
    np.testing.assert_array_equal(default, off)


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
    CSR only — the range + rows split pair at threads None and 2."""
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
            split = TaskSplit(9, 50, np.r_[0:9, 50:n], n, 0, 0)
            sp = bk.split_plan(A, split, r, precision=prec, threads=threads,
                               simd=simd)
            w = W.copy()
            eta = (*bk.aug_spmmv_interior(A, V, w, a, b, plan=sp),
                   *bk.aug_spmmv_boundary(A, V, w, a, b, plan=sp))
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

@needs_native
def test_checkpoint_resume_across_simd_settings(ti, tmp_path):
    """A run checkpointed under simd='on' resumes bit-exactly under 'off'."""
    h, scale, blocks = ti
    ck = tmp_path / "state.npz"
    full = checkpointed_eta(h, scale, M, blocks[8], simd="off",
                            backend="native")
    checkpointed_eta(h, scale, M, blocks[8], checkpoint_every=3,
                     checkpoint_path=ck, simd="on", backend="native")
    resumed = checkpointed_eta(h, scale, M, blocks[8], resume_from=ck,
                               simd="off", backend="native")
    np.testing.assert_array_equal(resumed, full)


@needs_native
@pytest.mark.parametrize("world_kind", ["sim", "mp"])
def test_distributed_bitwise_on_off(ti, world_kind):
    from repro.dist.comm import SimWorld
    from repro.dist.kpm_parallel import distributed_eta
    from repro.dist.mp import MpWorld
    from repro.dist.partition import RowPartition

    h, scale, blocks = ti
    part = RowPartition.equal(h.n_rows, 2, align=4)

    def run(simd):
        world = MpWorld(2) if world_kind == "mp" else SimWorld(2)
        return distributed_eta(h, part, scale, M, blocks[8], world,
                               backend="native", simd=simd)

    np.testing.assert_array_equal(run("on"), run("off"))


@needs_native
def test_elastic_grid_bitwise_on_off(ti):
    """Grid-eta mode and the SIMD knob compose: both bitwise-invisible."""
    from repro.dist.comm import SimWorld
    from repro.dist.kpm_parallel import distributed_eta
    from repro.dist.partition import RowPartition

    h, scale, blocks = ti
    grid = 16

    def run(simd, ranks):
        part = RowPartition.equal(h.n_rows, ranks, align=grid)
        return distributed_eta(h, part, scale, M, blocks[8],
                               SimWorld(ranks), backend="native",
                               simd=simd, eta_grid=grid)

    base = run("off", 2)
    np.testing.assert_array_equal(run("on", 2), base)
    # the full elastic promise: the knob AND the partition are invisible
    np.testing.assert_array_equal(run("on", 3), base)


@needs_native
def test_serve_coalescing_invisible_under_simd():
    """A width-k batch on SIMD kernels returns solo-scalar bit patterns."""
    from repro.serve import HamiltonianSpec, KPMServer, Request

    spec = HamiltonianSpec("topological_insulator",
                           {"nx": 6, "ny": 6, "nz": 4})

    def moments(seeds, width, simd):
        srv = KPMServer(max_width=width, backend="native", simd=simd)
        tickets = [
            srv.submit(Request(spec, n_moments=M, n_vectors=1, seed=s))
            for s in seeds
        ]
        srv.step()
        while srv.step():
            pass
        return [t.result().moments for t in tickets]

    batch = moments([0, 1, 2, 3], 4, "on")
    for mu, s in zip(batch, [0, 1, 2, 3]):
        (solo,) = moments([s], 1, "off")
        np.testing.assert_array_equal(mu, solo)


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
