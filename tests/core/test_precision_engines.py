"""End-to-end behaviour of the precision profiles in the moment engines.

Covers: reduced-profile eta accuracy against the fp64 reference,
native/numpy cross-backend parity per profile, exact byte accounting
under compressed indices, the documented fp16v exclusions, and the
checkpoint contract (bit-exact same-precision resume, refused
cross-precision resume).
"""

import numpy as np
import pytest

from repro.core.checkpoint import KpmCheckpoint, checkpointed_eta
from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.solver import KPMSolver
from repro.core.stochastic import ldos_moments, make_block_vector
from repro.sparse.backend.native import native_available
from repro.util.errors import CheckpointError
from repro.util.precision import FP16V, get_precision
from tests.lattice import case_test

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

BACKENDS = ["numpy", pytest.param("native", marks=needs_native)]

#: eta relative-error budgets (same rationale as tools/check_accuracy.py)
ETA_BUDGET = {"fp32": 1e-4, "fp16v": 5e-2}


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(5, 5, 3)
    scale = lanczos_scale(h, seed=0)
    blk = make_block_vector(h.n_rows, 3, seed=1)
    ref = compute_eta(h, scale, 32, blk, "aug_spmmv")
    return h, scale, blk, ref


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestEngineAccuracy:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ["naive", "aug_spmv", "aug_spmmv"])
    @pytest.mark.parametrize("precision", ["fp32", "fp16v"])
    def test_reduced_profiles_track_fp64(self, system, backend, engine,
                                         precision):
        h, scale, blk, ref = system
        eta = compute_eta(h, scale, 32, blk, engine, backend=backend,
                          precision=precision)
        assert eta.dtype == np.complex128  # moments always accumulate wide
        assert _rel_err(eta, ref) < ETA_BUDGET[precision]

    @case_test
    def test_fp64_path_is_bitwise_baseline(self): ...
    @case_test
    def test_native_numpy_parity(self): ...
    @case_test
    def test_counters_match_model(self): ...

    def test_mismatched_block_dtype_rejected(self, system):
        h, scale, blk, _ = system
        half = FP16V.encode(blk)
        with pytest.raises(TypeError, match="fp16v"):
            compute_eta(h, scale, 32, half, "aug_spmmv", precision="fp32")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ldos_fp16v_decode_pass(self, system, backend):
        """The decode pass lifts the old fp16v exclusion from LDOS."""
        h, scale, blk, _ = system
        rows = np.array([0, 7, 31])
        ref = ldos_moments(h, scale, 16, blk, rows, backend=backend,
                           precision="fp32")
        out = ldos_moments(h, scale, 16, blk, rows, backend=backend,
                           precision="fp16v")
        assert out.shape == ref.shape
        err = np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-30)
        assert err < ETA_BUDGET["fp16v"]


class TestCheckpointPrecision:
    def test_fp32_resume_is_bit_exact(self, system, tmp_path):
        h, scale, blk, _ = system
        ck = tmp_path / "state.npz"
        full = checkpointed_eta(h, scale, 32, blk, checkpoint_every=5,
                                checkpoint_path=ck, precision="fp32")
        resumed = checkpointed_eta(h, scale, 32, blk, resume_from=ck,
                                   precision="fp32")
        assert np.array_equal(resumed, full)
        # the file really stores the narrow profile, not a widened copy
        loaded = KpmCheckpoint.load(ck)
        assert loaded.precision == "fp32"
        assert loaded.v.dtype == np.complex64

    def test_fp16v_checkpoint_stores_pairs(self, system, tmp_path):
        h, scale, blk, _ = system
        ck = tmp_path / "state.npz"
        full = checkpointed_eta(h, scale, 32, blk, checkpoint_every=5,
                                checkpoint_path=ck, precision="fp16v")
        loaded = KpmCheckpoint.load(ck)
        assert loaded.precision == "fp16v"
        assert loaded.v.dtype == np.float16 and loaded.v.shape[-1] == 2
        resumed = checkpointed_eta(h, scale, 32, blk, resume_from=ck,
                                   precision="fp16v")
        assert np.array_equal(resumed, full)

    @pytest.mark.parametrize("saved,resumed", [
        ("fp32", "fp64"), ("fp64", "fp32"), ("fp16v", "fp32"),
    ])
    def test_cross_precision_resume_refused(self, system, tmp_path,
                                            saved, resumed):
        h, scale, blk, _ = system
        ck = tmp_path / "state.npz"
        checkpointed_eta(h, scale, 32, blk, checkpoint_every=5,
                         checkpoint_path=ck, precision=saved)
        with pytest.raises(CheckpointError, match="precision"):
            checkpointed_eta(h, scale, 32, blk, resume_from=ck,
                             precision=resumed)


class TestSolverPrecision:
    def test_solver_threads_precision(self):
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(5, 5, 3)
        ref = KPMSolver(h, n_moments=64, n_vectors=2, seed=3).dos(
            n_points=256)
        sol = KPMSolver(h, n_moments=64, n_vectors=2, seed=3,
                        precision="fp32")
        assert sol.precision is get_precision("fp32")
        res = sol.dos(n_points=256)
        peak = np.max(np.abs(ref.rho))
        assert np.max(np.abs(res.rho - ref.rho)) / peak < 1e-4
        assert np.array_equal(res.energies, ref.energies)

    def test_solver_rejects_unknown_profile(self):
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(4, 4, 3)
        with pytest.raises(ValueError, match="unknown precision"):
            KPMSolver(h, precision="bf16")
