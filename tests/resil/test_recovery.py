"""Recovery determinism: resumed runs are bitwise equal to uninterrupted ones.

The tentpole invariant of the resilience layer.  A fault-injected run that
crashes mid-recurrence, reloads the latest checkpoint, and finishes must
produce moments *bitwise identical* to an unfaulted run on the same
engine/partition/backend: the checkpoint snapshots the exact recurrence
state, the inherited eta prefix is spliced verbatim (never re-reduced),
and the suffix is recomputed by the one eta reduction.
"""

import numpy as np
import pytest

from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpWorld
from repro.dist.partition import RowPartition
from repro.resil import FaultPlan, RetryPolicy, Supervisor
from repro.sparse.backend.native import native_available
from tests.lattice import case_test

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

M = 16  # checkpoint_every=2 with a crash at m=5 resumes from m=5


@pytest.fixture(scope="module")
def ham():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(4, 4, 2)
    return h, lanczos_scale(h, seed=0)


def supervised(h, scale, blk, *, engine, workers, backend, plan, tmp_path,
               attempts=2):
    sup = Supervisor(
        RetryPolicy(max_attempts=attempts),
        checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz",
        fault_plan=FaultPlan.parse(plan),
    )
    eta = sup.run_eta(h, scale, M, blk, engine=engine, workers=workers,
                      backend=backend)
    return eta, sup.report


class TestMpCrashRecovery:
    """Worker death mid-run: salvage the shared checkpoint, resume, match."""

    # workers x backend x R, per the recovery-determinism matrix
    CASES = [
        (2, "numpy", 1),
        (2, "numpy", 3),
        (3, "numpy", 2),
        pytest.param(2, "native", 2, marks=needs_native),
    ]

    @pytest.mark.parametrize("workers,backend,r", CASES)
    def test_bitwise_equal_to_unfaulted(self, ham, tmp_path, workers,
                                        backend, r):
        h, scale = ham
        blk = make_block_vector(h.n_rows, r, seed=3)
        part = RowPartition.equal(h.n_rows, workers, align=64)
        ref = distributed_eta(h, part, scale, M, blk, MpWorld(workers),
                              backend=backend)
        eta, report = supervised(
            h, scale, blk, engine="mp", workers=workers, backend=backend,
            plan="crash:rank=1,m=5", tmp_path=tmp_path,
        )
        assert np.array_equal(eta, ref)
        assert report.faults == 1
        assert report.attempts[0].error_class == "worker_death"
        assert report.resumes == 1
        # the crash hit at m=5; checkpoints land at m=2 and m=4
        assert report.resume_m == 5
        assert report.final_engine == "mp"

    def test_worker_exception_recovery(self, ham, tmp_path):
        h, scale = ham
        blk = make_block_vector(h.n_rows, 2, seed=4)
        part = RowPartition.equal(h.n_rows, 2, align=64)
        ref = distributed_eta(h, part, scale, M, blk, MpWorld(2),
                              backend="numpy")
        eta, report = supervised(
            h, scale, blk, engine="mp", workers=2, backend="numpy",
            plan="raise:rank=0,m=6", tmp_path=tmp_path,
        )
        assert np.array_equal(eta, ref)
        assert report.attempts[0].error_class == "worker_exception"
        assert report.resumes == 1

    def test_persistent_crash_degrades_to_sim(self, ham, tmp_path):
        h, scale = ham
        blk = make_block_vector(h.n_rows, 2, seed=5)
        part = RowPartition.equal(h.n_rows, 2, align=64)
        ref = distributed_eta(h, part, scale, M, blk, SimWorld(2),
                              backend="numpy")
        # the crash chases the job across both mp attempts; the sim rung
        # (attempt 3) resumes from the salvaged checkpoint and finishes
        eta, report = supervised(
            h, scale, blk, engine="mp", workers=2, backend="numpy",
            plan="crash:rank=1,m=5,attempt=1;crash:rank=1,m=5,attempt=2",
            tmp_path=tmp_path,
        )
        assert np.array_equal(eta, ref)
        assert report.faults == 2
        assert report.engine_degradations == 1
        assert report.final_engine == "sim"
        assert report.resumes >= 1


class TestSerialRecoveryMatrix:
    """The same invariant on the serial engine, across backends."""

    @case_test
    def test_bitwise_equal_to_unfaulted(self): ...


class TestSimRecoveryMatrix:
    @case_test
    def test_bitwise_equal_to_unfaulted(self): ...
