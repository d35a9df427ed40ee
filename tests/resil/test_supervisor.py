"""The supervisor: classification, retries, degradation, checkpoint drills."""

import numpy as np
import pytest

from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.obs import MetricsRegistry
from repro.resil import (
    ENGINE_LADDERS,
    FaultPlan,
    Resilience,
    RetryPolicy,
    Supervisor,
    classify_error,
)
from repro.sparse.backend.native import native_available
from repro.util.errors import (
    BackendError,
    CheckpointError,
    FaultInjected,
    FormatError,
    RetryExhaustedError,
    WorkerFailure,
    WorkerFault,
)


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(4, 4, 2)
    scale = lanczos_scale(h, seed=0)
    blk = make_block_vector(h.n_rows, 2, seed=1)
    ref = compute_eta(h, scale, 16, blk, "aug_spmmv", backend="numpy")
    return h, scale, blk, ref


def make_supervisor(**kw):
    kw.setdefault("policy", RetryPolicy(max_attempts=2))
    return Supervisor(**kw)


class TestClassify:
    def test_checkpoint(self):
        assert classify_error(CheckpointError("bad")) == "checkpoint"

    def test_backend(self):
        assert classify_error(BackendError("no compiler")) == "backend"

    def test_worker_death(self):
        exc = WorkerFailure("died", [WorkerFault(1, "death", exit_code=3)])
        assert classify_error(exc) == "worker_death"

    def test_stall_wins_over_death(self):
        # a stalled rank usually drags peers down with it; classify by cause
        exc = WorkerFailure("wedged", [
            WorkerFault(0, "stall"), WorkerFault(1, "death", exit_code=-15),
        ])
        assert classify_error(exc) == "stall"

    def test_run_timeout_is_a_stall(self):
        exc = WorkerFailure("deadline", [WorkerFault(0, "timeout")])
        assert classify_error(exc) == "stall"

    def test_worker_exception(self):
        exc = WorkerFailure("raised", [WorkerFault(0, "exception", "boom")])
        assert classify_error(exc) == "worker_exception"

    def test_fault_injected(self):
        assert classify_error(FaultInjected("x")) == "worker_exception"
        assert classify_error(FaultInjected("x", kind="stall")) == "stall"

    def test_repro_error_is_engine(self):
        assert classify_error(FormatError("bad matrix")) == "engine"

    def test_anything_else_is_unknown(self):
        assert classify_error(RuntimeError("?")) == "unknown"


class TestLadders:
    def test_shapes(self):
        assert ENGINE_LADDERS["mp"] == ("mp", "sim", "serial")
        assert ENGINE_LADDERS["sim"] == ("sim", "serial")
        assert ENGINE_LADDERS["serial"] == ("serial",)

    def test_unknown_engine_rejected(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError, match="engine"):
            make_supervisor().run_eta(h, scale, 16, blk, engine="mpi")


class TestSerialRecovery:
    def test_clean_run_matches_engine(self, system):
        h, scale, blk, ref = system
        sup = make_supervisor()
        eta = sup.run_eta(h, scale, 16, blk, engine="serial",
                          backend="numpy")
        assert np.array_equal(eta, ref)
        assert sup.report.faults == 0
        assert "clean first attempt" in sup.report.summary()

    def test_injected_fault_retries_to_success(self, system):
        h, scale, blk, ref = system
        metrics = MetricsRegistry()
        sup = make_supervisor(
            fault_plan="raise:rank=0,m=4", metrics=metrics,
        )
        eta = sup.run_eta(h, scale, 16, blk, engine="serial",
                          backend="numpy")
        assert np.array_equal(eta, ref)  # recovery never changes numerics
        assert sup.report.faults == 1
        assert sup.report.retries == 1
        assert sup.report.attempts[0].error_class == "worker_exception"
        assert metrics.counters["resil.faults"] == 1
        assert metrics.counters["resil.faults.worker_exception"] == 1
        assert metrics.counters["resil.retries"] == 1

    def test_checkpoint_resume_is_bitwise(self, system, tmp_path):
        h, scale, blk, ref = system
        metrics = MetricsRegistry()
        sup = make_supervisor(
            fault_plan="raise:rank=0,m=6",
            checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz",
            metrics=metrics,
        )
        eta = sup.run_eta(h, scale, 16, blk, engine="serial",
                          backend="numpy")
        assert np.array_equal(eta, ref)
        assert sup.report.resumes == 1
        assert sup.report.resume_m is not None and sup.report.resume_m > 1
        assert metrics.gauges["resil.resume_m"] == sup.report.resume_m
        assert "resumed from checkpoint" in sup.report.summary()

    def test_auto_tempdir_checkpoint_is_cleaned(self, system):
        import glob

        h, scale, blk, ref = system
        sup = make_supervisor(fault_plan="raise:rank=0,m=6",
                              checkpoint_every=2)
        eta = sup.run_eta(h, scale, 16, blk, engine="serial",
                          backend="numpy")
        assert np.array_equal(eta, ref)
        assert sup.report.resumes == 1
        import tempfile
        assert not glob.glob(tempfile.gettempdir() + "/repro-resil-*")

    def test_exhaustion_raises_with_history(self, system):
        h, scale, blk, _ = system
        # the fault fires on every attempt: unrecoverable by retrying
        plan = FaultPlan.parse("raise:m=4,attempt=1;raise:m=4,attempt=2")
        sup = make_supervisor(fault_plan=plan, degrade=False)
        with pytest.raises(RetryExhaustedError) as ei:
            sup.run_eta(h, scale, 16, blk, engine="serial", backend="numpy")
        hist = ei.value.history
        assert len(hist) == 2
        assert [h_[1] for h_ in hist] == [1, 2]
        assert all(h_[0] == "serial" for h_ in hist)


class TestDegradation:
    def test_sim_degrades_to_serial(self, system):
        h, scale, blk, ref = system
        metrics = MetricsRegistry()
        # one attempt per rung; the fault fires on both attempts, but the
        # serial engine runs as rank 0 only and the fault targets rank 1
        plan = FaultPlan.parse("raise:rank=1,m=3,attempt=1;"
                               "raise:rank=1,m=3,attempt=2")
        sup = Supervisor(RetryPolicy(max_attempts=1), fault_plan=plan,
                         metrics=metrics)
        eta = sup.run_eta(h, scale, 16, blk, engine="sim", workers=2,
                          backend="numpy")
        assert np.array_equal(eta, ref)
        assert sup.report.engine_degradations == 1
        assert sup.report.final_engine == "serial"
        assert metrics.counters["resil.engine_degraded"] == 1
        assert "degraded engine 1x" in sup.report.summary()

    def test_no_degrade_stays_on_requested_engine(self, system):
        h, scale, blk, _ = system
        plan = FaultPlan.parse("raise:rank=1,m=3,attempt=1;"
                               "raise:rank=1,m=3,attempt=2")
        sup = Supervisor(RetryPolicy(max_attempts=2), fault_plan=plan,
                         degrade=False)
        with pytest.raises(RetryExhaustedError, match="sim"):
            sup.run_eta(h, scale, 16, blk, engine="sim", workers=2,
                        backend="numpy")

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_backend_degradation_keeps_the_bits(self, system, tmp_path):
        """A native kernel that fails once, mid-run: the retry resumes the
        native checkpoint on numpy and returns the undegraded run's bits."""
        from repro.sparse.backend import NativeBackend, reset_backend_health

        h, scale, blk, _ = system

        class FailsOnce(NativeBackend):
            calls = 0

            def _step(self, *args, **kwargs):  # every recurrence step's
                FailsOnce.calls += 1
                if FailsOnce.calls == 6:
                    raise BackendError("injected kernel fault")
                return super()._step(*args, **kwargs)

        ref = compute_eta(h, scale, 16, blk, "aug_spmmv", backend="native")
        sup = make_supervisor(checkpoint_every=2,
                              checkpoint_path=tmp_path / "ck.npz")
        try:
            eta = sup.run_eta(h, scale, 16, blk, engine="serial",
                              backend=FailsOnce())
        finally:
            reset_backend_health()
        assert np.array_equal(eta, ref)
        assert sup.report.backend_degradations == 1
        assert sup.report.final_backend == "numpy"
        assert sup.report.resume_m == 5


class TestCheckpointDrill:
    def test_corrupt_ckpt_discards_and_restarts(self, system, tmp_path):
        h, scale, blk, ref = system
        metrics = MetricsRegistry()
        # attempt 1 saves checkpoints then faults; before attempt 2 the
        # drill corrupts the file, so recovery must fall back to m=0
        sup = make_supervisor(
            fault_plan="raise:rank=0,m=6;corrupt-ckpt:attempt=2",
            checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz",
            metrics=metrics,
        )
        eta = sup.run_eta(h, scale, 16, blk, engine="serial",
                          backend="numpy")
        assert np.array_equal(eta, ref)
        assert sup.report.checkpoint_discards == 1
        assert sup.report.resumes == 0  # the corrupted state was never used
        assert metrics.counters["resil.checkpoint_discarded"] == 1

    def test_one_flipped_byte_discards_and_restarts(self, system, tmp_path):
        """The stored container has no deflate stream to break: one bad
        byte in the vectors is the CRC's to catch, and the supervisor
        must discard the file, not resume from it."""
        from repro.core.checkpoint import checkpointed_eta

        h, scale, blk, ref = system
        path = tmp_path / "ck.npz"
        # this run's own state at next_m = 7: resumable, were it intact
        checkpointed_eta(h, scale, 16, blk, checkpoint_every=2,
                         checkpoint_path=path, backend="numpy")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01  # lands inside the w member
        path.write_bytes(data)
        sup = make_supervisor(checkpoint_every=2, checkpoint_path=path)
        eta = sup.run_eta(h, scale, 16, blk, engine="serial", backend="numpy")
        assert np.array_equal(eta, ref)
        assert sup.report.checkpoint_discards == 1
        assert sup.report.resumes == 0

    def test_sim_engine_checkpoint_resume_bitwise(self, system, tmp_path):
        from repro.dist.comm import SimWorld
        from repro.dist.kpm_parallel import distributed_eta
        from repro.dist.partition import RowPartition

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        ref = distributed_eta(h, part, scale, 16, blk, SimWorld(2),
                              backend="numpy")
        sup = make_supervisor(
            fault_plan="raise:rank=1,m=5",
            checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz",
        )
        eta = sup.run_eta(h, scale, 16, blk, engine="sim", workers=2,
                          backend="numpy")
        assert np.array_equal(eta, ref)
        assert sup.report.resumes == 1


class TestForeignCheckpoint:
    """Two solves sharing a checkpoint path must not share numbers."""

    @pytest.mark.parametrize("engine", ["serial", "sim", "mp"])
    def test_other_runs_file_is_discarded(self, system, tmp_path, engine):
        h, scale, blk, ref = system
        other = make_block_vector(h.n_rows, 2, seed=99)
        path = tmp_path / "shared.npz"
        kw = dict(engine=engine, workers=2, backend="numpy")

        def solve(block):
            metrics = MetricsRegistry()
            sup = make_supervisor(checkpoint_every=2, checkpoint_path=path,
                                  metrics=metrics)
            return sup.run_eta(h, scale, 16, block, **kw), sup, metrics

        solve(other)  # leaves its last checkpoint (next_m = 7) behind
        eta, sup, metrics = solve(blk)
        clean = Supervisor().run_eta(h, scale, 16, blk, **kw)
        assert np.array_equal(eta, clean)  # not the other solve's prefix
        assert np.array_equal(eta, ref)
        assert sup.report.checkpoint_discards == 1
        assert sup.report.resumes == 0
        assert metrics.counters["resil.checkpoint_discarded"] == 1
        # the same run coming back (a retry in a new process, say) still
        # resumes its own file, bitwise
        eta_again, sup_again, _ = solve(blk)
        assert sup_again.report.resumes == 1
        assert sup_again.report.checkpoint_discards == 0
        assert np.array_equal(eta_again, clean)

    def test_explicit_resume_of_another_run_is_refused(self, system, tmp_path):
        from repro.core.checkpoint import KpmCheckpoint, checkpointed_eta

        h, scale, blk, ref = system
        other = make_block_vector(h.n_rows, 2, seed=99)
        path = tmp_path / "ck.npz"
        checkpointed_eta(h, scale, 16, other, checkpoint_every=2,
                         checkpoint_path=path, backend="numpy")
        with pytest.raises(CheckpointError, match="different run"):
            checkpointed_eta(h, scale, 16, blk, resume_from=path,
                             backend="numpy")
        # the tag is covered by the integrity digest ...
        ck = KpmCheckpoint.load(path)
        ck.run_id = "0" * 64
        assert ck._digest() != KpmCheckpoint.load(path)._digest()
        # ... and files written before runs were tagged still resume
        ck.run_id = ""
        ck.save(path)
        eta = checkpointed_eta(h, scale, 16, other, resume_from=path,
                               backend="numpy")
        assert np.array_equal(
            eta, compute_eta(h, scale, 16, other, backend="numpy")
        )


class TestConfig:
    def test_from_config_roundtrip(self):
        cfg = Resilience(policy=RetryPolicy(max_attempts=4),
                         checkpoint_every=3, degrade=False,
                         fault_plan="crash:m=2")
        sup = Supervisor.from_config(cfg, seed=11)
        assert sup.resilience == cfg and sup.seed == 11
        # the supervisor holds one Resilience: keywords replace its fields
        assert Supervisor(cfg, degrade=True).resilience == Resilience(
            policy=RetryPolicy(max_attempts=4), checkpoint_every=3,
            fault_plan="crash:m=2")
        assert Supervisor(RetryPolicy(max_attempts=4), checkpoint_every=3,
                          degrade=False,
                          fault_plan="crash:m=2").resilience == cfg

    def test_a_file_needs_a_cadence(self, tmp_path):
        """A path alone would never be written: refused, not ignored."""
        with pytest.raises(ValueError, match="requires checkpoint_every"):
            Resilience(checkpoint_path=tmp_path / "ck.npz")
        with pytest.raises(ValueError, match="requires checkpoint_every"):
            Supervisor(checkpoint_path=tmp_path / "ck.npz")
        assert not (tmp_path / "ck.npz").exists()

    def test_backoff_sleeps_are_injected(self, system):
        h, scale, blk, _ = system
        slept = []
        sup = Supervisor(
            RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
            fault_plan="raise:rank=0,m=4", sleep=slept.append,
        )
        sup.run_eta(h, scale, 16, blk, engine="serial", backend="numpy")
        assert slept == [0.5]
