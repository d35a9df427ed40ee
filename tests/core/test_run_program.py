"""One schedule for every engine and stage.

Every in-process solve runs the rank program: a serial solve is one rank
over the whole operator, the stage-0/1 ablation that rank once per
column.  These tests pin what the three drivers it replaced let drift:
a supervised solve keeps its stage, stages 0/1 honour the fault plan and
the sinks and refuse the controls that hold stage-2 block state, and a
fault planned at m = 0 fires on every engine.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.checkpoint import RunContext
from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.solver import KPMSolver
from repro.core.stochastic import make_block_vector
from repro.perf.report import expected_counters
from repro.resil import Resilience, RetryPolicy, Supervisor
from repro.util.counters import PerfCounters
from repro.util.errors import FaultInjected, WorkerFailure
from repro.util.knobs import ExecConfig, run_engine

M = 16
STAGES = ["naive", "aug_spmv", "aug_spmmv"]


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(4, 4, 2)
    return h, lanczos_scale(h, seed=0), make_block_vector(h.n_rows, 2, seed=1)


@pytest.mark.parametrize("stage", STAGES)
def test_supervised_solve_keeps_its_stage(system, stage):
    h = system[0]

    def run(**kw):
        """The solve's moments and its kernel calls per family."""
        counters = PerfCounters()
        mu = KPMSolver(h, n_moments=M, n_vectors=2, seed=3, backend="numpy",
                       counters=counters, **kw).moments()
        return mu, dict(counters.calls)

    plain, kernels = run(engine=stage)
    mu, supervised = run(engine=stage, resilience=Resilience())
    assert np.array_equal(mu, plain) and supervised == kernels
    # the kernels name the stage: stage 1 has stage 2's bits
    assert (kernels == run()[1]) == (stage == "aug_spmmv")


@pytest.mark.parametrize("stage", ["naive", "aug_spmv"])
class TestStageRunControls:
    def test_fault_plan_fires_and_a_retry_reruns_the_stage(self, system,
                                                           stage):
        h, scale, blk = system
        ref = compute_eta(h, scale, M, blk, stage)
        with pytest.raises(FaultInjected, match="m=3"):
            run_engine(ExecConfig(), RunContext.of(fault_plan="raise:m=3"),
                       h, scale, M, blk, kernel=stage)
        sup = Supervisor(RetryPolicy(max_attempts=2), fault_plan="raise:m=3")
        assert np.array_equal(sup.run_eta(h, scale, M, blk, kernel=stage),
                              ref)
        assert (sup.report.faults, sup.report.retries) == (1, 1)

    def test_sinks_see_the_stage(self, system, stage):
        h, scale, blk = system
        counters = PerfCounters()
        eta, world, _ = run_engine(ExecConfig(), RunContext(sink=counters),
                                   h, scale, M, blk, kernel=stage)
        assert world is None
        assert np.array_equal(eta, compute_eta(h, scale, M, blk, stage))
        want = expected_counters(h, M, 2, stage)
        assert (counters.bytes_loaded, counters.bytes_stored,
                counters.flops) == (want.bytes_loaded, want.bytes_stored,
                                    want.flops)

    @pytest.mark.parametrize("control", ["checkpoint_every", "resume_from",
                                         "progress"])
    def test_block_state_controls_are_refused(self, system, stage, tmp_path,
                                              control):
        h, scale, blk = system
        ck = tmp_path / "ck.npz"
        # the stage-2 state a resume would read
        run_engine(ExecConfig(), RunContext.of(checkpoint_every=2,
                                               checkpoint_path=ck),
                   h, scale, M, blk)
        kw = {"checkpoint_every": {"checkpoint_every": 2,
                                   "checkpoint_path": tmp_path / "x.npz"},
              "resume_from": {"resume_from": ck},
              "progress": {"progress": print, "progress_every": 1}}[control]
        with pytest.raises(ValueError, match=f"{stage} stage.*{control}"):
            run_engine(ExecConfig(), RunContext.of(**kw), h, scale, M, blk,
                       kernel=stage)
        if control == "resume_from":
            return  # a supervisor resumes only from its own checkpoints
        sup = Supervisor(
            RetryPolicy(max_attempts=2),
            checkpoint_every=2 if control == "checkpoint_every" else 0)
        with pytest.raises(ValueError, match=f"{stage} stage.*{control}"):
            sup.run_eta(h, scale, M, blk, kernel=stage,
                        progress=kw.get("progress"), progress_every=1)
        assert sup.report.attempts == []  # refused before any attempt

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_distributed_engines_refuse_the_stage(self, system, stage,
                                                  engine):
        """The ranks run stage 2 only: a stage-0/1 solve on a world is
        one ValueError before any attempt, never the stage-2 bits."""
        h, scale, blk = system
        refused = f"{stage} stage.*engine='{engine}' needs the aug_spmmv"
        with pytest.raises(ValueError, match=refused):
            KPMSolver(h, n_moments=M, n_vectors=2, seed=3, engine=stage,
                      dist_engine=engine, workers=2).moments()
        sup = Supervisor(RetryPolicy(max_attempts=2))
        with pytest.raises(ValueError, match=refused):
            sup.run_eta(h, scale, M, blk, kernel=stage, engine=engine,
                        workers=2)
        assert sup.report.attempts == []  # refused before any attempt

    def test_cli_refuses_with_one_error_line(self, stage, capsys):
        argv = ["dos", "--nx", "4", "--nz", "2", "--moments", "16",
                "--vectors", "2", "--engine", stage, "--checkpoint-every", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: the {stage} stage")
        assert "checkpoint_every" in err[0]


@pytest.mark.parametrize("engine", ["serial", "sim", "mp"])
def test_fault_at_m0_fires_on_every_engine(system, engine):
    """Every engine probes before the bootstrap."""
    from repro.dist.mp import MpWorld

    h, scale, blk = system
    try:
        with pytest.raises((FaultInjected, WorkerFailure), match="m=0"):
            run_engine(ExecConfig(engine=engine, workers=2, backend="numpy"),
                       RunContext.of(fault_plan="raise:m=0"), h, scale, M,
                       blk)
    finally:
        MpWorld(2).close()
