"""Elastic execution: partition invariance, cross-worker resume, policy.

The elastic contract (DESIGN §11): the one eta reduction (DESIGN §19)
makes eta independent of the partition, so *any* sequence of
repartitions, worker-count changes, and checkpoint splices returns
moments bitwise identical to an uninterrupted serial run.  These tests
pin that contract — plus the accounting one: a run's measured Table-I
counters equal :func:`repro.perf.report.expected_counters` from
the iteration it entered at, whatever the partitions it ran on, and the
messages of a re-slice are the ``(v, w)`` rows that changed owner.
"""

import itertools

import numpy as np
import pytest

from repro.core.checkpoint import KpmCheckpoint, RunContext
from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.elastic import (
    DAMPING,
    MAX_LEAVES,
    MAX_REBALANCES,
    MIN_ITERS_LEFT,
    ElasticReport,
    MembershipPlan,
    RebalanceMonitor,
    RebalancePolicy,
    autotune_weights,
    elastic_eta,
    resolve_rebalance,
    run_elastic,
)
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.partition import RowPartition
from repro.obs import MetricsRegistry
from repro.obs.trace import MemoryTrace
from repro.perf.report import expected_counters
from repro.util.counters import PerfCounters
from repro.util.errors import CheckpointError, SimulationError
from repro.util.knobs import ExecConfig
from tests.lattice import case_test

M = 24  # half = 12 inner iterations
G = 64  # partition alignment: the eta block
R = 4
STOP = 7  # the checkpoint the resume tests resume from


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)  # 768 rows = 12 eta blocks
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, R, seed=2)
    ref = compute_eta(h, scale, M, blk)
    return h, scale, blk, ref


class TestGridInvariance:
    """eta is a pure function of the problem — not of the partition."""
    @case_test
    def test_sim_partition_independent(self): ...
    @case_test
    def test_mp_matches_sim_bitwise(self): ...

    def test_grid_requires_aligned_partition(self, system):
        h, scale, blk, _ = system
        part = RowPartition.from_weights(h.n_rows, [0.55, 0.45], align=4)
        assert any(o % G for o in part.offsets[1:-1])  # genuinely unaligned
        with pytest.raises(SimulationError, match="eta block"):
            distributed_eta(h, part, scale, M, blk, SimWorld(2))


def run_segmented(h, scale, blk, ref, tmp_path, world_cls,
                  resume_workers, weights):
    """Checkpoint a 4-worker run at STOP, resume on ``resume_workers``.

    Returns (eta, first run's counters, resumed counters, worlds).
    """
    path = tmp_path / "boundary.npz"
    part4 = RowPartition.equal(h.n_rows, 4, align=G)
    c1 = PerfCounters()
    w1 = world_cls(4)
    distributed_eta(
        h, part4, scale, M, blk, w1, counters=c1,
        checkpoint_every=STOP - 1, checkpoint_path=path,
    )
    ck = KpmCheckpoint.load(path)
    assert ck.next_m == STOP  # the run's one checkpoint

    if weights is None:
        part = RowPartition.equal(h.n_rows, resume_workers, align=G)
    else:
        part = RowPartition.from_weights(h.n_rows, weights, align=G)
    c2 = PerfCounters()
    w2 = world_cls(resume_workers)
    eta = distributed_eta(
        h, part, scale, M, blk, w2, counters=c2, resume_from=ck,
    )
    return eta, c1, c2, (w1, w2)


class TestCrossWorkerResume:
    """Interrupt at 4 workers, resume at 2 or 3 — bitwise, exact traffic."""
    @case_test
    def test_sim_resume(self): ...
    @case_test
    def test_mp_resume_matches_sim(self): ...

    def test_constant_worker_segments_sum_to_full_run(self, system,
                                                      tmp_path):
        """With P fixed, the iterations before the checkpoint and the
        resumed ones sum to the uninterrupted run: counters and halo."""
        h, scale, blk, ref = system
        eta, c1, c2, (w1, w2) = run_segmented(
            h, scale, blk, ref, tmp_path, SimWorld, 4, None
        )
        assert np.array_equal(eta, ref)
        tail = expected_counters(h, M, R, first_m=STOP)
        assert (c2.bytes_total, c2.flops) == (tail.bytes_total, tail.flops)
        halo = [w.log.bytes_by_phase() for w in (w1, w2)]
        per_iter = (halo[0]["halo_init"] + halo[0]["halo"]) // (M // 2)
        assert halo[0]["halo_init"] == per_iter  # the bootstrap's exchange
        assert STOP * per_iter + halo[1]["halo"] == \
            halo[0]["halo_init"] + halo[0]["halo"]

    def test_cross_grid_resume_refused(self, system, tmp_path):
        """A format-1 boundary file — its eta reduced per rank or per
        grid block — is refused, never spliced into this reduction."""
        h, scale, blk, _ = system
        path = tmp_path / "boundary.npz"
        part = RowPartition.equal(h.n_rows, 2, align=G)
        distributed_eta(
            h, part, scale, M, blk, SimWorld(2),
            checkpoint_every=STOP - 1, checkpoint_path=path,
        )
        with np.load(path) as data:
            old = {k: data[k] for k in data.files if k != "anchors"}
        np.savez(path, **{**old, "version": np.array(1),
                          "eta_grid": np.array(32)})
        with pytest.raises(CheckpointError, match="format 1"):
            distributed_eta(
                h, part, scale, M, blk, SimWorld(2), resume_from=path,
            )


class TestElasticDriver:
    def test_plain_sim_run_bitwise(self, system):
        h, scale, blk, ref = system
        pol = RebalancePolicy(interval=5)
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=3, policy=pol, engine="sim"
        )
        assert np.array_equal(eta, ref)
        assert isinstance(rep, ElasticReport)
        assert [b.m for b in rep.boundaries] == [6, 11]
        assert rep.final_n_workers == 3 and rep.rebalances == 0
        assert "reslice" not in rep.log.bytes_by_phase()  # nothing moved

    def test_join_and_leave_plan(self, system):
        h, scale, blk, ref = system
        pol = RebalancePolicy(interval=4)
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=2, policy=pol, engine="sim",
            membership="join:m=5,ranks=2;leave:m=9,rank=0",
        )
        assert np.array_equal(eta, ref)
        assert rep.joins == 2 and rep.leaves == 1
        assert rep.final_n_workers == 3
        # each joiner took the mean weight; the leaver's went to the rest
        assert rep.final_weights == pytest.approx([1 / 3] * 3)
        # boundaries land exactly on the planned iterations
        assert {b.m for b in rep.boundaries} >= {5, 9}

    def test_no_checkpoint_file_keyword(self, system, tmp_path):
        """``elastic_eta`` has no checkpoint cadence, so no file to name:
        a ``checkpoint_path`` is an unknown knob, not silently unwritten."""
        h, scale, blk, _ = system
        with pytest.raises(TypeError, match="checkpoint_path"):
            elastic_eta(h, scale, M, blk, n_workers=2, engine="sim",
                        checkpoint_path=tmp_path / "ck.npz")
        assert not (tmp_path / "ck.npz").exists()

    def test_timer_driven_rebalance(self, system):
        h, scale, blk, ref = system
        pol = RebalancePolicy(interval=3, windows=2)
        slow = lambda p, nn: nn * (4.0 if p == 0 else 1.0)  # noqa: E731
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=3, policy=pol, engine="sim",
            timer=slow,
        )
        assert np.array_equal(eta, ref)
        assert rep.rebalances >= 1
        # the windows ending at the first and the last boundary
        first, last = rep.boundaries[0], rep.boundaries[-1]
        rows0_before = first.offsets[1] - first.offsets[0]
        rows0_after = last.offsets[1] - last.offsets[0]
        assert rows0_after < rows0_before
        assert last.imbalance < first.imbalance

    def test_counters_match_segment_model(self, system, tmp_path):
        """Re-sliced or not, fresh or resumed, a run charges the model of
        the iterations it computed: the partitions leave no trace."""
        h, scale, blk, _ = system
        path = tmp_path / "boundary.npz"
        distributed_eta(h, RowPartition.equal(h.n_rows, 2, align=G), scale,
                        M, blk, SimWorld(2), checkpoint_every=STOP - 1,
                        checkpoint_path=path)
        slow = lambda p, nn: nn * (4.0 if p == 0 else 1.0)  # noqa: E731
        pol = RebalancePolicy(interval=2, windows=1, threshold=0.0)
        for engine, (first_m, resume) in itertools.product(
                ("sim", "mp"), ((1, None), (STOP, path))):
            c = PerfCounters()
            _eta, rep = elastic_eta(
                h, scale, M, blk, n_workers=2, policy=pol, engine=engine,
                membership="join:m=8", timer=slow, counters=c,
                resume_from=resume,
            )
            assert rep.rebalances and rep.joins == 1
            exp = expected_counters(h, M, R, first_m=first_m)
            assert (c.bytes_loaded, c.bytes_stored, c.flops) == \
                (exp.bytes_loaded, exp.bytes_stored, exp.flops)

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_reslice_moves_exactly_the_rows_that_change_owner(self, system,
                                                              engine):
        """Every re-slice is recorded as messages from each old owner to
        each new one, of the bytes of the ``(v, w)`` rows they hand over."""
        h, scale, blk, ref = system
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=2, engine=engine,
            policy=RebalancePolicy(interval=3, threshold=1e9),
            membership="join:m=4,ranks=2;leave:m=7,rank=1",
        )
        assert np.array_equal(eta, ref)
        # boundaries 4, 7, 10: each records the partition of the window
        # it ends, so consecutive ones show every change
        windows = [b.offsets for b in rep.boundaries]
        assert [b.m for b in rep.boundaries] == [4, 7, 10]
        assert len(set(windows)) == 3
        want: dict = {}
        row = 2 * 16 * R  # v and w, complex128, R columns
        for old, new in zip(windows, windows[1:]):
            for p in range(len(old) - 1):
                for q in range(len(new) - 1):
                    n = min(old[p + 1], new[q + 1]) - max(old[p], new[q])
                    if p != q and n > 0:
                        want[(p, q)] = want.get((p, q), 0) + n * row
        got: dict = {}
        for rec in rep.log.records:
            if rec.phase == "reslice":
                got[(rec.src, rec.dst)] = got.get((rec.src, rec.dst), 0) \
                    + rec.nbytes
        assert got == want and got

    def test_resume_from_boundary_checkpoint(self, system, tmp_path):
        """An elastic run interrupted at a boundary resumes bitwise."""
        h, scale, blk, ref = system
        pol = RebalancePolicy(interval=2)
        path = tmp_path / "boundary.npz"
        part = RowPartition.equal(h.n_rows, 2, align=G)
        distributed_eta(
            h, part, scale, M, blk, SimWorld(2),
            checkpoint_every=STOP - 1, checkpoint_path=path,
        )
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=3, policy=pol, engine="sim",
            resume_from=path,
        )
        assert np.array_equal(eta, ref)
        assert [b.m for b in rep.boundaries] == [STOP + 2, STOP + 4]

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_a_callback_leaves_the_saves_alone(self, system, tmp_path,
                                               engine):
        """A progress stream adds no checkpoint: with boundaries every 3
        iterations and a save every 5, the run saves at m = 5 and 10,
        callback or not, and streams every iteration."""
        h, scale, blk, ref = system
        cfg = ExecConfig(engine=engine, workers=2, overlap=False,
                         rebalance=RebalancePolicy(interval=3,
                                                   threshold=1e9))
        saves, streams = [], []
        for progress in (None, lambda n, _eta: streams.append(n)):
            metrics, path = MetricsRegistry(MemoryTrace()), tmp_path / \
                f"ck{len(saves)}.npz"
            eta, rep = run_elastic(cfg, RunContext.of(
                metrics=metrics, checkpoint_every=5, checkpoint_path=path,
                progress=progress, progress_every=1), h, scale, M, blk)
            assert np.array_equal(eta, ref) and rep.boundaries
            saves.append(([r["next_m"] for r in metrics.trace
                           if r["name"] == "checkpoint_save"],
                          KpmCheckpoint.load(path).next_m))
        assert saves == [([6, 11], 11)] * 2
        assert streams == list(range(4, M + 1, 2))

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_resume_of_another_runs_file_is_refused(self, system, tmp_path,
                                                   engine):
        """An elastic resume runs the run check every engine runs: a
        boundary file another solve left is refused, not resumed."""
        h, scale, blk, _ = system
        other = make_block_vector(h.n_rows, R, seed=99)
        path = tmp_path / "boundary.npz"
        distributed_eta(
            h, RowPartition.equal(h.n_rows, 2, align=G), scale, M, other,
            SimWorld(2), checkpoint_every=5, checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="different run"):
            elastic_eta(h, scale, M, blk, n_workers=2, engine=engine,
                        policy=RebalancePolicy(interval=5),
                        resume_from=path)

    def test_bad_inputs(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError, match="engine"):
            elastic_eta(h, scale, M, blk, n_workers=2, engine="serial")
        with pytest.raises(ValueError, match="n_workers"):
            elastic_eta(h, scale, M, blk, n_workers=0)
        with pytest.raises(ValueError, match="weights"):
            elastic_eta(h, scale, M, blk, n_workers=2, weights=[1.0],
                        engine="sim")
        with pytest.raises(SimulationError, match="retires"):
            elastic_eta(
                h, scale, M, blk, n_workers=1, engine="sim",
                policy=RebalancePolicy(interval=4),
                membership="leave:m=5,rank=0",
            )

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_fp16v_elastic_matches_plain(self, system, engine):
        """Half storage runs elastic too: fp16v elastic is bitwise the
        plain fp16v solve."""
        h, scale, blk, _ = system
        ref = compute_eta(h, scale, M, blk, precision="fp16v")
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=2, engine=engine,
            policy=RebalancePolicy(interval=4, threshold=1e9),
            membership="join:m=5", precision="fp16v",
        )
        assert np.array_equal(eta, ref)
        assert rep.joins == 1


class TestPolicyAndPlan:
    def test_resolve_rebalance(self):
        assert resolve_rebalance(None) is None
        assert resolve_rebalance(False) is None
        assert resolve_rebalance("off") is None
        assert resolve_rebalance("") is None
        assert resolve_rebalance(True) == RebalancePolicy()
        assert resolve_rebalance("auto") == RebalancePolicy()
        assert resolve_rebalance(0.4).threshold == 0.4
        assert resolve_rebalance("0.4").threshold == 0.4
        pol = RebalancePolicy(interval=3)
        assert resolve_rebalance(pol) is pol
        with pytest.raises(ValueError):
            resolve_rebalance("sideways")
        with pytest.raises(TypeError):
            resolve_rebalance([1, 2])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(threshold=-1)
        with pytest.raises(ValueError):
            RebalancePolicy(windows=0)
        # the driver's other limits are constants, each valid
        with pytest.raises(TypeError):
            RebalancePolicy(damping=0.5)
        assert 0 < DAMPING <= 1
        assert MIN_ITERS_LEFT >= 1 and MAX_REBALANCES >= 1
        assert MAX_LEAVES >= 1
        with pytest.raises(ValueError, match="damping"):
            autotune_weights(128, 2, lambda p, nn: nn, damping=0)

    def test_plan_parse_roundtrip(self):
        plan = MembershipPlan.parse("leave:m=16,rank=0; join:m=8,ranks=2")
        assert plan.boundaries() == [8, 16]
        assert [s.kind for s in plan.specs] == ["join", "leave"]  # sorted
        assert plan.at(8)[0].ranks == 2
        assert str(plan) == "join:m=8,ranks=2;leave:m=16,rank=0"
        assert MembershipPlan.parse(str(plan)) == plan
        assert not MembershipPlan.parse("")

    @pytest.mark.parametrize("text", [
        "join:m=4", "join:m=8,ranks=2;leave:m=16,rank=1",
        "leave:m=3,rank=0;join:m=3;join:m=5,ranks=3"])
    def test_plan_str_parses_back(self, text):
        plan = MembershipPlan.parse(text)
        assert MembershipPlan.parse(str(plan)) == plan

    @pytest.mark.parametrize("text,field", [
        ("leave:m=8,rank=0,ranks=2", "ranks"), ("join:m=8,rank=3", "rank")])
    def test_plan_refuses_a_field_its_kind_ignores(self, text, field):
        with pytest.raises(ValueError, match=f"takes no {field}="):
            MembershipPlan.parse(text)

    def test_plan_parse_errors(self):
        with pytest.raises(ValueError, match="m="):
            MembershipPlan.parse("join:ranks=2")
        with pytest.raises(ValueError, match="malformed"):
            MembershipPlan.parse("join:m=8,delay=2")
        with pytest.raises(ValueError, match="kind"):
            MembershipPlan.parse("resize:m=8")

    def test_monitor_debounce_and_retune(self):
        pol = RebalancePolicy(threshold=0.5, windows=2)
        mon = RebalanceMonitor(pol)
        counts = [64, 64]
        assert mon.observe(counts, [1.0, 4.0]) == pytest.approx(1.2)
        assert not mon.should_rebalance  # one window is not enough
        mon.observe(counts, [1.0, 1.1])  # calm segment resets the streak
        mon.observe(counts, [1.0, 4.0])
        assert not mon.should_rebalance
        mon.observe(counts, [1.0, 4.0])
        assert mon.should_rebalance
        result = mon.retune(128, [0.5, 0.5])
        # rank 1 measured 4x slower -> it gets fewer rows
        assert result.weights[1] < result.weights[0]
        assert sum(result.weights) == pytest.approx(1.0)
        assert not mon.should_rebalance  # retune resets the streak

    def test_monitor_ignores_zero_busy(self):
        mon = RebalanceMonitor(RebalancePolicy(windows=1))
        mon.observe([64, 64], [0.0, 1.0])  # dead clock: not a skew signal
        assert not mon.should_rebalance
