"""Elastic membership under supervision and through the public knobs.

A worker death under an active :class:`RebalancePolicy` is absorbed
*inside* the mp attempt — survivors take over the dead rank's rows at
the next iteration boundary, the engine ladder never engages, and the
fp64 moments stay bitwise identical to an uninterrupted run.  The same
``rebalance=`` / ``membership=`` execution knobs ride through
``Supervisor.run_eta``, :class:`KPMSolver`, and :class:`KPMServer`
unchanged, as do the run controls (progress, mp timeouts).
"""

import numpy as np
import pytest

from repro.core.checkpoint import RunContext
from repro.core.moments import compute_eta, eta_to_moments
from repro.core.scaling import lanczos_scale
from repro.core.solver import KPMSolver
from repro.core.stochastic import make_block_vector
from repro.dist.elastic import RebalancePolicy
from repro.dist.shm import segment_exists
from repro.resil import FaultPlan, FaultSpec, Resilience, RetryPolicy, Supervisor
from repro.serve import HamiltonianSpec, KPMServer, Request
from repro.util.knobs import ExecConfig, run_engine
from tests.lattice import case_test

M = 24
SPEC = HamiltonianSpec("topological_insulator", {"nx": 6, "ny": 6, "nz": 4})


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(6, 6, 4)  # 576 rows = 9 eta blocks
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, 2, seed=2)
    ref = compute_eta(h, scale, M, blk)
    return h, scale, blk, ref


POL = RebalancePolicy(interval=5)


class TestSupervisedMembership:
    def test_worker_death_absorbed_without_degradation(self, system):
        h, scale, blk, ref = system
        sup = Supervisor(
            RetryPolicy(max_attempts=2),
            fault_plan=FaultPlan(specs=(FaultSpec("crash", rank=1, m=4),)),
        )
        eta = sup.run_eta(h, scale, M, blk, engine="mp", workers=3,
                          rebalance=POL)
        assert np.array_equal(eta, ref)
        # elasticity absorbed the death inside the attempt: the ladder
        # never engaged and no supervisor-level retry was spent
        assert sup.report.final_engine == "mp"
        assert sup.report.retries == 0 and not sup.report.attempts
        assert sup.report.membership_leaves == 1
        rep = sup.last_elastic_report
        assert rep.final_n_workers == 2
        assert rep.leaves == 1
        assert [e.planned for e in rep.events if e.kind == "leave"] == [False]
        assert not any(segment_exists(nm) for nm in rep.segment_names)

    def test_planned_join_grows_world(self, system):
        h, scale, blk, ref = system
        sup = Supervisor(RetryPolicy(max_attempts=1))
        eta = sup.run_eta(h, scale, M, blk, engine="mp", workers=2,
                          rebalance=POL, membership="join:m=6,ranks=1")
        assert np.array_equal(eta, ref)
        assert sup.report.membership_joins == 1
        assert sup.last_elastic_report.final_n_workers == 3

    @pytest.mark.parametrize("engine,workers", [("sim", 3), ("serial", 1)])
    def test_lower_rungs_replay_same_reduction(self, system, engine,
                                               workers):
        """A degradation mid-ladder lands on sim/serial rungs, which run
        the one eta reduction too — still bitwise."""
        h, scale, blk, ref = system
        sup = Supervisor(RetryPolicy(max_attempts=1))
        eta = sup.run_eta(h, scale, M, blk, engine=engine, workers=workers,
                          rebalance=POL)
        assert np.array_equal(eta, ref)

    def test_elastic_world_carries_the_callers_timeouts(self, system,
                                                        monkeypatch):
        """``Resilience(mp_timeouts=...)`` reaches every elastic segment's
        world, not the default 120 s stall window."""
        from repro.dist import mp

        seen = []

        class Recording(mp.MpWorld):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.timeouts)

        monkeypatch.setattr(mp, "MpWorld", Recording)
        h, scale, blk, ref = system
        timeouts = mp.MpTimeouts(stall=33.0)
        sup = Supervisor(RetryPolicy(max_attempts=1), mp_timeouts=timeouts)
        eta = sup.run_eta(h, scale, M, blk, engine="mp", workers=2,
                          rebalance=POL)
        assert np.array_equal(eta, ref)
        assert seen and all(t == timeouts for t in seen)


class TestSolverKnob:
    @case_test
    def test_mp_elastic_matches_sim_grid(self): ...

    def test_elastic_report_exposed(self, system):
        h, scale, _blk, _ref = system
        solver = KPMSolver(h, n_moments=M, n_vectors=2, scale=scale,
                           seed=3, dist_engine="mp", workers=2,
                           rebalance=POL, membership="join:m=6,ranks=1")
        solver.moments()
        rep = solver.elastic_report
        assert rep is not None
        assert rep.joins == 1 and rep.final_n_workers == 3

    def test_rebalance_requires_distributed_engine(self, system):
        h, *_ = system
        with pytest.raises(ValueError, match="rebalance"):
            KPMSolver(h, n_moments=M, rebalance="auto")


@pytest.mark.parametrize("engine", ["sim", "mp"])
def test_a_plan_alone_runs_elastic(system, engine):
    """A membership plan without a rebalance policy still runs the
    elastic path: the join lands at its boundary, nothing rebalances."""
    h, scale, blk, ref = system
    eta, world, rep = run_engine(
        ExecConfig(engine=engine, workers=2, membership="join:m=4"),
        RunContext(), h, scale, M, blk)
    assert np.array_equal(eta, ref)
    assert rep is not None and world is None
    assert (rep.joins, rep.rebalances, rep.final_n_workers) == (1, 0, 3)
    assert [b.m for b in rep.boundaries] == [4]


class TestServerKnob:
    def test_elastic_mp_batch_matches_sim(self):
        req = Request(SPEC, n_moments=M, n_vectors=2, seed=7)
        mus = []
        for engine, workers in (("mp", 3), ("sim", 2)):
            srv = KPMServer(max_width=4, engine=engine, workers=workers,
                            rebalance="auto")
            t = srv.submit(req)
            assert srv.step() == 1
            mus.append(t.result().moments)
        assert np.array_equal(mus[0], mus[1])

    def test_crash_batch_shrinks_server_world(self):
        """A worker death during an elastic batch leaves the learned
        membership behind: the next batch starts on the survivors."""
        resil = Resilience(
            policy=RetryPolicy(max_attempts=2),
            fault_plan=FaultPlan(specs=(FaultSpec("crash", rank=1, m=4),)),
        )
        srv = KPMServer(max_width=4, engine="mp", workers=3,
                        rebalance="auto", resilience=resil)
        t = srv.submit(Request(SPEC, n_moments=M, n_vectors=2, seed=7))
        assert srv.step() == 1
        clean = KPMServer(max_width=4, engine="sim", workers=2,
                          rebalance="auto")
        t_ref = clean.submit(Request(SPEC, n_moments=M, n_vectors=2, seed=7))
        clean.step()
        assert np.array_equal(t.result().moments, t_ref.result().moments)
        assert srv.workers == 2  # the dead rank stays retired

    def test_elastic_mp_batch_streams_as_serial(self):
        """An elastic mp batch streams what a serial server streams for
        the same request — every iteration, its boundaries among them —
        each partial bitwise the serial one and a prefix of the final
        moments."""
        streams = []
        for knobs in ({}, dict(engine="mp", workers=2, rebalance=POL)):
            srv = KPMServer(max_width=4, stream_every=1, **knobs)
            t = srv.submit(Request(SPEC, n_moments=M, n_vectors=2, seed=7))
            assert srv.step() == 1
            final = t.result().moments
            for n_done, mu in t.partials:
                assert np.array_equal(mu, final[:n_done])
            streams.append(t.partials)
        serial, mp = streams
        assert [n for n, _mu in mp] == list(range(4, M + 1, 2))
        assert [n for n, _ in mp] == [n for n, _ in serial]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(mp, serial))

    def test_mp_batch_exposes_elastic_report(self):
        srv = KPMServer(max_width=4, engine="mp", workers=2,
                        rebalance="auto")
        t = srv.submit(Request(SPEC, n_moments=M, n_vectors=2, seed=7))
        assert srv.step() == 1
        assert not t.failed
        batch, _counters = srv.last_batches[0]
        rep = batch.elastic_report
        assert rep is not None and rep.boundaries
        assert not any(segment_exists(nm) for nm in rep.segment_names)
        assert "serve.batch.rebalances" in srv.metrics.counters


def test_moments_are_physical(system):
    """Sanity: eta carries the exact unnormalized trace — mu_0 = N."""
    h, _scale, _blk, ref = system
    mu = eta_to_moments(ref).mean(axis=0).real
    assert mu[0] == pytest.approx(h.n_rows)
