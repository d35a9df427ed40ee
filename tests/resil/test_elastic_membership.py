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

from repro.core.moments import eta_to_moments
from repro.core.scaling import lanczos_scale
from repro.core.solver import KPMSolver
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.elastic import RebalancePolicy
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.partition import RowPartition
from repro.dist.shm import segment_exists
from repro.resil import FaultPlan, FaultSpec, Resilience, RetryPolicy, Supervisor
from repro.serve import HamiltonianSpec, KPMServer, Request

M = 24
G = 32
SPEC = HamiltonianSpec("topological_insulator", {"nx": 6, "ny": 6, "nz": 4})


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(6, 6, 4)  # 576 rows = 18 grid blocks
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, 2, seed=2)
    part1 = RowPartition.equal(h.n_rows, 1, align=G)
    ref = distributed_eta(h, part1, scale, M, blk, SimWorld(1), eta_grid=G)
    return h, scale, blk, ref


POL = RebalancePolicy(grid=G, interval=5)


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
        """A degradation mid-ladder lands on sim/serial rungs that run
        the identical grid-eta reduction — still bitwise."""
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
    def test_mp_elastic_matches_sim_grid(self, system):
        h, scale, _blk, _ref = system
        kw = dict(n_moments=M, n_vectors=2, scale=scale, seed=3,
                  rebalance="auto", backend="numpy")
        mu_mp = KPMSolver(h, dist_engine="mp", workers=3, **kw).moments()
        mu_sim = KPMSolver(h, dist_engine="sim", workers=2, **kw).moments()
        assert np.array_equal(mu_mp, mu_sim)

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

    def test_elastic_mp_batch_streams_its_boundaries(self):
        """Every segment boundary of an elastic batch streams a partial,
        each a bitwise prefix of the final moments."""
        srv = KPMServer(max_width=4, engine="mp", workers=2,
                        rebalance=POL, stream_every=1)
        t = srv.submit(Request(SPEC, n_moments=M, n_vectors=2, seed=7))
        assert srv.step() == 1
        final = t.result().moments
        assert [n for n, _mu in t.partials] == [12, 22]
        for n_done, mu in t.partials:
            assert np.array_equal(mu, final[:n_done])

    def test_mp_batch_exposes_elastic_report(self):
        srv = KPMServer(max_width=4, engine="mp", workers=2,
                        rebalance="auto")
        t = srv.submit(Request(SPEC, n_moments=M, n_vectors=2, seed=7))
        assert srv.step() == 1
        assert not t.failed
        batch, _counters = srv.last_batches[0]
        rep = batch.elastic_report
        assert rep is not None and rep.segments
        assert not any(segment_exists(nm) for nm in rep.segment_names)
        assert "serve.batch.rebalances" in srv.metrics.counters


def test_moments_are_physical(system):
    """Sanity: the grid-mode eta carries the exact unnormalized trace —
    mu_0 = N, the same identity the row-sliced reductions preserve."""
    h, _scale, _blk, ref = system
    mu = eta_to_moments(ref).mean(axis=0).real
    assert mu[0] == pytest.approx(h.n_rows)
