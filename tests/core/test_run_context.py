"""RunContext: the one carrier of a solve's run controls (DESIGN §17).

The engines keep no checkpoint, progress, fault or resume code of their
own; these tests pin the mechanics the context now owns — how an entry
point builds it, the one cadence rule, the mp slot parity, the injector
— against the rules the engines used to spell out themselves.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.checkpoint import RunContext
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.resil import FaultInjector, FaultPlan
from repro.util.counters import NULL_COUNTERS, PerfCounters


class TestOf:
    def test_keywords_layer_over_the_defaults(self):
        assert RunContext.of() == RunContext()
        ctx = RunContext.of(progress_every=3, attempt=2)
        assert (ctx.progress_every, ctx.attempt) == (3, 2)
        assert ctx.sink is NULL_METRICS and NULL_COUNTERS is NULL_METRICS
        assert ctx.checkpoint_every == 0 and ctx.fault_plan is None
        # an attempt or a segment is a replace: everything else carries
        metrics = MetricsRegistry()
        seg = replace(RunContext.of(metrics=metrics, progress_every=2),
                      attempt=3, checkpoint_every=4)
        assert seg.sink is metrics and seg.progress_every == 2
        assert (seg.attempt, seg.checkpoint_every) == (3, 4)

    def test_a_cadence_needs_a_file_at_the_entry(self, tmp_path):
        with pytest.raises(ValueError, match="requires checkpoint_path"):
            RunContext.of(checkpoint_every=2)
        RunContext.of(checkpoint_every=2, checkpoint_path=tmp_path / "c")
        # below the entries (the elastic driver) a cadence runs in memory
        assert RunContext(checkpoint_every=2).checkpoint_path is None

    def test_a_file_needs_a_cadence_at_the_entry(self, tmp_path):
        """A path alone would never be written: refused, not ignored."""
        with pytest.raises(ValueError, match="requires checkpoint_every"):
            RunContext.of(checkpoint_path=tmp_path / "c")
        # a falsy path is no path (callers pass 0 at cadence 0)
        assert RunContext.of(checkpoint_path=0).checkpoint_every == 0

    def test_a_plan_string_parses_once_under_the_seed(self):
        ctx = RunContext.of(fault_plan="crash:rank=1,m=3", seed=7)
        assert ctx.fault_plan == FaultPlan.parse("crash:rank=1,m=3", seed=7)
        plan = FaultPlan.parse("raise:m=2")
        assert RunContext.of(fault_plan=plan).fault_plan is plan


@pytest.mark.parametrize("every", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("first_m", [1, 2, 7])
def test_cadence_is_the_rule_every_engine_spelled_out(every, first_m):
    ctx = RunContext(checkpoint_every=every, progress=lambda n, e: None,
                     progress_every=every)
    for m in range(first_m, first_m + 40):
        old = every > 0 and (m - first_m + 1) % every == 0
        assert bool(ctx.checkpoint_due(m, first_m)) == old
        assert ctx.progress_due(m, first_m) == old
        if old:  # the mp workers' double-buffer slot, as it was computed
            slot = ((m - first_m + 1) // every) % 2
            assert ctx.checkpoint_due(m, first_m) % 2 == slot
    # no callback, no stream — whatever the cadence
    assert not RunContext(progress_every=1).progress_due(first_m, first_m)


def test_no_injector_without_a_plan():
    assert RunContext().injector(0) is None
    assert RunContext(fault_plan=FaultPlan()).injector(0) is None
    plan = FaultPlan.parse("raise:rank=1,m=3,attempt=2")
    inj = RunContext(fault_plan=plan, attempt=2).injector(1)
    assert isinstance(inj, FaultInjector) and inj
    assert (inj.rank, inj.attempt, inj.in_process) == (1, 2, True)
    assert not RunContext(fault_plan=plan, attempt=1).injector(1)
    assert not RunContext(fault_plan=plan, attempt=2).injector(
        1, in_process=False).in_process


def test_workers_get_a_picklable_slice():
    plan = FaultPlan.parse("crash:rank=1,m=3")
    ctx = RunContext(
        sink=PerfCounters(), checkpoint_every=4, checkpoint_path="ck.npz", fault_plan=plan,
        attempt=3, progress=lambda n, e: None, progress_every=1,
    )
    got = pickle.loads(pickle.dumps(ctx.for_workers()))
    assert got == RunContext(checkpoint_every=4, progress_every=1,
                             fault_plan=plan, attempt=3)
    # the cadence without its callback arms nothing
    assert RunContext(progress_every=1).for_workers().progress_every == 0
    # the null sink arrives as the receiving process's own sentinel,
    # under either of its names
    assert got.sink is NULL_METRICS
    for sink in (NULL_METRICS, NULL_COUNTERS):
        assert pickle.loads(pickle.dumps(sink)) is NULL_METRICS


def test_stream_hands_over_the_prefix_only():
    seen = []
    ctx = RunContext(progress=lambda n, e: seen.append((n, e.shape)),
                     progress_every=2)
    ctx.stream(4, np.zeros((3, 10)))
    assert seen == [(4, (3, 4))]
    RunContext(progress=seen.append).stream(4, np.zeros((3, 10)))  # unarmed
    assert len(seen) == 1


def test_save_without_a_path_writes_nothing(tmp_path):
    from repro.core.checkpoint import KpmCheckpoint

    block = np.zeros((4, 1), complex)
    state = KpmCheckpoint(v=block, w=block, eta=np.zeros((1, 4), complex),
                          next_m=2, n_moments=4, a=1.0, b=0.0,
                          anchors=np.ones(1))
    metrics = MetricsRegistry()
    RunContext(checkpoint_every=1, sink=metrics).save(state)
    assert "checkpoint_save" not in metrics.snapshot()["timers"]
    RunContext(checkpoint_path=tmp_path / "s.npz", sink=metrics).save(state)
    assert KpmCheckpoint.load(tmp_path / "s.npz").next_m == 2
    assert metrics.snapshot()["timers"]["checkpoint_save"]["count"] == 1
