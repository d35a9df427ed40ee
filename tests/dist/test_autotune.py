"""Automatic weight determination (paper-outlook feature)."""

import numpy as np
import pytest

from repro.dist.elastic import AutotuneResult, autotune_weights
from repro.dist.partition import RowPartition
from repro.util.errors import PartitionError


def model_timer(gflops_per_rank, flops_per_row):
    """Rank times of a device model: ``n_rows`` rows at a fixed Gflop/s."""
    return lambda rank, n_rows: \
        n_rows * flops_per_row / (gflops_per_rank[rank] * 1e9)


class TestAutotune:
    def test_converges_to_performance_ratio(self):
        """Two ranks at 57.5 / 84.1 Gflop/s (the Fig. 11 devices) must end
        up with weights at the throughput ratio."""
        timer = model_timer([57.5, 84.1], flops_per_row=4000.0)
        res = autotune_weights(1_000_000, 2, timer, align=4)
        assert res.converged
        assert res.weights[1] / res.weights[0] == pytest.approx(
            84.1 / 57.5, rel=0.02
        )

    def test_single_round_if_initialized_right(self):
        timer = model_timer([1.0, 3.0], 1.0)
        res = autotune_weights(
            10_000, 2, timer, initial_weights=[0.25, 0.75]
        )
        assert res.converged
        assert res.rounds == 1

    def test_balances_many_ranks(self):
        rates = [1.0, 2.0, 4.0, 8.0]
        timer = model_timer(rates, 1.0)
        res = autotune_weights(200_000, 4, timer, align=4)
        assert res.converged
        expected = np.array(rates) / sum(rates)
        assert np.allclose(res.weights, expected, atol=0.02)

    def test_partition_matches_weights(self):
        timer = model_timer([1.0, 1.0, 2.0], 1.0)
        res = autotune_weights(40_000, 3, timer, align=8)
        counts = res.partition.counts()
        assert counts.sum() == 40_000
        assert counts[2] == pytest.approx(20_000, abs=100)

    def test_damping_slows_convergence(self):
        timer = model_timer([1.0, 5.0], 1.0)
        fast = autotune_weights(100_000, 2, timer, damping=1.0)
        slow = autotune_weights(100_000, 2, timer, damping=0.3)
        assert slow.rounds >= fast.rounds

    def test_history_recorded(self):
        timer = model_timer([1.0, 2.0], 1.0)
        res = autotune_weights(10_000, 2, timer)
        assert len(res.history) == res.rounds
        assert res.history[0] == [0.5, 0.5]

    def test_nonconvergence_reported(self):
        """A timer whose rank-0 speed flips every round defeats a tight
        tolerance: the weights keep chasing a moving target."""
        state = {"calls": 0}

        def jitter_timer(rank, rows):
            # ~4 calls per round (times + probe for both ranks)
            round_idx = state["calls"] // 4
            state["calls"] += 1
            scale = 2.0 if round_idx % 2 == 0 else 0.5
            return rows * (scale if rank == 0 else 1.0)

        res = autotune_weights(
            10_000, 2, jitter_timer, tolerance=1e-6, max_rounds=3
        )
        assert not res.converged
        assert res.rounds == 3

    def test_validation(self):
        timer = model_timer([1.0], 1.0)
        with pytest.raises(PartitionError):
            autotune_weights(100, 1, timer, initial_weights=[-1.0])
        with pytest.raises(ValueError):
            autotune_weights(100, 1, timer, damping=0.0)

    def test_imbalance_metric(self):
        """imbalance() is the loop's convergence statistic: relative
        spread (max-min)/mean, 0.0 when perfectly balanced."""
        res = AutotuneResult([0.5, 0.5], RowPartition((0, 5, 10)), 1, True)
        assert res.imbalance([1.0, 1.0]) == pytest.approx(0.0)
        assert res.imbalance([1.0, 3.0]) == pytest.approx(1.0)
        # zero guard: all-zero timings count as balanced, not a crash
        assert res.imbalance([0.0, 0.0]) == 0.0

    def test_imbalance_matches_convergence_tolerance(self):
        """A converged run's final-round times satisfy the same bound the
        loop tested — the two statistics are now one definition."""
        timer = model_timer([1.0, 3.0], 1.0)
        res = autotune_weights(10_000, 2, timer, tolerance=0.02)
        assert res.converged
        counts = res.partition.counts()
        times = [timer(p, int(counts[p])) for p in range(2)]
        assert res.imbalance(times) <= 0.02


class TestConvergenceRate:
    """The docstring's claim — the throughput-proportional fixed point is
    reached in 2-3 rounds from a cold (uniform) start — holds for every
    noise-free rate profile, not just the Fig. 11 pair."""

    @pytest.mark.parametrize("rates", [
        [1.0, 2.0],
        [57.5, 84.1],
        [1.0, 1.0, 10.0],
        [1.0, 2.0, 4.0, 8.0],
    ])
    def test_two_to_three_rounds_from_uniform(self, rates):
        timer = model_timer(rates, flops_per_row=2000.0)
        res = autotune_weights(400_000, len(rates), timer, align=4)
        assert res.converged
        assert 2 <= res.rounds <= 3, res.rounds
        expected = np.array(rates) / sum(rates)
        assert np.allclose(res.weights, expected, atol=0.02)

    def test_damped_update_still_converges(self):
        timer = model_timer([1.0, 4.0], 1.0)
        res = autotune_weights(100_000, 2, timer, damping=0.5, max_rounds=16)
        assert res.converged
        assert res.weights[1] / res.weights[0] == pytest.approx(4.0, rel=0.05)


class TestWeightNormalization:
    def test_result_and_history_sum_to_one(self):
        timer = model_timer([1.0, 3.0, 6.0], 1.0)
        res = autotune_weights(
            120_000, 3, timer, initial_weights=[2.0, 2.0, 6.0]
        )
        assert sum(res.weights) == pytest.approx(1.0)
        for w in res.history:
            assert sum(w) == pytest.approx(1.0)
        # history[0] is the *normalized* initial guess
        assert res.history[0] == pytest.approx([0.2, 0.2, 0.6])

    def test_unnormalized_initial_weights_accepted(self):
        timer = model_timer([1.0, 3.0], 1.0)
        res = autotune_weights(
            10_000, 2, timer, initial_weights=[25.0, 75.0]
        )
        assert res.converged
        assert res.rounds == 1

    def test_zero_weight_rank_reenters(self):
        """A rank starting at zero weight is probed with one alignment
        block and pulled back into the distribution."""
        timer = model_timer([1.0, 1.0], 1.0)
        res = autotune_weights(
            10_000, 2, timer, initial_weights=[1.0, 0.0]
        )
        assert res.converged
        assert res.weights[1] == pytest.approx(0.5, abs=0.05)


class TestErrorPaths:
    def test_wrong_shape_initial_weights(self):
        timer = model_timer([1.0, 1.0], 1.0)
        with pytest.raises(PartitionError):
            autotune_weights(1000, 2, timer, initial_weights=[1.0])

    def test_zero_sum_initial_weights(self):
        timer = model_timer([1.0, 1.0], 1.0)
        with pytest.raises(PartitionError):
            autotune_weights(1000, 2, timer, initial_weights=[0.0, 0.0])

    def test_negative_initial_weights(self):
        timer = model_timer([1.0, 1.0], 1.0)
        with pytest.raises(PartitionError):
            autotune_weights(1000, 2, timer, initial_weights=[1.5, -0.5])
