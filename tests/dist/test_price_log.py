"""Pricing functional message logs with the network model."""

import numpy as np
import pytest

from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import MessageLog, SimWorld
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.network import NetworkModel
from repro.dist.partition import RowPartition


class TestPriceLog:
    def test_empty_log(self):
        out = NetworkModel().price_log(MessageLog())
        assert out == {"per_rank_max": 0.0, "sum": 0.0, "messages": 0.0}

    def test_single_message(self):
        n = NetworkModel()
        log = MessageLog()
        log.add(0, 1, 1 << 20, "halo")
        out = n.price_log(log)
        assert out["sum"] == pytest.approx(n.ptp_time(1 << 20))
        assert out["per_rank_max"] == out["sum"]
        assert out["messages"] == 1

    def test_gpu_endpoint_pays_pcie(self):
        n = NetworkModel()
        log = MessageLog()
        log.add(0, 1, 1 << 20, "halo")
        cpu_only = n.price_log(log, devices=["cpu", "cpu"])["sum"]
        with_gpu = n.price_log(log, devices=["cpu", "gpu"])["sum"]
        assert with_gpu == pytest.approx(
            cpu_only + n.pcie_time(1 << 20)
        )

    def test_both_gpu_endpoints_double_staging(self):
        n = NetworkModel()
        log = MessageLog()
        log.add(0, 1, 1 << 20, "halo")
        one = n.price_log(log, devices=["cpu", "gpu"])["sum"]
        two = n.price_log(log, devices=["gpu", "gpu"])["sum"]
        assert two > one

    def test_pipelined_staging_hides_pcie(self):
        log = MessageLog()
        log.add(0, 1, 1 << 22, "halo")
        serial = NetworkModel(pcie_overlap=False)
        piped = NetworkModel(pcie_overlap=True)
        assert piped.price_log(log, devices=["cpu", "gpu"])["sum"] < \
            serial.price_log(log, devices=["cpu", "gpu"])["sum"]

    def test_per_rank_max_vs_sum(self):
        n = NetworkModel()
        log = MessageLog()
        log.add(0, 1, 1000, "x")
        log.add(1, 0, 1000, "x")
        out = n.price_log(log, n_ranks=2)
        assert out["per_rank_max"] < out["sum"]

    def test_prices_functional_kpm_run(self):
        """End-to-end: run the distributed solver, price its log."""
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(6, 6, 3)
        scale = lanczos_scale(h, seed=0)
        blk = make_block_vector(h.n_rows, 2, seed=0)
        world = SimWorld(3, devices=["cpu", "gpu", "gpu"])
        part = RowPartition.equal(h.n_rows, 3, align=64)
        distributed_eta(h, part, scale, 16, blk, world)
        out = NetworkModel().price_log(world.log, devices=world.devices)
        assert out["messages"] == world.log.n_messages
        assert 0 < out["per_rank_max"] <= out["sum"]
        # GPU staging makes the same run dearer than an all-CPU pricing
        cpu_price = NetworkModel().price_log(world.log, devices=["cpu"] * 3)
        assert out["sum"] > cpu_price["sum"]
