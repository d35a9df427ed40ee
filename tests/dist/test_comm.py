"""Simulated communicator: device labels, the message log."""

import numpy as np
import pytest

from repro.dist.comm import MessageLog, SimWorld
from repro.util.errors import SimulationError


class TestLog:
    def test_totals(self):
        log = MessageLog()
        log.add(0, 1, 100, "a")
        log.add(1, 0, 50, "b")
        assert log.total_bytes == 150
        assert log.n_messages == 2

    def test_by_phase(self):
        log = MessageLog()
        log.add(0, 1, 10, "halo")
        log.add(0, 1, 20, "halo")
        log.add(1, 0, 5, "allreduce")
        assert log.bytes_by_phase() == {"halo": 30, "allreduce": 5}

    def test_by_rank(self):
        log = MessageLog()
        log.add(0, 1, 10, "x")
        log.add(1, 0, 30, "x")
        log.add(1, 2, 5, "x")
        assert np.array_equal(log.bytes_by_rank(3), [10, 35, 0])

    def test_clear(self):
        log = MessageLog()
        log.add(0, 1, 10, "x")
        log.clear()
        assert log.n_messages == 0


class TestDevices:
    def test_default_cpu(self):
        assert SimWorld(2).devices == ["cpu", "cpu"]

    def test_labels_validated(self):
        with pytest.raises(SimulationError):
            SimWorld(2, devices=["cpu"])
        with pytest.raises(SimulationError):
            SimWorld(1, devices=["tpu"])
