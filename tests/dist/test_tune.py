"""Search-driven configuration tuning (``repro.dist.tune``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dist.tune import (
    DEFAULT_CONFIG,
    TuneConfig,
    TuneSpace,
    lookup,
    machine_signature,
    matrix_signature,
    measure,
    model_cost,
    profile_key,
    save_profile,
    tune,
)
from repro.physics import build_topological_insulator


@pytest.fixture(scope="module")
def ti():
    h, _ = build_topological_insulator(4, 4, 4)
    return h


class TestTuneConfig:
    def test_default_is_untuned_serial(self):
        assert DEFAULT_CONFIG.workers == 1
        assert DEFAULT_CONFIG.fmt == "csr"
        assert DEFAULT_CONFIG.threads == "auto"  # the ExecConfig default
        assert DEFAULT_CONFIG.precision == "fp64"

    def test_validation(self):
        with pytest.raises(ValueError):
            TuneConfig(fmt="coo")
        with pytest.raises(ValueError):
            TuneConfig(engine="mpi")
        with pytest.raises(ValueError):
            TuneConfig(overlap="maybe")
        with pytest.raises(ValueError):
            TuneConfig(threads=0)
        with pytest.raises(ValueError):
            TuneConfig(chunk=32, sigma=48)  # not a multiple of C
        with pytest.raises(ValueError):
            TuneConfig(workers=2, weights=(1.0,))  # wrong arity
        with pytest.raises(ValueError, match="serial only"):
            TuneConfig(fmt="sell", workers=2)  # no engine runs it

    def test_dict_roundtrip(self):
        for cfg in (TuneConfig(fmt="sell", chunk=8, sigma=32, threads=4),
                    TuneConfig(workers=2, weights=(0.3, 0.7), threads=4)):
            assert TuneConfig.from_dict(cfg.to_dict()) == cfg
            # to_dict is JSON-clean
            json.dumps(cfg.to_dict())


class TestTuneSpace:
    def test_samples_are_always_valid(self):
        space = TuneSpace(sigmas=(1, 48), weights=(None, (0.5, 0.5)))
        rng = np.random.default_rng(7)
        for _ in range(100):
            cfg = space.sample(rng)  # __post_init__ validates
            assert cfg.fmt in ("csr", "sell")
            assert cfg.fmt == "csr" or cfg.workers == 1

    def test_neighbors_mutate_one_knob(self):
        space = TuneSpace()
        for n in space.neighbors(DEFAULT_CONFIG):
            assert n != DEFAULT_CONFIG
        # the sequential default has a threaded neighbor
        assert any(n.threads == 2 for n in space.neighbors(DEFAULT_CONFIG))
        # and no point has a distributed SELL neighbor
        for cfg in (TuneConfig(workers=2), TuneConfig(fmt="sell")):
            assert all(n.fmt == "csr" or n.workers == 1
                       for n in space.neighbors(cfg))

    def test_sell_neighbors_keep_sigma_aligned(self):
        space = TuneSpace(chunks=(8, 32), sigmas=(1, 128))
        cfg = TuneConfig(fmt="sell", chunk=32, sigma=128)
        for n in space.neighbors(cfg):
            assert n.sigma == 1 or n.sigma % n.chunk == 0


class TestSearch:
    def test_never_slower_than_default(self, ti):
        """The acceptance contract: the default is always in the pool,
        so the tuned config can never measure slower than it."""
        def cost(h, cfg):
            return 1.0 + 0.5 * (cfg.workers - 1)  # default already optimal

        res = tune(ti, measure_fn=cost, n_random=6, greedy_rounds=2, seed=0)
        assert res.seconds <= res.baseline_seconds
        assert res.speedup >= 1.0

    def test_finds_the_planted_optimum(self, ti):
        """Greedy refinement walks to a strictly better neighbor chain."""
        def cost(h, cfg):
            s = 1.0 / (cfg.threads or 1)
            if cfg.fmt == "sell":
                s *= 0.9
            s *= 1.0 + 0.3 * (cfg.workers - 1)
            return s

        res = tune(ti, measure_fn=cost, n_random=4, greedy_rounds=4, seed=3)
        assert res.config.threads == 4
        assert res.config.fmt == "sell"
        assert res.config.workers == 1

    def test_failing_candidates_drop_out(self, ti):
        """A candidate whose measurement raises scores inf, and the
        default still wins."""
        def cost(h, cfg):
            if cfg != DEFAULT_CONFIG:
                raise RuntimeError("combo unavailable on this host")
            return 1.0

        res = tune(ti, measure_fn=cost, n_random=5, greedy_rounds=1, seed=0)
        assert res.config == DEFAULT_CONFIG
        assert res.seconds == 1.0

    def test_default_measured_exactly_once(self, ti):
        calls = []

        def cost(h, cfg):
            calls.append(cfg)
            return 2.0

        tune(ti, measure_fn=cost, n_random=5, greedy_rounds=1, seed=0)
        assert calls.count(DEFAULT_CONFIG) == 1

    def test_real_probe_smoke(self, ti):
        """End-to-end with genuine wall-clock probes on a tiny matrix:
        the by-construction guarantee survives real measurement."""
        space = TuneSpace(workers=(1,), threads=(None, 2), rs=(2,),
                          fmts=("csr",))
        res = tune(ti, space=space, n_random=2, n_measure=2,
                   greedy_rounds=1, n_moments=8, seed=0)
        assert np.isfinite(res.baseline_seconds)
        assert res.seconds <= res.baseline_seconds


class TestModelCost:
    def test_parallelism_never_hurts_at_fixed_shape(self, ti):
        lone = model_cost(ti, DEFAULT_CONFIG)
        threaded = model_cost(ti, TuneConfig(threads=4))
        assert threaded <= lone

    def test_wider_blocks_amortize(self, ti):
        narrow = model_cost(ti, TuneConfig(r=4)) / 4
        wide = model_cost(ti, TuneConfig(r=16)) / 16
        assert wide < narrow  # per-column traffic falls with R (Eq. 5-7)


class TestProfiles:
    def test_roundtrip(self, ti, tmp_path):
        path = tmp_path / "tuned.json"
        res = tune(ti, measure_fn=lambda h, c: 1.0, n_random=2, seed=0)
        save_profile(ti, res, path)
        assert lookup(ti, path) == res.config
        # a different matrix shape misses
        other, _ = build_topological_insulator(6, 6, 4)
        assert lookup(other, path) is None

    def test_corrupt_store_is_empty_not_fatal(self, ti, tmp_path):
        path = tmp_path / "tuned.json"
        path.write_text("{not json")
        assert lookup(ti, path) is None
        # and saving over it recovers
        res = tune(ti, measure_fn=lambda h, c: 1.0, n_random=0, seed=0)
        save_profile(ti, res, path)
        assert lookup(ti, path) == res.config

    def test_missing_store(self, ti, tmp_path):
        assert lookup(ti, tmp_path / "nope.json") is None

    def test_signatures(self, ti):
        assert matrix_signature(ti).startswith(f"n{ti.n_rows}-")
        assert machine_signature() in profile_key(ti)


class TestMeasure:
    def test_serial_probe_runs(self, ti):
        t = measure(ti, TuneConfig(r=2), n_moments=8)
        assert t > 0 and np.isfinite(t)

    def test_sell_probe_converts_outside_timing(self, ti):
        t = measure(ti, TuneConfig(fmt="sell", chunk=8, sigma=8, r=2),
                    n_moments=8)
        assert t > 0 and np.isfinite(t)
