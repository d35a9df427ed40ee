"""Performance-report generator."""

import pytest

from repro.perf.arch import EMMY_NODE
from repro.perf.report import (
    architecture_table,
    balance_section,
    cluster_section,
    device_section,
    expected_counters,
    full_report,
    measured_vs_model_section,
    node_section,
    trace_section,
)


class TestSections:
    def test_architecture_table_lists_all(self):
        text = architecture_table()
        for name in ("IVB", "SNB", "K20m", "K20X"):
            assert name in text
        assert "176.0" in text  # IVB peak

    def test_balance_section_values(self):
        text = balance_section(1_000_000, 13.0, 32, 2000)
        assert "2.232" in text  # Eq. (6)
        assert "0.348" in text  # Eq. (7)
        assert "V_KPM" in text

    def test_device_section_rows(self):
        text = device_section(32, 13.0)
        assert text.count("\n") >= 5
        assert "K20X" in text

    def test_node_section_emmy(self):
        text = node_section(EMMY_NODE, 32)
        assert "2 CPU + 2 GPU" in text
        assert "hetero" in text

    def test_cluster_section_variants(self):
        text = cluster_section((400, 400, 40), 4, 2000, 32)
        for variant in ("aug_spmv", "aug_spmmv*", "aug_spmmv"):
            assert variant in text
        assert "node-hours" in text


@pytest.fixture(scope="module")
def small_system():
    from repro.core.scaling import lanczos_scale
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(5, 4, 3)
    return h, lanczos_scale(h, seed=0)


class TestExpectedCounters:
    """The analytic re-charge must equal the measured runtime charge."""

    @pytest.mark.parametrize("engine", ["naive", "aug_spmv", "aug_spmmv"])
    @pytest.mark.parametrize("r", [1, 4])
    def test_matches_measured_exactly(self, small_system, engine, r):
        from repro.core.moments import compute_eta
        from repro.core.stochastic import make_block_vector
        from repro.util.counters import PerfCounters

        h, scale = small_system
        blk = make_block_vector(h.n_rows, r, seed=3)
        measured = PerfCounters()
        compute_eta(h, scale, 8, blk, engine, measured, backend="numpy")
        exp = expected_counters(h, 8, r, engine)
        assert measured.bytes_loaded == exp.bytes_loaded
        assert measured.bytes_stored == exp.bytes_stored
        assert measured.flops == exp.flops

    def test_rejects_odd_moments(self, small_system):
        with pytest.raises(ValueError):
            expected_counters(small_system[0], 7, 2)

    def test_rejects_unknown_engine(self, small_system):
        with pytest.raises(ValueError):
            expected_counters(small_system[0], 8, 2, "warp")


class TestMeasuredVsModel:
    def test_exact_match_reported(self, small_system):
        from repro.core.moments import compute_eta
        from repro.core.stochastic import make_block_vector
        from repro.util.counters import PerfCounters

        h, scale = small_system
        blk = make_block_vector(h.n_rows, 4, seed=3)
        counters = PerfCounters()
        compute_eta(h, scale, 8, blk, "aug_spmmv", counters,
                    backend="numpy")
        text = measured_vs_model_section(h, counters, 8, 4, "aug_spmmv")
        assert "exact match: yes" in text
        assert "V_KPM" in text
        assert "aug_spmmv" in text  # the per-kernel table

    def test_divergence_flagged(self, small_system):
        from repro.util.counters import PerfCounters

        h, _ = small_system
        skewed = PerfCounters()
        skewed.charge("spmmv", loads=1, stores=1, flops=1)
        text = measured_vs_model_section(h, skewed, 8, 4, "aug_spmmv")
        assert "exact match: NO" in text


class TestTraceSection:
    def test_table_from_records(self):
        records = [
            {"name": "spmv", "dt": 0.25, "bytes": 100, "flops": 50},
            {"name": "spmv", "dt": 0.25, "bytes": 100, "flops": 50},
            {"name": "reconstruct", "dt": 0.1},
        ]
        text = trace_section(records)
        assert "spmv" in text and "reconstruct" in text
        assert "2.000" in text or "2 " in text  # B/F of the spmv rows


class TestFullReport:
    def test_contains_all_sections(self):
        text = full_report(nx=20, ny=20, nz=8, nodes=4)
        for header in (
            "ARCHITECTURES", "ACCOUNTING", "DEVICE ROOFLINES",
            "NODE LEVEL", "CLUSTER",
        ):
            assert header in text

    def test_validates_nodes(self):
        with pytest.raises(ValueError):
            full_report(nodes=0)
