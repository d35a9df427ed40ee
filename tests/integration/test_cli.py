"""Command-line interface end to end."""

import numpy as np
import pytest

from repro.cli import main
from repro.sparse.csr import CSRMatrix
from repro.sparse.io import write_matrix_market


class TestDos:
    def test_runs(self, capsys):
        rc = main(["dos", "--nx", "6", "--nz", "3", "--moments", "64",
                   "--vectors", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DOS integral" in out
        assert "rho(E)" in out

    def test_engine_option(self, capsys):
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "32",
                   "--vectors", "1", "--engine", "naive"])
        assert rc == 0

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_distributed_engines(self, engine, capsys):
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "32",
                   "--vectors", "2", "--engine", engine, "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"distributed engine: {engine} (2 workers, overlap on)" in out
        assert "communication:" in out
        assert "halo" in out and "allreduce_final" in out

    def test_distributed_matches_serial(self, capsys):
        argv = ["dos", "--nx", "4", "--nz", "2", "--moments", "32",
                "--vectors", "2", "--seed", "5"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--engine", "sim", "--workers", "3",
                            "--weights", "1,2,1"]) == 0
        sim = capsys.readouterr().out
        # same integral line => same moments end to end
        pick = [l for l in serial.splitlines() if "DOS integral" in l]
        assert pick and pick[0] in sim

    def test_metrics_flag(self, capsys):
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "16",
                   "--vectors", "2", "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MEASURED vs MODEL" in out
        assert "exact match: yes" in out
        assert "METRICS" in out and "aug_spmmv" in out

    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import aggregate_spans, read_trace

        path = tmp_path / "run.jsonl"
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "16",
                   "--vectors", "2", "--trace", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out and str(path) in out
        records = read_trace(path)
        assert records
        agg = aggregate_spans(records)
        assert "aug_spmmv" in agg and agg["aug_spmmv"]["flops"] > 0

    def test_metrics_with_mp_engine(self, capsys):
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "16",
                   "--vectors", "2", "--engine", "mp", "--workers", "2",
                   "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        # merged worker counters still equal the serial analytic charge
        assert "exact match: yes" in out
        assert "rank0.aug_spmmv" in out and "rank1.aug_spmmv" in out

    @pytest.mark.parametrize("quarantined", ["before the run", "mid-run"])
    def test_one_backend_prints_scales_and_solves(self, capsys, monkeypatch,
                                                  quarantined):
        """``--backend auto`` is resolved once: the health registry
        quarantining ``native`` before the run, or between the Lanczos
        scale and the solve, cannot split them across two backends."""
        from repro.core import solver
        from repro.sparse.backend import (
            NativeBackend,
            NumpyBackend,
            get_backend,
            report_backend_failure,
            reset_backend_health,
        )

        ran = {"numpy": set(), "native": set()}

        def spy(cls, kernel):
            real = getattr(cls, kernel)

            def method(self, *args, **kwargs):
                ran[self.name].add(kernel)
                return real(self, *args, **kwargs)

            monkeypatch.setattr(cls, kernel, method)

        for cls in (NumpyBackend, NativeBackend):
            for kernel in ("spmv", "spmmv", "aug_spmmv_step"):
                spy(cls, kernel)
        expected = get_backend("auto").name
        if quarantined == "before the run":
            report_backend_failure("native", "drill")
            expected = "numpy"
        else:
            real_scale = solver.lanczos_scale

            def scale_then_quarantine(*args, **kwargs):
                scale = real_scale(*args, **kwargs)
                report_backend_failure("native", "drill")
                return scale

            monkeypatch.setattr(solver, "lanczos_scale", scale_then_quarantine)
        try:
            assert main(["dos", "--nx", "4", "--nz", "2", "--moments", "16",
                         "--vectors", "2", "--backend", "auto"]) == 0
            assert get_backend("auto").name == "numpy"
        finally:
            reset_backend_health()
        assert f"kernel backend: {expected}" in capsys.readouterr().out
        other = "numpy" if expected == "native" else "native"
        assert ran == {expected: {"spmv", "spmmv", "aug_spmmv_step"},
                       other: set()}

    def test_bad_weights_rejected(self, capsys):
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "32",
                   "--vectors", "1", "--engine", "sim", "--weights", "a,b"])
        assert rc == 1
        assert "--weights" in capsys.readouterr().err

    def test_from_mtx(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(30, 30))
        d = d + d.T
        m = CSRMatrix.from_dense(d, tol=1.0)
        path = tmp_path / "m.mtx"
        write_matrix_market(m, path)
        rc = main(["dos", "--mtx", str(path), "--moments", "32",
                   "--vectors", "2"])
        assert rc == 0
        assert "30 rows" in capsys.readouterr().out


class TestInfo:
    def test_ti_structure(self, capsys):
        rc = main(["info", "--nx", "6", "--nz", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stencil-like:  True" in out
        assert "diagonals" in out


class TestReport:
    def test_sections(self, capsys):
        rc = main(["report", "--nx", "10", "--nz", "4", "--nodes", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ARCHITECTURES" in out and "CLUSTER" in out


class TestScaling:
    def test_table(self, capsys):
        rc = main(["scaling", "--nodes-list", "1,4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "square" in out and "bar" in out

    def test_invalid_square_nodes_warns(self, capsys):
        rc = main(["scaling", "--nodes-list", "8"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "square" in captured.err  # square family skipped with note
        assert "bar" in captured.out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["fly"])
