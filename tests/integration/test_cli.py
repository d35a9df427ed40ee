"""Command-line interface end to end."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from repro.cli import main


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

    def test_a_plan_runs_without_rebalancing(self, capsys):
        """``--elastic`` alone is honoured as given: ``--rebalance off``
        stays off, and the plan's join still happens."""
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "32",
                   "--vectors", "2", "--engine", "mp", "--workers", "2",
                   "--rebalance", "off", "--elastic", "join:m=9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "elastic: rebalancing off, plan 'join:m=9'" in out
        assert "rebalances=0 joins=1 leaves=0" in out
        assert "rebalancing on" not in out

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
            # _boot: the bootstrap (its product included), _step: every step
            for kernel in ("spmv", "_boot", "_step"):
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
        assert ran == {expected: {"spmv", "_boot", "_step"},
                       other: set()}

    def test_bad_weights_rejected(self, capsys):
        rc = main(["dos", "--nx", "4", "--nz", "2", "--moments", "32",
                   "--vectors", "1", "--engine", "sim", "--weights", "a,b"])
        assert rc == 1
        assert "--weights" in capsys.readouterr().err

    def test_a_checkpoint_file_needs_a_cadence(self, tmp_path, capsys):
        """``--checkpoint-path`` alone would never be written: refused."""
        path = tmp_path / "ck.npz"
        with pytest.raises(SystemExit) as exc:
            main(["dos", "--nx", "4", "--nz", "2", "--moments", "16",
                  "--vectors", "1", "--checkpoint-path", str(path)])
        assert exc.value.code == 2
        assert "--checkpoint-every" in capsys.readouterr().err
        assert not path.exists()

    def test_from_mtx(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(30, 30))
        d = d + d.T
        d[abs(d) <= 1.0] = 0.0
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(d))
        rc = main(["dos", "--mtx", str(path), "--moments", "32",
                   "--vectors", "2"])
        assert rc == 0
        assert "30 rows" in capsys.readouterr().out

    def test_from_mtx_with_a_split_entry(self, capsys):
        path = Path(__file__).parents[1] / "data" / "split_entry.mtx"
        rc = main(["dos", "--mtx", str(path), "--moments", "16",
                   "--vectors", "2"])
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert "2 rows, 4 nnz" in out

    def test_module_entry_point_exits_with_the_status(self, tmp_path):
        """``python -m repro`` freezes the collector before it exits; the
        status, stdout and stderr still come through."""
        good = Path(__file__).parents[1] / "data" / "split_entry.mtx"
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 1\n1 2 1.0\n")
        src = str(Path(__file__).parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [subprocess.run([sys.executable, "-m", "repro", "dos", "--mtx",
                                str(path), "--moments", "16", "--vectors", "2"],
                               env=env, capture_output=True, text=True,
                               timeout=120) for path in (good, bad)]
        assert runs[0].returncode == 0 and "DOS integral: 2.0" in runs[0].stdout
        assert runs[1].returncode == 1
        assert runs[1].stderr.startswith("error: operator is not Hermitian")


#: 4x4 MatrixMarket files KPM cannot expand, and the fault each names
BAD_MTX = {
    "general\n4 4 3\n1 1 1.0\n1 2 2.0\n2 1 0.5": "not Hermitian",
    "symmetric\n4 4 2\n1 1 nan\n2 1 1.0": "non-finite",
    "general\n4 4 1\n1 1 inf": "non-finite",
    "general\n3 4 1\n1 1 1.0": "square",
    "general\n0 0 0": "empty",
}


class TestBadMtx:
    """``--mtx`` is checked at the boundary: ``dos`` and ``tune`` refuse
    an operator KPM cannot expand with one ``error:`` line; ``info``
    still describes the matrix."""

    @pytest.mark.parametrize("body", BAD_MTX, ids=list(BAD_MTX.values()))
    @pytest.mark.parametrize("cmd", ["dos", "tune", "info"])
    def test_rejected(self, tmp_path, capsys, cmd, body):
        path = tmp_path / "bad.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {body}\n")
        rc = main([cmd, "--mtx", str(path)])
        out, err = capsys.readouterr()
        if cmd == "info":
            assert rc == 0 and "shape:" in out
        else:
            assert rc == 1
            assert err.startswith("error: ") and err.count("\n") == 1
            assert BAD_MTX[body] in err


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
