"""The import graph follows the call graph (DESIGN, "import graph").

Module *sets*, not seconds: what a fresh ``python -m repro dos`` on the
native kernels leaves in ``sys.modules``, that it needs no SciPy at all,
that the paths which do need more still find it, and that the lazy
package namespaces (:mod:`repro._lazy`) kept every public name.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sparse.backend.native import native_available

SRC = str(Path(repro.__file__).parents[1])
DATA = Path(__file__).parent / "data"
#: what ``benchmarks/e2e`` times as ``cli_cold`` (seed aside)
CLI_COLD = ["dos", "--nx", "32", "--nz", "8", "--moments", "128",
            "--vectors", "8", "--backend", "native", "--seed", "3"]
CLI_SMALL = ["dos", "--nx", "8", "--nz", "4", "--moments", "64",
             "--vectors", "4", "--points", "4"]
PACKAGES = ["repro", "repro.core", "repro.dist", "repro.hw", "repro.obs",
            "repro.perf", "repro.physics", "repro.resil", "repro.serve",
            "repro.sparse", "repro.sparse.backend", "repro.util"]

#: Runs ``sys.argv[1:]`` as ``python -m repro`` would (or, for ``-c``, the
#: code that follows), with SciPy unimportable when asked, and leaves the
#: names of the modules imported by the end in ``$MODULES_OUT``.
_BOOTSTRAP = """
import json, os, runpy, sys

class NoSciPy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name}: this run must not import SciPy")

if os.environ.get("BLOCK_SCIPY"):
    sys.meta_path.insert(0, NoSciPy())
argv = sys.argv[1:]
try:
    if argv[0] == "-c":
        exec(argv[1])
    else:
        sys.argv = ["repro", *argv]
        runpy.run_module("repro", run_name="__main__")
finally:
    with open(os.environ["MODULES_OUT"], "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""


def _run(tmp_path, *argv, block_scipy=False):
    """(stdout, modules imported) of one fresh interpreter."""
    out = tmp_path / "modules.json"
    env = dict(os.environ, MODULES_OUT=str(out), COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    if block_scipy:
        env["BLOCK_SCIPY"] = "1"
    proc = subprocess.run([sys.executable, "-c", _BOOTSTRAP, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(json.loads(out.read_text()))


def _under(modules, *roots):
    return sorted(m for m in modules
                  if any(m == r or m.startswith(r + ".") for r in roots))


@pytest.mark.skipif(not native_available(), reason="needs the native kernels")
def test_native_dos_imports_what_it_runs(tmp_path):
    guarded, modules = _run(tmp_path, *CLI_COLD, block_scipy=True)
    plain, _ = _run(tmp_path, *CLI_COLD)
    assert "kernel backend: native" in guarded and guarded == plain
    assert not _under(modules, "scipy", "repro.dist", "repro.resil",
                      "repro.serve", "repro.perf", "repro.hw")
    ours = _under(modules, "repro")
    assert len(ours) <= 40, ours


def test_import_repro_is_free(tmp_path):
    _, modules = _run(tmp_path, "-c", "import repro, repro.cli; "
                      "repro.cli.build_parser()")
    assert not _under(modules, "scipy", "numpy")
    assert _under(modules, "repro") == [
        "repro", "repro._lazy", "repro.cli", "repro.util", "repro.util.knobs"]


def test_numpy_backend_finds_its_scipy(tmp_path):
    out, modules = _run(tmp_path, *CLI_SMALL, "--backend", "numpy")
    assert "kernel backend: numpy" in out and "DOS integral: 1,024.0" in out
    assert "scipy.sparse" in modules
    assert not _under(modules, "scipy.fft", "scipy.special", "repro.dist")


def test_mp_engine_and_report_find_their_layers(tmp_path):
    out, modules = _run(tmp_path, *CLI_SMALL, "--engine", "mp")
    assert "distributed engine: mp (2 workers, overlap on)" in out
    assert "DOS integral: 1,024.0" in out
    assert "repro.dist.mp" in modules and not _under(modules, "repro.serve")
    out, modules = _run(tmp_path, "report", "--nx", "8", "--nz", "4")
    assert "== ARCHITECTURES (paper Table II) ==" in out
    assert "repro.perf.report" in modules


def test_evolve_finds_its_bessel_function(tmp_path):
    out, modules = _run(tmp_path, "-c", (
        "import numpy as np\n"
        "from repro import build_topological_insulator\n"
        "from repro.core import evolve, lanczos_scale\n"
        "H, _ = build_topological_insulator(4, 4, 2)\n"
        "psi = np.zeros(H.n_rows, complex); psi[0] = 1\n"
        "print(round(float(np.linalg.norm(\n"
        "    evolve(H, lanczos_scale(H, seed=0), psi, 0.5))), 9))\n"))
    assert out.strip() == "1.0"
    assert "scipy.special" in modules and "scipy.fft" not in modules


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=f"'{package}'.*'no_such_name'"):
        module.no_such_name


def test_lazy_names_are_listed_before_they_are_touched(tmp_path):
    out, _ = _run(tmp_path, "-c", (
        "import sys, repro.core\n"
        "assert 'repro.core.solver' not in sys.modules\n"
        "print('KPMSolver' in dir(repro.core), 'lanczos_scale' in "
        "dir(repro.core), 'repro.core.solver' in sys.modules)\n"))
    assert out.split() == ["True", "True", "False"]


@pytest.mark.parametrize("first", ["submodule", "export"])
def test_an_export_named_like_its_submodule_keeps_the_name(tmp_path, first):
    """``repro.sparse.spmv`` is the function whichever import came first."""
    touch = {"submodule": "import repro.sparse.spmv, repro.dist.tune, "
                          "repro.perf.roofline",
             "export": "from repro.sparse import spmv; from repro.dist "
                       "import tune; from repro.perf import roofline"}[first]
    out, _ = _run(tmp_path, "-c", (
        f"{touch}\n"
        "import sys, types, repro.sparse, repro.dist, repro.perf\n"
        "for pkg, name in ((repro.sparse, 'spmv'), (repro.dist, 'tune'),\n"
        "                  (repro.perf, 'roofline')):\n"
        "    sub = sys.modules[f'{pkg.__name__}.{name}']\n"
        "    print(isinstance(sub, types.ModuleType),\n"
        "          getattr(pkg, name) is getattr(sub, name))\n"))
    assert out.split() == ["True"] * 6


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays help out differently per version")
@pytest.mark.parametrize("argv, golden", [
    (["--help"], "cli_help.txt"), (["dos", "--help"], "cli_dos_help.txt")])
def test_help_is_unchanged_and_imports_no_numpy(tmp_path, argv, golden):
    """Snapshots at 80 columns; regenerate them when an option changes:
    ``COLUMNS=80 python -m repro dos --help > tests/data/cli_dos_help.txt``."""
    out, modules = _run(tmp_path, *argv)
    assert out == (DATA / golden).read_text()
    assert not _under(modules, "numpy", "scipy")
