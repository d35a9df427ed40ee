"""Every example script must run end to end (small parameters)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

CASES = [
    ("quickstart.py", ["--nx", "6", "--nz", "3", "--moments", "64",
                       "--vectors", "2"]),
    ("topological_insulator_dos.py", ["--nx", "8", "--nz", "3",
                                      "--moments", "64", "--vectors", "2"]),
    ("quantum_dot_superlattice.py", ["--nx", "8", "--nz", "2",
                                     "--moments", "32", "--nk", "3"]),
    ("heterogeneous_cluster_simulation.py", ["--nx", "6", "--nz", "3",
                                             "--moments", "16",
                                             "--vectors", "2"]),
    ("eigenvalue_counting.py", ["--nx", "4", "--nz", "2", "--moments", "64",
                                "--vectors", "8"]),
    ("graphene_dos.py", ["--cells", "10", "--moments", "128",
                         "--vectors", "4"]),
    ("time_evolution.py", ["--nx", "6", "--nz", "2", "--tmax", "2",
                           "--steps", "3"]),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_examples_directory_complete():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert {c[0] for c in CASES} <= present
    assert "quickstart.py" in present
