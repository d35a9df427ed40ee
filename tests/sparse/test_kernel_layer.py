"""One NumPy kernel layer: source and object scans that keep it one.

The NumPy backend (``sparse/backend/numpy_backend.py``) owns every NumPy
kernel and the package's only SciPy product; ``sparse/fused.py`` holds
what the backends share and no step kernel; a SELL matrix is stored in
one layout.
"""

import ast
from pathlib import Path

import repro
from repro.sparse import fused
from repro.sparse.sell import SellMatrix

SRC = Path(repro.__file__).parent


def _imports(path: Path):
    """``(module, names)`` of every import statement in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, tuple(a.name for a in node.names)


def _sources():
    return sorted(SRC.rglob("*.py"))


def test_only_the_numpy_backend_imports_scipy():
    found = {
        (path.relative_to(SRC).as_posix(), module, names)
        for path in _sources()
        for module, names in _imports(path)
        if module.split(".")[0] == "scipy"
    }
    assert found == {
        ("sparse/backend/numpy_backend.py", "scipy.sparse", ()),
        ("sparse/backend/numpy_backend.py", "scipy.sparse", ("_sparsetools",)),
        ("core/evolution.py", "scipy.special", ("jv",)),
    }


def test_nothing_imports_the_removed_spmv_module():
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in _sources()
        for module, names in _imports(path)
        if module == "repro.sparse.spmv"
        or (module == "repro.sparse" and "spmv" in names)
    ]
    assert not offenders
    assert not (SRC / "sparse" / "spmv.py").exists()


def test_fused_defines_no_step_kernel():
    tree = ast.parse(Path(fused.__file__).read_text())
    steps = [node.name for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.endswith("_step")]
    assert not steps


def test_a_sell_matrix_has_one_layout(small_hermitian):
    m, _ = small_hermitian
    s = SellMatrix(m, chunk_height=8, sigma=16)
    assert not [k for k in vars(s) if k.startswith("_ell")]
