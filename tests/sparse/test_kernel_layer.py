"""One NumPy kernel layer: source and object scans that keep it one.

The NumPy backend (``sparse/backend/numpy_backend.py``) owns every NumPy
kernel and the package's only SciPy product; ``sparse/fused.py`` holds
what the backends share and no step kernel; a SELL matrix is stored in
one layout; a native unit has one walk per format, and a task-mode
phase is a row range, so no kernel takes a row list.
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



def test_six_kernels_and_no_row_lists():
    """A task-mode phase is a row range: a unit binds one walk per format
    (the products, the bootstrap and the aug step — stage 1 at r = 1 —
    are its finishers) plus the set-up entries (the start block's
    phases, its anchors), and no kernel takes a row list — the int64
    pointers are indptr (CSR), chunk_ptr/chunk_len/perm/inv_perm (SELL)
    and a walk's escape flag."""
    from repro.sparse.backend import native

    walks = {"repro_csr_aug_spmmv": 1, "repro_sell_aug_spmmv": 4}
    assert set(native._SIGNATURES) == {*walks, "repro_phases",
                                       "repro_anchors"}
    for base, sig in native._SIGNATURES.items():
        operands = sig[:-5] if sig.endswith("nssEEL") else sig
        assert operands.count("L") == walks.get(base, 0), base


def test_removed_split_api_stays_removed():
    names = ["SplitKernelPlan", "take_rows", "mp_eta", "aug_spmv_interior",
             "aug_spmv_boundary", "aug_spmv_split_step",
             *(f"repro_csr_{kind}_{walk}" for kind in ("aug_spmv", "aug_spmmv")
               for walk in ("range", "rows")),
             # stage 1's own row order and kernels: it is aug_spmmv at r = 1
             "repro_rowdot", "_lane_product", "lane_out",
             "KN(repro_csr_aug_spmv)", "KN(repro_sell_aug_spmv)",
             # the products and the bootstrap: finishers of the walks
             *(f"repro_{fmt}_{kind}" for fmt in ("csr", "sell")
               for kind in ("spmv", "spmmv", "bootstrap")),
             "KN(repro_boot)", "REPRO_SLOT", "repro_storerow",
             "repro_row_aug"]
    sources = [*_sources(), SRC / "sparse" / "backend" / "_kernels.c"]
    offenders = [
        (path.relative_to(SRC).as_posix(), name)
        for path in sources
        for name in names
        if name in path.read_text()
    ]
    assert not offenders
