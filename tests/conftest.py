"""Shared fixtures: small reference matrices and RNGs."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.physics import build_topological_insulator
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="session", autouse=True)
def pinned_backend_selection():
    """Pin the kernel-backend environment for the whole session.

    The native loader caches its first load attempt process-wide, and
    ``REPRO_NATIVE_DISABLE`` is read at that moment — a test mutating the
    variable mid-session would silently flip which backend every *later*
    test (and every mp worker process, which inherits the environment)
    runs under.  This fixture snapshots the relevant variables and the
    resolved availability up front, restores the environment afterwards,
    and forces a clean reload so nothing leaks past the session.
    """
    from repro.sparse.backend.native import load_library, native_available

    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_NATIVE_DISABLE", "REPRO_NATIVE_CACHE", "CC")
    }
    availability = native_available()  # resolve (and cache) once, up front
    yield availability
    for key, val in saved.items():
        if val is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = val
    load_library(force_reload=True)


@pytest.fixture(scope="session")
def session_kernel_cache(pinned_backend_selection):
    """The kernel cache this session builds its units into."""
    from repro.sparse.backend.native import _cache_dir

    return _cache_dir()


@pytest.fixture
def cc_wrapper(tmp_path, session_kernel_cache):
    """A ``$CC`` that runs a shell snippet before every *unit* build.

    Probe compiles pass straight through to the real compiler; ``$out``
    is the build's ``-o`` target.  ``cached=True`` then serves the unit
    from the session's cache when it is there (same source, flags and
    host: same tag) — for tests of the machinery around a build that
    have no use for another real gcc run.
    """
    from repro.sparse.backend import native

    real = shutil.which(native._find_compiler())
    serve = ('n=$(basename "$out"); n=${n#.}; '
             f'cp {session_kernel_cache}/${{n%.*.tmp}} "$out" 2>/dev/null && exit')

    def make(snippet: str = ":", cached: bool = False) -> str:
        script = tmp_path / "cc-wrapper"
        script.write_text(
            "#!/bin/sh\n"
            'case "$*" in *REPRO_UNIT_PROFILE*)\n'
            '  prev=; for a; do [ "$prev" = -o ] && out=$a; prev=$a; done\n'
            f"  {snippet}\n"
            f"  {serve if cached else ':'}\n"
            ";; esac\n"
            f'exec {real} "$@"\n')
        script.chmod(0o755)
        return str(script)

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_hermitian_dense(rng, n: int, density: float = 0.25) -> np.ndarray:
    """A random complex Hermitian matrix with ~``density`` fill."""
    mask = rng.random((n, n)) < density
    d = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * mask
    return d + d.conj().T


@pytest.fixture
def small_hermitian(rng):
    """A 40x40 random Hermitian CSR matrix plus its dense counterpart."""
    dense = random_hermitian_dense(rng, 40)
    return CSRMatrix.from_dense(dense), dense


@pytest.fixture(scope="session")
def ti_small():
    """A small TI Hamiltonian (N = 480) with its model (session-cached)."""
    return build_topological_insulator(6, 5, 4)


@pytest.fixture(scope="session")
def ti_periodic():
    """A fully periodic TI Hamiltonian: every row has exactly 13 nonzeros."""
    return build_topological_insulator(4, 4, 4, pbc=(True, True, True))
