"""Compile what you run: one lazily built library per kernel unit.

``_kernels.c`` builds into one ``repro_kernels-<unit>-<tag>.so`` per
(storage profile, scalar | simd), each the first time a kernel of it is
asked for.  Covered here: which units a run leaves in an empty cache,
what the tags key on, one build for N cold processes, a builder killed
mid-compile, where a unit that cannot be built surfaces, and the ISA
probe's verdict persisting from one process to the next.
"""

import itertools
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import KPMSolver
from repro.sparse.backend import native
from repro.sparse.backend.native import load_library, native_available
from repro.util.errors import BackendError

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)

SRC = str(Path(native.__file__).parents[3])
#: what ``benchmarks/e2e`` times as ``cli_cold`` (seed aside)
CLI_COLD = ["-m", "repro", "dos", "--nx", "32", "--nz", "8", "--moments", "128",
            "--vectors", "8", "--backend", "native", "--seed", "3"]
CLI_SMALL = ["-m", "repro", "dos", "--nx", "8", "--nz", "4", "--moments", "64",
             "--vectors", "4", "--points", "4", "--backend", "native"]


def _units(cache: Path) -> list[str]:
    """Unit names of the libraries in ``cache``, e.g. ``fp64-simd``."""
    return sorted(p.name.split("-", 1)[1].rsplit("-", 1)[0]
                  for p in cache.glob("repro_kernels-*.so"))


def _default_unit() -> str:
    return native.unit_name("", native.simd_available())


def _env(cache: Path, **extra: str) -> dict:
    env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache), **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    return env


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """A kernel cache holding the default unit only (copied from the
    session's, so a hit), with this process's loader pointed at it."""
    path = tmp_path_factory.mktemp("units")
    shutil.copy(native._unit_path(), path)
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_NATIVE_CACHE", str(path))
    load_library(force_reload=True)
    yield path
    patch.undo()
    load_library(force_reload=True)


def _solve(ti_small, **kw):
    m, _ = ti_small
    return KPMSolver(m, n_moments=16, n_vectors=2, seed=1, backend="native",
                     **kw).dos(n_points=32)


def test_four_cold_cli_runs_compile_one_unit_once(tmp_path, cc_wrapper,
                                                   capsys):
    """N first runs at once (the benchmark's command among them): one gcc
    run, of the one unit they execute, and every table is the usual one."""
    from repro.cli import main

    log = tmp_path / "cc.log"
    env = _env(tmp_path / "c", CC=cc_wrapper(f'echo "$out" >> {log}', cached=True))
    procs = [subprocess.Popen([sys.executable, *cmd], env=env,
                              stdout=subprocess.PIPE, text=True)
             for cmd in (CLI_COLD, CLI_SMALL, CLI_SMALL, CLI_SMALL)]
    cold, *small = [p.communicate(timeout=120)[0] for p in procs]
    assert [p.returncode for p in procs] == [0] * 4
    assert "kernel backend: native" in cold and "(N = 32,768)" in cold
    assert main(CLI_SMALL[2:]) == 0
    assert small == [capsys.readouterr().out] * 3
    assert len(log.read_text().splitlines()) == 1
    assert _units(tmp_path / "c") == [_default_unit()]


def test_each_profile_and_family_adds_its_own_unit(
        cache, ti_small, monkeypatch, cc_wrapper, session_kernel_cache):
    # The suite builds these two in the session's cache sooner or later;
    # doing it now lets the builds under test be served from there.
    with monkeypatch.context() as mp:
        mp.setenv("REPRO_NATIVE_CACHE", str(session_kernel_cache))
        native.compile_unit("_f32u16", native.simd_available())
        native.compile_unit("", False)
    monkeypatch.setenv("CC", cc_wrapper(cached=True))
    default = _default_unit()
    assert _units(cache) == [default]  # what load_library() means
    ref = _solve(ti_small)
    assert _units(cache) == [default]

    narrow = _solve(ti_small, precision="fp32")
    added = set(_units(cache)) - {default}
    assert len(added) == 1 and added.pop().startswith("f32")
    np.testing.assert_allclose(narrow.rho, ref.rho, rtol=1e-3, atol=1e-3)

    before = set(_units(cache))
    scalar = _solve(ti_small, simd="off")
    assert set(_units(cache)) - before == {"fp64-scalar"} - {default}
    np.testing.assert_array_equal(scalar.rho, ref.rho)


def test_tags_key_on_unit_source_and_flags(monkeypatch, tmp_path):
    units = list(itertools.product(native.KERNEL_SUFFIXES, (False, True)))

    def tags() -> list[str]:
        return [native._unit_path(*u).stem.rsplit("-", 1)[1] for u in units]

    base = tags()
    assert len(set(base)) == len(units) == 10
    assert base == tags()

    edited = tmp_path / "_kernels.c"
    text = native._SOURCE.read_bytes()
    abi = f"REPRO_ABI {native._ABI}".encode()
    edited.write_bytes(text.replace(abi, f"REPRO_ABI {native._ABI + 1}"
                                    .encode(), 1))
    assert len(edited.read_bytes()) == len(text)
    with monkeypatch.context() as mp:
        mp.setattr(native, "_SOURCE", edited)
        assert not set(tags()) & set(base)
    with monkeypatch.context() as mp:
        mp.setattr(native, "_CFLAGS", [*native._CFLAGS[1:], "-O2"])
        assert not set(tags()) & set(base)
    assert base == tags()


def test_simd_queries_build_nothing(monkeypatch):
    """``simd_available`` is asked per kernel plan: no load, no compile."""
    def boom(*_a, **_k):
        raise AssertionError("a SIMD query opened a unit")

    monkeypatch.setattr(native, "_unit", boom)
    monkeypatch.setattr(subprocess, "run", boom)  # the probe is memoised
    monkeypatch.delenv("REPRO_SIMD_DISABLE", raising=False)
    mask = native.simd_compiled_mask()
    assert native.simd_available() == bool(mask & 1)
    assert native.simd_f16c_available() == bool(mask & 2)
    monkeypatch.setenv("REPRO_SIMD_DISABLE", "1")
    assert not native.simd_available() and native.simd_compiled_mask() == mask


def test_the_isa_probe_is_paid_once_per_host(tmp_path, session_kernel_cache):
    """``simd.probe`` answers for later processes, for as long as the
    compiler binary and the CPU flags it was taken for are the ones seen;
    anything else in the file is probed over and replaced."""
    cache = tmp_path / "c"
    cache.mkdir()
    shutil.copy(native._unit_path(), cache)  # nothing to build: probes only
    shutil.copy(session_kernel_cache / "omp.flag", cache)
    log = tmp_path / "cc.log"
    log.touch()
    cc = tmp_path / "cc-logged"
    cc.write_text(f'#!/bin/sh\necho "$*" >> {log}\n'
                  f'exec {shutil.which(native._find_compiler())} "$@"\n')
    cc.chmod(0o755)
    marker = cache / "simd.probe"
    ask = ("from repro.sparse.backend import native\n{}"
           "print(native.simd_compiled_mask(), native.native_available())")

    def spawned(setup: str = "") -> int:
        """Compiler runs of one fresh process that loads the backend."""
        before = len(log.read_text().splitlines())
        out = subprocess.run(
            [sys.executable, "-c", ask.format(setup)], env=_env(cache, CC=str(cc)),
            capture_output=True, text=True, check=True, timeout=60).stdout
        assert out.split() == [str(native.simd_compiled_mask()), "True"]
        return len(log.read_text().splitlines()) - before

    assert spawned() == 1 and log.read_text().split()[-3:] == ["-dM", "-E", "-"]
    verdict = marker.read_text()
    key, mask = verdict.split()
    assert len(key) == 64 and int(mask) == native.simd_compiled_mask()
    assert spawned() == 0 and spawned() == 0

    os.utime(cc, ns=(1, 1))  # the compiler was replaced
    assert spawned() == 1 and marker.read_text() != verdict
    assert spawned() == 0
    # another CPU (its AVX2/F16C/FMA flags, which key the unit, are ours)
    assert spawned("native._HW_FEATURES = native.cpu_features() | {'new'}\n") == 1
    assert spawned() == 1 and spawned() == 0

    for junk in (b"", b"\xff\xfe\x00 3\n", b"3\n", f"{key} 7\n".encode()):
        marker.write_bytes(junk)
        assert spawned() == 1 and marker.read_text().split()[1] == mask
    assert not list(cache.glob(".simd.probe*"))


def test_unbuildable_unit_raises_where_it_is_needed(cache, cc_wrapper,
                                                    monkeypatch, ti_small):
    """No mid-run fallback: BackendError with the compiler's words."""
    log = cache / "fail.log"
    monkeypatch.setenv("CC", cc_wrapper(
        f'case "$*" in *=f16v*) echo x >> {log}; '
        'echo "kernels.c: boom" >&2; exit 1;; esac'))
    assert load_library() is not None  # the default unit is unaffected
    for _ in range(2):
        with pytest.raises(BackendError, match="boom"):
            _solve(ti_small, precision="fp16v")
    assert log.read_text().count("x") == 1  # the failure is remembered
    assert not [u for u in _units(cache) if u.startswith("f16v")]
    _solve(ti_small)  # and fp64 still runs


def test_compile_timeout_falls_back_and_leaves_no_debris(
        tmp_path, cc_wrapper, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "c"))
    monkeypatch.setenv("CC", cc_wrapper(': > "$out"; sleep 20'))
    monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "0.3")
    try:
        with pytest.warns(RuntimeWarning, match="timed out"):
            assert load_library(force_reload=True) is None
        assert not list((tmp_path / "c").glob(".repro_kernels-*"))
    finally:
        monkeypatch.undo()
        load_library(force_reload=True)


def test_killed_builder_blocks_nobody(tmp_path, cc_wrapper, monkeypatch):
    """SIGKILL mid-compile: the lock dies with it, its temp file is swept."""
    cache = tmp_path / "c"
    started = tmp_path / "started"
    env = _env(cache, CC=cc_wrapper(f': > "$out"; : > {started}; sleep 60'))
    builder = subprocess.Popen(
        [sys.executable, "-c",
         "from repro.sparse.backend import native; native.compile_unit()"],
        env=env, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not started.exists():
            assert builder.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
    finally:
        os.killpg(builder.pid, signal.SIGKILL)
        builder.wait(timeout=30)
    debris = list(cache.glob(".repro_kernels-*.tmp"))
    assert len(debris) == 1 and list(cache.glob("*.lock"))

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.setenv("CC", cc_wrapper(cached=True))
    assert native.compile_unit().stat().st_size > 10_000
    assert not list(cache.glob(".repro_kernels-*.tmp"))


@pytest.mark.slow
def test_every_kernel_of_every_unit_resolves():
    """A symbol lost from one unit fails here, not in a user's fp16v run."""
    units = native.buildable_units()
    assert {s for s, _ in units} == set(native.KERNEL_SUFFIXES)
    for (suffix, simd), base in itertools.product(units, native._SIGNATURES):
        fn = native.kernel(base, suffix, simd)
        assert fn.argtypes and fn is native.kernel(base, suffix, simd)
