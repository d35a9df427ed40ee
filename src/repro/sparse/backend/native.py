"""Compile-on-first-use loader for the native C kernels.

``_kernels.c`` is one template; each build of it holds one *unit* — one
storage profile's sixteen kernels in the scalar or the ``_simd`` family,
picked with ``-DREPRO_UNIT_PROFILE=... -DREPRO_UNIT_SIMD=...`` — and a
unit is built the first time one of its kernels is asked for
(:func:`kernel`), never ahead of need: a run compiles what it calls.
The compiler is whatever the host offers (``$CC``, else ``gcc``, else
``cc``) at ``-O3``; every ``repro_kernels-<unit>-<tag>.so`` is cached
under a per-user directory, the tag hashing the source text, the flags
and the host ISA, so recompilation only happens when one of them
changes.  Everything degrades gracefully: if no compiler is present,
the default unit fails to build, or ``REPRO_NATIVE_DISABLE`` is set in
the environment, the loader reports the native backend as unavailable
and callers fall back to the NumPy backend (see
:mod:`repro.sparse.backend`).
"""

from __future__ import annotations

import _ctypes
import ctypes
import fcntl
import functools
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.util.errors import BackendError

_SOURCE = Path(__file__).with_name("_kernels.c")

#: Compiler flags, the same for every unit (a unit's two ``-D``s are
#: appended per build): -march=native lets the preprocessor see
#: AVX2/F16C, which the ``_simd`` units require.
#: -funroll-loops is kept for the *scalar* reference family, whose loops
#: over the block width have a run-time bound: without it scalar
#: ``aug_spmmv`` R = 32 takes 24.5 instead of 20.7 ms (fp32 22.3 / 18.6)
#: and scalar ``aug_spmv`` 1.03 instead of 0.88 ms.  The ``_simd`` family
#: times the same either way: its register tiles unroll by pragma and
#: keep the flag off their non-zero loop (``REPRO_NOUNROLL``).  The flag
#: costs 0.1-0.15 s of a unit's 0.6-0.9 s build (DESIGN section 12).
#: No -ffast-math — fp semantics must match NumPy's.
#:
#: ``-ffp-contract=off -fno-tree-vectorize`` pin the *scalar* kernels to
#: the literal source DAG.  This is what makes ``simd=on|off`` bitwise
#: reproducible: the hand-written intrinsic kernels replay exactly that
#: DAG lane-by-lane, but GCC's autovectorizer does not — e.g. GCC 12's
#: SLP pass contracts the interleaved complex multiply pattern into
#: ``vfmaddsub231pd`` even under ``-ffp-contract=off``, silently fusing
#: the rounding the flag was supposed to forbid.  With autovectorization
#: off the scalar build computes what the C says, the SIMD build matches
#: it bitwise by construction, and the old shape-dependent ``novector``
#: pragmas become redundant belt-and-suspenders.
#:
#: ``-fopenmp`` is appended by :func:`_cflags` when the compiler accepts
#: it (probed once, cached); without it the ``_mt`` kernels run their
#: block loop serially with bitwise-identical results.
_CFLAGS = [
    "-O3",
    "-march=native",
    "-funroll-loops",
    "-std=c11",
    "-ffp-contract=off",
    "-fno-tree-vectorize",
    "-fPIC",
    "-shared",
]

_openmp_supported: bool | None = None


def _probe_openmp(cc: str) -> bool:
    """Whether ``cc`` accepts ``-fopenmp`` (tiny probe compile, cached).

    The verdict is memoized in-process and persisted as a marker file in
    the cache directory so mp worker processes skip the probe.
    """
    global _openmp_supported
    if _openmp_supported is not None:
        return _openmp_supported
    marker = _cache_dir() / "omp.flag"
    try:
        cached = marker.read_text().strip()
        if cached in ("1", "0"):
            _openmp_supported = cached == "1"
            return _openmp_supported
    except OSError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "probe.c"
        src.write_text(
            "#ifdef _OPENMP\n#include <omp.h>\n#endif\n"
            "int main(void) { return 0; }\n"
        )
        try:
            proc = subprocess.run(
                [cc, "-fopenmp", "-o", str(Path(tmp) / "probe"), str(src)],
                capture_output=True, timeout=30,
            )
            ok = proc.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            ok = False
    _openmp_supported = ok
    try:
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text("1" if ok else "0")
    except OSError:
        pass
    return ok


def _cflags(cc: str | None = None) -> list[str]:
    """The effective compiler flags, including ``-fopenmp`` if usable."""
    cc = cc or _find_compiler()
    if cc is not None and _probe_openmp(cc):
        return [*_CFLAGS, "-fopenmp"]
    return list(_CFLAGS)


# ---------------------------------------------------------------------
# CPU-feature detection and the SIMD compile probe
# ---------------------------------------------------------------------

#: Feature flags that change which kernels end up in the ``.so`` (and
#: whether a cached one is safe to execute here); everything else the
#: CPU advertises is irrelevant to the cache key.
_SIMD_FEATURES = ("avx2", "f16c", "fma")

_HW_FEATURES: frozenset[str] | None = None


def cpu_features() -> frozenset[str]:
    """The host CPU's feature flags (cpuid, via ``/proc/cpuinfo``).

    Lower-cased; empty on platforms without ``/proc`` — the compile
    probe then stands in, since ``-march=native`` only enables what the
    compiler itself detected on this machine.
    """
    global _HW_FEATURES
    if _HW_FEATURES is None:
        feats: set[str] = set()
        try:
            with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if line.lower().startswith(("flags", "features")):
                        feats.update(line.split(":", 1)[1].lower().split())
                        break
        except OSError:
            pass
        _HW_FEATURES = frozenset(feats)
    return _HW_FEATURES


def _probe_key(cc: str, march: list[str]) -> str:
    """What a persisted probe verdict holds for: this compiler binary
    (resolved path, size, mtime), these flags, this CPU's feature flags."""
    exe = os.path.realpath(shutil.which(cc) or cc)
    st = os.stat(exe)
    recipe = [exe, str(st.st_size), str(st.st_mtime_ns), *march,
              *sorted(cpu_features())]
    return hashlib.sha256("\0".join(recipe).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _probe_simd_mask(cc: str) -> int:
    """What ``cc -march=native`` will vectorize: bit0 AVX2, bit1 F16C.

    A preprocessor-only probe (``-dM -E``) — no binary, and it answers
    the exact question the ``#if`` gate of a ``_simd`` unit in
    ``_kernels.c`` asks, so a unit is only ever requested where it
    builds.  Memoised twice: in the process (the kernels consult it on
    every call) and as ``simd.probe`` in the cache directory, beside
    ``omp.flag``, so that only the first process on a host spawns the
    compiler for it.  The file is ``<key> <mask>``; a key that is not
    :func:`_probe_key`'s, or anything unreadable, means probe again and
    replace it.
    """
    march = [f for f in _CFLAGS if f.startswith("-march")]
    marker = _cache_dir() / "simd.probe"
    try:
        key = _probe_key(cc, march)
    except OSError:
        key = None  # no such compiler: the probe below says so too
    try:
        saved_key, saved = marker.read_text().split()
        if saved_key == key and saved in ("0", "1", "3"):
            return int(saved)
    except (OSError, ValueError):
        pass
    try:
        proc = subprocess.run(
            [cc, *march, "-dM", "-E", "-"],
            input="", capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return 0
    if proc.returncode != 0:
        return 0
    mask = 0
    if "__AVX2__" in proc.stdout:
        mask = 3 if "__F16C__" in proc.stdout else 1
    if key is not None:
        tmp = marker.with_name(f".{marker.name}.{os.getpid()}.tmp")
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(f"{key} {mask}\n")
            os.replace(tmp, marker)
        except OSError:
            tmp.unlink(missing_ok=True)
    return mask


def _feature_fingerprint(cc: str | None) -> str:
    """Cache-key component tying a built ``.so`` to this host's ISA.

    ``-march=native`` bakes host-specific instruction selection into the
    binary while leaving the source+flags hash unchanged, so a container
    migrated from an AVX2 host to one without it would happily dlopen a
    library it cannot execute.  Folding the cpuid flags and the compile
    probe's verdict into the key forces a rebuild the moment either
    changes.
    """
    hw = ",".join(f for f in _SIMD_FEATURES if f in cpu_features())
    probe = _probe_simd_mask(cc) if cc is not None else 0
    return f"hw={hw};probe={probe}"


def simd_compiled_mask() -> int:
    """SIMD kernel families this host's compiler builds.

    Bit 0: AVX2 kernels; bit 1: F16C half-precision kernels.  0 without
    a compiler or under ``REPRO_NATIVE_DISABLE``.  This is the memoised
    preprocessor probe, not a question to a loaded library: the kernels
    consult it on every call, and asking must not build anything.
    """
    cc = None if os.environ.get("REPRO_NATIVE_DISABLE") else _find_compiler()
    return _probe_simd_mask(cc) if cc is not None else 0


def simd_available() -> bool:
    """True when the ``_simd`` kernels exist and are not disabled.

    ``REPRO_SIMD_DISABLE`` is consulted per call so the forced-scalar
    drill can flip it without reloading anything.
    """
    if os.environ.get("REPRO_SIMD_DISABLE"):
        return False
    return bool(simd_compiled_mask() & 1)


def simd_f16c_available() -> bool:
    """True when the F16C half-precision SIMD kernels are usable."""
    if os.environ.get("REPRO_SIMD_DISABLE"):
        return False
    return bool(simd_compiled_mask() & 2)


def _compile_timeout() -> float:
    """Seconds the compiler subprocess may run before we give up.

    ``REPRO_NATIVE_COMPILE_TIMEOUT`` overrides the default; a malformed
    or non-positive value falls back to the default rather than crashing
    (or, for values ``<= 0``, instantly "timing out" every compile and
    silently quarantining the native backend) — the whole point of this
    knob is that a compile problem must never take the run down with it.
    """
    raw = os.environ.get("REPRO_NATIVE_COMPILE_TIMEOUT")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return COMPILE_TIMEOUT
        if value > 0:
            return value
    return COMPILE_TIMEOUT


#: Default compiler-subprocess timeout (seconds); see
#: :envvar:`REPRO_NATIVE_COMPILE_TIMEOUT`.
COMPILE_TIMEOUT = 120.0

#: Mirrors ``REPRO_ABI`` in ``_kernels.c``: what :func:`_declare` expects
#: a unit to answer before any of its kernels is bound.
_ABI = 1

_lib: ctypes.CDLL | None = None
_load_attempted = False
_load_error: str | None = None

#: Units this process opened, or why one cannot be: (suffix, simd) ->
#: CDLL | message.  ``_bound`` holds their declared entry points.
_units: dict[tuple[str, bool], ctypes.CDLL | str] = {}
_bound: dict[tuple[str, str, bool], ctypes._CFuncPtr] = {}

_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_F32 = ctypes.POINTER(ctypes.c_float)
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U16 = ctypes.POINTER(ctypes.c_uint16)

#: Exported kernel-name suffix per precision profile, mapped to the
#: (matrix values, vector storage, column indices) pointer types that
#: profile streams.  Mirrors the profile blocks of ``_kernels.c`` in
#: name (suffix without the underscore; ``fp64`` for the empty one) and
#: in order (``REPRO_PROFILE`` = position + 1): float16 vectors travel
#: as their raw uint16 bit patterns.
KERNEL_SUFFIXES = {
    "": (_P_F64, _P_F64, _P_I32),
    "_f32": (_P_F32, _P_F32, _P_I32),
    "_f32u16": (_P_F32, _P_F32, _P_U16),
    "_f16v": (_P_F32, _P_U16, _P_I32),
    "_f16vu16": (_P_F32, _P_U16, _P_U16),
}

#: Argtype templates shared by every typed expansion of a kernel:
#: ``n`` int64 scalar, ``s`` double scalar, ``L`` int64* (indptr /
#: chunk arrays / row lists), ``I`` column indices*, ``V`` matrix
#: values*, ``X`` vector storage*, ``E`` double* (eta outputs — always
#: fp64, the kernels accumulate the dots in double in every profile).
_SIGNATURES = {
    "repro_csr_spmv": "nLIVXX",
    "repro_csr_spmmv": "nnLIVXX",
    "repro_csr_aug_spmv": "nLIVXXssEE",
    "repro_csr_aug_spmmv": "nnLIVXXssEE",
    # split (task-mode) variants: a contiguous [row0, row1) range and a
    # gathered row list, both absolute on the original CSR arrays
    "repro_csr_aug_spmv_range": "nnLIVXXssEE",
    "repro_csr_aug_spmv_rows": "nLLIVXXssEE",
    "repro_csr_aug_spmmv_range": "nnnLIVXXssEE",
    "repro_csr_aug_spmmv_rows": "nLnLIVXXssEE",
    "repro_sell_spmv": "nnnLLLIVXX",
    "repro_sell_spmmv": "nnnnLLLIVXX",
    "repro_sell_aug_spmv": "nnnLLLIVXXssEE",
    "repro_sell_aug_spmmv": "nnnnLLLIVXXssEE",
    # threaded (_mt) variants: an extra n_threads scalar after r; the
    # block-grid reduction keeps fp64 bitwise across thread counts
    "repro_csr_aug_spmmv_mt": "nnnLIVXXssEE",
    "repro_csr_aug_spmmv_range_mt": "nnnnLIVXXssEE",
    "repro_csr_aug_spmmv_rows_mt": "nLnnLIVXXssEE",
    "repro_sell_aug_spmmv_mt": "nnnnnLLLIVXXssEE",
}


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-native"
    return Path(tempfile.gettempdir()) / "repro-native"


@functools.lru_cache(maxsize=None)
def _which_compiler(cc_env: str | None) -> str | None:
    for cand in (cc_env, "gcc", "cc"):
        if cand and shutil.which(cand):
            return cand
    return None


def _find_compiler() -> str | None:
    return _which_compiler(os.environ.get("CC"))


def buildable_units() -> list[tuple[str, bool]]:
    """Every (suffix, simd) unit this host's compiler can build."""
    mask = simd_compiled_mask()
    return [
        (suffix, simd)
        for suffix in KERNEL_SUFFIXES
        for simd in (False, True)
        if not simd or mask & (2 if "f16v" in suffix else 1)
    ]


def unit_name(suffix: str, simd: bool) -> str:
    """``<profile>-<scalar|simd>``, as in the library's file name."""
    return f"{suffix.lstrip('_') or 'fp64'}-{'simd' if simd else 'scalar'}"


def _unit_defines(suffix: str, simd: bool) -> list[str]:
    return [
        f"-DREPRO_UNIT_PROFILE={unit_name(suffix, simd).split('-')[0]}",
        f"-DREPRO_UNIT_SIMD={int(simd)}",
    ]


def _unit_path(suffix: str = "", simd: bool | None = None) -> Path:
    """Where one unit's library lives in the cache (built or not).

    ``simd=None`` means the default family: ``_simd`` where it exists.
    """
    if simd is None:
        simd = simd_available()
    # Key on the flags too: a flag change alters codegen (and can alter
    # rounding), so it must miss the cache just like a source change.
    # The feature fingerprint keys the host ISA in as well — see
    # _feature_fingerprint for why -march=native makes that mandatory.
    cc = _find_compiler()
    recipe = (
        _SOURCE.read_bytes()
        + "\0".join(_cflags(cc) + _unit_defines(suffix, simd)).encode()
        + b"\0" + _feature_fingerprint(cc).encode()
    )
    tag = hashlib.sha256(recipe).hexdigest()[:16]
    # ".so" whatever the platform calls its libraries: dlopen takes the
    # full path, and asking sysconfig costs 2 ms of every process
    return _cache_dir() / f"repro_kernels-{unit_name(suffix, simd)}-{tag}.so"


def _sweep_dead_builds(cache: Path) -> None:
    """Remove ``.<name>.<pid>.tmp`` files whose builder no longer runs."""
    for tmp in cache.glob(".repro_kernels-*.tmp"):
        try:
            os.kill(int(tmp.name.split(".")[-2]), 0)
        except ProcessLookupError:
            tmp.unlink(missing_ok=True)
        except (ValueError, PermissionError):
            pass  # not ours to judge / alive under another user


def compile_unit(suffix: str = "", simd: bool | None = None) -> Path:
    """Build one unit into the cache unless it is there; return its path.

    Raises :class:`BackendError` when no compiler is available or the
    compile fails; callers wanting the graceful path use
    :func:`load_library`.
    """
    if simd is None:
        simd = simd_available()
    path = _unit_path(suffix, simd)
    if path.exists():
        return path
    cc = _find_compiler()
    if cc is None:
        raise BackendError("no C compiler found ($CC, gcc, cc)")
    path.parent.mkdir(parents=True, exist_ok=True)
    # One builder per unit: N cold processes (mp workers, a CI matrix)
    # otherwise each pay the whole compile.  The lock dies with its
    # holder's descriptor, so a killed builder blocks nobody.
    with open(f"{path}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if path.exists():
            return path
        _sweep_dead_builds(path.parent)
        # build into a temp name, then atomic-rename: a reader never
        # observes a half-written library
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        cmd = [cc, *_cflags(cc), *_unit_defines(suffix, simd),
               "-o", str(tmp), str(_SOURCE), "-lm"]
        timeout = _compile_timeout()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            tmp.unlink(missing_ok=True)
            raise BackendError(
                f"native kernel compilation timed out after {timeout:.0f}s "
                f"({cc})"
            ) from None
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise BackendError(
                f"native kernel compilation failed ({cc}):\n"
                f"{proc.stderr.strip()}"
            )
        os.replace(tmp, path)
    return path


def _elf_truncated(path: Path) -> bool:
    """Whether an ELF file ends before its own section-header table.

    ``dlopen`` maps segments without looking at the file size, and the
    first touch of a page past the end is SIGBUS, not an exception — so
    an interrupted copy must be caught before it is opened.  Anything
    that is not ELF64 is left for ``dlopen`` to refuse.
    """
    with open(path, "rb") as fh:
        head = fh.read(64)
    if head[:5] != b"\x7fELF\x02":
        return False
    if len(head) < 64:
        return True
    order = ">" if head[5] == 2 else "<"
    (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
    return path.stat().st_size < shoff + shentsize * shnum


def _declare(lib: ctypes.CDLL, suffix: str, simd: bool) -> None:
    """Check that ``lib`` is this unit, then bind its sixteen kernels."""
    lib.repro_unit.argtypes = []
    lib.repro_unit.restype = ctypes.c_int32
    profile = list(KERNEL_SUFFIXES).index(suffix) + 1
    want = (_ABI << 8) | (profile << 1) | simd
    got = lib.repro_unit()
    if got != want:
        raise ValueError(f"unit id {got:#x}, expected {want:#x}")
    vp, xp, ip = KERNEL_SUFFIXES[suffix]
    codes = {
        "n": ctypes.c_int64,
        "s": ctypes.c_double,
        "L": _P_I64,
        "I": ip,
        "V": vp,
        "X": xp,
        "E": _P_F64,
    }
    bound = {}
    for base, sig in _SIGNATURES.items():
        fn = getattr(lib, base + suffix + ("_simd" if simd else ""))
        fn.argtypes = [codes[ch] for ch in sig]
        fn.restype = None
        bound[base, suffix, simd] = fn
    _bound.update(bound)


def _open_unit(suffix: str, simd: bool) -> ctypes.CDLL:
    """Build if absent, then dlopen, verify and declare one unit.

    A cached file that is truncated, foreign or another unit's under
    this name is deleted and rebuilt once; never called as found.
    """
    for _attempt in range(2):
        path = compile_unit(suffix, simd)
        lib = None
        try:
            if _elf_truncated(path):
                raise OSError("file ends before its section headers")
            lib = ctypes.CDLL(str(path))
            _declare(lib, suffix, simd)
            return lib
        except (OSError, AttributeError, ValueError) as exc:
            problem = exc
            if lib is not None:  # or the rebuilt file maps to this handle
                _ctypes.dlclose(lib._handle)
            path.unlink(missing_ok=True)
    raise BackendError(
        f"native kernel compilation left an unusable {path.name}: {problem}"
    )


def _unit(suffix: str, simd: bool) -> ctypes.CDLL:
    """The opened unit, memoised — failures too: a unit that cannot be
    built is not retried (one compile per process, not one per call)."""
    got = _units.get((suffix, simd))
    if got is None:
        try:
            got = _open_unit(suffix, simd)
        except BackendError as exc:
            got = str(exc)
        except OSError as exc:  # unwritable cache directory and the like
            got = f"native kernel cache unusable: {exc}"
        _units[suffix, simd] = got
    if isinstance(got, str):
        raise BackendError(got)
    return got


def kernel(base: str, suffix: str, simd: bool) -> ctypes._CFuncPtr:
    """The bound C entry point ``base + suffix [+ "_simd"]``.

    The one place a unit comes into being: a miss builds (first use on
    this host), loads and declares the unit that holds the kernel.
    Raises :class:`BackendError` — with the compiler's diagnostics —
    when that fails; there is no mid-run fallback for a unit the caller
    asked for by precision or ``simd=``.
    """
    fn = _bound.get((base, suffix, simd))
    if fn is None:
        if load_library() is None:
            raise BackendError(
                f"native kernel backend unavailable: {_load_error}"
            )
        _unit(suffix, simd)
        fn = _bound[base, suffix, simd]
    return fn


def load_library(force_reload: bool = False) -> ctypes.CDLL | None:
    """The default unit (fp64; ``_simd`` where the host has it), built
    and loaded — or None when the native backend is unavailable."""
    global _lib, _load_attempted, _load_error
    if force_reload:
        _lib, _load_attempted, _load_error = None, False, None
        _units.clear()
        _bound.clear()
    if _lib is not None:
        return _lib
    if _load_attempted:
        return None
    _load_attempted = True
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        _load_error = "disabled via REPRO_NATIVE_DISABLE"
        return None
    try:
        _lib = _unit("", simd_available())
    except BackendError as exc:
        _load_error = str(exc)
        if _load_error.startswith("native kernel compilation"):
            # A compiler exists but failed (or timed out): this is worth
            # one loud warning and a health counter — unlike the silent
            # no-compiler / disabled cases, something on this host is
            # broken, yet the run must proceed on the numpy kernels.
            import warnings

            from repro.obs import GLOBAL_METRICS

            GLOBAL_METRICS.count("backend.native.compile_failures")
            warnings.warn(
                f"falling back to the numpy kernels: {_load_error}",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    return _lib


def native_available() -> bool:
    """True when the compiled kernels can be (or have been) loaded."""
    return load_library() is not None


def native_error() -> str | None:
    """Why the native backend is unavailable (None when it is fine)."""
    load_library()
    return _load_error


# ---------------------------------------------------------------------
# array marshalling
# ---------------------------------------------------------------------

def _pc(arr: np.ndarray):
    """Complex128 C-contiguous array as a double* (interleaved re, im)."""
    return arr.ctypes.data_as(_P_F64)


def _pf32(arr: np.ndarray):
    """Complex64 C-contiguous array as a float* (interleaved re, im)."""
    return arr.ctypes.data_as(_P_F32)


def _pu16(arr: np.ndarray):
    """uint16 indices — or float16 pair storage as raw uint16 bits."""
    return arr.ctypes.data_as(_P_U16)


def _pvec(arr: np.ndarray):
    """Value/vector storage pointer for any precision profile's dtype."""
    dt = arr.dtype
    if dt == np.complex128:
        return arr.ctypes.data_as(_P_F64)
    if dt == np.complex64:
        return arr.ctypes.data_as(_P_F32)
    if dt == np.float16:
        return arr.ctypes.data_as(_P_U16)
    raise TypeError(f"no native storage marshalling for dtype {dt}")


def _pidx(arr: np.ndarray):
    """Column-index pointer: int32 (wide) or uint16 (compressed)."""
    dt = arr.dtype
    if dt == np.int32:
        return arr.ctypes.data_as(_P_I32)
    if dt == np.uint16:
        return arr.ctypes.data_as(_P_U16)
    raise TypeError(f"no native index marshalling for dtype {dt}")


def _pi64(arr: np.ndarray):
    return arr.ctypes.data_as(_P_I64)


def _pi32(arr: np.ndarray):
    return arr.ctypes.data_as(_P_I32)
