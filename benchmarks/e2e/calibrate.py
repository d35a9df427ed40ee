"""Calibration probes and the arithmetic that turns raw into calibrated seconds.

This host is a shared 2-vCPU VM whose neighbours slow it in 10-60 s waves
(README, "Noise floor"), so a raw wall time says as much about the
neighbours as about the code.  Every timed sample is therefore bracketed
by a *probe* -- a frozen piece of interpreter/NumPy/SciPy work that
never executes a ``repro`` kernel -- and reported as

    t_cal = t_raw * probe_ref_s / mean(probe before, probe after)

with ``probe_ref_s`` fixed in :mod:`config` (and an exponent on the
ratio where a workload reacts more or less strongly than its probe, see
``sensitivity`` there).  A change to the repo moves ``t_raw`` and leaves
the probe alone; a slow wave moves both and cancels.

Three probes, each matched to the bottleneck of the workloads it serves
(a blend was measured and is worse than the matched probe):

``spmm``  SciPy CSR ``A @ X`` on a private stencil-shaped matrix with
          the size of the TI 32x32x8 operator (memory-bound native code).
``py``    a pure-Python integer loop (interpreter-bound).
``proc``  a fresh interpreter that imports numpy + scipy.sparse and
          runs a small SpMM (process spawn + import + native code).
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# -- probes ------------------------------------------------------------

#: stencil offsets of the spmm probe's matrix: 13 entries per row, like
#: the topological insulator, with the same three strides (orbital,
#: x-neighbour, y-neighbour planes) so its cache behaviour matches
_SPMM_N = 32 * 32 * 8 * 4
_SPMM_OFFSETS = (0, 1, -1, 2, -2, 4, -4, 128, -128, 4096, -4096, 8192, -8192)
_SPMM_WIDTH = 32
_SPMM_PASSES = 6

_PY_LOOP = 1_000_000
_PY_CHUNKS = 5

_PROC_SNIPPET = (
    "import numpy as np, scipy.sparse as sp\n"
    "rng = np.random.default_rng(7)\n"
    "A = sp.random(20000, 20000, density=6e-4, format='csr', random_state=rng)\n"
    "X = rng.standard_normal((20000, 8))\n"
    "for _ in range(20):\n"
    "    X = A @ X\n"
    "    X /= np.abs(X).max() + 1.0\n"
)


class SpmmProbe:
    """SciPy SpMM probe; buffers are allocated once, before the first op."""

    name = "spmm"

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp

        n, k = _SPMM_N, len(_SPMM_OFFSETS)
        rows = np.arange(n, dtype=np.int64)
        indices = ((rows[:, None] + np.array(_SPMM_OFFSETS)) % n).astype(np.int32)
        rng = np.random.default_rng(1234)
        data = rng.standard_normal(n * k) + 1j * rng.standard_normal(n * k)
        indptr = np.arange(0, n * k + 1, k, dtype=np.int32)
        self._a = sp.csr_matrix((data, indices.ravel(), indptr), shape=(n, n))
        self._x = (rng.standard_normal((n, _SPMM_WIDTH))
                   + 1j * rng.standard_normal((n, _SPMM_WIDTH)))
        #: bytes held by the probe for the life of the process (printed,
        #: because they are part of the workload process's peak RSS)
        self.nbytes = int(data.nbytes + indices.nbytes + indptr.nbytes
                          + 2 * self._x.nbytes)

    def __call__(self) -> float:
        passes = []
        for _ in range(_SPMM_PASSES):
            t0 = time.perf_counter()
            y = self._a @ self._x
            passes.append(time.perf_counter() - t0)
        del y
        # the median pass, not the sum: a burst next door that hits one
        # or two of the 15 ms passes leaves the probe where it was
        return _SPMM_PASSES * statistics.median(passes)


class PyProbe:
    """Pure-Python loop probe (interpreter speed; holds no buffers)."""

    name = "py"
    nbytes = 0

    def __call__(self) -> float:
        chunks = []
        for _ in range(_PY_CHUNKS):
            t0 = time.perf_counter()
            x = 0
            for k in range(_PY_LOOP // _PY_CHUNKS):
                x += k
            chunks.append(time.perf_counter() - t0)
        return _PY_CHUNKS * statistics.median(chunks)


class ProcProbe:
    """Fresh-interpreter probe: spawn + numpy/scipy import + a small SpMM."""

    name = "proc"
    nbytes = 0

    def __call__(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _PROC_SNIPPET], check=True)
        return time.perf_counter() - t0


PROBES = {"spmm": SpmmProbe, "py": PyProbe, "proc": ProcProbe}


def make_probe(name: str):
    return PROBES[name]()


# -- arithmetic ---------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartile_spread(values) -> float:
    """(p75 - p25) / p50 of a sample; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    return (percentile(values, 75) - percentile(values, 25)) / percentile(values, 50)


def bracket_factors(probes, n_samples: int, stride: int, ref_s: float,
                    reach: int = 2, sensitivity: float = 1.0) -> list[float]:
    """Calibration factor of each sample of a ``probe, op*stride, probe, ...`` run.

    Sample ``i`` sits between ``probes[i // stride]`` and the next probe;
    its factor is ``ref_s`` over the median of the ``reach`` probes on
    either side of it.  With ``reach=1`` that is the mean of the two
    neighbours; the default of two a side follows a slow wave as well
    (probes are ~1 s apart, waves last 10-60 s) and shrugs off a single
    probe that a 0.1 s burst next door happened to hit.

    ``sensitivity`` is the workload's exponent (``config.py``): when the
    probe slows by x, the workload slows by x ** sensitivity.
    """
    need = (n_samples + stride - 1) // stride + 1
    if len(probes) < need:
        raise ValueError(f"{n_samples} samples at stride {stride} need "
                         f"{need} probes, got {len(probes)}")
    out = []
    for i in range(n_samples):
        j = i // stride
        # the same number of probes on both sides, fewer near the ends,
        # so that a steady drift cancels instead of biasing the edges
        k = min(reach, j + 1, len(probes) - j - 1)
        slowdown = statistics.median(probes[j + 1 - k:j + 1 + k]) / ref_s
        out.append(slowdown ** -sensitivity)
    return out


def factor(before: float, after: float, ref_s: float,
           sensitivity: float = 1.0) -> float:
    """Calibration factor of one sample from the probes around it."""
    return (0.5 * (before + after) / ref_s) ** -sensitivity


def calibrate_series(raw, probes, stride: int, ref_s: float,
                     sensitivity: float = 1.0) -> list[float]:
    """Calibrated seconds of every sample of a bracketed series."""
    factors = bracket_factors(probes, len(raw), stride, ref_s,
                              sensitivity=sensitivity)
    return [t * f for t, f in zip(raw, factors)]


def summarize(raw, cal) -> dict:
    """Median, quartiles and count of a series, raw next to calibrated."""
    return {
        "n": len(raw),
        "raw_p25_s": percentile(raw, 25),
        "raw_p50_s": percentile(raw, 50),
        "raw_p75_s": percentile(raw, 75),
        "cal_p25_s": percentile(cal, 25),
        "cal_p50_s": percentile(cal, 50),
        "cal_p75_s": percentile(cal, 75),
    }
