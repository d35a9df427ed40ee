"""The one eta reduction (DESIGN §19): an oracle that is not KPM, the knob
lattice, column independence, and the escape error.

Every aug kernel sums a 64-row block's eta terms in row order and
deposits the block partial exactly into two fp64 bins at the column's
anchor; bins of blocks, threads, split phases, ranks and segments add
exactly.  So:

* against an oracle written here in Python floats, each backend's eta
  is bitwise the fold of its own per-row terms, and within 2^-40 of their
  exact sum (``math.fsum``);
* one precision has one bit pattern across every execution knob, the
  backend (per rank too) included, resume point, elastic plan, fault
  and coalescing width: the rows of the lattice (``tests/lattice.py``),
  whose covering holds every pair of knob values;
* a spectrum escaping its scale raises :class:`SpectralScaleError`, on
  every engine, and the supervisor does not retry it.
"""

import math

import numpy as np
import pytest

from repro.core.checkpoint import RunContext
from repro.core.moments import compute_eta
from repro.core.scaling import SpectralScale, lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.mp import MpWorld
from repro.physics import build_topological_insulator
from repro.sparse.backend import get_backend
from repro.sparse.backend.native import native_available
from repro.sparse.fused import eta_anchors
from repro.sparse.sell import SellMatrix
from repro.util.errors import SpectralScaleError
from repro.util.knobs import ExecConfig, run_engine
from repro.util.precision import get_precision
from tests import lattice

BACKENDS = ["numpy", pytest.param("native", marks=pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"))]
PRECISIONS = ("fp64", "fp32", "fp16v")
M, R = 16, 3


@pytest.fixture(scope="module")
def ti():
    h, _ = build_topological_insulator(4, 4, 4)  # 256 rows = 4 eta blocks
    yield h, lanczos_scale(h, seed=0), make_block_vector(h.n_rows, R, seed=5)
    MpWorld(1).close()


# -- the oracle --------------------------------------------------------

def _oracle(V, W):
    """Per column: (folded eta, exact sum, sum of |terms|) of the terms
    ``[|v|^2 | re, im of conj(w) v]`` of the rows, reduced per 64 rows
    in row order and deposited — in Python floats."""
    n = V.shape[0]
    out = []
    for k in range(V.shape[1]):
        v = [complex(x) for x in V[:, k]]
        w = [complex(x) for x in W[:, k]]
        m2 = max(x.real * x.real + x.imag * x.imag for x in v)
        anchor = math.ldexp(1.0, math.frexp(4.0 * n * m2)[1])
        terms = [[], [], []]
        for i in range(n):
            vr, vi, wr, wi = v[i].real, v[i].imag, w[i].real, w[i].imag
            terms[0].append(vr * vr + vi * vi)
            terms[1].append(wr * vr + wi * vi)
            terms[2].append(wr * vi - wi * vr)
        col = []
        for t in terms:
            e1 = 6.0 * anchor
            e2 = e1 * 2.0 ** -32
            bins = ([], [])
            for b0 in range(0, len(t), 64):
                p = 0.0
                for x in t[b0:b0 + 64]:
                    p += x
                h1 = (p + e1) - e1
                bins[0].append(h1)
                bins[1].append(((p - h1) + e2) - e2)
            col.append((math.fsum(bins[0]) + math.fsum(bins[1]),
                        math.fsum(t), math.fsum(abs(x) for x in t)))
        out.append(col)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
@pytest.mark.parametrize("fmt", ["csr", "sell"])
@pytest.mark.parametrize("r", [1, 3, 32])
def test_eta_is_the_oracle_fold_of_the_kernel_terms(backend, precision, fmt,
                                                    r):
    h, _ = build_topological_insulator(5, 5, 3)  # 300 rows: a partial block
    A = SellMatrix(h, chunk_height=8, sigma=16) if fmt == "sell" else h
    prec = get_precision(precision)
    rng = np.random.default_rng(7)
    V = (rng.normal(size=(h.n_rows, r))
         + 1j * rng.normal(size=(h.n_rows, r))).astype(prec.vector_dtype)
    W = (0.5 * rng.normal(size=(h.n_rows, r))).astype(prec.vector_dtype)
    bk = get_backend(backend)
    if r == 1:
        V, W = V[:, 0].copy(), W[:, 0].copy()
        ee, eo = bk.aug_spmv_step(A, V, W, 0.11, 0.02)
        ee, eo = np.array([ee]), np.array([eo])
    else:
        ee, eo = bk.aug_spmmv_step(A, V, W, 0.11, 0.02)
    for k, col in enumerate(_oracle(V.reshape(h.n_rows, r),
                                    W.reshape(h.n_rows, r))):
        for got, (fold, exact, mass) in zip(
                (ee[k], eo[k].real, eo[k].imag), col):
            assert got == fold
            assert abs(got - exact) <= 2.0 ** -40 * mass


def test_anchors():
    block = np.zeros((100, 3), dtype=complex)
    block[7, 0] = 3.0
    block[:, 1] = 1j
    a = eta_anchors(block)
    assert a[2] == 1.0  # a zero column
    for k, m2 in ((0, 9.0), (1, 1.0)):
        assert a[k] > 4 * 100 * m2 and a[k] <= 8 * 100 * m2
        assert math.frexp(a[k])[0] == 0.5  # a power of two
    # a column's anchors are its own: coalescing cannot move them
    assert eta_anchors(block[:, 1:2])[0] == a[1]


# -- the lattice -------------------------------------------------------

@pytest.mark.parametrize("row", lattice.COVERING, ids=str)
def test_one_bit_pattern_across_the_lattice(row):
    """A row of the strength-2 covering: its relations (tests/lattice.py)."""
    lattice.check(row)


def test_the_covering_has_every_allowed_pair():
    """Strength 2: the rows hold every pair of field values that no rule
    forbids, and no other pair."""
    seen = {pair for row in lattice.COVERING for pair in lattice.pairs(
        {f: getattr(row, f) for f in lattice.DOMAINS})}
    assert seen == lattice.allowed_pairs()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", PRECISIONS)
def test_column_k_is_its_own_solve(ti, backend, precision):
    h, scale, block = ti
    wide = compute_eta(h, scale, M, block, backend=backend,
                       precision=precision)
    for k in range(R):
        solo = compute_eta(h, scale, M, block[:, k:k + 1].copy(),
                           backend=backend, precision=precision)
        assert np.array_equal(wide[k:k + 1], solo)


# -- the escape error --------------------------------------------------

@pytest.fixture(scope="module")
def narrow(ti):
    """A scale whose half-width is 5 % short of the exact spectrum's."""
    h, _scale, block = ti
    ev = np.linalg.eigvalsh(h.to_dense())
    half = (ev[-1] - ev[0]) / 2
    return SpectralScale(a=1.0 / (0.95 * half), b=(ev[-1] + ev[0]) / 2,
                         emin=ev[0], emax=ev[-1])


@pytest.mark.parametrize("engine", ["serial", "sim", "mp"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_escaped_spectrum_raises(ti, narrow, engine, backend):
    h, _scale, block = ti
    with pytest.raises(SpectralScaleError, match="escapes the scale") as exc:
        run_engine(ExecConfig(engine=engine, workers=2, backend=backend,
                              overlap="on"),
                   RunContext(), h, narrow, 64, block)
    err = exc.value
    assert (err.a, err.b) == (narrow.a, narrow.b)
    assert 0 <= err.column < R and 2 <= err.moment < 64


def test_supervisor_does_not_retry_an_escaped_spectrum(ti, narrow):
    from repro.resil import RetryPolicy, Supervisor

    h, _scale, block = ti
    sup = Supervisor(RetryPolicy(max_attempts=3))
    with pytest.raises(SpectralScaleError):
        sup.run_eta(h, narrow, 64, block, engine="mp", workers=2)
    assert sup.report.retries == 0 and sup.report.engine_degradations == 0


def test_direct_calls_only_set_the_flag(ti, narrow):
    """A kernel plan records the escape; only the engines raise."""
    h, _scale, block = ti
    bk = get_backend("auto")
    plan = bk.plan(h, R)
    V, W = block.copy(), np.zeros_like(block)
    for _ in range(40):
        bk.aug_spmmv_step(h, V, W, narrow.a, narrow.b, plan=plan)
        V, W = W, V
    assert plan.escape[0] > 0
