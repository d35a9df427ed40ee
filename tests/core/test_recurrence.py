"""The one rank-local recurrence: driven by hand it is every engine.

``Recurrence`` holds the only copy of the Chebyshev loop body.  These
tests pin what that buys: a hand-driven instance reproduces
``compute_eta`` bit for bit on every engine, profile and backend; its
unfused ``advance`` sequence is what ``ldos_moments`` accumulates; the
steady-state step allocates nothing; and no module outside
``core/recurrence.py`` and ``sparse/`` touches the step kernels, so a
tenth hand-written loop fails here.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.moments import compute_eta
from repro.core.recurrence import Recurrence
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import ldos_moments, make_block_vector
from repro.sparse.backend.native import native_available
from repro.util.precision import get_precision

M = 16
BACKENDS = [
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="no C compiler for the native kernels"
    )),
]


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(6, 5, 4)
    return h, lanczos_scale(h, seed=1), make_block_vector(h.n_rows, 3, seed=2)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
@pytest.mark.parametrize("kernel", ["naive", "aug_spmv", "aug_spmmv"])
def test_hand_driven_equals_compute_eta(system, kernel, precision, backend):
    h, scale, blk = system
    ref = compute_eta(h, scale, M, blk, kernel, backend=backend,
                      precision=precision)
    block = kernel == "aug_spmmv"
    rec = Recurrence(h, scale.a, scale.b, blk.shape[1] if block else 1,
                     kernel=kernel, backend=backend, precision=precision)
    eta = np.empty_like(ref)
    # the block kernel takes all columns at once, the others one by one
    for cols in ([slice(None)] if block else range(blk.shape[1])):
        rec.load(blk[:, cols])
        out = eta[cols].T  # (M, R) view for the block, (M,) for a column
        out[0], out[1] = rec.bootstrap()
        for m in range(1, M // 2):
            out[2 * m], out[2 * m + 1] = rec.step()
    assert np.array_equal(eta, ref)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
def test_advance_sequence_is_what_ldos_accumulates(system, precision, backend):
    h, scale, blk = system
    prec = get_precision(precision)
    rows = np.array([0, 7, 11])
    ref = ldos_moments(h, scale, M, blk, rows, backend=backend,
                       precision=precision)
    rec = Recurrence(h, scale.a, scale.b, blk.shape[1], backend=backend,
                     precision=precision)
    rec.load(blk)
    rec.bootstrap(dots=False)
    nus = [rec.v.copy(), rec.w.copy()]
    nus += [rec.advance().copy() for _ in range(2, M)]
    wide = [prec.decode(nu[rows]).astype(np.complex128) for nu in nus]
    got = np.stack([(np.conj(wide[0]) * g).mean(axis=1).real for g in wide], 1)
    assert np.array_equal(got, ref)
    # the generator form is the same sequence
    rec.load(blk)
    for nu, again in zip(nus, rec.iterates(M)):
        assert np.array_equal(nu, again)


@pytest.mark.parametrize("backend", BACKENDS)
def test_steady_state_step_allocates_nothing(system, backend):
    """No O(N) temporary per step: same yardstick as the kernel suites
    (peak traced memory of one call stays under one block column)."""
    h, scale, _ = system
    blk = make_block_vector(h.n_rows, 16, seed=3)
    rec = Recurrence(h, scale.a, scale.b, 16, backend=backend)
    rec.load(blk)
    rec.bootstrap()
    rec.step()
    rec.step()  # warm-ups: lazy imports, caches, plan first touch
    tracemalloc.start()
    rec.step()
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    rec.step()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak - current < h.n_rows * 16


def test_serial_kernel_input_is_v(system):
    """Empty halo: no [local | halo] buffer is ever allocated."""
    h, scale, blk = system
    rec = Recurrence(h, scale.a, scale.b, blk.shape[1])
    rec.load(blk)
    assert rec.x is rec.v
    rec.bootstrap()
    rec.step()
    assert rec.x is rec.v


def test_no_second_copy_of_the_loop_body():
    """The step kernels, ``_recombine`` and the plans' scratch are used by
    ``core/recurrence.py`` and the kernel layer only."""
    src = Path(repro.__file__).parent
    body = re.compile(
        r"\.(naive|aug_spmm?v)_step\b"
        r"|\.aug_spmm?v_(interior|boundary|split_step)\b"
        r"|\b_recombine\b"
        r"|plan\.(vc|wc|work_block|u_block|uh_block)\b"
    )
    offenders = [
        f"{path.relative_to(src)}:{no}"
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src).parts[0] != "sparse"
        and path.relative_to(src).as_posix() != "core/recurrence.py"
        for no, line in enumerate(path.read_text().splitlines(), 1)
        if body.search(line)
    ]
    assert not offenders, offenders
