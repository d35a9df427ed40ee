"""Differential parity: coalesced batch solves vs independent solos.

The serving layer's correctness contract is that coalescing is
*invisible*: a request solved inside a width-k batch returns exactly
what it would have returned solved alone, bit for bit, in every storage
profile — the block kernels compute every column independently and the
one eta reduction (DESIGN §19) sums each column alone.  The backends
round alike, so the numpy and native answers are the same bits too.

Checked across every engine (serial / sim / mp) x backend
(numpy / native) x overlap schedule the serving layer can run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.resil import Resilience, RetryPolicy
from repro.serve import HamiltonianSpec, KPMServer, Request
from repro.sparse.backend.native import native_available
from tests.lattice import case_test

SPEC = HamiltonianSpec("topological_insulator", {"nx": 6, "ny": 6, "nz": 4})
M = 64

BACKENDS = ["numpy"] + (["native"] if native_available() else [])


def solo_moments(seed: int, *, backend="numpy", engine=None, workers=2,
                 overlap="auto", precision=None, kind="dos", rows=()):
    """One request solved alone on the given engine (width-1 batch)."""
    srv = KPMServer(max_width=1, engine=engine, backend=backend,
                    workers=workers, overlap=overlap)
    if kind == "ldos":
        t = srv.submit(Request(SPEC, kind="ldos", n_moments=M, rows=rows,
                               precision=precision))
    else:
        t = srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=seed,
                               precision=precision))
    srv.step()
    return t.result().moments if kind == "dos" else t.result()


def batch_moments(seeds, *, backend="numpy", engine=None, workers=2,
                  overlap="auto", precision=None):
    """The same requests coalesced into one wide batch."""
    srv = KPMServer(max_width=len(seeds), engine=engine, backend=backend,
                    workers=workers, overlap=overlap)
    tickets = [
        srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=s,
                           precision=precision))
        for s in seeds
    ]
    assert srv.step() == 1  # all coalesced into one batch
    return [t.result().moments for t in tickets]


# ---------------------------------------------------------------------
# fp64: bitwise across every engine x backend x overlap
# ---------------------------------------------------------------------

@case_test
def test_serial_fp64_bitwise(): ...
@case_test
def test_sim_fp64_bitwise(): ...
@case_test
def test_mp_fp64_bitwise(): ...
@case_test
def test_cross_engine_batches_agree_to_tolerance(): ...


# ---------------------------------------------------------------------
# narrow profiles: tolerance parity
# ---------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision,rtol", [("fp32", 1e-5), ("fp16v", 1e-2)])
def test_serial_narrow_profiles_tolerance(backend, precision, rtol):
    seeds = [0, 1, 2, 3]
    batch = batch_moments(seeds, backend=backend, precision=precision)
    for s, mu in zip(seeds, batch):
        solo = solo_moments(s, backend=backend, precision=precision)
        assert np.array_equal(mu, solo)
        # one bit pattern per precision, whichever backend solved it
        assert np.array_equal(mu, solo_moments(s, precision=precision))
        # and within profile accuracy of the fp64 answer
        ref = solo_moments(s, backend=backend)
        np.testing.assert_allclose(mu / mu[0], ref / ref[0],
                                   rtol=rtol, atol=rtol)


@case_test
def test_sim_narrow_profile_tolerance(): ...


# ---------------------------------------------------------------------
# mixed-kind batches and supervised batches keep the same parity
# ---------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_ldos_columns_unperturbed_by_dos_neighbours(backend):
    """An LDOS request coalesced next to DOS columns returns bitwise the
    moments of a solo LDOS solve (fp64)."""
    rows = (0, 7, 19)
    srv = KPMServer(max_width=8, backend=backend)
    tl = srv.submit(Request(SPEC, kind="ldos", n_moments=M, rows=rows))
    td = srv.submit(Request(SPEC, n_moments=M, n_vectors=2, seed=5))
    assert srv.step() == 1
    solo = solo_moments(0, kind="ldos", rows=rows, backend=backend)
    assert np.array_equal(tl.result().rho, solo.rho)
    assert td.result().moments.shape == (M,)


def test_supervised_batch_matches_unsupervised():
    """A batch run under a (fault-free) batch-scoped Supervisor returns
    bitwise what the bare engine returns."""
    seeds = [0, 1, 2]
    bare = batch_moments(seeds)
    srv = KPMServer(
        max_width=8, backend="numpy",
        resilience=Resilience(policy=RetryPolicy(max_attempts=2)),
    )
    tickets = [
        srv.submit(Request(SPEC, n_moments=M, n_vectors=1, seed=s))
        for s in seeds
    ]
    assert srv.step() == 1
    for mu, t in zip(bare, tickets):
        assert np.array_equal(mu, t.result().moments)
