"""Property tests (hypothesis) for content-addressed keys and the cache.

The server's whole identity layer rests on two opposing properties of
the canonical keys: *invariance* (representation never matters — dict
ordering, tuple vs list, numpy scalars, precision/kernel alias
spellings all collapse) and *sensitivity* (any value change changes
the key).  Both are checked generatively here, alongside the moment
cache's round-trip, partial-upgrade, and bounded-eviction properties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    HamiltonianSpec,
    MomentCache,
    Request,
    canonical_json,
    canonical_kernel,
    canonical_precision,
)

# -- strategies -------------------------------------------------------

param_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=12),
)

param_dicts = st.dictionaries(
    st.text(min_size=1, max_size=8), param_values, max_size=6
)

ti_specs = st.builds(
    lambda nx, ny, nz, mass: HamiltonianSpec(
        "topological_insulator",
        {"nx": nx, "ny": ny, "nz": nz, "mass": mass},
    ),
    nx=st.integers(2, 12), ny=st.integers(2, 12), nz=st.integers(2, 8),
    mass=st.floats(0.1, 4.0, allow_nan=False),
)

requests = st.builds(
    lambda spec, m, seed, r, kernel, precision: Request(
        spec, n_moments=2 * m, seed=seed, n_vectors=r,
        kernel=kernel, precision=precision,
    ),
    spec=ti_specs, m=st.integers(1, 64), seed=st.integers(0, 2**31),
    r=st.integers(1, 8),
    kernel=st.sampled_from(["jackson", "lorentz", "dirichlet"]),
    precision=st.sampled_from(["fp64", "fp32", "fp16v"]),
)


# -- canonicalization invariance --------------------------------------

@given(params=param_dicts)
def test_dict_ordering_never_matters(params):
    items = list(params.items())
    rev = dict(reversed(items))
    assert canonical_json(params) == canonical_json(rev)


@given(params=param_dicts)
def test_tuple_list_and_numpy_scalars_collapse(params):
    alt = {}
    for k, v in params.items():
        if isinstance(v, bool):
            alt[k] = np.bool_(v)
        elif isinstance(v, int):
            alt[k] = np.int64(v)
        elif isinstance(v, float):
            alt[k] = np.float64(v)
        else:
            alt[k] = v
    wrapped = {"a": tuple(params.values()), "b": params}
    wrapped_alt = {"a": list(alt.values()), "b": alt}
    assert canonical_json(wrapped) == canonical_json(wrapped_alt)


def test_negative_zero_collapses():
    assert canonical_json({"x": -0.0}) == canonical_json({"x": 0.0})


@given(st.sampled_from([
    ("fp64", "double"), ("fp64", "complex128"), ("fp64", "float64"),
    ("fp32", "single"), ("fp32", "complex64"), ("fp16v", "half"),
]))
def test_precision_aliases_share_a_key(pair):
    a, b = pair
    spec = HamiltonianSpec("topological_insulator",
                           {"nx": 4, "ny": 4, "nz": 4})
    ra = Request(spec, n_moments=32, precision=a)
    rb = Request(spec, n_moments=32, precision=b.upper())  # case too
    assert ra.moment_key(0) == rb.moment_key(0)
    assert ra.request_key(0) == rb.request_key(0)


def test_kernel_aliases_share_request_key_only():
    spec = HamiltonianSpec("topological_insulator",
                           {"nx": 4, "ny": 4, "nz": 4})
    r_dir = Request(spec, n_moments=32, kernel="dirichlet")
    r_none = Request(spec, n_moments=32, kernel="none")
    r_jack = Request(spec, n_moments=32, kernel="jackson")
    assert r_dir.request_key(0) == r_none.request_key(0)
    # kernel is NOT part of the moment identity...
    assert r_dir.moment_key(0) == r_jack.moment_key(0)
    # ...but is part of the client-visible answer
    assert r_dir.request_key(0) != r_jack.request_key(0)


def test_alias_validation():
    assert canonical_precision(None) == "fp64"
    assert canonical_kernel(None) == "jackson"
    with pytest.raises(ValueError):
        canonical_precision("fp128")
    with pytest.raises(ValueError):
        canonical_kernel("gibbs")


# -- sensitivity ------------------------------------------------------

@given(req=requests)
@settings(max_examples=40)
def test_any_field_perturbation_changes_the_key(req):
    base_mk = req.moment_key(0)
    base_gk = req.group_key(0)
    perturbed = [
        Request(req.spec, n_moments=req.n_moments + 2, seed=req.seed,
                n_vectors=req.n_vectors, kernel=req.kernel,
                precision=req.precision),
        Request(req.spec, n_moments=req.n_moments, seed=req.seed + 1,
                n_vectors=req.n_vectors, kernel=req.kernel,
                precision=req.precision),
        Request(req.spec, n_moments=req.n_moments, seed=req.seed,
                n_vectors=req.n_vectors + 1, kernel=req.kernel,
                precision=req.precision),
    ]
    spec2 = HamiltonianSpec(
        req.spec.family, {**req.spec.params, "mass": 99.0}
    )
    perturbed.append(Request(spec2, n_moments=req.n_moments, seed=req.seed,
                             n_vectors=req.n_vectors, kernel=req.kernel,
                             precision=req.precision))
    for p in perturbed:
        assert p.moment_key(0) != base_mk
    # spec / M changes break the coalescing group; seed changes don't
    assert perturbed[0].group_key(0) != base_gk
    assert perturbed[1].group_key(0) == base_gk
    assert perturbed[3].group_key(0) != base_gk
    # the spectral map is part of every identity
    assert req.moment_key(1) != base_mk


@given(a=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
       b=st.floats(-100, 100, allow_nan=False, allow_infinity=False))
def test_distinct_param_values_distinct_digests(a, b):
    sa = HamiltonianSpec("topological_insulator",
                         {"nx": 4, "ny": 4, "nz": 4, "mass": a})
    sb = HamiltonianSpec("topological_insulator",
                         {"nx": 4, "ny": 4, "nz": 4, "mass": b})
    if a == b or (a == 0.0 and b == 0.0):
        assert sa.digest == sb.digest
    else:
        assert sa.digest != sb.digest


# -- cache properties -------------------------------------------------

moment_arrays = st.integers(2, 40).map(
    lambda m: np.arange(2 * m, dtype=float)
)


@given(keys=st.lists(st.text(min_size=1, max_size=6), min_size=1,
                     max_size=20, unique=True),
       mu=moment_arrays)
@settings(max_examples=30)
def test_cache_round_trip(keys, mu):
    cache = MomentCache(max_entries=len(keys))
    for k in keys:
        cache.put(k, mu, mu.size)
    for k in keys:
        e = cache.get(k)
        assert e is not None and e.complete
        np.testing.assert_array_equal(e.moments, mu)
    assert cache.stats()["hits"] == len(keys)
    assert cache.stats()["evictions"] == 0


@given(n_keys=st.integers(2, 30), cap=st.integers(1, 8))
def test_eviction_bounds_and_lru_order(n_keys, cap):
    cache = MomentCache(max_entries=cap)
    mu = np.ones(8)
    for i in range(n_keys):
        cache.put(f"k{i}", mu, 8)
    assert len(cache) == min(n_keys, cap)
    assert cache.stats()["evictions"] == max(0, n_keys - cap)
    # the survivors are exactly the most recently inserted ones
    for i in range(n_keys):
        present = f"k{i}" in cache
        assert present == (i >= n_keys - cap)


def test_byte_bound_evicts():
    mu = np.ones(1024)  # 8 KiB
    cache = MomentCache(max_entries=100, max_bytes=3 * mu.nbytes)
    for i in range(10):
        cache.put(f"k{i}", mu, mu.size)
    assert cache.nbytes <= 3 * mu.nbytes
    assert len(cache) == 3


@given(steps=st.lists(st.integers(1, 16), min_size=1, max_size=10))
def test_partial_entries_never_downgrade_and_are_pinned(steps):
    cache = MomentCache(max_entries=1)  # tight: only partials survive
    m_total = 64
    best = 0
    for n in steps:
        cache.put_partial("p", np.ones(n), n, m_total)
        best = max(best, n)
        e = cache.peek_partial("p")
        assert e is not None and e.n_done == best
    # a partial is invisible to get() ...
    assert cache.get("p") is None
    # ... pinned against eviction even when complete entries churn past
    for i in range(5):
        cache.put(f"full{i}", np.ones(4), 4)
    assert cache.peek_partial("p") is not None
    # completion upgrades in place and makes it a normal LRU citizen
    cache.put("p", np.ones(m_total), m_total)
    assert cache.get("p") is not None
    assert cache.get("p").complete


# -- one derivation per submit ------------------------------------------

ldos_requests = st.builds(
    lambda spec, m, rows, kernel: Request(
        spec, kind="ldos", n_moments=2 * m, rows=rows, kernel=kernel),
    spec=ti_specs, m=st.integers(1, 64),
    rows=st.lists(st.integers(0, 500), min_size=1, max_size=4),
    kernel=st.sampled_from(["jackson", "lorentz"]),
)


@given(req=st.one_of(requests, ldos_requests), seed=st.integers(0, 9))
@settings(max_examples=40)
def test_keys_are_the_three_keys_and_the_spec_digest(req, seed):
    assert req.keys(seed) == (req.request_key(seed), req.moment_key(seed),
                              req.group_key(seed), req.spec.digest)


def test_a_submit_digests_each_key_once(monkeypatch):
    """A submit derives spec -> group -> moment -> request once, a miss
    or a hit, and a batch re-derives none of them."""
    from repro.serve import KPMServer
    from repro.serve import spec as spec_module

    srv = KPMServer(backend="numpy")
    spec = HamiltonianSpec("topological_insulator",
                           {"nx": 4, "ny": 4, "nz": 2})
    srv.operator(spec)  # built and pinned outside the count
    digests = []
    real = spec_module._digest
    monkeypatch.setattr(spec_module, "_digest",
                        lambda obj: digests.append(obj) or real(obj))

    def count(action) -> int:
        digests.clear()
        action()
        return len(digests)

    req = Request(spec, n_moments=16, seed=3)
    miss = []
    assert count(lambda: miss.append(srv.submit(req))) == 4
    assert count(srv.step) == 0
    hit = []
    assert count(lambda: hit.append(srv.submit(req))) == 4
    assert hit[0].via == "cache" and miss[0].via == 1
    assert np.array_equal(hit[0].result().moments, miss[0].result().moments)
