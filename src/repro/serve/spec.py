"""Canonical request specs and content-addressed keys for the server.

The multi-tenant server never trusts two clients to describe the same
problem the same way: one sends ``{"nx": 8, "mass": 1.0}``, another
``{"mass": 1, "nx": 8}`` with a numpy scalar, a third spells the
precision ``"double"`` instead of ``"fp64"``.  Everything the server
does — coalescing concurrent requests into one wide block solve,
deduplicating in-flight work, caching moments — hinges on those three
requests mapping to the *same* identity, and on any physically
different request mapping to a *different* one.  This module is that
identity layer.

Three derived keys, all sha256 hex digests of canonical JSON:

``request_key``
    Everything that determines the bytes a client receives, including
    the damping kernel and reconstruction grid.
``moment_key``
    The same minus the kernel/grid.  Chebyshev moments are a property
    of (operator, spectral map, start vectors, M, precision) only —
    damping is applied at reconstruction time — so a repeat query with
    a different kernel is a *cache hit* on the stored moments followed
    by a cheap re-damp.
``group_key``
    The coalescing compatibility class: operator spec + M + precision
    + spectral map.  Requests sharing a group key can be stacked into
    one ``aug_spmmv`` block solve (paper Eq. 5-7: matrix traffic is
    paid once for the whole block, so bytes per request fall as the
    width grows); their start vectors differ per request, so the group
    key deliberately excludes them.

Canonicalization guarantees (property-tested in
``tests/serve/test_key_cache_props.py``): dict ordering never matters;
tuples and lists are equivalent; numpy scalars equal their Python
values; ``-0.0`` equals ``0.0``; precision and kernel aliases
(``"double"``/``"complex128"``/``"fp64"``, ``"none"``/``"dirichlet"``)
collapse to one spelling.  Any *value* change changes the key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "FAMILIES",
    "HamiltonianSpec",
    "Request",
    "canonical_json",
    "canonical_kernel",
    "canonical_precision",
    "register_family",
]

#: Registered operator families: name -> builder(**params) -> (matrix, model).
FAMILIES: dict[str, Callable] = {}


def register_family(name: str, builder: Callable) -> None:
    """Register an operator family builder under a canonical name."""
    FAMILIES[name] = builder


def _build_ti(**params):
    from repro.physics.hamiltonian import build_topological_insulator

    return build_topological_insulator(
        int(params["nx"]), int(params["ny"]), int(params["nz"]),
        t=float(params.get("t", 1.0)),
        mass=float(params.get("mass", 1.0)),
        pbc=tuple(bool(p) for p in params.get("pbc", (True, True, False))),
    )


def _build_graphene(**params):
    from repro.physics.graphene import build_graphene_dot_lattice

    return build_graphene_dot_lattice(
        int(params["ncx"]), int(params["ncy"]),
        t=float(params.get("t", 1.0)),
        v_dot=float(params.get("v_dot", 0.0)),
        spacing=float(params.get("spacing", 10.0)),
    )


register_family("topological_insulator", _build_ti)
register_family("graphene_dot", _build_graphene)


#: Equivalent spellings of the storage profiles (serve-level aliases on
#: top of :func:`repro.util.precision.get_precision`'s canonical names).
_PRECISION_ALIASES = {
    "fp64": "fp64", "float64": "fp64", "double": "fp64",
    "complex128": "fp64", "f64": "fp64",
    "fp32": "fp32", "float32": "fp32", "single": "fp32",
    "complex64": "fp32", "f32": "fp32",
    "fp16v": "fp16v", "float16": "fp16v", "half": "fp16v", "f16v": "fp16v",
}

#: Equivalent spellings of the damping kernels ('none' is Dirichlet).
_KERNEL_ALIASES = {
    "jackson": "jackson",
    "lorentz": "lorentz",
    "dirichlet": "dirichlet",
    "none": "dirichlet",
}


def canonical_precision(name: str | None) -> str:
    """Collapse precision spellings to 'fp64' / 'fp32' / 'fp16v'."""
    if name is None:
        return "fp64"
    key = str(name).strip().lower()
    try:
        return _PRECISION_ALIASES[key]
    except KeyError:
        raise ValueError(
            f"unknown precision {name!r}; choose from "
            f"{sorted(set(_PRECISION_ALIASES.values()))}"
        ) from None


def canonical_kernel(name: str | None) -> str:
    """Collapse kernel spellings to 'jackson' / 'lorentz' / 'dirichlet'."""
    if name is None:
        return "jackson"
    key = str(name).strip().lower()
    try:
        return _KERNEL_ALIASES[key]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from "
            f"{sorted(set(_KERNEL_ALIASES.values()))}"
        ) from None


def _canon_value(v: Any) -> Any:
    """Normalize one value for canonical JSON (recursive)."""
    if isinstance(v, dict):
        return {str(k): _canon_value(v[k]) for k in v}
    if isinstance(v, (list, tuple)):
        return [_canon_value(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            raise ValueError("NaN is not a valid spec parameter")
        return f + 0.0  # -0.0 -> 0.0
    if isinstance(v, np.ndarray):
        return [_canon_value(x) for x in v.tolist()]
    if v is None or isinstance(v, str):
        return v
    raise TypeError(f"spec parameters must be JSON-like, got {type(v)!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, normalized scalar values."""
    return json.dumps(_canon_value(obj), sort_keys=True,
                      separators=(",", ":"))


def _digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass(frozen=True)
class HamiltonianSpec:
    """A buildable operator description: family name + parameters.

    ``params`` values must be JSON-like (numbers, strings, booleans,
    nested lists/tuples/dicts, numpy scalars).  Two specs with the same
    canonical form share one ``digest`` — the identity under which the
    server caches the built operator and its pinned spectral map.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown operator family {self.family!r}; registered: "
                f"{sorted(FAMILIES)}"
            )

    @property
    def digest(self) -> str:
        """sha256 of the canonical (family, params) JSON."""
        return _digest({"family": self.family, "params": self.params})

    def build(self):
        """Construct ``(matrix, model)`` via the registered builder."""
        return FAMILIES[self.family](**self.params)

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "HamiltonianSpec":
        return cls(family=d["family"], params=dict(d.get("params", {})))


@dataclass(frozen=True)
class Request:
    """One client query: a DOS or LDOS solve against a spec'd operator.

    Parameters
    ----------
    spec:
        The operator (built server-side, cached by spec digest).
    kind:
        ``'dos'`` (stochastic trace over ``n_vectors`` random columns)
        or ``'ldos'`` (exact per-site moments; ``rows`` selects sites —
        served through the *same* doubled eta recurrence, since
        ``mu_m[i] = <e_i|T_m|e_i>`` is a global scalar product of the
        unit-vector recurrence, so LDOS coalesces with DOS columns).
    n_moments:
        Chebyshev moments M (even).
    kernel:
        Damping kernel applied at reconstruction (not part of the
        moment identity).
    precision:
        Storage profile name (any alias; canonicalized).
    n_vectors / seed:
        DOS only — stochastic block width and its deterministic RNG
        seed (the seed is part of the moment identity: same seed, same
        start vectors, same moments).
    rows:
        LDOS only — site indices.
    vector_kind:
        DOS stochastic ensemble ('phase' by default).
    tenant:
        Client identity, for accounting and fairness (not part of any
        key: two tenants asking the same physics share the cache).
    priority:
        Smaller runs earlier within a batch-planning window.
    deadline:
        Optional deadline as *relative* seconds from submission.  The
        ticket converts it to an absolute expiry on the monotonic clock
        (``Ticket.deadline_at``) for ordering and missed-deadline
        accounting, so a wall-clock step never expires or revives
        queued requests.  Excluded from every content key.
    """

    spec: HamiltonianSpec
    kind: str = "dos"
    n_moments: int = 128
    kernel: str = "jackson"
    precision: str | None = None
    n_vectors: int = 1
    seed: int = 0
    rows: tuple = ()
    vector_kind: str = "phase"
    tenant: str = "default"
    priority: int = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dos", "ldos"):
            raise ValueError(f"kind must be 'dos' or 'ldos', got {self.kind!r}")
        if self.n_moments < 2 or self.n_moments % 2:
            raise ValueError(
                f"n_moments must be even >= 2, got {self.n_moments}"
            )
        if self.kind == "ldos":
            rows = tuple(int(r) for r in self.rows)
            if not rows:
                raise ValueError("ldos requests need at least one row")
            object.__setattr__(self, "rows", rows)
        else:
            if self.n_vectors < 1:
                raise ValueError(
                    f"n_vectors must be >= 1, got {self.n_vectors}"
                )
        # canonicalize aliases eagerly so equality on the dataclass
        # matches equality of the derived keys
        object.__setattr__(self, "kernel", canonical_kernel(self.kernel))
        object.__setattr__(
            self, "precision", canonical_precision(self.precision)
        )

    # -- derived identities --------------------------------------------
    @property
    def width(self) -> int:
        """Columns this request contributes to a coalesced block."""
        return len(self.rows) if self.kind == "ldos" else int(self.n_vectors)

    def group_key(self, scale_seed: int) -> str:
        """Coalescing class: same operator, M, precision, spectral map."""
        return self._group_key(self.spec.digest, scale_seed)

    def moment_key(self, scale_seed: int) -> str:
        """Identity of the raw moments (kernel-free — see module doc)."""
        return self._moment_key(self.group_key(scale_seed))

    def request_key(self, scale_seed: int) -> str:
        """Full identity of the client-visible answer (kernel included)."""
        return self._request_key(self.moment_key(scale_seed))

    def keys(self, scale_seed: int) -> tuple[str, str, str, str]:
        """``(request_key, moment_key, group_key, spec.digest)``: the
        values of the three methods (and the property), each key derived
        from the one below it and every digest computed once."""
        spec = self.spec.digest
        group = self._group_key(spec, scale_seed)
        moments = self._moment_key(group)
        return self._request_key(moments), moments, group, spec

    def _group_key(self, spec_digest: str, scale_seed: int) -> str:
        return _digest({
            "spec": spec_digest,
            "n_moments": int(self.n_moments),
            "precision": self.precision,
            "scale_seed": int(scale_seed),
        })

    def _moment_key(self, group_key: str) -> str:
        body = {
            "group": group_key,
            "kind": self.kind,
        }
        if self.kind == "dos":
            body["n_vectors"] = int(self.n_vectors)
            body["seed"] = int(self.seed)
            body["vector_kind"] = self.vector_kind
        else:
            body["rows"] = list(self.rows)
        return _digest(body)

    def _request_key(self, moment_key: str) -> str:
        return _digest({
            "moments": moment_key,
            "kernel": self.kernel,
        })
