"""Vocabularies of the user-facing execution knobs.

This module imports nothing, so reading a ``choices=`` tuple (the CLI
parser) or validating a knob at construction (``KPMSolver``) does not
load the layer the knob configures.  Each layer re-exports its own
names: :mod:`repro.sparse.backend`, :mod:`repro.dist.overlap`,
:mod:`repro.util.precision`.
"""

from __future__ import annotations

#: Valid values of the user-facing ``backend=`` knob.
BACKEND_CHOICES = ("auto", "numpy", "native")

#: Valid values of the user-facing ``overlap=`` knob.
OVERLAP_CHOICES = ("off", "on", "auto")

#: Valid values of the user-facing ``precision=`` knob.
PRECISION_CHOICES = ("fp64", "fp32", "fp16v")


def resolve_overlap(overlap: str | bool | None, n_ranks: int) -> bool:
    """Turn the user-facing ``overlap`` knob into an execution decision.

    ``'auto'`` (or None) enables task mode whenever there is more than
    one rank — a single rank has no halo to hide.  Booleans pass
    through so programmatic callers can skip the string vocabulary.
    """
    if isinstance(overlap, bool):
        return overlap
    choice = "auto" if overlap is None else str(overlap).lower()
    if choice not in OVERLAP_CHOICES:
        raise ValueError(
            f"overlap must be one of {OVERLAP_CHOICES}, got {overlap!r}"
        )
    if choice == "auto":
        return n_ranks > 1
    return choice == "on"
