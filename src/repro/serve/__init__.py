"""KPM-as-a-service: a coalescing multi-tenant solver server.

The paper's Eq. 5-7 argument — block many runs into one ``aug_spmmv``
so the matrix stream is paid once — applied across *users*: concurrent
DOS/LDOS requests against the same operator are canonicalized into
content-addressed keys, coalesced into one wide block solve, streamed
as partial spectra while the moments accumulate, and cached kernel-free
so a repeat query with a different damping kernel is a re-damp, not a
re-solve.

* :class:`HamiltonianSpec` / :class:`Request` — canonical specs and the
  three derived keys (request / moment / group).
* :class:`MomentCache` — content-addressed LRU moment storage with
  streaming partial entries.
* :class:`RequestQueue` / :class:`Ticket` — priority queue + futures
  with a partial-result stream.
* ``plan_batches`` / ``execute_batch`` — the coalescer.
* :class:`KPMServer` — the assembled server (sync ``step()`` or a
  background worker thread).
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "cache": ("CacheEntry", "MomentCache", "SpectraCache", "SpectrumEntry"),
    "coalescer": ("Batch", "BatchItem", "execute_batch", "plan_batches"),
    "queue": ("RequestQueue", "Ticket"),
    "server": ("KPMServer",),
    "spec": ("FAMILIES", "HamiltonianSpec", "Request", "canonical_json",
             "canonical_kernel", "canonical_precision", "register_family"),
})
