"""Request queue and tickets: the client-facing half of the server.

``submit()`` returns a :class:`Ticket` immediately; the solve happens
whenever the coalescer next drains the queue.  A ticket is a small
future: clients block on :meth:`Ticket.result`, poll :attr:`done`, or
consume the streaming side-channel — every partial moment prefix the
solver publishes lands in :attr:`partials` (and wakes blocked readers
via :meth:`next_partial`), so an interactive client can refine its
spectrum plot while the full solve is still running.

The queue orders strictly by ``(priority, absolute deadline, seq)`` —
an urgent tenant's request leaves the queue first.  Deadlines are
*relative* seconds in the request spec; the ticket stamps the absolute
expiry on the monotonic clock at submission (``deadline_at``), so a
wall-clock step (NTP slew, DST) can neither expire every queued request
at once nor revive an expired one — but ordering is only a
*preference* for the coalescer: batch planning groups compatible
requests regardless of arrival order, because sharing one block solve
is cheaper for everyone (paper Eq. 5-7).  Fairness is restored at the
batch level: groups are executed in the order of their most urgent
member.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time

from repro.serve.spec import Request

__all__ = ["RequestQueue", "Ticket"]


class Ticket:
    """Handle to one submitted request (a future plus a partial stream)."""

    def __init__(self, request: Request, request_key: str,
                 moment_key: str, group_key: str, seq: int,
                 spec_key: str | None = None) -> None:
        self.request = request
        self.request_key = request_key
        self.moment_key = moment_key
        self.group_key = group_key
        self.seq = seq
        #: the request's ``spec.digest`` (None: not computed yet)
        self.spec_key = spec_key
        #: absolute expiry on the monotonic clock (None = no deadline);
        #: stamped once at submission from the request's *relative*
        #: ``deadline`` seconds, so queue ordering and the server's miss
        #: check are immune to wall-clock steps
        self.deadline_at = (
            None if request.deadline is None
            else time.monotonic() + float(request.deadline)
        )
        #: streamed (n_done, result) pairs, oldest first
        self.partials: list = []
        #: how the answer was produced: 'cache', 'dedup', or the width
        #: of the coalesced batch that solved it (int >= 1)
        self.via: str | int | None = None
        self._event = threading.Event()
        self._partial_cv = threading.Condition()
        self._result = None
        self._error: BaseException | None = None

    # -- solver side ---------------------------------------------------
    def add_partial(self, n_done: int, value) -> None:
        with self._partial_cv:
            self.partials.append((n_done, value))
            self._partial_cv.notify_all()

    def fulfill(self, result) -> None:
        self._result = result
        self._event.set()
        with self._partial_cv:
            self._partial_cv.notify_all()

    def fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()
        with self._partial_cv:
            self._partial_cv.notify_all()

    # -- client side ---------------------------------------------------
    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        return self._error is not None

    @property
    def error(self) -> BaseException | None:
        return self._error

    def result(self, timeout: float | None = None):
        """Block for the final result (re-raises the solve's failure)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_key[:12]} not done after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def next_partial(self, after: int = 0, timeout: float | None = None):
        """Block until a partial with index >= ``after`` exists (or the
        ticket completes); returns ``(index, (n_done, value))`` or None
        when the ticket finished with no further partials."""
        deadline_ev = self._event
        with self._partial_cv:
            while len(self.partials) <= after and not deadline_ev.is_set():
                if not self._partial_cv.wait(timeout):
                    raise TimeoutError("no partial arrived in time")
            if len(self.partials) > after:
                return after, self.partials[after]
            return None


class RequestQueue:
    """Thread-safe priority queue of pending tickets.

    Heap order: ``(priority, deadline_at-or-inf, seq)``.  ``drain()`` is
    the coalescer's entry point — it empties the queue in one motion so
    batch planning sees every concurrent request at once (the whole
    point of serving: the wider the concurrent set, the wider the
    blocks).
    """

    def __init__(self) -> None:
        self._lock = threading.Condition()
        self._heap: list = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def next_seq(self) -> int:
        return next(self._seq)

    def push(self, ticket: Ticket) -> None:
        req = ticket.request
        deadline = (
            ticket.deadline_at if ticket.deadline_at is not None
            else float("inf")
        )
        with self._lock:
            heapq.heappush(
                self._heap, (req.priority, deadline, ticket.seq, ticket)
            )
            self._lock.notify_all()

    def drain(self) -> list[Ticket]:
        """All pending tickets, urgency-ordered; the queue empties."""
        with self._lock:
            out = [heapq.heappop(self._heap)[3] for _ in range(len(self._heap))]
            return out

    def wait(self, timeout: float | None = None) -> bool:
        """Block until at least one request is pending (False: timeout)."""
        with self._lock:
            if self._heap:
                return True
            return self._lock.wait(timeout) and bool(self._heap)
