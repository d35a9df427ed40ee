"""Fault-tolerant KPM execution: retries, recovery, degradation.

Public surface of the resilience layer:

* :class:`RetryPolicy` — declarative retry schedule (attempts, backoff,
  deterministic jitter, per-attempt deadline);
* :class:`FaultPlan` / :class:`FaultSpec` / :class:`FaultInjector` —
  first-class seedable fault injection (crash / raise / stall / slow /
  corrupt-halo / corrupt-ckpt) shared by every engine and the CLI;
* :class:`Supervisor` — runs an eta computation to completion despite
  faults: classify, checkpoint-resume, retry, degrade
  ``mp → sim → serial`` and ``native → numpy``;
* :class:`Resilience` — the configuration object consumed by
  ``KPMSolver(resilience=...)``.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "faults": ("FAULT_KINDS", "FaultInjector", "FaultPlan", "FaultSpec",
               "as_fault_plan", "corrupt_checkpoint_file"),
    "policy": ("RetryPolicy",),
    "supervisor": ("ENGINE_LADDERS", "AttemptRecord", "Resilience",
                   "ResilienceReport", "Supervisor", "classify_error"),
})
