"""Shared utilities: error types, datatype constants, counters, RNG, timing.

These are the lowest-level building blocks of the reproduction; every other
subpackage (``repro.sparse``, ``repro.core``, ``repro.perf``, ...) depends on
them and nothing here depends on the rest of the package.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "errors": ("ReproError", "ShapeError", "FormatError", "ConvergenceError",
               "PartitionError", "SimulationError"),
    "constants": ("S_D", "S_I", "F_ADD", "F_MUL", "DTYPE", "IDTYPE",
                  "BYTES_PER_GB"),
    "counters": ("PerfCounters", "NULL_COUNTERS"),
    "knobs": ("ExecConfig",),
    "rng": ("make_rng", "spawn_rngs"),
    "timing": ("Timer",),
    "validation": ("check_positive", "check_nonnegative", "check_in_range",
                   "check_vector", "check_block_vector"),
})
