"""Module entry point: ``python -m repro``."""

import gc

from repro.cli import main

status = main()
# The process ends here: frozen, the objects of every imported module are
# skipped by the exit-time collections (≈ 30 ms of a `dos` run).
gc.freeze()
raise SystemExit(status)
