"""The ``python -m repro dos`` op re-executed as spans, in a fresh process.

Run by ``wl_cli_cold.walk`` as ``python cli_walk.py T_SPAWN NX NY NZ M R
SEED``: it makes the calls ``repro.cli`` makes for that command, each
inside a span, and prints the spans as one JSON line.  ``T_SPAWN`` is
the parent's ``perf_counter`` at spawn (CLOCK_MONOTONIC is shared), so
interpreter start-up becomes a span too.
"""

import sys
import time

_T_ENTRY = time.perf_counter()


def main(argv) -> None:
    import json

    import walks
    from spans import SpanRecorder

    t_spawn = float(argv[0])
    nx, ny, nz, m, r, seed = (int(a) for a in argv[1:7])
    rec = SpanRecorder()
    with rec.span("interpreter", "python") as sp:
        pass
    sp["start"], sp["end"] = t_spawn, _T_ENTRY
    with rec.span("import numpy, scipy.sparse", "python"):
        import numpy  # noqa: F401
        import scipy.sparse  # noqa: F401
    with rec.span("import repro.cli", "cli"):
        import repro.cli  # noqa: F401
        from repro.core.reconstruct import integrate_density
        from repro.core.scaling import lanczos_scale
        from repro.physics.hamiltonian import build_topological_insulator
        from repro.sparse.backend import get_backend
    with rec.span("build_topological_insulator", "physics"):
        H, _ = build_topological_insulator(nx, ny, nz)
    with rec.span("get_backend", "backend"):
        bk = get_backend("native")
    with rec.span("lanczos_scale", "core"):
        scale = lanczos_scale(H, seed=seed)
    _mu, e, rho = walks.walk_solve(rec, bk, H, scale, m, seed, r)
    with rec.span("print", "cli"):
        lines = [f"DOS integral: {integrate_density(e, rho):,.1f} (N)",
                 f"{'E':>12} {'rho(E)':>14}"]
        step = max(len(e) // 24, 1)
        lines += [f"{x:>12.4f} {y:>14.5g}" for x, y in zip(e[::step], rho[::step])]
        table = "\n".join(lines)
    # what follows (interpreter shutdown) is the parent's to time
    print(json.dumps({"spans": rec.spans, "table": table,
                      "t_done": time.perf_counter()}))


if __name__ == "__main__":
    main(sys.argv[1:])
