"""Performance-report generation: the paper's analysis as one text blob.

``full_report(...)`` strings together the model pipeline for a given
problem configuration — Table-I accounting, code balances, per-device
rooflines, node prediction, cluster prediction — the way a performance
engineer would write it up. Used by the CLI (``python -m repro report``)
and handy in notebooks.

The *validation* half of the module closes the loop on measurement:
:func:`expected_counters` re-charges a serial moment computation purely
analytically (the same Table-I costs the kernel spans charge at
runtime), :func:`measured_vs_model_section` diffs a run's sink — its
:class:`~repro.util.counters.PerfCounters` fold and its kernel timers —
against that minimum and the Eq. (4)-(7) aggregate models, and
:func:`trace_section` folds a span trace (see :mod:`repro.obs`) into
per-kernel wall time and achieved bytes/flop — the paper's "validate the
model against the measurement" methodology as executable code.
"""

from __future__ import annotations

from io import StringIO

import numpy as np

from repro.perf.arch import ARCHITECTURES, PIZ_DAINT_NODE, NodeConfig
from repro.perf.balance import (
    bmin,
    bmin_limit,
    kpm_flops,
    kpm_min_traffic,
    naive_balance,
    precision_widths,
)
from repro.perf.roofline import (
    cpu_kernel_performance,
    custom_roofline,
    gpu_kernel_performance,
    node_performance,
)
from repro.obs.metrics import PerfCounters
from repro.sparse.fused import aug_cost, matrix_stream, spmv_cost
from repro.util.constants import F_ADD, F_MUL
from repro.util.precision import FP64, PRECISIONS, Precision, get_precision
from repro.util.validation import check_positive


def architecture_table() -> str:
    """Paper Table II as text."""
    out = StringIO()
    out.write(
        f"{'device':>8} {'kind':>5} {'clock':>7} {'cores':>6} "
        f"{'b GB/s':>7} {'LLC MiB':>8} {'peak GF/s':>10}\n"
    )
    for arch in ARCHITECTURES.values():
        out.write(
            f"{arch.name:>8} {arch.kind:>5} {arch.clock_mhz:>7.0f} "
            f"{arch.cores:>6} {arch.bandwidth_gbs:>7.1f} "
            f"{arch.llc_mib:>8.2f} {arch.peak_gflops:>10.1f}\n"
        )
    return out.getvalue()


def balance_section(n: int, nnzr: float, r: int, m: int) -> str:
    """Eq. (4)-(7) accounting for the given configuration."""
    nnz = int(nnzr * n)
    out = StringIO()
    out.write(f"problem: N = {n:,}, N_nz = {nnz:,} ({nnzr:.1f}/row), "
              f"R = {r}, M = {m}\n")
    out.write(f"total flops:           {kpm_flops(n, nnz, r, m):.3e}\n")
    for stage in ("naive", "aug_spmv", "aug_spmmv"):
        v = kpm_min_traffic(n, nnz, r, m, stage)
        out.write(f"V_KPM[{stage:>9}]:    {v:.3e} bytes\n")
    out.write(
        f"code balance: naive {naive_balance(nnzr):.3f}, "
        f"stage1 {bmin(1, nnzr):.3f}, stage2(R={r}) {bmin(r, nnzr):.3f}, "
        f"limit {bmin_limit(nnzr):.3f} bytes/flop\n"
    )
    return out.getvalue()


def precision_balance_section(r: int, nnzr: float = 13.0) -> str:
    """Eq. (5)-(7) code balances under each storage profile.

    One row per profile with its stream widths (matrix value, vector
    storage, index — uint16 eligibility assumed for the narrow
    profiles) and the resulting naive / stage-1 / stage-2 / limit
    balances.  fp32 halves every balance; fp16v drops the R -> inf
    limit 4x below the paper's Eq. (7).
    """
    out = StringIO()
    out.write(f"{'profile':>8} {'S_d':>4} {'S_v':>4} {'S_i':>4} "
              f"{'naive':>7} {'B_min(1)':>9} {f'B_min({r})':>9} "
              f"{'limit':>7}\n")
    for name in PRECISIONS:
        s_d, s_v, s_i = precision_widths(name)
        out.write(
            f"{name:>8} {s_d:>4} {s_v:>4} {s_i:>4} "
            f"{naive_balance(nnzr, s_d=s_d, s_i=s_i, s_v=s_v):>7.3f} "
            f"{bmin(1, nnzr, s_d=s_d, s_i=s_i, s_v=s_v):>9.3f} "
            f"{bmin(r, nnzr, s_d=s_d, s_i=s_i, s_v=s_v):>9.3f} "
            f"{bmin_limit(nnzr, s_d=s_v):>7.3f}\n"
        )
    return out.getvalue()


def device_section(r: int, nnzr: float) -> str:
    """Per-device roofline predictions for all three stages."""
    out = StringIO()
    out.write(f"{'device':>8} {'naive':>8} {'stage1':>8} "
              f"{'stage2(R)':>10} {'P*_LLC':>8}\n")
    for arch in ARCHITECTURES.values():
        if arch.kind == "cpu":
            vals = [
                cpu_kernel_performance(arch, s, r)
                for s in ("naive", "aug_spmv", "aug_spmmv")
            ]
            p_llc = custom_roofline(arch, r)["p_llc"]
        else:
            vals = [
                gpu_kernel_performance(arch, s, r)
                for s in ("naive", "aug_spmv", "aug_spmmv")
            ]
            p_llc = float("nan")
        out.write(
            f"{arch.name:>8} {vals[0]:>8.1f} {vals[1]:>8.1f} "
            f"{vals[2]:>10.1f} {p_llc:>8.1f}\n"
        )
    return out.getvalue()


def node_section(node: NodeConfig, r: int) -> str:
    """Fig. 11-style node summary."""
    out = StringIO()
    out.write(f"node: {node.name} "
              f"({len(node.cpus)} CPU + {len(node.gpus)} GPU)\n")
    for stage in ("naive", "aug_spmv", "aug_spmmv"):
        d = node_performance(node, stage, r)
        out.write(
            f"  {stage:>10}: cpu {d['cpu']:7.1f}  gpu {d['gpu']:7.1f}  "
            f"hetero {d['heterogeneous']:7.1f} Gflop/s "
            f"(eff {d['parallel_efficiency']:.0%})\n"
        )
    return out.getvalue()


def cluster_section(domain: tuple[int, int, int], nodes: int, m: int, r: int) -> str:
    """Fig. 12 / Table III-style cluster prediction."""
    # local import: repro.dist depends on repro.perf, not vice versa
    from repro.dist.scaling_model import ClusterModel

    cm = ClusterModel(r=r)
    out = StringIO()
    out.write(f"cluster: {nodes} x {cm.node.name} nodes, "
              f"domain {domain}, M = {m}\n")
    for variant in ("aug_spmv", "aug_spmmv*", "aug_spmmv"):
        tf = cm.solve_tflops(domain, nodes, m, variant=variant)
        nh = cm.node_hours(domain, nodes, m, variant=variant)
        out.write(f"  {variant:>11}: {tf:8.2f} Tflop/s, "
                  f"{nh:8.1f} node-hours\n")
    return out.getvalue()


def _charge_naive_iteration(
    A, c: PerfCounters, prec: Precision = FP64
) -> None:
    """Analytic charge of one naive inner iteration (Fig. 3 call chain).

    Under ``fp16v`` only the SpMV streams half storage; the BLAS-1 chain
    runs on the decoded complex64 copies (the backends' decode pass), so
    its streams price at the compute-dtype width.
    """
    n = A.n_rows
    s_x = (
        np.dtype(prec.compute_dtype).itemsize
        if prec.half_vectors else prec.s_vector
    )
    c.charge("spmv", *spmv_cost(*matrix_stream(A, prec), 1, prec))
    for _ in range(2):  # two axpy calls
        c.charge("axpy", loads=2 * n * s_x, stores=n * s_x,
                 flops=n * (F_ADD + F_MUL))
    c.charge("scal", loads=n * s_x, stores=n * s_x, flops=n * F_MUL)
    c.charge("nrm2", loads=n * s_x, flops=n * (F_ADD // 2 + F_MUL // 2))
    c.charge("dot", loads=2 * n * s_x, flops=n * (F_ADD + F_MUL))


def expected_counters(
    A, n_moments: int, n_vectors: int, engine: str = "aug_spmmv",
    splits=None, precision: Precision | str | None = None, first_m: int = 1,
) -> PerfCounters:
    """Analytic minimum-traffic counters of one serial moment computation.

    Re-charges, call for call, exactly what
    :func:`repro.core.moments.compute_eta` charges at runtime for the
    given engine — the bootstrap Sp(M)MV plus M/2 - 1 inner-iteration
    kernels (per vector for the single-vector engines).  A measured
    :class:`PerfCounters` from an instrumented run must equal this
    *exactly* (integer bytes and flops); any drift means a kernel's
    accounting diverged from Table I.

    ``splits`` models the overlapped (task-mode) distributed schedule:
    a sequence of per-rank :class:`repro.dist.overlap.TaskSplit`-like
    objects (``n_interior``/``nnz_interior``/``n_boundary``/
    ``nnz_boundary``).  Each rank then charges its bootstrap ``spmmv``
    on its local block and every inner iteration as an
    ``aug_spmmv_int`` + ``aug_spmmv_bnd`` pair.  By the exact-sum
    property of :func:`repro.sparse.fused.aug_cost` the
    byte/flop totals are identical to the serial charge — only the
    per-kernel call attribution differs — so measured == analytic
    stays exact under overlap.  Only valid with ``engine='aug_spmmv'``.

    ``precision`` re-prices every stream with the profile's widths —
    including, in the splits path, each rank's *own* index width: a
    rank whose local+halo column count (``sp.n_cols``) fits uint16
    charges S_i = 2 under a narrow profile even when the global
    operator does not.

    ``first_m`` > 1 charges a stage-2 run resumed there: no bootstrap,
    the iterations ``[first_m, M/2)`` — what any partition, one that
    changes mid-run included, must sum to, and with the iterations
    before it the whole run's charge.
    """
    if n_moments % 2 or n_moments < 2:
        raise ValueError(f"n_moments must be even >= 2, got {n_moments}")
    check_positive("n_vectors", n_vectors)
    half = n_moments // 2
    if (splits is not None or first_m != 1) and engine != "aug_spmmv":
        raise ValueError(
            f"splits= and first_m= are only meaningful for "
            f"engine='aug_spmmv', got {engine!r}"
        )
    if not 1 <= first_m <= half:
        raise ValueError(f"first_m must be in [1, {half}], got {first_m}")
    prec = get_precision(precision)
    c = PerfCounters()
    boot = first_m == 1  # a fresh run charges the bootstrap
    if splits is not None:
        # per-rank index width: locality decides uint16 eligibility
        widths = [prec.index_bytes(getattr(sp, "n_cols", 0) or A.n_cols)
                  for sp in splits]
        for sp, s_i in zip(splits, widths):  # bootstrap nu_1 block, local
            if boot:
                c.charge("spmmv", *spmv_cost(
                    sp.n_interior + sp.n_boundary,
                    sp.nnz_interior + sp.nnz_boundary, s_i, n_vectors, prec))
        for _ in range(first_m, half):
            for sp, s_i in zip(splits, widths):
                c.charge("aug_spmmv_int", *aug_cost(
                    sp.n_interior, sp.nnz_interior, s_i, n_vectors, prec))
                c.charge("aug_spmmv_bnd", *aug_cost(
                    sp.n_boundary, sp.nnz_boundary, s_i, n_vectors, prec))
    elif engine == "aug_spmmv":
        stream = matrix_stream(A, prec)
        if boot:
            c.charge("spmmv", *spmv_cost(*stream, n_vectors, prec))
        for _ in range(first_m, half):
            c.charge("aug_spmmv", *aug_cost(*stream, n_vectors, prec))
    elif engine == "aug_spmv":
        stream = matrix_stream(A, prec)
        for _ in range(n_vectors):
            c.charge("spmv", *spmv_cost(*stream, 1, prec))  # bootstrap nu_1
            for _ in range(half - 1):
                c.charge("aug_spmv", *aug_cost(*stream, 1, prec))
    elif engine == "naive":
        for _ in range(n_vectors):
            c.charge("spmv", *spmv_cost(*matrix_stream(A, prec), 1, prec))
            for _ in range(half - 1):
                _charge_naive_iteration(A, c, prec)
    else:
        raise ValueError(
            f"engine must be 'naive', 'aug_spmv' or 'aug_spmmv', "
            f"got {engine!r}"
        )
    return c


def _kernel_model_balance(
    A, name: str, r: int, prec: Precision = FP64
) -> float | None:
    """Model bytes/flop of one kernel invocation (None when unmodeled)."""
    if name not in ("aug_spmv", "aug_spmmv", "spmv", "spmmv"):
        return None
    cost = aug_cost if name.startswith("aug") else spmv_cost
    loads, stores, flops = cost(*matrix_stream(A, prec),
                                r if name.endswith("mmv") else 1, prec)
    return (loads + stores) / flops


def measured_vs_model_section(
    A,
    counters: PerfCounters,
    n_moments: int,
    n_vectors: int,
    engine: str = "aug_spmmv",
    precision: Precision | str | None = None,
) -> str:
    """A run's sink vs. the analytic minimum and the Eq. (4) model.

    ``counters`` is the live :class:`PerfCounters` a ``compute_eta``
    run filled: its fold against :func:`expected_counters`, and — where
    its spans timed kernels — a per-kernel achieved-vs-model
    code-balance table with wall-clock Gflop/s.  ``precision`` must
    match the run's profile for the exact-match line to hold.
    """
    prec = get_precision(precision)
    exp = expected_counters(A, n_moments, n_vectors, engine, precision=prec)
    _, slots, s_i = matrix_stream(A, prec)
    nnzr = slots / A.n_rows
    s_d, s_x = prec.s_value, prec.s_vector
    out = StringIO()
    out.write(
        f"engine {engine}, M = {n_moments}, R = {n_vectors}, "
        f"N = {A.n_rows:,}, streamed slots = {slots:,} ({nnzr:.2f}/row)"
        + ("" if prec.is_fp64 else
           f", precision {prec.name} (S_d={s_d}, S_v={s_x}, S_i={s_i})")
        + "\n"
    )
    out.write(
        f"  measured: {counters.bytes_total:,} B  {counters.flops:,} F  "
        f"balance {counters.code_balance:.4f} B/F\n"
    )
    out.write(
        f"  analytic: {exp.bytes_total:,} B  {exp.flops:,} F  "
        f"balance {exp.code_balance:.4f} B/F\n"
    )
    exact = (
        counters.bytes_loaded == exp.bytes_loaded
        and counters.bytes_stored == exp.bytes_stored
        and counters.flops == exp.flops
    )
    if exact:
        out.write("  exact match: yes\n")
    else:
        out.write(
            "  exact match: NO  "
            f"(d_loads {counters.bytes_loaded - exp.bytes_loaded:+,}, "
            f"d_stores {counters.bytes_stored - exp.bytes_stored:+,}, "
            f"d_flops {counters.flops - exp.flops:+,})\n"
        )
    # Eq. (4) aggregate: all M/2 iterations priced as the stage kernel
    # (the bootstrap Sp(M)MV is slightly cheaper, so measured <= model).
    v_model = kpm_min_traffic(A.n_rows, slots, n_vectors, n_moments, engine,
                              s_d=s_d, s_i=s_i, s_v=s_x)
    f_model = kpm_flops(A.n_rows, slots, n_vectors, n_moments)
    out.write(
        f"  Eq.(4) V_KPM[{engine}]: {v_model:.4e} B "
        f"(measured/model = {counters.bytes_total / v_model:.4f})\n"
    )
    out.write(
        f"  Table-I flops:        {f_model:.4e} F "
        f"(measured/model = {counters.flops / f_model:.4f})\n"
    )
    out.write(
        f"  model balances: naive {naive_balance(nnzr, s_d=s_d, s_i=s_i, s_v=s_x):.3f}, "
        f"stage1 {bmin(1, nnzr, s_d=s_d, s_i=s_i, s_v=s_x):.3f}, "
        f"stage2(R={n_vectors}) "
        f"{bmin(n_vectors, nnzr, s_d=s_d, s_i=s_i, s_v=s_x):.3f}, "
        f"limit {bmin_limit(nnzr, s_d=s_x):.3f} B/F\n"
    )
    kernels = [(name, t, counters.traffic[name])
               for name, t in counters.timers.items()
               if counters.traffic.get(name, (0, 0, 0))[2]]
    if kernels:
        out.write(
            f"  {'kernel':>12} {'calls':>7} {'wall ms':>10} "
            f"{'B/F meas':>9} {'B/F model':>10} {'Gflop/s':>8}\n"
        )
        for name, t, (loads, stores, nflops, _) in sorted(
            kernels, key=lambda k: k[1].total, reverse=True
        ):
            nbytes = loads + stores
            # rank-tagged entries (merged mp snapshots) model against the
            # kernel's family; per-call balance depends on nnz/row,
            # which the row partition preserves.
            model_bf = _kernel_model_balance(
                A, name.rpartition(".")[2], n_vectors, prec
            )
            model_s = f"{model_bf:10.4f}" if model_bf is not None else f"{'-':>10}"
            gfs = nflops / t.total / 1e9 if t.total > 0 else float("nan")
            out.write(
                f"  {name:>12} {t.count:>7} {t.total * 1e3:>10.3f} "
                f"{nbytes / nflops:>9.4f} {model_s} {gfs:>8.2f}\n"
            )
    return out.getvalue()


def trace_section(records: list[dict]) -> str:
    """Per-span-name totals of a parsed JSONL trace (see repro.obs.trace)."""
    from repro.obs import aggregate_spans

    agg = aggregate_spans(records)
    out = StringIO()
    out.write(
        f"{'span':>16} {'count':>7} {'wall ms':>10} {'bytes':>14} "
        f"{'flops':>14} {'B/F':>7}\n"
    )
    for name, e in sorted(
        agg.items(), key=lambda kv: kv[1]["seconds"], reverse=True
    ):
        bf = f"{e['bytes'] / e['flops']:7.3f}" if e["flops"] else f"{'-':>7}"
        out.write(
            f"{name:>16} {e['count']:>7} {e['seconds'] * 1e3:>10.3f} "
            f"{e['bytes']:>14,} {e['flops']:>14,} {bf}\n"
        )
    return out.getvalue()


def full_report(
    *,
    nx: int = 100,
    ny: int = 100,
    nz: int = 40,
    r: int = 32,
    m: int = 2000,
    nodes: int = 64,
    node: NodeConfig = PIZ_DAINT_NODE,
) -> str:
    """The complete model-driven performance analysis as text."""
    check_positive("nodes", nodes)
    n = 4 * nx * ny * nz
    sections = [
        ("ARCHITECTURES (paper Table II)", architecture_table()),
        ("ACCOUNTING (paper Table I, Eqs. (4)-(7))",
         balance_section(n, 13.0, r, m)),
        ("PRECISION PROFILES (Eqs. (5)-(7) per storage profile)",
         precision_balance_section(r, 13.0)),
        ("DEVICE ROOFLINES (paper Figs. 7, 8, 10)", device_section(r, 13.0)),
        ("NODE LEVEL (paper Fig. 11)", node_section(node, r)),
        ("CLUSTER (paper Fig. 12, Table III)",
         cluster_section((nx, ny, nz), nodes, m, r)),
    ]
    out = StringIO()
    for title, body in sections:
        out.write(f"\n== {title} ==\n{body}")
    return out.getvalue()
