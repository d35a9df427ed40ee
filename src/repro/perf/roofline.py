"""Roofline models: paper Eqs. (9)-(11) and the device timing models.

* :func:`roofline` — the classic model P* = min(P_peak, b / B) (Eq. (9)).
* :func:`custom_roofline` — the paper's refinement Eq. (11),
  P* = min(P*_MEM, P*_LLC), for kernels decoupled from main memory.
* :func:`cpu_kernel_performance` / :func:`gpu_kernel_performance` —
  complete per-device predictions for all three optimization stages,
  combining code balance, Omega, the LLC bound, in-core throughput, and
  (GPU) the latency penalty of in-kernel reductions. These feed the
  node-level (Fig. 11) and cluster-level (Fig. 12, Table III) models.
"""

from __future__ import annotations

from repro.perf.arch import Architecture, NodeConfig
from repro.perf.balance import (
    KPM_FLOPS_PER_ROW,
    bmin,
    naive_balance,
    precision_widths,
)
from repro.perf.traffic import gpu_level_traffic, omega_parametric
from repro.util.constants import BYTES_PER_GB, F_ADD, F_MUL, S_D, S_I


def roofline(peak_gflops: float, bandwidth_gbs: float, balance: float) -> float:
    """Paper Eq. (9): P* = min(P_peak, b / B) in Gflop/s.

    ``balance`` is the code balance B in bytes/flop; b/B has units
    (GB/s)/(B/F) = Gflop/s.
    """
    if balance <= 0:
        raise ValueError(f"code balance must be positive, got {balance}")
    return min(peak_gflops, bandwidth_gbs / balance)


def memory_bound_performance(bandwidth_gbs: float, balance: float) -> float:
    """Paper Eq. (10): P*_MEM = b / B."""
    if balance <= 0:
        raise ValueError(f"code balance must be positive, got {balance}")
    return bandwidth_gbs / balance


def llc_code_balance(
    r: int,
    nnzr: float = 13.0,
    s_d: int = S_D,
    s_i: int = S_I,
    f_a: int = F_ADD,
    f_m: int = F_MUL,
    s_v: int | None = None,
) -> float:
    """Cache-level code balance B_LLC(R) of the blocked fused kernel.

    Traffic seen by the last level cache per inner iteration: the matrix
    stream passes through once (N_nz (S_d + S_i)), every vector gather is
    served by the LLC (N_nz R S_d), and the three block-vector streams
    (read V, read W, write W) pass through as well (3 R N S_d). This is
    the quantity the paper obtains empirically by benchmarking an
    in-cache working set (Section V-A); dividing the LLC bandwidth by it
    gives P*_LLC of Eq. (11).
    """
    if r < 1:
        raise ValueError(f"R must be >= 1, got {r}")
    s_x = s_d if s_v is None else s_v
    bytes_per_row = nnzr * (s_d + s_i) / r + nnzr * s_x + 3 * s_x
    flops_per_row = nnzr * (f_a + f_m) + KPM_FLOPS_PER_ROW
    return bytes_per_row / flops_per_row


def custom_roofline(
    arch: Architecture,
    r: int,
    nnzr: float = 13.0,
    omega: float = 1.0,
    precision=None,
) -> dict[str, float]:
    """Paper Eq. (11): P* = min(P*_MEM, P*_LLC) for the blocked kernel.

    Returns the components too, so benches can plot the bound crossover
    of paper Fig. 8: ``{"p_mem", "p_llc", "p_star"}`` in Gflop/s.
    ``precision`` swaps in a narrow profile's stream widths everywhere
    (both bounds rise — the kernel moves fewer bytes per flop).
    """
    s_d, s_v, s_i = precision_widths(precision)
    p_mem = roofline(arch.peak_gflops, arch.bandwidth_gbs,
                     omega * bmin(r, nnzr, s_d=s_d, s_i=s_i, s_v=s_v))
    p_llc = roofline(arch.peak_gflops, arch.llc_bandwidth_gbs,
                     llc_code_balance(r, nnzr, s_d=s_d, s_i=s_i, s_v=s_v))
    return {"p_mem": p_mem, "p_llc": p_llc, "p_star": min(p_mem, p_llc)}


def cpu_kernel_performance(
    arch: Architecture,
    stage: str,
    r: int = 1,
    *,
    cores: int | None = None,
    n: int | None = None,
    nnzr: float = 13.0,
    stencil_rows: float | None = None,
    rfo: bool = True,
    precision=None,
) -> float:
    """Predicted CPU Gflop/s for one optimization stage.

    Combines three ceilings:

    * in-core execution: ``cores * peak_per_core * incore_efficiency``
      (the linear regime of paper Fig. 7),
    * main memory: ``b / (Omega * B(stage, R))``,
    * last level cache: ``b_LLC / B_LLC(R)`` (blocked kernel only).

    ``n``/``stencil_rows`` feed the parametric Omega model; with the
    defaults Omega = 1 (the best case, as in the paper's Fig. 7 roofline).
    """
    if arch.kind != "cpu":
        raise ValueError(f"{arch.name} is not a CPU")
    cores = arch.cores if cores is None else cores
    if not 1 <= cores <= arch.cores:
        raise ValueError(f"cores must be in [1, {arch.cores}], got {cores}")
    core_frac = cores / arch.cores
    p_core = cores * arch.peak_per_core_gflops * arch.incore_efficiency

    s_d, s_v, s_i = precision_widths(precision)
    omega = 1.0
    if n is not None and stencil_rows is not None:
        omega = omega_parametric(
            r, n, nnzr, arch.llc_bytes, stencil_rows, s_d=s_d, s_i=s_i,
            s_v=s_v,
        )

    # write-allocate (RFO) traffic: every vector store first loads the
    # target line, adding S_v per stored element on x86 CPUs. Table I is
    # *minimum* traffic; the actual-performance model must include RFO.
    flops_per_row = nnzr * (F_ADD + F_MUL) + KPM_FLOPS_PER_ROW
    if stage == "naive":
        # 4 vector stores per row and iteration (u twice, w twice)
        balance = omega * naive_balance(nnzr, s_d=s_d, s_i=s_i, s_v=s_v) \
            + (4 * s_v if rfo else 0) / flops_per_row
        return min(
            p_core, arch.blas1_efficiency * arch.bandwidth_gbs / balance
        )
    if stage == "aug_spmv":
        # single store (w)
        balance = omega * bmin(1, nnzr, s_d=s_d, s_i=s_i, s_v=s_v) \
            + (s_v if rfo else 0) / flops_per_row
        return min(p_core, arch.bandwidth_gbs / balance)
    if stage == "aug_spmmv":
        # R stores per row -> S_v per flop-normalized R
        balance = omega * bmin(r, nnzr, s_d=s_d, s_i=s_i, s_v=s_v) \
            + (s_v if rfo else 0) / flops_per_row
        p_mem = arch.bandwidth_gbs / balance
        # LLC bandwidth scales with the active cores (distributed L3 slices)
        p_llc = core_frac * arch.llc_bandwidth_gbs / llc_code_balance(
            r, nnzr, s_d=s_d, s_i=s_i, s_v=s_v
        )
        return min(p_core, p_mem, p_llc)
    raise ValueError(
        f"stage must be 'naive', 'aug_spmv' or 'aug_spmmv', got {stage!r}"
    )


def gpu_kernel_performance(
    arch: Architecture,
    stage: str,
    r: int = 1,
    *,
    n: int = 1_600_000,
    nnzr: float = 13.0,
    precision=None,
) -> float:
    """Predicted GPU Gflop/s for one optimization stage.

    Builds the per-call time as the maximum over the per-level transfer
    times (DRAM, L2, texture cache — volumes from
    :func:`repro.perf.traffic.gpu_level_traffic`) and the in-core flop
    time, then applies the latency-efficiency penalty for kernels with
    on-the-fly reductions (paper Fig. 10(c): with dot products the kernel
    is latency- rather than bandwidth-bound).
    """
    if arch.kind != "gpu":
        raise ValueError(f"{arch.name} is not a GPU")
    nnz = nnzr * n
    s_d, s_v, s_i = precision_widths(precision)
    if stage == "naive":
        # separate BLAS-1 kernels: memory bound at the naive balance,
        # derated by per-kernel launch and separate-reduction overhead
        return min(
            arch.peak_gflops,
            arch.blas1_efficiency * arch.bandwidth_gbs
            / naive_balance(nnzr, s_d=s_d, s_i=s_i, s_v=s_v),
        )
    if stage == "aug_spmv":
        # Stage 1 uses the classic SpMV thread mapping (one warp per
        # SELL-32 chunk, coalesced over rows), not the R-lane block
        # mapping of Fig. 6 — its fused dot products cost only a mild
        # latency penalty, keeping it between the naive and blocked
        # stages on the GPU (paper Fig. 11 middle bars).
        return min(
            arch.peak_gflops,
            0.55 * arch.bandwidth_gbs / bmin(1, nnzr, s_d=s_d, s_i=s_i,
                                             s_v=s_v),
        )
    if stage == "aug_spmmv":
        kernel, r_eff, latency = "aug_spmmv", r, True
    elif stage == "aug_spmmv_nodot":
        kernel, r_eff, latency = "aug_spmmv_nodot", r, False
    elif stage == "spmmv":
        kernel, r_eff, latency = "spmmv", r, False
    else:
        raise ValueError(f"unknown stage {stage!r}")

    traffic = gpu_level_traffic(kernel, r_eff, n, nnzr, arch, s_d=s_d,
                                s_i=s_i, s_v=s_v)
    flops = r_eff * (nnz * (F_ADD + F_MUL) + n * KPM_FLOPS_PER_ROW)
    t_dram = traffic.dram / (arch.bandwidth_gbs * BYTES_PER_GB)
    t_l2 = traffic.l2 / (arch.llc_bandwidth_gbs * BYTES_PER_GB)
    t_tex = traffic.tex / (arch.tex_bandwidth_gbs * BYTES_PER_GB)
    t_flop = flops / (arch.peak_gflops * 1.0e9)
    t = max(t_dram, t_l2, t_tex, t_flop)
    if latency:
        t /= arch.dot_latency_efficiency
    return flops / t / 1.0e9


def gpu_level_bandwidths(
    arch: Architecture,
    kernel: str,
    r: int,
    *,
    n: int = 1_600_000,
    nnzr: float = 13.0,
) -> dict[str, float]:
    """Achieved DRAM/L2/TEX bandwidths in GB/s — paper Fig. 10's series.

    The achieved bandwidth of a level is its transfer volume divided by
    the kernel runtime (which is set by the *slowest* level / the
    latency penalty), so non-bottleneck levels show below-peak numbers —
    exactly how nvprof-derived bandwidths behave in the paper.
    """
    traffic = gpu_level_traffic(kernel, r, n, nnzr, arch)
    nnz = nnzr * n
    flops = r * (nnz * (F_ADD + F_MUL) + n * KPM_FLOPS_PER_ROW)
    t_dram = traffic.dram / (arch.bandwidth_gbs * BYTES_PER_GB)
    t_l2 = traffic.l2 / (arch.llc_bandwidth_gbs * BYTES_PER_GB)
    t_tex = traffic.tex / (arch.tex_bandwidth_gbs * BYTES_PER_GB)
    t_flop = flops / (arch.peak_gflops * 1.0e9)
    t = max(t_dram, t_l2, t_tex, t_flop)
    if kernel == "aug_spmmv":
        t /= arch.dot_latency_efficiency
    return {
        "dram": traffic.dram / t / BYTES_PER_GB,
        "l2": traffic.l2 / t / BYTES_PER_GB,
        "tex": traffic.tex / t / BYTES_PER_GB,
        "time_s": t,
    }


def node_performance(
    node: NodeConfig,
    stage: str,
    r: int = 32,
    *,
    heterogeneous_efficiency: float = 0.875,
    nnzr: float = 13.0,
    n: int = 3_200_000,
) -> dict[str, float]:
    """Node-level Gflop/s per device class and combined (paper Fig. 11).

    The heterogeneous number is the sum of the device performances, with
    the CPU contribution reduced by the sacrificed GPU-management cores,
    scaled by ``heterogeneous_efficiency`` (PCIe communication and
    management overhead; the paper measures 85-90%).
    """
    cpu_only = sum(
        cpu_kernel_performance(c, stage, r, n=n, nnzr=nnzr,
                               stencil_rows=2 * max(nnzr, 1.0))
        for c in node.cpus
    )
    gpu_only = sum(
        gpu_kernel_performance(g, stage, r, n=n, nnzr=nnzr) for g in node.gpus
    )
    cpu_in_hetero = sum(
        cpu_kernel_performance(
            c, stage, r, cores=node.cpu_compute_cores(c), n=n, nnzr=nnzr,
            stencil_rows=2 * max(nnzr, 1.0),
        )
        for c in node.cpus
    )
    hetero = (cpu_in_hetero + gpu_only) * heterogeneous_efficiency
    return {
        "cpu": cpu_only,
        "gpu": gpu_only,
        "heterogeneous": hetero,
        "parallel_efficiency": hetero / (cpu_only + gpu_only),
    }
