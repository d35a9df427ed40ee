#!/usr/bin/env python
"""Heterogeneous distributed KPM on the simulated cluster.

Demonstrates the paper's Section VI workflow end to end on the simulated
MPI substrate:

1. build the TI Hamiltonian and partition its rows across simulated
   CPU/GPU ranks with performance-derived weights (paper Section VI-A),
2. run the distributed blocked KPM solver, verify it matches the serial
   result exactly, and inspect the halo-exchange message log,
3. price the communication with the Cray-Aries network model and print
   the predicted node-level and cluster-level performance.

Run:  python examples/heterogeneous_cluster_simulation.py [--nx 12]
"""

import argparse

import numpy as np

from repro import build_topological_insulator
from repro.core.moments import compute_eta, eta_to_moments
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist import (
    ClusterModel,
    RowPartition,
    SimWorld,
    distributed_eta,
    partition_matrix,
    weights_from_performance,
)
from repro.perf.arch import PIZ_DAINT_NODE
from repro.perf.roofline import node_performance


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=12)
    ap.add_argument("--nz", type=int, default=6)
    ap.add_argument("--moments", type=int, default=64)
    ap.add_argument("--vectors", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    h, _ = build_topological_insulator(args.nx, args.nx, args.nz)
    scale = lanczos_scale(h, seed=args.seed)
    blk = make_block_vector(h.n_rows, args.vectors, seed=args.seed)

    # ---- weights from the device performance model ---------------------
    perf = node_performance(PIZ_DAINT_NODE, "aug_spmmv", r=args.vectors)
    weights = weights_from_performance([perf["cpu"], perf["gpu"]])
    print(f"Device performance guess: CPU {perf['cpu']:.1f} Gflop/s, "
          f"GPU {perf['gpu']:.1f} Gflop/s -> weights "
          f"{weights[0]:.3f} / {weights[1]:.3f}")

    # every rank starts on a 64-row eta block
    part = RowPartition.from_weights(h.n_rows, weights, align=64)
    print(f"Row partition: {part.counts().tolist()} of {h.n_rows} rows")

    # ---- distributed solve on the simulated SPMD world -----------------
    world = SimWorld(2, devices=["cpu", "gpu"])
    dist = partition_matrix(h, part)
    eta = distributed_eta(dist, None, scale, args.moments, blk, world)
    ref = compute_eta(h, scale, args.moments, blk, "aug_spmmv")
    err = np.abs(eta - ref).max()
    print(f"\nDistributed vs serial moments: max |diff| = {err:.2e}")
    assert err == 0.0  # the one eta reduction: bitwise, any partition

    mu = eta_to_moments(eta).mean(axis=0).real
    print(f"mu_0 = {mu[0]:.1f} (N = {h.n_rows})")

    log = world.log
    print(f"\nCommunication log: {log.n_messages} messages, "
          f"{log.total_bytes:,} bytes")
    for phase, nbytes in sorted(log.bytes_by_phase().items()):
        print(f"  {phase:<16s} {nbytes:>12,} bytes")
    print(f"  halo rows per exchange: "
          f"{dist.pattern.total_rows_exchanged():,}")

    # ---- price a production run with the cluster model -----------------
    cm = ClusterModel(r=32)
    print("\nPredicted production performance (Piz Daint model, R=32):")
    for nodes in (1, 64, 1024):
        dom = {1: (400, 100, 40), 64: (1600, 1600, 40),
               1024: (6400, 6400, 40)}[nodes]
        tf = cm.solve_tflops(dom, nodes, 2000)
        print(f"  {nodes:>5d} nodes, domain {dom}: {tf:8.2f} Tflop/s")


if __name__ == "__main__":
    main()
