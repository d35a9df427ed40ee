"""Distributed-execution substrate: simulated MPI over partitioned KPM.

The paper parallelizes KPM data-parallel across heterogeneous devices:
one MPI process per CPU/GPU, contiguous matrix-row blocks sized by device
weights, halo exchanges for the SpMMV input vectors, and a single global
reduction of the dot products at the very end (Section VI-A).

Without an MPI runtime we *simulate* the SPMD program: all ranks live in
one process (:class:`~repro.dist.comm.SimWorld`), communication is an
explicit buffer copy that is logged message-by-message, and the KPM
driver (:mod:`repro.dist.kpm_parallel`) runs the ranks' local kernels in
sequence. Results are bit-compatible with the serial solver; the message
log feeds the interconnect cost model (:mod:`repro.dist.network`) and the
cluster scaling model (:mod:`repro.dist.scaling_model`) that regenerate
paper Fig. 12 and Table III.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "comm": ("SimWorld", "MessageLog", "MessageRecord"),
    "partition": ("RowPartition", "weights_from_performance"),
    "halo": ("CommPattern", "DistributedMatrix", "partition_matrix"),
    "kpm_parallel": ("distributed_eta", "distributed_dos_moments"),
    "network": ("NetworkModel", "CRAY_ARIES"),
    "elastic": ("RebalancePolicy", "RebalanceMonitor", "MembershipPlan",
                "MembershipEvent", "ElasticReport", "elastic_eta",
                "resolve_rebalance", "autotune_weights", "throughput_timer",
                "AutotuneResult"),
    "tune": ("TuneConfig", "TuneSpace", "TuneResult", "tune", "lookup",
             "save_profile"),
    "overlap": ("TaskSplit", "task_split", "exposed_communication_time"),
    "scaling_model": ("ClusterModel", "WeakScalingCase",
                      "square_weak_scaling_domains",
                      "bar_weak_scaling_domains"),
})
