//! Shapes and helpers the cluster reports share: the Table I workload,
//! the hybrid node configuration, the steal mode and the ms formatter.

use madness_cluster::node::ResourceMode;
use madness_cluster::workload::WorkloadSpec;
use madness_cluster::BalanceMode;
use madness_gpusim::{KernelKind, SimTime};

/// The Table I task shape: d = 3, k = 10, separation rank 100.
pub(crate) fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

/// The hybrid node of the paper's best Table I row: 10 compute threads,
/// 5 data threads, 5 GPU streams, custom kernel.
pub(crate) fn hybrid() -> ResourceMode {
    ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    }
}

/// Whole-batch stealing: 60-task minimum, 8 migrations in flight.
pub(crate) fn steal_mode() -> BalanceMode {
    BalanceMode::Steal {
        min_batch: 60,
        max_inflight: 8,
    }
}

/// Simulated time in milliseconds.
pub(crate) fn ms(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e3
}
