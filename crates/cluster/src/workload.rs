//! Apply task populations: what a node actually has to compute.
//!
//! One Apply *task* is (tree node × displacement): Algorithm 3 spawns
//! `integral_preprocess(source, displacement)` for every displacement of
//! every coefficient-carrying node. A [`WorkloadSpec`] captures the
//! homogeneous shape parameters; [`TaskPopulation`] holds the per-owner
//! task counts a process map induces on a concrete tree.

use madness_mra::procmap::ProcessMap;
use madness_mra::tree::FunctionTree;
use madness_tensor::flops::apply_task_flops;

/// Shape of every task in a (homogeneous) Apply workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Tensor dimensionality.
    pub d: usize,
    /// Polynomial order per dimension.
    pub k: usize,
    /// Separation rank `M` of the operator.
    pub rank: usize,
    /// Average effective rank per dimension under rank reduction, if the
    /// CPU path uses it (`None` = full rank everywhere).
    pub rr_mean_rank: Option<usize>,
}

impl WorkloadSpec {
    /// FLOPs of one task without rank reduction.
    pub fn task_flops(&self) -> u64 {
        apply_task_flops(self.d, self.k, self.rank)
    }

    /// FLOPs of one task on the CPU, honouring rank reduction.
    pub fn task_flops_cpu(&self) -> u64 {
        match self.rr_mean_rank {
            Some(kr) => {
                let krs = vec![kr.min(self.k); self.d];
                (self.rank as u64) * madness_tensor::flops::transform_rr_flops(self.d, self.k, &krs)
            }
            None => self.task_flops(),
        }
    }

    /// Bytes of one task's result tensor (`8·k^d`): one remote
    /// accumulation message, and what one migrated task puts on the wire.
    pub(crate) fn result_bytes(&self) -> u64 {
        8 * (self.k as u64).pow(self.d as u32)
    }
}

/// The tasks of one Apply invocation, partitioned over compute nodes.
#[derive(Clone, Debug)]
pub struct TaskPopulation {
    /// Shared task shape.
    pub spec: WorkloadSpec,
    /// Tasks owned by each compute node (`len() == n_nodes`).
    pub per_node: Vec<u64>,
}

impl TaskPopulation {
    /// Total tasks across the cluster.
    pub fn total(&self) -> u64 {
        self.per_node.iter().sum()
    }

    /// The heaviest node's share.
    pub fn max_per_node(&self) -> u64 {
        self.per_node.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: `max / mean` (1.0 = perfectly even).
    ///
    /// Degenerate partitions read as perfectly even rather than
    /// poisoning downstream gates: an empty partition (`per_node` empty)
    /// would otherwise divide by a zero length and return NaN, and an
    /// all-zero partition would compute 0/0.
    pub fn imbalance(&self) -> f64 {
        if self.per_node.is_empty() {
            return 1.0;
        }
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.per_node.len() as f64;
        self.max_per_node() as f64 / mean
    }

    /// Partitions a tree's Apply tasks across `n_nodes` by a process map:
    /// every coefficient-carrying leaf contributes `n_displacements`
    /// tasks to its owner.
    ///
    /// Displacements that fall off the domain edge are still counted
    /// against the interior estimate by the caller's choice of
    /// `n_displacements`; the paper's task counts (154,468 / 542,113) are
    /// quoted the same way — per (node, displacement) pair actually
    /// spawned. Use [`TaskPopulation::from_tree_exact`] for edge-exact
    /// counting.
    pub fn from_tree(
        tree: &FunctionTree,
        spec: WorkloadSpec,
        map: &dyn ProcessMap,
        n_nodes: usize,
        n_displacements: u64,
    ) -> Self {
        assert!(n_nodes > 0, "cluster must have nodes");
        let mut per_node = vec![0u64; n_nodes];
        for (key, node) in tree.iter() {
            if node.is_leaf() {
                per_node[map.owner(key, n_nodes)] += n_displacements;
            }
        }
        TaskPopulation { spec, per_node }
    }

    /// Edge-exact partition: counts only displacements whose neighbor
    /// stays inside the domain.
    pub fn from_tree_exact(
        tree: &FunctionTree,
        spec: WorkloadSpec,
        map: &dyn ProcessMap,
        n_nodes: usize,
        displacements: &[madness_mra::convolution::Displacement],
    ) -> Self {
        assert!(n_nodes > 0, "cluster must have nodes");
        let mut per_node = vec![0u64; n_nodes];
        for (key, node) in tree.iter() {
            if !node.is_leaf() {
                continue;
            }
            let owner = map.owner(key, n_nodes);
            let alive = displacements
                .iter()
                .filter(|disp| key.neighbor(&disp.delta).is_some())
                .count() as u64;
            per_node[owner] += alive;
        }
        TaskPopulation { spec, per_node }
    }

    /// A synthetic population with `total` tasks spread evenly (for unit
    /// tests and calibration sweeps).
    pub fn even(spec: WorkloadSpec, total: u64, n_nodes: usize) -> Self {
        assert!(n_nodes > 0);
        let base = total / n_nodes as u64;
        let rem = (total % n_nodes as u64) as usize;
        let per_node = (0..n_nodes).map(|i| base + u64::from(i < rem)).collect();
        TaskPopulation { spec, per_node }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madness_mra::procmap::{EvenMap, SubtreeMap};
    use madness_mra::synth::{synthesize_tree, SynthTreeParams};

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            d: 3,
            k: 10,
            rank: 100,
            rr_mean_rank: None,
        }
    }

    fn tree(leaves: usize) -> FunctionTree {
        synthesize_tree(
            3,
            10,
            &SynthTreeParams {
                target_leaves: leaves,
                centers: vec![vec![0.4, 0.5, 0.6]],
                with_coeffs: false,
                ..SynthTreeParams::default()
            },
        )
    }

    #[test]
    fn task_flops_match_formula() {
        assert_eq!(spec().task_flops(), 100 * 3 * 2 * 10_000);
        let rr = WorkloadSpec {
            rr_mean_rank: Some(4),
            ..spec()
        };
        assert_eq!(rr.task_flops_cpu(), rr.task_flops() * 4 / 10);
        assert_eq!(rr.task_flops(), spec().task_flops());
    }

    #[test]
    fn even_population_balances() {
        let p = TaskPopulation::even(spec(), 103, 10);
        assert_eq!(p.total(), 103);
        assert_eq!(p.max_per_node(), 11);
        assert!(p.imbalance() < 1.07);
    }

    #[test]
    fn degenerate_partitions_read_as_even_not_nan() {
        // Empty partition: no nodes at all.
        let empty = TaskPopulation {
            spec: spec(),
            per_node: vec![],
        };
        assert_eq!(empty.imbalance(), 1.0);
        // All-zero partition: nodes exist, no tasks.
        let idle = TaskPopulation {
            spec: spec(),
            per_node: vec![0, 0, 0],
        };
        assert_eq!(idle.imbalance(), 1.0);
        // Neither may poison a numeric gate downstream.
        assert!(empty.imbalance().is_finite());
        assert!(idle.imbalance().is_finite());
    }

    #[test]
    fn even_map_partition_is_roughly_balanced() {
        let t = tree(2000);
        let p = TaskPopulation::from_tree(&t, spec(), &EvenMap, 16, 27);
        assert_eq!(p.total(), t.num_leaves() as u64 * 27);
        assert!(p.imbalance() < 1.5, "imbalance {}", p.imbalance());
    }

    #[test]
    fn subtree_map_partition_is_lumpy() {
        let t = tree(2000);
        let even = TaskPopulation::from_tree(&t, spec(), &EvenMap, 8, 27);
        let local = TaskPopulation::from_tree(&t, spec(), &SubtreeMap::new(1), 8, 27);
        assert!(
            local.imbalance() > even.imbalance(),
            "locality map should be less balanced: {} vs {}",
            local.imbalance(),
            even.imbalance()
        );
    }

    #[test]
    fn edge_exact_counts_no_more_than_full() {
        let t = tree(500);
        let op = madness_mra::SeparatedConvolution::gaussian_sum(3, 10, 2, 1.0, 10.0);
        let disps = op.displacements();
        let exact = TaskPopulation::from_tree_exact(&t, spec(), &EvenMap, 4, &disps);
        let full = TaskPopulation::from_tree(&t, spec(), &EvenMap, 4, disps.len() as u64);
        assert!(exact.total() <= full.total());
        assert!(exact.total() > full.total() / 2);
    }
}
