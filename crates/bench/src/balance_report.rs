//! The `tablegen balance` report: dynamic load balancing on the lumpy
//! `CostPartition` cluster workload.
//!
//! A depth-1 `CostPartitionMap` on 16 nodes can place work on at most
//! `2^d = 8` subtree roots, leaving half the cluster idle — the lumpy
//! population the ISSUE 5 balancer exists for. The report runs that
//! population under every [`BalanceMode`] next to an evenly partitioned
//! control, printing makespan, cluster balance, and the migration
//! ledger. The `steal_not_worse` flag is the contract CI gates on:
//! the profit guard makes `Steal` structurally unable to regress below
//! `Static`, so a `false` here is a real bug, not bench noise.

use crate::common::{hybrid, spec, steal_mode};
use madness_cluster::balance::BalanceMode;
use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim};
use madness_cluster::workload::TaskPopulation;
use madness_mra::procmap::CostPartitionMap;
use madness_mra::synth::{synthesize_tree, SynthTreeParams};
use madness_trace::NullRecorder;

/// One `(population, mode)` outcome.
#[derive(Clone, Debug)]
pub struct BalanceRow {
    /// Population label (`lumpy` / `even`).
    pub workload: &'static str,
    /// Balance mode label.
    pub mode: &'static str,
    /// Makespan (seconds).
    pub secs: f64,
    /// Cluster balance in `[0, 1]` (mean busy / critical busy).
    pub balance: f64,
    /// Committed steals.
    pub steals: u64,
    /// Steal attempts deferred by the in-flight cap.
    pub blocked_steals: u64,
    /// Epochs that moved work.
    pub repartitions: u64,
    /// Tasks migrated.
    pub migrated_tasks: u64,
    /// Bytes migrated.
    pub migrated_bytes: u64,
}

/// The `tablegen balance` report.
#[derive(Clone, Debug)]
pub struct BalanceBenchReport {
    /// Nodes in the simulated partition.
    pub nodes: usize,
    /// Tasks per run.
    pub tasks: u64,
    /// Initial imbalance (max per-node tasks / mean) of the lumpy map.
    pub imbalance: f64,
    /// One row per `(population, mode)`.
    pub rows: Vec<BalanceRow>,
}

impl BalanceBenchReport {
    fn row(&self, workload: &str, mode: &str) -> &BalanceRow {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.mode == mode)
            .expect("mode matrix is fixed")
    }

    /// Lumpy-workload makespan improvement of `Steal` over `Static`.
    pub fn improvement(&self) -> f64 {
        let st = self.row("lumpy", "static").secs;
        let dy = self.row("lumpy", "steal").secs;
        1.0 - dy / st
    }

    /// The CI contract: `Steal` never regresses below `Static` — on
    /// either population.
    pub fn steal_not_worse(&self) -> bool {
        ["lumpy", "even"].iter().all(|w| {
            // Exact SimTime comparison happened in the simulator; at
            // this layer the seconds are already rounded through f64,
            // so compare with the same rounding on both sides.
            self.row(w, "steal").secs <= self.row(w, "static").secs
        })
    }
}

/// The lumpy population: the acceptance workload of ISSUE 5 — a
/// depth-1 `CostPartition` map over a clustered 4,000-leaf tree on 16
/// nodes, times the 27 displacement probes of a Coulomb apply.
fn lumpy_population(n: usize) -> TaskPopulation {
    let tree = synthesize_tree(
        3,
        10,
        &SynthTreeParams {
            target_leaves: 4_000,
            centers: vec![vec![0.3, 0.4, 0.5]],
            width: 0.12,
            level_decay: 0.5,
            seed: 11,
            with_coeffs: false,
        },
    );
    let map = CostPartitionMap::build(&tree, 1, n);
    TaskPopulation::from_tree(&tree, spec(), &map, n, 27)
}

/// The even control: same total task count spread uniformly.
fn even_population(n: usize, total: u64) -> TaskPopulation {
    let base = total / n as u64;
    let mut per_node = vec![base; n];
    per_node[0] += total - base * n as u64;
    TaskPopulation {
        spec: spec(),
        per_node,
    }
}

fn modes() -> [(&'static str, BalanceMode); 3] {
    [
        ("static", BalanceMode::Static),
        ("steal", steal_mode()),
        ("repartition", BalanceMode::Repartition { epochs: 4 }),
    ]
}

/// Runs the mode matrix on the lumpy and even 16-node populations.
pub fn balance_table() -> BalanceBenchReport {
    let n = 16;
    let lumpy = lumpy_population(n);
    let even = even_population(n, lumpy.total());
    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let mut rows = Vec::new();
    for (workload, pop) in [("lumpy", &lumpy), ("even", &even)] {
        for (mode, bmode) in modes() {
            let (report, bal) = sim.run_balanced(pop, hybrid(), bmode, &mut NullRecorder);
            rows.push(BalanceRow {
                workload,
                mode,
                secs: report.total.as_secs_f64(),
                balance: report.balance(),
                steals: bal.steals,
                blocked_steals: bal.blocked_steals,
                repartitions: bal.repartitions,
                migrated_tasks: bal.migrated_tasks,
                migrated_bytes: bal.migrated_bytes,
            });
        }
    }
    BalanceBenchReport {
        nodes: n,
        tasks: lumpy.total(),
        imbalance: lumpy.imbalance(),
        rows,
    }
}

/// Renders the table `tablegen balance` prints.
pub fn render(r: &BalanceBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10}{:<13}{:>10}{:>9}{:>8}{:>9}{:>8}{:>11}{:>13}",
        "workload",
        "mode",
        "time (s)",
        "balance",
        "steals",
        "blocked",
        "epochs",
        "migrated",
        "bytes moved"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<10}{:<13}{:>10.3}{:>9.3}{:>8}{:>9}{:>8}{:>11}{:>13}",
            row.workload,
            row.mode,
            row.secs,
            row.balance,
            row.steals,
            row.blocked_steals,
            row.repartitions,
            row.migrated_tasks,
            row.migrated_bytes,
        );
    }
    let _ = writeln!(
        out,
        "\n{} nodes, {} tasks; lumpy imbalance {:.2} (max/mean per-node tasks)",
        r.nodes, r.tasks, r.imbalance
    );
    let _ = writeln!(
        out,
        "steal vs static on lumpy: {:+.1}% makespan; steal_not_worse: {}",
        100.0 * r.improvement(),
        r.steal_not_worse()
    );
    out
}

/// Serializes the report as the `BENCH_cluster.json` trajectory point.
pub fn to_json(r: &BalanceBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"madness-bench-cluster-v1\",\n");
    out.push_str("  \"workload\": \"cost-partition-lumpy-16\",\n");
    let _ = writeln!(
        out,
        "  \"nodes\": {},\n  \"tasks\": {},\n  \"imbalance\": {:.4},",
        r.nodes, r.tasks, r.imbalance
    );
    let _ = writeln!(
        out,
        "  \"improvement\": {:.6},\n  \"steal_not_worse\": {},",
        r.improvement(),
        r.steal_not_worse()
    );
    out.push_str("  \"results\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        let comma = if i + 1 < r.rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"secs\": {:.6}, \
             \"balance\": {:.6}, \"steals\": {}, \"blocked_steals\": {}, \
             \"repartitions\": {}, \"migrated_tasks\": {}, \"migrated_bytes\": {}}}{comma}",
            row.workload,
            row.mode,
            row.secs,
            row.balance,
            row.steals,
            row.blocked_steals,
            row.repartitions,
            row.migrated_tasks,
            row.migrated_bytes,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lumpy_matrix_meets_the_acceptance_bars() {
        let r = balance_table();
        assert_eq!(r.rows.len(), 6);
        assert!(r.imbalance >= 2.0, "imbalance {:.2}", r.imbalance);
        assert!(
            r.improvement() >= 0.25,
            "steal improvement {:.1}% below the 25% bar",
            100.0 * r.improvement()
        );
        assert!(r.steal_not_worse());
        let steal = r.row("lumpy", "steal");
        assert!(steal.balance > 0.9, "balance {:.3}", steal.balance);
        assert!(steal.steals > 0 && steal.migrated_tasks > 0);
        // The even control gives the steal path nothing profitable to
        // move, so it must tie static (guarded by steal_not_worse) and
        // static itself must already be near-balanced.
        let even_static = r.row("even", "static");
        assert!(even_static.balance > 0.9, "{:.3}", even_static.balance);
    }

    #[test]
    fn json_carries_the_ci_gate_fields() {
        let r = balance_table();
        let json = to_json(&r);
        assert!(json.contains("\"schema\": \"madness-bench-cluster-v1\""));
        assert!(json.contains("\"steal_not_worse\": true"));
        assert!(json.contains("\"improvement\": "));
        assert!(json.contains("\"mode\": \"repartition\""));
        let rendered = render(&r);
        assert!(rendered.contains("steal_not_worse: true"));
        assert!(rendered.contains("lumpy"));
        assert!(rendered.contains("even"));
    }
}
