//! The `tablegen dag` report: chained-operator workloads through the
//! DAG scheduler, dataflow vs. the barrier-synchronized baseline.
//!
//! The pinned workload is the two chained scenarios of `madness-core`
//! — a 3-orbital SCF fixed point and a 3-lane BSH operator chain —
//! lowered to timing-only [`DagWorkload`]s (costs from the real trees'
//! sizes and operator ranks) and executed on 2 calibrated nodes. The
//! matrix runs each scenario in [`DagMode::Dataflow`] and
//! [`DagMode::Barrier`], plus a faulted dataflow row; the gates CI
//! pins:
//!
//! * `overlap_positive` — every dataflow row shows nonzero inter-stage
//!   overlap, every barrier row shows exactly zero (the sweep-line
//!   metric is what the paper's asynchrony argument is about);
//! * `dataflow_not_slower` — removing the barrier never lengthens the
//!   makespan;
//! * `replay_identical` / `faulted_replay_identical` — re-running with
//!   the same seed reproduces the report and the trace journal
//!   byte-for-byte, fault injection included;
//! * `faults_absorbed` — the faulted row injects failures, retries or
//!   quarantines every one of them, and still completes the graph
//!   (chained tasks never deadlock on a failed predecessor).
//!
//! The chaos section (`tablegen dag`) crashes a node one third
//! into a 3-node SCF schedule and pins the survivable-execution gates:
//! `node_loss_conserved` (the widened attempt law and the journal
//! agree), chaos `replay_identical`, `recovery_not_slower_than_restart`
//! (frontier fold beats a from-scratch survivor rerun) and
//! `speculation_trims_critical_path` (a deterministic seed scan finds a
//! fault draw where racing a copy of the critical tail strictly wins).

use crate::common::{hybrid, ms};
use madness_cluster::dag::{
    run_dag, run_dag_survivable, DagFaultSpec, DagMode, DagRunReport, DagSurvivalSpec, DagTask,
    DagWorkload, SurvivableDagReport,
};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeRate, NodeSim};
use madness_cluster::workload::WorkloadSpec;
use madness_core::{BshChainApp, BshChainConfig, ScfApp, ScfConfig};
use madness_faults::{FaultPlan, NodeFault, NodeTimeline, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_trace::{MemRecorder, NullRecorder, Stage};

/// Nodes in the pinned cluster.
pub const NODES: usize = 2;

/// Nodes in the pinned chaos cluster (one crashes, two survive).
pub const CHAOS_NODES: usize = 3;

/// One `(scenario, mode)` outcome of the DAG matrix.
#[derive(Clone, Debug)]
pub struct DagRow {
    /// Scenario label (`scf` / `bsh-chain`).
    pub scenario: &'static str,
    /// Mode label (`dataflow` / `barrier` / `dataflow+faults`).
    pub mode: &'static str,
    /// The full execution outcome.
    pub report: DagRunReport,
}

/// The `tablegen dag` report.
#[derive(Clone, Debug)]
pub struct DagBenchReport {
    /// Nodes in the simulated cluster.
    pub nodes: usize,
    /// Calibrated per-task rate used by every row.
    pub per_task_ns: u64,
    /// One row per `(scenario, mode)`.
    pub rows: Vec<DagRow>,
    /// Fault-free dataflow rows replayed bit-identically (report and
    /// trace journal JSON).
    pub replay_identical: bool,
    /// The faulted dataflow row replayed bit-identically too.
    pub faulted_replay_identical: bool,
    /// The node-loss chaos section (`tablegen dag`).
    pub chaos: DagChaosReport,
}

/// The `tablegen dag` chaos section: the pinned SCF workload with a
/// mid-schedule node crash, recovered via frontier fold + lineage
/// replay, compared against the naive restart baseline; plus the
/// tail-speculation race on a skewed two-chain workload.
#[derive(Clone, Debug)]
pub struct DagChaosReport {
    /// Nodes in the chaos cluster.
    pub nodes: usize,
    /// The node that crashes.
    pub crash_node: usize,
    /// Crash instant (one third into the clean schedule).
    pub crash_at_ns: u64,
    /// Checkpoint cadence.
    pub checkpoint_every_ns: u64,
    /// The survivable execution outcome.
    pub report: SurvivableDagReport,
    /// Makespan of the same faulted run with no crash.
    pub clean_makespan_ns: u64,
    /// The naive baseline: abandon everything at the crash and rerun
    /// the whole workload from scratch on the survivors
    /// (`crash_at + survivor-only makespan`).
    pub restart_makespan_ns: u64,
    /// The chaos run replayed bit-identically (report and journal).
    pub replay_identical: bool,
    /// Journal attempt spans match the report ledger exactly.
    pub journal_matches_ledger: bool,
    /// First fault seed (deterministic scan) where racing a copy of
    /// the critical tail strictly beats the unspeculated run.
    pub speculation_seed: Option<u64>,
    /// Makespan with tail speculation at that seed.
    pub spec_makespan_ns: u64,
    /// Makespan without speculation at that seed.
    pub nospec_makespan_ns: u64,
    /// Copies launched / cancelled at that seed.
    pub spec_copies: u64,
    /// Copies cancelled at that seed.
    pub spec_cancelled: u64,
}

impl DagChaosReport {
    /// Node loss keeps the widened attempt law: every attempt is a
    /// completion, an injected failure, a crash-voided span or a
    /// speculation copy — and the journal agrees with the ledger.
    pub fn node_loss_conserved(&self) -> bool {
        self.report.crashes == 1 && self.report.conserved(self.nodes) && self.journal_matches_ledger
    }

    /// Frontier recovery beats abandoning the schedule and restarting
    /// from scratch on the survivors.
    pub fn recovery_not_slower_than_restart(&self) -> bool {
        self.report.base.makespan.as_nanos() <= self.restart_makespan_ns
    }

    /// Some seed makes the speculated tail strictly faster (the
    /// copy wins the race past a failing primary).
    pub fn speculation_trims_critical_path(&self) -> bool {
        self.speculation_seed.is_some() && self.spec_makespan_ns < self.nospec_makespan_ns
    }
}

impl DagBenchReport {
    fn row(&self, scenario: &str, mode: &str) -> &DagRow {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.mode == mode)
            .expect("matrix is fixed")
    }

    /// The headline contract: dataflow overlaps stages, barriers don't.
    pub fn overlap_positive(&self) -> bool {
        self.rows.iter().all(|r| {
            if r.mode == "barrier" {
                r.report.overlap_ns == 0
            } else {
                r.report.overlap_ns > 0
            }
        })
    }

    /// Removing the barrier never lengthens the makespan.
    pub fn dataflow_not_slower(&self) -> bool {
        ["scf", "bsh-chain"].iter().all(|s| {
            self.row(s, "dataflow").report.makespan <= self.row(s, "barrier").report.makespan
        })
    }

    /// Busy time, critical path and fault accounting are consistent in
    /// every row.
    pub fn conserved(&self) -> bool {
        self.rows.iter().all(|r| r.report.conserved(self.nodes))
    }

    /// The faulted row injected failures, accounted every one as a
    /// retry, a quarantine or an in-place exhaustion, and the graph
    /// still completed.
    pub fn faults_absorbed(&self) -> bool {
        let f = &self.row("scf", "dataflow+faults").report;
        f.injected > 0
            && f.injected == f.retries + f.quarantines + f.exhausted
            && f.tasks == self.row("scf", "dataflow").report.tasks
            && f.makespan >= self.row("scf", "dataflow").report.makespan
    }
}

/// The skewed two-chain workload the speculation race runs on: chain 1
/// is heavier, so its tail carries the static critical path and is the
/// speculation target.
fn skewed_tail_workload() -> DagWorkload {
    let mut w = DagWorkload::new();
    let mut prev: Vec<Option<usize>> = vec![None; 2];
    for it in 0..4u32 {
        for c in 0..2u32 {
            let deps: Vec<usize> = prev[c as usize].into_iter().collect();
            let apply = w.push(DagTask {
                chain: c,
                step: it * 2,
                stage: Stage::CpuCompute,
                cost: 40 + 25 * c as u64,
                deps,
            });
            let upd = w.push(DagTask {
                chain: c,
                step: it * 2 + 1,
                stage: Stage::Postprocess,
                cost: 8 + 3 * c as u64,
                deps: vec![apply],
            });
            prev[c as usize] = Some(upd);
        }
    }
    w
}

/// Runs the pinned node-loss scenario and the speculation seed scan.
fn dag_chaos_table(scf_w: &DagWorkload, rate: NodeRate, net: &NetworkModel) -> DagChaosReport {
    // Crash node 1 one third into the clean 3-node schedule.
    let clean = run_dag(
        scf_w,
        CHAOS_NODES,
        rate,
        net,
        DagMode::Dataflow,
        &faults(),
        &mut NullRecorder,
    );
    let crash_node = 1usize;
    let crash_at_ns = clean.makespan.as_nanos() / 3;
    let checkpoint_every = SimTime::from_micros(200);
    let mut tl = NodeTimeline::new(CHAOS_NODES);
    tl.add(crash_node, NodeFault::CrashAt(crash_at_ns));
    let surv = DagSurvivalSpec {
        timeline: tl,
        checkpoint_every,
        detect: SimTime::from_micros(100),
        speculate_tails: false,
    };

    let mut rec_a = MemRecorder::new();
    let a = run_dag_survivable(
        scf_w,
        CHAOS_NODES,
        rate,
        net,
        DagMode::Dataflow,
        &faults(),
        &surv,
        &mut rec_a,
    );
    let mut rec_b = MemRecorder::new();
    let b = run_dag_survivable(
        scf_w,
        CHAOS_NODES,
        rate,
        net,
        DagMode::Dataflow,
        &faults(),
        &surv,
        &mut rec_b,
    );
    let replay_identical = a == b && rec_a.to_json() == rec_b.to_json();
    let journal_matches_ledger = rec_a
        .spans()
        .filter(|s| s.stage != Stage::Migrate && s.stage != Stage::Recover)
        .count() as u64
        == a.attempts_journaled;

    // The naive baseline: declare the whole run lost at the crash and
    // start over on the two survivors.
    let restart = run_dag(
        scf_w,
        CHAOS_NODES - 1,
        rate,
        net,
        DagMode::Dataflow,
        &faults(),
        &mut NullRecorder,
    );
    let restart_makespan_ns = crash_at_ns + restart.makespan.as_nanos();

    // Deterministic seed scan: find a fault draw where racing a copy
    // of the critical tail strictly beats the unspeculated run.
    let sw = skewed_tail_workload();
    let spec = DagSurvivalSpec {
        speculate_tails: true,
        ..DagSurvivalSpec::none(NODES)
    };
    let mut speculation_seed = None;
    let (mut spec_ns, mut nospec_ns, mut copies, mut cancelled) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..200u64 {
        let f = DagFaultSpec {
            seed,
            fail_rate: 0.35,
            backoff: SimTime::from_micros(400),
            max_retries: 2,
        };
        let plain = run_dag(
            &sw,
            NODES,
            rate,
            net,
            DagMode::Dataflow,
            &f,
            &mut NullRecorder,
        );
        let raced = run_dag_survivable(
            &sw,
            NODES,
            rate,
            net,
            DagMode::Dataflow,
            &f,
            &spec,
            &mut NullRecorder,
        );
        if raced.base.makespan < plain.makespan {
            speculation_seed = Some(seed);
            spec_ns = raced.base.makespan.as_nanos();
            nospec_ns = plain.makespan.as_nanos();
            copies = raced.speculative_copies;
            cancelled = raced.cancelled_copies;
            break;
        }
    }

    DagChaosReport {
        nodes: CHAOS_NODES,
        crash_node,
        crash_at_ns,
        checkpoint_every_ns: checkpoint_every.as_nanos(),
        report: a,
        clean_makespan_ns: clean.makespan.as_nanos(),
        restart_makespan_ns,
        replay_identical,
        journal_matches_ledger,
        speculation_seed,
        spec_makespan_ns: spec_ns,
        nospec_makespan_ns: nospec_ns,
        spec_copies: copies,
        spec_cancelled: cancelled,
    }
}

fn spec(k: usize, rank: usize) -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k,
        rank,
        rr_mean_rank: None,
    }
}

fn faults() -> DagFaultSpec {
    DagFaultSpec {
        seed: 0xDA6_0001,
        fail_rate: 0.08,
        backoff: SimTime::from_micros(50),
        max_retries: 2,
    }
}

/// Calibrates the affine node rate both scenarios share.
pub fn pinned_rate(k: usize, rank: usize) -> NodeRate {
    NodeSim::new(NodeParams::default()).calibrate(
        &spec(k, rank),
        hybrid(),
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    )
}

fn run_pair(
    w: &DagWorkload,
    scenario: &'static str,
    rate: NodeRate,
    net: &NetworkModel,
    rows: &mut Vec<DagRow>,
) -> bool {
    let mut rec_a = MemRecorder::new();
    let a = run_dag(
        w,
        NODES,
        rate,
        net,
        DagMode::Dataflow,
        &DagFaultSpec::none(),
        &mut rec_a,
    );
    let mut rec_b = MemRecorder::new();
    let b = run_dag(
        w,
        NODES,
        rate,
        net,
        DagMode::Dataflow,
        &DagFaultSpec::none(),
        &mut rec_b,
    );
    let replay = a == b && rec_a.to_json() == rec_b.to_json();
    rows.push(DagRow {
        scenario,
        mode: "dataflow",
        report: a,
    });
    rows.push(DagRow {
        scenario,
        mode: "barrier",
        report: run_dag(
            w,
            NODES,
            rate,
            net,
            DagMode::Barrier,
            &DagFaultSpec::none(),
            &mut NullRecorder,
        ),
    });
    replay
}

/// Runs the pinned scenario × mode matrix and the replay pins.
pub fn dag_table() -> DagBenchReport {
    let scf = ScfApp::small(ScfConfig {
        orbitals: 3,
        ..ScfConfig::default()
    });
    let bsh = BshChainApp::small(BshChainConfig {
        lanes: 3,
        ..BshChainConfig::default()
    });
    let rate = pinned_rate(scf.cfg.k, scf.op.rank());
    let net = NetworkModel::default();

    let mut rows = Vec::new();
    let scf_w = scf.dag_workload();
    let bsh_w = bsh.dag_workload();
    let r1 = run_pair(&scf_w, "scf", rate, &net, &mut rows);
    let r2 = run_pair(&bsh_w, "bsh-chain", rate, &net, &mut rows);

    // The faulted dataflow row (the CI chaos gate) + its replay pin.
    let mut rec_a = MemRecorder::new();
    let fa = run_dag(
        &scf_w,
        NODES,
        rate,
        &net,
        DagMode::Dataflow,
        &faults(),
        &mut rec_a,
    );
    let mut rec_b = MemRecorder::new();
    let fb = run_dag(
        &scf_w,
        NODES,
        rate,
        &net,
        DagMode::Dataflow,
        &faults(),
        &mut rec_b,
    );
    let faulted_replay_identical = fa == fb && rec_a.to_json() == rec_b.to_json();
    rows.push(DagRow {
        scenario: "scf",
        mode: "dataflow+faults",
        report: fa,
    });

    DagBenchReport {
        nodes: NODES,
        per_task_ns: rate.per_task.as_nanos(),
        rows,
        replay_identical: r1 && r2,
        faulted_replay_identical,
        chaos: dag_chaos_table(&scf_w, rate, &net),
    }
}

/// Renders the table `tablegen dag` prints.
pub fn render(r: &DagBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11}{:<17}{:>7}{:>13}{:>13}{:>13}{:>9}{:>7}",
        "scenario",
        "mode",
        "tasks",
        "makespan(ms)",
        "critpath(ms)",
        "overlap(ms)",
        "inject",
        "retry"
    );
    for row in &r.rows {
        let rep = &row.report;
        let _ = writeln!(
            out,
            "{:<11}{:<17}{:>7}{:>13.3}{:>13.3}{:>13.3}{:>9}{:>7}",
            row.scenario,
            row.mode,
            rep.tasks,
            ms(rep.makespan),
            ms(rep.critical_path),
            rep.overlap_ns as f64 / 1e6,
            rep.injected,
            rep.retries + rep.quarantines,
        );
    }
    let _ = writeln!(
        out,
        "\n{} nodes, {} ns/task calibrated",
        r.nodes, r.per_task_ns
    );
    let _ = writeln!(
        out,
        "overlap_positive: {}; dataflow_not_slower: {}; conserved: {}; \
         replay_identical: {}; faulted_replay_identical: {}; faults_absorbed: {}",
        r.overlap_positive(),
        r.dataflow_not_slower(),
        r.conserved(),
        r.replay_identical,
        r.faulted_replay_identical,
        r.faults_absorbed()
    );
    let c = &r.chaos;
    let _ = writeln!(
        out,
        "\nchaos: node {} of {} crashed at {:.3} ms (checkpoint every {:.3} ms)",
        c.crash_node,
        c.nodes,
        c.crash_at_ns as f64 / 1e6,
        c.checkpoint_every_ns as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "  recovered {:.3} ms vs clean {:.3} ms vs restart {:.3} ms; \
         voided {}, replayed {}, migrated {} values ({} B), recovery {:.3} ms",
        ms(c.report.base.makespan),
        c.clean_makespan_ns as f64 / 1e6,
        c.restart_makespan_ns as f64 / 1e6,
        c.report.voided,
        c.report.replayed,
        c.report.migrated_values,
        c.report.migrated_bytes,
        c.report.recovery_ns as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "  speculation: seed {:?} trims {:.3} ms -> {:.3} ms ({} copies, {} cancelled)",
        c.speculation_seed,
        c.nospec_makespan_ns as f64 / 1e6,
        c.spec_makespan_ns as f64 / 1e6,
        c.spec_copies,
        c.spec_cancelled,
    );
    let _ = writeln!(
        out,
        "node_loss_conserved: {}; chaos replay_identical: {}; \
         recovery_not_slower_than_restart: {}; speculation_trims_critical_path: {}",
        c.node_loss_conserved(),
        c.replay_identical,
        c.recovery_not_slower_than_restart(),
        c.speculation_trims_critical_path(),
    );
    out
}

/// Serializes the report as the `BENCH_dag.json` trajectory point.
pub fn to_json(r: &DagBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"madness-bench-dag-v2\",\n");
    out.push_str("  \"workload\": \"scf3+bshchain3-2node\",\n");
    let _ = writeln!(
        out,
        "  \"nodes\": {},\n  \"per_task_ns\": {},",
        r.nodes, r.per_task_ns
    );
    let _ = writeln!(
        out,
        "  \"overlap_positive\": {},\n  \"dataflow_not_slower\": {},\n  \
         \"conserved\": {},\n  \"replay_identical\": {},\n  \
         \"faulted_replay_identical\": {},\n  \"faults_absorbed\": {},",
        r.overlap_positive(),
        r.dataflow_not_slower(),
        r.conserved(),
        r.replay_identical,
        r.faulted_replay_identical,
        r.faults_absorbed()
    );
    let c = &r.chaos;
    let _ = writeln!(
        out,
        "  \"node_loss_conserved\": {},\n  \
         \"recovery_not_slower_than_restart\": {},\n  \
         \"speculation_trims_critical_path\": {},",
        c.node_loss_conserved(),
        c.recovery_not_slower_than_restart(),
        c.speculation_trims_critical_path(),
    );
    let _ = writeln!(
        out,
        "  \"chaos\": {{\"nodes\": {}, \"crash_node\": {}, \"crash_at_ns\": {}, \
         \"checkpoint_every_ns\": {}, \"makespan_ns\": {}, \"clean_makespan_ns\": {}, \
         \"restart_makespan_ns\": {}, \"crashes\": {}, \"voided\": {}, \"replayed\": {}, \
         \"migrated_values\": {}, \"migrated_bytes\": {}, \"recovery_ns\": {}, \
         \"speculative_copies\": {}, \"cancelled_copies\": {}, \"attempts_journaled\": {}, \
         \"replay_identical\": {}, \"speculation_seed\": {}, \"spec_makespan_ns\": {}, \
         \"nospec_makespan_ns\": {}}},",
        c.nodes,
        c.crash_node,
        c.crash_at_ns,
        c.checkpoint_every_ns,
        c.report.base.makespan.as_nanos(),
        c.clean_makespan_ns,
        c.restart_makespan_ns,
        c.report.crashes,
        c.report.voided,
        c.report.replayed,
        c.report.migrated_values,
        c.report.migrated_bytes,
        c.report.recovery_ns,
        c.report.speculative_copies,
        c.report.cancelled_copies,
        c.report.attempts_journaled,
        c.replay_identical,
        c.speculation_seed
            .map_or("null".to_string(), |s| s.to_string()),
        c.spec_makespan_ns,
        c.nospec_makespan_ns,
    );
    out.push_str("  \"results\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        let rep = &row.report;
        let comma = if i + 1 < r.rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"tasks\": {}, \
             \"makespan_ns\": {}, \"critical_path_ns\": {}, \"overlap_ns\": {}, \
             \"busy_ns\": {}, \"injected\": {}, \"retries\": {}, \
             \"quarantines\": {}, \"exhausted\": {}}}{comma}",
            row.scenario,
            row.mode,
            rep.tasks,
            rep.makespan.as_nanos(),
            rep.critical_path.as_nanos(),
            rep.overlap_ns,
            rep.busy_ns,
            rep.injected,
            rep.retries,
            rep.quarantines,
            rep.exhausted,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_matrix_meets_the_acceptance_bars() {
        let r = dag_table();
        assert_eq!(r.rows.len(), 5);
        assert!(r.overlap_positive(), "rows: {:#?}", r.rows);
        assert!(r.dataflow_not_slower(), "rows: {:#?}", r.rows);
        assert!(r.conserved());
        assert!(r.replay_identical);
        assert!(r.faulted_replay_identical);
        assert!(r.faults_absorbed(), "rows: {:#?}", r.rows);
    }

    #[test]
    fn chaos_section_meets_the_acceptance_bars() {
        let r = dag_table();
        let c = &r.chaos;
        assert!(c.node_loss_conserved(), "chaos: {c:#?}");
        assert!(c.replay_identical);
        assert!(c.recovery_not_slower_than_restart(), "chaos: {c:#?}");
        assert!(c.speculation_trims_critical_path(), "chaos: {c:#?}");
        assert!(
            c.report.voided + c.report.replayed > 0,
            "the crash must cost lineage: {c:#?}"
        );
        assert!(c.report.migrated_values > 0, "state must move: {c:#?}");
        assert_eq!(c.spec_copies, c.spec_cancelled);
    }

    #[test]
    fn json_carries_the_ci_gate_fields() {
        let r = dag_table();
        let json = to_json(&r);
        assert!(json.contains("\"schema\": \"madness-bench-dag-v2\""));
        assert!(json.contains("\"overlap_positive\": true"));
        assert!(json.contains("\"dataflow_not_slower\": true"));
        assert!(json.contains("\"replay_identical\": true"));
        assert!(json.contains("\"faulted_replay_identical\": true"));
        assert!(json.contains("\"faults_absorbed\": true"));
        assert!(json.contains("\"node_loss_conserved\": true"));
        assert!(json.contains("\"recovery_not_slower_than_restart\": true"));
        assert!(json.contains("\"speculation_trims_critical_path\": true"));
        assert!(json.contains("\"mode\": \"dataflow+faults\""));
        assert!(json.contains("\"exhausted\""));
        assert!(json.contains("\"chaos\": {"));
        let rendered = render(&r);
        assert!(rendered.contains("overlap_positive: true"));
        assert!(rendered.contains("faults_absorbed: true"));
        assert!(rendered.contains("node_loss_conserved: true"));
    }
}
