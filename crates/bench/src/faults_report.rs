//! The `tablegen faults` report: graceful degradation under injected
//! faults on the Table I workload.
//!
//! Runs the single-node hybrid pipeline fault-free, then replays the
//! same workload under a ladder of deterministic fault schedules —
//! kernel-launch failures, transfer timeouts, stream stalls, a device
//! loss, a straggler — and prints each schedule's makespan degradation
//! next to the recovery ledger (retries, CPU fallbacks, quarantines,
//! re-admissions). The conservation column is the contract: every task
//! completes exactly once under every schedule.

use crate::common::hybrid;
use crate::tables;
use madness_cluster::node::{FaultSummary, NodeSim};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_trace::NullRecorder;

/// One fault schedule's outcome on the fixed workload.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// Human label of the schedule.
    pub label: String,
    /// Makespan under the schedule (seconds).
    pub secs: f64,
    /// Recovery ledger.
    pub summary: FaultSummary,
    /// Task conservation held (must always be true).
    pub conserved: bool,
}

/// The `tablegen faults` degradation report.
#[derive(Clone, Debug)]
pub struct FaultsReport {
    /// Fault-free hybrid makespan (seconds).
    pub clean_secs: f64,
    /// Apply tasks in the run.
    pub tasks: u64,
    /// One row per fault schedule.
    pub rows: Vec<FaultRow>,
}

/// The schedule ladder: one fault class at a time, then everything at
/// once. Seeds are fixed so the report is reproducible run to run.
fn schedules() -> Vec<(String, FaultPlan)> {
    vec![
        (
            "launch fail 5%".into(),
            FaultPlan::seeded(101).with_launch_fail_rate(0.05),
        ),
        (
            "launch fail 20%".into(),
            FaultPlan::seeded(102).with_launch_fail_rate(0.20),
        ),
        (
            "transfer timeout 10%".into(),
            FaultPlan::seeded(103).with_transfer_timeout_rate(0.10),
        ),
        (
            "stream stalls 10% x 2 ms".into(),
            FaultPlan::seeded(104).with_stream_stalls(0.10, 2_000_000),
        ),
        (
            "device lost @ 10 ms".into(),
            FaultPlan::none().with_device_lost_at(10_000_000),
        ),
        ("straggler 2x".into(), FaultPlan::none().with_straggler(2.0)),
        (
            "all of the above".into(),
            FaultPlan::seeded(105)
                .with_launch_fail_rate(0.20)
                .with_transfer_timeout_rate(0.10)
                .with_stream_stalls(0.10, 2_000_000)
                .with_device_lost_at(10_000_000)
                .with_straggler(2.0),
        ),
    ]
}

/// Runs the ladder on the Table I workload.
pub fn faults_table1() -> FaultsReport {
    let s = tables::coulomb_scenario(10, 1e-8, 4_000, None);
    let n_tasks = s.total_tasks();
    let node = NodeSim::new(s.node_params.clone());
    let clean = node.simulate(&s.spec, n_tasks, hybrid());
    let rows = schedules()
        .into_iter()
        .map(|(label, plan)| {
            let (report, summary) = node.simulate_faulty(
                &s.spec,
                n_tasks,
                hybrid(),
                &plan,
                RecoveryPolicy::default(),
                &mut NullRecorder,
            );
            FaultRow {
                label,
                secs: report.total.as_secs_f64(),
                summary,
                conserved: summary.conserved(n_tasks),
            }
        })
        .collect();
    FaultsReport {
        clean_secs: clean.total.as_secs_f64(),
        tasks: n_tasks,
        rows,
    }
}

/// Renders the degradation table `tablegen faults` prints.
pub fn render(r: &FaultsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26}{:>9}{:>8}{:>8}{:>8}{:>9}{:>6}{:>7}{:>11}",
        "schedule",
        "time (s)",
        "xclean",
        "fails",
        "retry",
        "fallback",
        "quar",
        "readm",
        "conserved"
    );
    let _ = writeln!(
        out,
        "{:<26}{:>9.1}{:>8.2}{:>8}{:>8}{:>9}{:>6}{:>7}{:>11}",
        "(fault-free)", r.clean_secs, 1.0, 0, 0, 0, 0, 0, "yes"
    );
    for row in &r.rows {
        let s = &row.summary;
        let _ = writeln!(
            out,
            "{:<26}{:>9.1}{:>8.2}{:>8}{:>8}{:>9}{:>6}{:>7}{:>11}",
            row.label,
            row.secs,
            row.secs / r.clean_secs,
            s.gpu_task_failures,
            s.gpu_retries,
            s.cpu_fallback_tasks,
            s.quarantines,
            s.readmissions,
            if row.conserved { "yes" } else { "LOST TASKS" },
        );
    }
    let _ = writeln!(
        out,
        "\n{} tasks per run; every schedule is seeded and replays bit-identically",
        r.tasks
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_conserves_and_degrades_sanely() {
        let r = faults_table1();
        assert!(r.clean_secs > 0.0);
        assert_eq!(r.rows.len(), schedules().len());
        for row in &r.rows {
            assert!(row.conserved, "{}: {:?}", row.label, row.summary);
            assert!(
                row.secs >= r.clean_secs * 0.95,
                "{} finished implausibly fast: {} vs clean {}",
                row.label,
                row.secs,
                r.clean_secs
            );
        }
        // The straggler row must roughly double the makespan.
        let straggler = &r.rows[5];
        let ratio = straggler.secs / r.clean_secs;
        assert!((1.5..2.5).contains(&ratio), "straggler ratio {ratio:.2}");
        // The kitchen-sink row must show actual recovery activity.
        let sink = &r.rows[6].summary;
        assert!(sink.gpu_task_failures > 0, "{sink:?}");
        assert!(sink.quarantines >= 1, "{sink:?}");
    }

    #[test]
    fn render_shows_ledger_and_conservation() {
        let r = faults_table1();
        let text = render(&r);
        assert!(text.contains("schedule"));
        assert!(text.contains("(fault-free)"));
        assert!(text.contains("straggler 2x"));
        assert!(text.contains("yes"));
        assert!(!text.contains("LOST TASKS"));
    }
}
