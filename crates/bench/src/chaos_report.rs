//! The `tablegen chaos-serve` report: node-loss recovery, hedged
//! requests, and overload brownout under live Poisson traffic.
//!
//! The pinned workload reuses the serving matrix's two-tenant traffic
//! on a 4-node cluster; the scenario matrix drives the survivable
//! serving layer through its contract:
//!
//! * `baseline` — no faults, inert survival config (pins the
//!   bit-identity escape hatch);
//! * `crash` — node 0 crashes mid-horizon; heartbeats declare it dead
//!   and its lineage re-executes on the survivors from the
//!   checkpoint + delta ledger;
//! * `crash+rejoin` — the crashed node rejoins cold and re-admits
//!   through the breaker probe ladder;
//! * `straggler` / `straggler+hedge` — a 4× straggler without and with
//!   deadline-aware hedging;
//! * `overload+shed` / `overload+brownout` — 3× overload on a bounded
//!   queue, shedding alone vs browning out (reduced-rank Apply) first.
//!
//! The gates CI pins from `BENCH_chaos.json`:
//!
//! * `node_loss_conserved` — the generalized conservation law
//!   `completed + rejected + shed + cancelled_hedges ==
//!   generated + hedges_launched` holds in every scenario;
//! * `no_request_lost_on_crash` — every generated request of the crash
//!   scenarios is completed, rejected, or shed exactly once;
//! * `hedge_p999_better` — hedging improves (or ties) the straggler
//!   p999 while actually launching hedges;
//! * `brownout_beats_shedding` — degrading first completes at least as
//!   much traffic as shedding alone, with fewer drops;
//! * `replay_identical` — the crash scenario replays bit-identically,
//!   journal included;
//! * `rejoin_recovers_throughput` — the rejoin scenario completes at
//!   least as many requests as leaving the node dead.

use crate::common::{hybrid, ms, steal_mode};
use crate::serve_report::pinned_config;
use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim};
use madness_cluster::serve::{
    BrownoutConfig, HedgeConfig, ServeReport, ShedPolicy, SurvivalConfig,
};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_trace::{MemRecorder, NullRecorder};

/// One scenario outcome of the chaos matrix.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// The full serving outcome.
    pub report: ServeReport,
}

/// The `tablegen chaos-serve` report.
#[derive(Clone, Debug)]
pub struct ChaosBenchReport {
    /// Nodes in the simulated cluster.
    pub nodes: usize,
    /// Offered load of the fault scenarios as a fraction of capacity.
    pub rho: f64,
    /// Offered load of the overload scenarios.
    pub overload_rho: f64,
    /// One row per scenario.
    pub rows: Vec<ChaosRow>,
    /// The crash scenario re-ran bit-identically, journal included.
    pub replay_identical: bool,
}

impl ChaosBenchReport {
    fn row(&self, scenario: &str) -> &ChaosRow {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario)
            .expect("scenario matrix is fixed")
    }

    /// The generalized conservation law holds in every scenario.
    pub fn node_loss_conserved(&self) -> bool {
        self.rows.iter().all(|r| r.report.conserved())
    }

    /// Every generated request of the crash scenarios terminates
    /// exactly once as completed, rejected, or shed — node loss never
    /// leaks a request, and every extra copy cancels.
    pub fn no_request_lost_on_crash(&self) -> bool {
        ["crash", "crash+rejoin"].iter().all(|s| {
            let rep = &self.row(s).report;
            rep.node_crashes > 0
                && rep.recovered_requests > 0
                && rep.generated == rep.completed + rep.rejected + rep.shed
                && rep.cancelled_hedges == rep.hedges_launched
        })
    }

    /// Hedging launches duplicates and improves (or ties) the
    /// straggler-inflated p999.
    pub fn hedge_p999_better(&self) -> bool {
        let plain = &self.row("straggler").report;
        let hedged = &self.row("straggler+hedge").report;
        hedged.hedges_launched > 0 && hedged.overall.p999 <= plain.overall.p999
    }

    /// Browning out first completes at least as much traffic as
    /// shedding alone, with no more drops.
    pub fn brownout_beats_shedding(&self) -> bool {
        let shed = &self.row("overload+shed").report;
        let brown = &self.row("overload+brownout").report;
        brown.brownout_engagements > 0
            && brown.degraded_tasks > 0
            && brown.completed >= shed.completed
            && brown.rejected + brown.shed <= shed.rejected + shed.shed
    }

    /// The rejoined node restores capacity: at least the dead-forever
    /// completion count, through the probe re-admission ladder.
    pub fn rejoin_recovers_throughput(&self) -> bool {
        let dead = &self.row("crash").report;
        let back = &self.row("crash+rejoin").report;
        back.rejoins > 0 && back.completed >= dead.completed
    }
}

/// Runs the pinned chaos matrix and the crash replay pin.
pub fn chaos_table() -> ChaosBenchReport {
    let nodes = 4;
    let rho = 0.6;
    let overload_rho = 3.0;
    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let (cfg, _) = pinned_config(&sim, nodes, rho);
    let survival = SurvivalConfig::default();
    let run = |plans: &[FaultPlan], surv: &SurvivalConfig, rec: &mut MemRecorder| {
        sim.run_served_survivable(
            &cfg,
            hybrid(),
            steal_mode(),
            plans,
            RecoveryPolicy::default(),
            surv,
            rec,
        )
    };

    let mut rows = Vec::new();
    rows.push(ChaosRow {
        scenario: "baseline",
        report: sim.run_served(&cfg, hybrid(), steal_mode(), &mut NullRecorder),
    });

    // Crash mid-horizon; replay pin on report + journal.
    let crash_at = SimTime::from_millis(40).as_nanos();
    let crash_plan = vec![FaultPlan::none().with_node_crash_at(crash_at)];
    let mut rec_a = MemRecorder::new();
    let crash_a = run(&crash_plan, &survival, &mut rec_a);
    let mut rec_b = MemRecorder::new();
    let crash_b = run(&crash_plan, &survival, &mut rec_b);
    let replay_identical = crash_a == crash_b && rec_a.to_json() == rec_b.to_json();
    rows.push(ChaosRow {
        scenario: "crash",
        report: crash_a,
    });

    let rejoin_plan = vec![FaultPlan::none()
        .with_node_crash_at(crash_at)
        .with_node_rejoin_at(SimTime::from_millis(60).as_nanos())];
    rows.push(ChaosRow {
        scenario: "crash+rejoin",
        report: run(&rejoin_plan, &survival, &mut MemRecorder::new()),
    });

    let straggler_plan = vec![FaultPlan::none().with_straggler(4.0)];
    rows.push(ChaosRow {
        scenario: "straggler",
        report: run(&straggler_plan, &survival, &mut MemRecorder::new()),
    });
    let hedging = SurvivalConfig {
        hedge: Some(HedgeConfig::default()),
        ..SurvivalConfig::default()
    };
    rows.push(ChaosRow {
        scenario: "straggler+hedge",
        report: run(&straggler_plan, &hedging, &mut MemRecorder::new()),
    });

    // Overload: bounded queue at 3x capacity, shedding vs brownout.
    let (mut over_cfg, _) = pinned_config(&sim, nodes, overload_rho);
    over_cfg.queue_capacity = 64;
    over_cfg.shed = ShedPolicy::DropOldest;
    rows.push(ChaosRow {
        scenario: "overload+shed",
        report: sim.run_served(&over_cfg, hybrid(), steal_mode(), &mut NullRecorder),
    });
    let brownout = SurvivalConfig {
        brownout: Some(BrownoutConfig::default()),
        ..SurvivalConfig::default()
    };
    rows.push(ChaosRow {
        scenario: "overload+brownout",
        report: sim.run_served_survivable(
            &over_cfg,
            hybrid(),
            steal_mode(),
            &[],
            RecoveryPolicy::default(),
            &brownout,
            &mut NullRecorder,
        ),
    });

    ChaosBenchReport {
        nodes,
        rho,
        overload_rho,
        rows,
        replay_identical,
    }
}

/// Renders the table `tablegen chaos-serve` prints.
pub fn render(r: &ChaosBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<19}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>11}{:>11}",
        "scenario", "reqs", "done", "drop", "hedge", "cancel", "recov", "p99 (ms)", "p999 (ms)"
    );
    for row in &r.rows {
        let rep = &row.report;
        let _ = writeln!(
            out,
            "{:<19}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>11.3}{:>11.3}",
            row.scenario,
            rep.generated,
            rep.completed,
            rep.rejected + rep.shed,
            rep.hedges_launched,
            rep.cancelled_hedges,
            rep.recovered_requests,
            ms(rep.overall.p99),
            ms(rep.overall.p999),
        );
    }
    let _ = writeln!(
        out,
        "\n{} nodes; fault scenarios at {:.0}% load, overload at {:.0}%",
        r.nodes,
        r.rho * 100.0,
        r.overload_rho * 100.0
    );
    let _ = writeln!(
        out,
        "node_loss_conserved: {}; no_request_lost_on_crash: {}; hedge_p999_better: {}",
        r.node_loss_conserved(),
        r.no_request_lost_on_crash(),
        r.hedge_p999_better()
    );
    let _ = writeln!(
        out,
        "brownout_beats_shedding: {}; replay_identical: {}; rejoin_recovers_throughput: {}",
        r.brownout_beats_shedding(),
        r.replay_identical,
        r.rejoin_recovers_throughput()
    );
    out
}

/// Serializes the report as the `BENCH_chaos.json` trajectory point.
pub fn to_json(r: &ChaosBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"madness-bench-chaos-v1\",\n");
    out.push_str("  \"workload\": \"poisson-2tenant-4node-nodeloss\",\n");
    let _ = writeln!(
        out,
        "  \"nodes\": {},\n  \"rho\": {:.3},\n  \"overload_rho\": {:.3},",
        r.nodes, r.rho, r.overload_rho
    );
    let _ = writeln!(
        out,
        "  \"node_loss_conserved\": {},\n  \"no_request_lost_on_crash\": {},\n  \
         \"hedge_p999_better\": {},\n  \"brownout_beats_shedding\": {},\n  \
         \"replay_identical\": {},\n  \"rejoin_recovers_throughput\": {},",
        r.node_loss_conserved(),
        r.no_request_lost_on_crash(),
        r.hedge_p999_better(),
        r.brownout_beats_shedding(),
        r.replay_identical,
        r.rejoin_recovers_throughput()
    );
    out.push_str("  \"results\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        let rep = &row.report;
        let comma = if i + 1 < r.rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scenario\": \"{}\", \"generated\": {}, \"completed\": {}, \
             \"rejected\": {}, \"shed\": {},",
            row.scenario, rep.generated, rep.completed, rep.rejected, rep.shed,
        );
        let _ = writeln!(
            out,
            "     \"hedges_launched\": {}, \"cancelled_hedges\": {}, \
             \"recovered_requests\": {}, \"node_crashes\": {}, \"rejoins\": {}, \
             \"breaker_trips\": {}, \"brownout_engagements\": {}, \"degraded_tasks\": {},",
            rep.hedges_launched,
            rep.cancelled_hedges,
            rep.recovered_requests,
            rep.node_crashes,
            rep.rejoins,
            rep.breaker_trips,
            rep.brownout_engagements,
            rep.degraded_tasks,
        );
        let _ = writeln!(
            out,
            "     \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}{comma}",
            rep.overall.p50.as_nanos(),
            rep.overall.p99.as_nanos(),
            rep.overall.p999.as_nanos(),
            rep.overall.max.as_nanos(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_meets_every_gate() {
        let r = chaos_table();
        assert_eq!(r.rows.len(), 7);
        assert!(r.node_loss_conserved(), "conservation must hold everywhere");
        assert!(
            r.no_request_lost_on_crash(),
            "crash rows: {:?} / {:?}",
            r.row("crash").report,
            r.row("crash+rejoin").report
        );
        assert!(
            r.hedge_p999_better(),
            "p999 plain {:?} vs hedged {:?} ({} hedges)",
            r.row("straggler").report.overall.p999,
            r.row("straggler+hedge").report.overall.p999,
            r.row("straggler+hedge").report.hedges_launched,
        );
        assert!(
            r.brownout_beats_shedding(),
            "shed {:?} vs brownout {:?}",
            r.row("overload+shed").report,
            r.row("overload+brownout").report,
        );
        assert!(r.replay_identical, "chaos replay must be bit-identical");
        assert!(
            r.rejoin_recovers_throughput(),
            "completed dead {} vs rejoined {}",
            r.row("crash").report.completed,
            r.row("crash+rejoin").report.completed,
        );
        // The baseline row is fault-free end to end.
        let base = &r.row("baseline").report;
        assert_eq!(base.hedges_launched + base.cancelled_hedges, 0);
        assert_eq!(base.node_crashes + base.breaker_trips, 0);
    }

    #[test]
    fn json_carries_the_ci_gate_fields() {
        let r = chaos_table();
        let json = to_json(&r);
        assert!(json.contains("\"schema\": \"madness-bench-chaos-v1\""));
        for gate in [
            "node_loss_conserved",
            "no_request_lost_on_crash",
            "hedge_p999_better",
            "brownout_beats_shedding",
            "replay_identical",
            "rejoin_recovers_throughput",
        ] {
            assert!(
                json.contains(&format!("\"{gate}\": true")),
                "gate {gate} must hold:\n{json}"
            );
        }
        assert!(json.contains("\"scenario\": \"crash+rejoin\""));
        assert!(json.contains("\"recovered_requests\": "));
        let rendered = render(&r);
        assert!(rendered.contains("no_request_lost_on_crash: true"));
        assert!(rendered.contains("replay_identical: true"));
    }
}
