//! `sim-des`: the cluster event loops on calibrated affine node rates.
//! One call serves a long-horizon two-tenant trace under work stealing
//! with hedging, one node crash and its rejoin
//! (`run_served_survivable`), then runs a seeded chained DAG of about
//! 10⁴ tasks with one node crash and tail speculation
//! (`run_dag_survivable`). The node pipeline walk runs only inside the
//! serve loop's `NodeSim::calibrate`.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::{Cfg, Size, Workload};
use madness_cluster::dag::{
    run_dag_survivable, DagFaultSpec, DagMode, DagSurvivalSpec, DagTask, DagWorkload,
    SurvivableDagReport,
};
use madness_cluster::serve::{HedgeConfig, SurvivalConfig};
use madness_cluster::{
    BalanceMode, ClusterSim, NetworkModel, NodeParams, NodeRate, NodeSim, RateProfile,
    ResourceMode, ServeConfig, ServeReport, ShedPolicy, TenantSpec, WorkloadSpec,
};
use madness_faults::{FaultPlan, NodeFault, NodeTimeline, RecoveryPolicy};
use madness_gpusim::{KernelKind, SimTime};
use madness_mra::synth::splitmix64;
use madness_runtime::TenantId;
use madness_trace::{MemRecorder, NullRecorder, Recorder};
use std::time::Instant;

/// Sizes of one workload instance.
struct Shape {
    serve_nodes: usize,
    horizon: SimTime,
    dag_nodes: usize,
    chains: u32,
    iterations: u32,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            serve_nodes: 4,
            horizon: SimTime::from_secs_f64(30.0),
            dag_nodes: 8,
            chains: 48,
            iterations: 104,
        },
        Size::Tiny => Shape {
            serve_nodes: 4,
            horizon: SimTime::from_millis(500),
            dag_nodes: 4,
            chains: 12,
            iterations: 8,
        },
    }
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

fn hybrid() -> ResourceMode {
    ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    }
}

fn steal() -> BalanceMode {
    BalanceMode::Steal {
        min_batch: 60,
        max_inflight: 8,
    }
}

/// The serve node that crashes and rejoins, and the DAG node that
/// crashes. Both are fixed so that the recovery work does not depend on
/// the seed.
const SERVE_CRASH_NODE: usize = 1;
const DAG_CRASH_NODE: usize = 1;

/// `xs` shuffled by a Fisher–Yates pass driven by splitmix64 from
/// `state`: the seed picks the order, never the multiset.
fn shuffle(mut xs: Vec<u64>, state: &mut u64) -> Vec<u64> {
    for i in (1..xs.len()).rev() {
        *state = splitmix64(*state);
        xs.swap(i, (*state % (i as u64 + 1)) as usize);
    }
    xs
}

/// Two Poisson tenants at half the calibrated capacity of `nodes`
/// hybrid nodes (a latency tenant weighted 4, a batch tenant weighted 1),
/// with the 4 data kinds per tenant of the repository's serve reports.
fn serve_config(seed: u64, nodes: usize, horizon: SimTime, rate: NodeRate) -> ServeConfig {
    let tasks_per_request = 4;
    let per_req = rate.per_task.as_secs_f64() * tasks_per_request as f64;
    let total = 0.5 * nodes as f64 / per_req.max(1e-12);
    let tenant = |id: u32, weight: f64, deadline_ms: u64| TenantSpec {
        id: TenantId(id),
        weight,
        deadline: SimTime::from_millis(deadline_ms),
        profile: RateProfile::Poisson { rate: total / 2.0 },
        tasks_per_request,
    };
    ServeConfig {
        spec: spec(),
        tenants: vec![tenant(1, 4.0, 5), tenant(2, 1.0, 20)],
        nodes,
        seed,
        horizon,
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: 4,
    }
}

/// A seeded chained DAG: `chains` operator chains of `iterations`
/// (apply, update) pairs; every fourth iteration's apply also reads the
/// neighbouring chain's previous update (a mixing step), so chains do
/// not run in lockstep. The seed permutes a fixed multiset of costs, so
/// the total work is the same for every seed.
fn dag_workload(seed: u64, chains: u32, iterations: u32) -> DagWorkload {
    let n = u64::from(chains) * u64::from(iterations);
    let mut state = seed;
    let apply_costs = shuffle((0..n).map(|i| 30 + i % 31).collect(), &mut state);
    let update_costs = shuffle((0..n).map(|i| 5 + i % 8).collect(), &mut state);
    let mut w = DagWorkload::new();
    let mut prev: Vec<Option<usize>> = vec![None; chains as usize];
    for it in 0..iterations {
        let last = prev.clone();
        for c in 0..chains {
            let i = (it * chains + c) as usize;
            let mut deps: Vec<usize> = last[c as usize].into_iter().collect();
            if it % 4 == 3 {
                deps.extend(last[((c + 1) % chains) as usize]);
            }
            let apply = w.push(DagTask {
                chain: c,
                step: it * 2,
                stage: madness_trace::Stage::CpuCompute,
                cost: apply_costs[i],
                deps,
            });
            let update = w.push(DagTask {
                chain: c,
                step: it * 2 + 1,
                stage: madness_trace::Stage::Postprocess,
                cost: update_costs[i],
                deps: vec![apply],
            });
            prev[c as usize] = Some(update);
        }
    }
    w
}

/// What every call must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Outputs {
    serve_generated: u64,
    serve_completed: u64,
    serve_p99: SimTime,
    serve_makespan: SimTime,
    dag_makespan: SimTime,
    dag_attempts: u64,
}

pub struct SimDes {
    sim: ClusterSim,
    rate: NodeRate,
    serve_cfg: ServeConfig,
    serve_plans: Vec<FaultPlan>,
    survival: SurvivalConfig,
    dag: DagWorkload,
    dag_nodes: usize,
    dag_faults: DagFaultSpec,
    dag_survival: DagSurvivalSpec,
    calls: u64,
    last: Option<(ServeReport, SurvivableDagReport)>,
    first: Option<Outputs>,
}

impl SimDes {
    fn serve<R: Recorder>(&self, rec: &mut R) -> ServeReport {
        self.sim.run_served_survivable(
            &self.serve_cfg,
            hybrid(),
            steal(),
            &self.serve_plans,
            RecoveryPolicy::default(),
            &self.survival,
            rec,
        )
    }

    fn dag<R: Recorder>(&self, rec: &mut R) -> SurvivableDagReport {
        run_dag_survivable(
            &self.dag,
            self.dag_nodes,
            self.rate,
            self.sim.network(),
            DagMode::Dataflow,
            &self.dag_faults,
            &self.dag_survival,
            rec,
        )
    }
}

impl Workload for SimDes {
    const SETUPS: usize = 9;

    fn setup(cfg: &Cfg, tr: &mut Tracer, _v: &mut Values, prev: Option<Self>) -> Self {
        let shape = shape(cfg.size);
        let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
        let rate = tr.span("cluster", "NodeSim::calibrate", || {
            sim.node().calibrate(
                &spec(),
                hybrid(),
                &FaultPlan::none(),
                RecoveryPolicy::default(),
            )
        });

        // Serving: one node crashes at 40% of the horizon and rejoins at
        // 60%; hedging is on.
        let serve_cfg = serve_config(cfg.seed, shape.serve_nodes, shape.horizon, rate);
        let horizon_ns = shape.horizon.as_nanos();
        let mut serve_plans = vec![FaultPlan::none(); shape.serve_nodes];
        serve_plans[SERVE_CRASH_NODE] = FaultPlan::none()
            .with_node_crash_at(horizon_ns / 5 * 2)
            .with_node_rejoin_at(horizon_ns / 5 * 3);
        let survival = SurvivalConfig {
            hedge: Some(HedgeConfig::default()),
            ..SurvivalConfig::default()
        };

        // DAG: one node crashes a third of the way into the estimated
        // schedule; critical-path chain tails are speculated.
        let dag = tr.span("cluster", "DagWorkload::push", || {
            dag_workload(cfg.seed, shape.chains, shape.iterations)
        });
        let work: u64 = dag.tasks().iter().map(|t| t.cost).sum();
        let estimate = rate.startup + rate.per_task * (work / shape.dag_nodes as u64);
        let mut timeline = NodeTimeline::new(shape.dag_nodes);
        timeline.add(DAG_CRASH_NODE, NodeFault::CrashAt(estimate.as_nanos() / 3));
        let dag_survival = DagSurvivalSpec {
            timeline,
            checkpoint_every: SimTime::from_nanos((estimate.as_nanos() / 40).max(1_000)),
            detect: SimTime::from_micros(100),
            speculate_tails: true,
        };
        SimDes {
            sim,
            rate,
            serve_cfg,
            serve_plans,
            survival,
            dag,
            dag_nodes: shape.dag_nodes,
            dag_faults: DagFaultSpec {
                seed: cfg.seed,
                fail_rate: 0.02,
                backoff: SimTime::from_micros(50),
                max_retries: 2,
            },
            dag_survival,
            calls: 0,
            last: None,
            first: prev.and_then(|p| p.first),
        }
    }

    fn call(&mut self, tr: &mut Tracer, v: &mut Values) {
        let t = Instant::now();
        let serve = tr.span("cluster", "ClusterSim::run_served_survivable", || {
            self.serve(&mut NullRecorder)
        });
        let serve_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let dag = tr.span("cluster", "run_dag_survivable", || {
            self.dag(&mut NullRecorder)
        });
        let dag_s = t.elapsed().as_secs_f64();
        if self.calls > 0 {
            v.add("cluster.serve_s", serve_s);
            v.add("cluster.serve_req_per_s", serve.generated as f64 / serve_s);
            v.add("cluster.dag_s", dag_s);
            v.add("cluster.dag_tasks_per_s", dag.base.tasks as f64 / dag_s);
        }
        self.calls += 1;
        self.last = Some((serve, dag));
    }

    fn check(&mut self, v: &mut Values) -> bool {
        let (serve, dag) = self.last.take().expect("check follows a call");
        v.set("cluster.serve_requests", serve.generated as f64);
        v.set("cluster.serve_steals", serve.steals as f64);
        v.set("cluster.serve_hedges", serve.hedges_launched as f64);
        v.set("cluster.serve_recovered", serve.recovered_requests as f64);
        v.set("cluster.serve_p99_s", serve.overall.p99.as_secs_f64());
        v.set("cluster.dag_tasks", dag.base.tasks as f64);
        v.set("cluster.dag_attempts", dag.attempts_journaled as f64);
        v.set("cluster.dag_spec_copies", dag.speculative_copies as f64);
        v.set("cluster.dag_makespan_s", dag.base.makespan.as_secs_f64());
        let out = Outputs {
            serve_generated: serve.generated,
            serve_completed: serve.completed,
            serve_p99: serve.overall.p99,
            serve_makespan: serve.makespan,
            dag_makespan: dag.base.makespan,
            dag_attempts: dag.attempts_journaled,
        };
        let first = self.first.get_or_insert_with(|| out.clone());
        serve.conserved() && dag.conserved(self.dag_nodes) && *first == out
    }

    fn finish(&mut self, cfg: &Cfg, tr: &mut Tracer, v: &mut Values) -> u64 {
        if !cfg.trace {
            return 0;
        }
        // The serve loop's own calibration, called directly.
        let mut calib_s = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            tr.span("cluster", "NodeSim::calibrate", || {
                self.sim.node().calibrate(
                    &spec(),
                    hybrid(),
                    &FaultPlan::none(),
                    RecoveryPolicy::default(),
                )
            });
            calib_s.push(t.elapsed().as_secs_f64());
        }
        let calibrate_s = crate::metrics::median(&calib_s);
        v.set("cluster.calibrate_s", calibrate_s);
        if let Some(call_s) = v.get("call_s") {
            v.set("cluster.calibrate_share", calibrate_s / call_s);
        }
        // Journal cost: both loops once more with an in-memory recorder.
        let mut rec = MemRecorder::new();
        let t = Instant::now();
        tr.span("cluster", "ClusterSim::run_served_survivable(mem)", || {
            self.serve(&mut rec)
        });
        let serve_mem_s = t.elapsed().as_secs_f64();
        let serve_records = rec.journal().len();
        drop(rec);
        let mut rec = MemRecorder::new();
        let t = Instant::now();
        tr.span("cluster", "run_dag_survivable(mem)", || self.dag(&mut rec));
        let dag_mem_s = t.elapsed().as_secs_f64();
        v.set(
            "trace.records",
            (serve_records + rec.journal().len()) as f64,
        );
        let serve_s = v.get("cluster.serve_s").unwrap_or(0.0);
        let dag_s = v.get("cluster.dag_s").unwrap_or(0.0);
        v.set(
            "trace.overhead_s",
            (serve_mem_s - serve_s) + (dag_mem_s - dag_s),
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> NodeRate {
        NodeRate {
            startup: SimTime::from_micros(10),
            per_task: SimTime::from_micros(20),
        }
    }

    #[test]
    fn seed_changes_the_generated_inputs() {
        let h = SimTime::from_millis(50);
        let a = madness_cluster::generate_requests(&serve_config(1, 4, h, rate()));
        let b = madness_cluster::generate_requests(&serve_config(2, 4, h, rate()));
        assert!(!a.is_empty() && a != b);
        assert_eq!(
            a,
            madness_cluster::generate_requests(&serve_config(1, 4, h, rate()))
        );
        let (d1, d2) = (dag_workload(1, 6, 4), dag_workload(2, 6, 4));
        assert_eq!(d1.len(), d2.len());
        assert_ne!(d1, d2);
        let work = |w: &DagWorkload| {
            let mut costs: Vec<u64> = w.tasks().iter().map(|t| t.cost).collect();
            costs.sort_unstable();
            costs
        };
        assert_eq!(work(&d1), work(&d2), "the seed changes the work");
        assert_eq!(d1, dag_workload(1, 6, 4));
    }

    #[test]
    fn full_dag_is_about_ten_thousand_tasks() {
        let s = shape(Size::Full);
        let w = dag_workload(7, s.chains, s.iterations);
        assert!((9_000..11_000).contains(&w.len()), "{}", w.len());
    }
}
