//! `sim-table6`: the Table VI population (TDSE d = 4, k = 14, rank 100,
//! rank reduction on the CPU side, `CostPartitionMap` over 100 nodes)
//! through the node pipeline cost model. One call runs `ClusterSim::run`
//! in GpuOnly and in Hybrid mode, then `run_with_faults` in Hybrid mode
//! with a launch-failure plan on a few nodes. No real arithmetic and no
//! event loop run: this is the per-task `execute_batch` walk.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::{Cfg, Size, Workload};
use madness_cluster::{
    ClusterReport, ClusterSim, FaultSummary, NetworkModel, NodeParams, NodeSim, ResourceMode,
    TaskPopulation,
};
use madness_core::tdse::TdseApp;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::{KernelKind, SimTime};
use madness_mra::procmap::CostPartitionMap;
use madness_mra::synth::splitmix64;
use madness_trace::{MemRecorder, NullRecorder};
use std::time::Instant;

/// Table VI's tree seed (the bench harness's shared experiment seed):
/// the population is pinned, and `--seed` drives the fault draws.
const TREE_SEED: u64 = 0x0020_12C1;

/// `(leaves, nodes, faulty nodes)` at each size. The paper's 7,650
/// leaves (547k tasks) take ~15 s per call here, so the tree is shrunk
/// to fit several calls in one run.
fn shape(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (600, 100, 4),
        Size::Tiny => (120, 10, 2),
    }
}

fn gpu_mode() -> ResourceMode {
    ResourceMode::GpuOnly {
        streams: 5,
        kernel: KernelKind::CublasLike,
        data_threads: 14,
    }
}

fn hybrid_mode() -> ResourceMode {
    ResourceMode::Hybrid {
        compute_threads: 9,
        data_threads: 6,
        streams: 5,
        kernel: KernelKind::CublasLike,
    }
}

/// Launch-failure plans on `faulty` distinct nodes chosen from `seed`.
fn fault_plans(seed: u64, nodes: usize, faulty: usize) -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::none(); nodes];
    let mut state = seed;
    let mut placed = 0;
    while placed < faulty.min(nodes) {
        state = splitmix64(state);
        let node = (state % nodes as u64) as usize;
        if plans[node].is_empty() {
            plans[node] = FaultPlan::seeded(state).with_launch_fail_rate(0.05);
            placed += 1;
        }
    }
    plans
}

/// What one call must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Outputs {
    makespans: [SimTime; 3],
    sim_tasks: u64,
    batches: u64,
    gpu_task_failures: u64,
}

pub struct Table6 {
    sim: ClusterSim,
    pop: TaskPopulation,
    plans: Vec<FaultPlan>,
    calls: u64,
    last: Option<(Outputs, bool)>,
    first: Option<Outputs>,
}

fn batches(r: &ClusterReport) -> u64 {
    r.nodes.iter().map(|n| n.n_batches).sum()
}

impl Workload for Table6 {
    const SETUPS: usize = 9;

    fn setup(cfg: &Cfg, tr: &mut Tracer, v: &mut Values, prev: Option<Self>) -> Self {
        let (leaves, nodes, faulty) = shape(cfg.size);
        let t = Instant::now();
        let app = tr.span("core", "TdseApp::synthetic", || {
            TdseApp::synthetic(14, 100, leaves, TREE_SEED)
        });
        let spec = tr.span("core", "TdseApp::spec", || app.spec(Some(1e-6)));
        let map = tr.span("mra", "CostPartitionMap::build", || {
            CostPartitionMap::build(&app.tree, 4, nodes)
        });
        let pop = tr.span("cluster", "TaskPopulation::from_tree_exact", || {
            TaskPopulation::from_tree_exact(&app.tree, spec, &map, nodes, &app.op.displacements())
        });
        v.add("cluster.population_s", t.elapsed().as_secs_f64());
        Table6 {
            sim: ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default()),
            pop,
            plans: fault_plans(cfg.seed, nodes, faulty),
            calls: 0,
            last: None,
            first: prev.and_then(|p| p.first),
        }
    }

    fn call(&mut self, tr: &mut Tracer, v: &mut Values) {
        let before = rayon::executor_stats();
        let timed = |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut() -> ClusterReport| {
            let t = Instant::now();
            let r = tr.span("cluster", name, f);
            (r, t.elapsed().as_secs_f64())
        };
        let (gpu, gpu_s) = timed(tr, "ClusterSim::run(gpu)", &mut || {
            self.sim.run(&self.pop, gpu_mode())
        });
        let (hybrid, hybrid_s) = timed(tr, "ClusterSim::run(hybrid)", &mut || {
            self.sim.run(&self.pop, hybrid_mode())
        });
        let mut summaries: Vec<FaultSummary> = Vec::new();
        let (faulty, faulty_s) = timed(tr, "ClusterSim::run_with_faults", &mut || {
            let (r, s) = self.sim.run_with_faults(
                &self.pop,
                hybrid_mode(),
                &self.plans,
                RecoveryPolicy::default(),
                &mut NullRecorder,
            );
            summaries = s;
            r
        });
        let after = rayon::executor_stats();
        let conserved = faulty
            .nodes
            .iter()
            .zip(&self.pop.per_node)
            .zip(&summaries)
            .all(|((_, &n), s)| s.conserved(n))
            && summaries.len() == self.pop.per_node.len();
        let sim_tasks = gpu.total_tasks + hybrid.total_tasks + faulty.total_tasks;
        let out = Outputs {
            makespans: [gpu.total, hybrid.total, faulty.total],
            sim_tasks,
            batches: batches(&gpu) + batches(&hybrid) + batches(&faulty),
            gpu_task_failures: summaries.iter().map(|s| s.gpu_task_failures).sum(),
        };
        if self.calls > 0 {
            v.add("cluster.run_gpu_s", gpu_s);
            v.add("cluster.run_hybrid_s", hybrid_s);
            v.add("cluster.run_faulty_s", faulty_s);
            v.add(
                "cluster.walk_ns_per_task",
                (gpu_s + hybrid_s + faulty_s) * 1e9 / sim_tasks.max(1) as f64,
            );
            v.add(
                "runtime.parked_s",
                (after.parked_ns - before.parked_ns) as f64 * 1e-9,
            );
            v.add("runtime.steals", (after.steals - before.steals) as f64);
            v.add("runtime.tasks", (after.tasks - before.tasks) as f64);
        }
        self.calls += 1;
        self.last = Some((out, conserved));
    }

    fn check(&mut self, v: &mut Values) -> bool {
        let (out, conserved) = self.last.take().expect("check follows a call");
        v.set("cluster.sim_tasks", out.sim_tasks as f64);
        v.set("gpusim.batches", out.batches as f64);
        v.set("faults.gpu_task_failures", out.gpu_task_failures as f64);
        v.set("cluster.makespan_s.hybrid", out.makespans[1].as_secs_f64());
        let first = self.first.get_or_insert_with(|| out.clone());
        conserved && *first == out
    }

    fn finish(&mut self, cfg: &Cfg, tr: &mut Tracer, v: &mut Values) -> u64 {
        if !cfg.trace {
            return 0;
        }
        // Journal cost: the same recorded run with a null and an
        // in-memory recorder.
        let t = Instant::now();
        tr.span("cluster", "ClusterSim::run_recorded(null)", || {
            self.sim
                .run_recorded(&self.pop, hybrid_mode(), &mut NullRecorder)
        });
        let null_s = t.elapsed().as_secs_f64();
        let mut rec = MemRecorder::new();
        let t = Instant::now();
        tr.span("cluster", "ClusterSim::run_recorded(mem)", || {
            self.sim.run_recorded(&self.pop, hybrid_mode(), &mut rec)
        });
        let mem_s = t.elapsed().as_secs_f64();
        v.set("trace.records", rec.journal().len() as f64);
        v.set("trace.overhead_s", mem_s - null_s);
        0
    }
}
