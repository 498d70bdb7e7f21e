//! `apply-k10`: the Full-fidelity Coulomb Apply at the Table I shape
//! (d = 3, k = 10, precision 1e-4), batched Hybrid with `max_batch` 60,
//! the custom kernel and 5 streams. Real tensor arithmetic, batching
//! and executor work; no simulator code runs.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::{Cfg, Size, Workload};
use madness_core::apply::{
    apply_batched, apply_cpu_reference, ApplyConfig, ApplyResource, ApplyStats,
};
use madness_core::coulomb::CoulombApp;
use madness_gpusim::KernelKind;
use madness_mra::tree::FunctionTree;
use madness_runtime::BatcherConfig;
use madness_tensor::flops::apply_task_flops;
use std::time::Instant;

/// Every call's tree must match the Algorithm 1 reference this closely.
const TOLERANCE: f64 = 1e-10;

/// `(k, precision)` of the workload at each size.
fn shape(size: Size) -> (usize, f64) {
    match size {
        Size::Full => (10, 1e-4),
        Size::Tiny => (4, 1e-3),
    }
}

fn config() -> ApplyConfig {
    ApplyConfig {
        resource: ApplyResource::Hybrid,
        batch: BatcherConfig {
            max_batch: 60,
            ..BatcherConfig::default()
        },
        kernel: Some(KernelKind::CustomMtxmq),
        streams: 5,
        threads: 10,
        rank_reduce_eps: None,
    }
}

/// The counters one call must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Exact {
    tasks: u64,
    batches: u64,
    gpu_tasks: u64,
    device_cache_hits: u64,
    /// `None` when the call ran with dispatch counting off (untraced).
    dispatches: Option<u64>,
}

pub struct ApplyK10 {
    app: CoulombApp,
    config: ApplyConfig,
    calls: u64,
    last: Option<(FunctionTree, ApplyStats, Option<u64>)>,
    /// The warm-up call's tree; later calls are compared against it and
    /// it is compared against the reference once, after the timed calls.
    warm: Option<FunctionTree>,
    /// Per checked call: max |tree − warm-up tree|, and whether the call
    /// passed its immediate checks (a failed call is counted once).
    diffs: Vec<(f64, bool)>,
    exact: Option<Exact>,
}

/// Max absolute coefficient difference between two trees over the
/// union of their coefficient-carrying nodes (a node missing on one
/// side counts as zeros).
fn max_abs_diff(a: &FunctionTree, b: &FunctionTree) -> f64 {
    let one_way = |x: &FunctionTree, y: &FunctionTree, both: bool| {
        x.iter()
            .filter_map(|(key, node)| node.coeffs.as_ref().map(|c| (key, c)))
            .map(
                |(key, c)| match y.get(key).and_then(|n| n.coeffs.as_ref()) {
                    Some(d) if both => c
                        .as_slice()
                        .iter()
                        .zip(d.as_slice())
                        .map(|(p, q)| (p - q).abs())
                        .fold(0.0, f64::max),
                    Some(_) => 0.0,
                    None => c.norm_inf(),
                },
            )
            .fold(0.0, f64::max)
    };
    one_way(a, b, true).max(one_way(b, a, false))
}

impl ApplyK10 {
    fn run_call(&self, tr: &mut Tracer) -> (FunctionTree, ApplyStats, Option<u64>) {
        let table = madness_tensor::kernel::global();
        let counting = tr.enabled() && table.is_some();
        if let (true, Some(t)) = (counting, table) {
            t.reset_dispatches();
            t.set_counting(true);
        }
        let (tree, stats) = tr.span("core", "apply_batched", || {
            apply_batched(&self.app.op, &self.app.tree, &self.config)
        });
        let dispatches = match (counting, table) {
            (true, Some(t)) => {
                t.set_counting(false);
                Some(t.entries().iter().map(|e| e.dispatches()).sum())
            }
            _ => None,
        };
        (tree, stats, dispatches)
    }
}

impl Workload for ApplyK10 {
    const SETUPS: usize = 5;

    fn setup(cfg: &Cfg, tr: &mut Tracer, v: &mut Values, prev: Option<Self>) -> Self {
        let (warm, diffs, exact) = match prev {
            Some(p) => (p.warm, p.diffs, p.exact),
            None => (None, Vec::new(), None),
        };
        let (k, precision) = shape(cfg.size);
        let t = Instant::now();
        let app = tr.span("mra", "CoulombApp::small", || {
            CoulombApp::small(k, precision)
        });
        v.add("mra.build_s", t.elapsed().as_secs_f64());
        ApplyK10 {
            app,
            config: config(),
            calls: 0,
            last: None,
            warm,
            diffs,
            exact,
        }
    }

    fn call(&mut self, tr: &mut Tracer, v: &mut Values) {
        let before = rayon::executor_stats();
        let t = Instant::now();
        let out = self.run_call(tr);
        let dt = t.elapsed().as_secs_f64();
        let after = rayon::executor_stats();
        let misses = out.1.host_cache.1 as f64;
        if self.calls == 0 {
            v.add("core.apply_cold_s", dt);
            v.add("mra.h_cache_misses.cold", misses);
        } else {
            v.add("core.apply_s", dt);
            v.add("mra.h_cache_misses.steady", misses);
            v.add(
                "runtime.parked_s",
                (after.parked_ns - before.parked_ns) as f64 * 1e-9,
            );
            v.add("runtime.steals", (after.steals - before.steals) as f64);
            v.add("runtime.tasks", (after.tasks - before.tasks) as f64);
        }
        self.calls += 1;
        self.last = Some(out);
    }

    fn check(&mut self, v: &mut Values) -> bool {
        let (tree, stats, dispatches) = self.last.take().expect("check follows a call");
        let exact = Exact {
            tasks: stats.tasks,
            batches: stats.batches,
            gpu_tasks: stats.gpu_tasks,
            device_cache_hits: stats.device_cache.0,
            dispatches,
        };
        v.set("core.tasks", exact.tasks as f64);
        v.set("core.batches", exact.batches as f64);
        v.set("core.gpu_tasks", exact.gpu_tasks as f64);
        v.set("gpusim.device_cache_hits", exact.device_cache_hits as f64);
        let gflop = apply_task_flops(3, self.app.op.k(), self.app.op.rank()) as f64
            * stats.tasks as f64
            * 1e-9;
        v.set("tensor.gflop", gflop);
        let mut ok = true;
        if let Some(n) = dispatches {
            v.set("tensor.mtxmq_dispatches", n as f64);
        }
        match &mut self.exact {
            None => self.exact = Some(exact),
            Some(first) => {
                ok &= first.tasks == exact.tasks
                    && first.batches == exact.batches
                    && first.gpu_tasks == exact.gpu_tasks
                    && first.device_cache_hits == exact.device_cache_hits;
                match (first.dispatches, exact.dispatches) {
                    (Some(a), Some(b)) => ok &= a == b,
                    (None, Some(_)) => first.dispatches = exact.dispatches,
                    _ => {}
                }
            }
        }
        match &self.warm {
            None => {
                self.diffs.push((0.0, ok));
                self.warm = Some(tree);
            }
            Some(warm) => self.diffs.push((max_abs_diff(&tree, warm), ok)),
        }
        ok
    }

    fn finish(&mut self, cfg: &Cfg, tr: &mut Tracer, v: &mut Values) -> u64 {
        let warm = self.warm.as_ref().expect("the warm-up call was checked");
        let t = Instant::now();
        let reference = tr.span("core", "apply_cpu_reference", || {
            apply_cpu_reference(&self.app.op, &self.app.tree)
        });
        v.set("core.reference_s", t.elapsed().as_secs_f64());
        let warm_err = max_abs_diff(warm, &reference);
        // |call − reference| ≤ |call − warm-up| + |warm-up − reference|.
        let errs: Vec<(f64, bool)> = self
            .diffs
            .iter()
            .map(|(d, ok)| (d + warm_err, *ok))
            .collect();
        v.set(
            "core.max_abs_err",
            errs.iter().map(|(e, _)| *e).fold(0.0, f64::max),
        );
        let apply_s = v.get("core.apply_s").unwrap_or(0.0);
        if apply_s > 0.0 {
            let gflop = v.get("tensor.gflop").unwrap_or(0.0);
            v.set("tensor.gflops_per_s", gflop / apply_s);
        }
        if cfg.trace {
            match serial_baseline(cfg) {
                Ok(serial_s) => {
                    v.set("core.serial_s", serial_s);
                    if apply_s > 0.0 {
                        v.set("runtime.speedup", serial_s / apply_s);
                    }
                }
                Err(e) => eprintln!("perfbench: serial baseline failed: {e}"),
            }
        }
        errs.iter().filter(|(e, ok)| *ok && *e > TOLERANCE).count() as u64
    }
}

/// Runs the batched call in a fresh process with a one-thread pool and
/// returns the child's timed-call seconds.
fn serial_baseline(cfg: &Cfg) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let size = match cfg.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let out = std::process::Command::new(exe)
        .args(["--serial-child", "--workload", "apply-k10", "--size", size])
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .ok_or_else(|| "child printed no time".to_string())
}

/// Body of the `--serial-child` process: one warm-up call, then one
/// timed call, whose seconds are printed.
pub fn serial_child(cfg: &Cfg) {
    madness_runtime::initialize_hot_path();
    let (k, precision) = shape(cfg.size);
    let app = CoulombApp::small(k, precision);
    let config = config();
    std::hint::black_box(apply_batched(&app.op, &app.tree, &config));
    let t = Instant::now();
    std::hint::black_box(apply_batched(&app.op, &app.tree, &config));
    println!("{}", t.elapsed().as_secs_f64());
}
