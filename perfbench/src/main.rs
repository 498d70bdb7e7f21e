//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <apply-k10|sim-table6|sim-des> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload for `--seconds`: it times steady calls
//! and, spread among them, several set-ups (each ends with one untimed
//! warm-up call), checks every call's output, and prints one JSON result
//! line last. See `perfbench/README.md` for what each
//! workload isolates and how to read the metrics.

mod apply;
mod des;
mod metrics;
mod spans;
mod table6;

use metrics::{median, result_line, Values};
use spans::{Tracer, LAYERS};
use std::time::Instant;

/// The layers a steady call is spanned on: `apply_batched` is `core`,
/// the simulator runs are `cluster`.
const CALL_LAYERS: [&str; 2] = ["core", "cluster"];

/// Workload size: `Full` is the benchmark, `Tiny` only exercises the
/// code paths (the benchmark's own tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Internal: run one single-threaded batched Apply and print its
    /// time (the `core.serial_s` baseline, spawned by the traced run).
    pub serial_child: bool,
}

/// One workload: its inputs, its call, and the checks on the call's
/// output. The harness owns timing, set-up repetition and attribution.
pub trait Workload: Sized {
    /// Set-ups per run; `setup_s` is their median.
    const SETUPS: usize;
    /// Builds the inputs (the harness makes the warm-up call). `prev` is
    /// the previous set-up, whose check state carries over so that every
    /// call of the run is compared against the same first outputs.
    fn setup(cfg: &Cfg, tr: &mut Tracer, v: &mut Values, prev: Option<Self>) -> Self;
    /// One call: the work `call_s` times, and nothing else.
    fn call(&mut self, tr: &mut Tracer, v: &mut Values);
    /// Checks the last call's output (untimed); false counts it failed.
    fn check(&mut self, v: &mut Values) -> bool;
    /// Work after the timed calls: deferred checks (returning how many
    /// calls failed them) and, in the traced run, the per-layer
    /// baselines.
    fn finish(&mut self, cfg: &Cfg, tr: &mut Tracer, v: &mut Values) -> u64;
}

fn parse_args() -> Result<Cfg, String> {
    let mut cfg = Cfg {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        size: Size::Full,
        serial_child: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--serial-child" {
            cfg.serial_child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cfg)
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host and build facts, printed before the result line.
fn print_facts(cfg: &Cfg, cpus: usize, workers: usize, v: &mut Values) {
    let avx = madness_tensor::kernel::simd_available();
    v.set("host.cpus", cpus as f64);
    v.set("runtime.workers", workers as f64);
    v.set("tensor.avx_available", f64::from(u8::from(avx)));
    let mut shapes = Vec::new();
    if let Some(table) = madness_tensor::kernel::global() {
        for e in table.entries() {
            let times: Vec<String> = madness_tensor::KernelId::ALL
                .iter()
                .map(|id| match e.time_ns(*id) {
                    Some(t) => format!("\"{}\": {t}", id.name()),
                    None => format!("\"{}\": null", id.name()),
                })
                .collect();
            shapes.push(format!(
                "\"{}-{}\": {{\"choice\": \"{}\", \"calibration_ns\": {{{}}}}}",
                e.d,
                e.k,
                e.choice.name(),
                times.join(", ")
            ));
            if (e.d, e.k) == (3, 10) {
                v.set("tensor.kernel.3-10", e.choice.index() as f64);
                let mut ts: Vec<u64> = madness_tensor::KernelId::ALL
                    .iter()
                    .filter_map(|id| e.time_ns(*id))
                    .collect();
                ts.sort_unstable();
                if ts.len() > 1 {
                    v.set(
                        "tensor.kernel.3-10.margin",
                        ts[1] as f64 / ts[0].max(1) as f64,
                    );
                }
            }
        }
    }
    println!(
        "{{\"facts\": {{\"workload\": \"{}\", \"seed\": {}, \"detected_cpus\": {cpus}, \"pool_workers\": {workers}, \"avx_candidate_available\": {avx}, \"kernel_table\": {{{}}}}}}}",
        cfg.workload,
        cfg.seed,
        shapes.join(", ")
    );
}

/// One set-up of `W`: builds the inputs (carrying `prev`'s check state)
/// and makes the warm-up call. Returns the workload and its wall seconds;
/// the caller checks the warm-up call.
fn set_up<W: Workload>(cfg: &Cfg, tr: &mut Tracer, v: &mut Values, prev: Option<W>) -> (W, f64) {
    let t = Instant::now();
    let mut w = W::setup(cfg, tr, v, prev);
    w.call(tr, v);
    (w, t.elapsed().as_secs_f64())
}

/// Runs workload `W` end to end and returns `(attempted, failed)`.
fn drive<W: Workload>(cfg: &Cfg, start: Instant, v: &mut Values) -> Result<(u64, u64), String> {
    let mut tr = Tracer::new(cfg.trace, start);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = tr.span("runtime", "rayon::initialize", rayon::initialize);
    if workers > cpus {
        return Err(format!(
            "{workers} pool workers exceed the host's {cpus} CPUs"
        ));
    }
    tr.span(
        "tensor",
        "kernel::ensure_autotuned",
        madness_tensor::kernel::ensure_autotuned,
    );
    let once_s = start.elapsed().as_secs_f64();
    v.set(
        "runtime.pool_s",
        tr.total_s("rayon::initialize", 0, u64::MAX),
    );
    v.set(
        "tensor.calibrate_s",
        tr.total_s("kernel::ensure_autotuned", 0, u64::MAX),
    );
    print_facts(cfg, cpus, workers, v);

    // Set-ups: each builds the inputs again and makes one warm-up call.
    // The first runs from process start. The others are spread evenly
    // over the measured window, between steady calls, so that a slow
    // spell of the shared host skews set-up samples no more than call
    // samples. The process-wide one-offs (pool, kernel table) happen
    // once; every later set-up is charged them, so each sample is a
    // whole set-up.
    let setups = if cfg.size == Size::Tiny { 2 } else { W::SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let (mut w, _) = set_up::<W>(cfg, &mut tr, v, None);
    let setup_to = tr.now_ns();
    setup_s.push(start.elapsed().as_secs_f64());
    let mut attempted = 1u64;
    let mut failed = u64::from(!w.check(v));

    // Steady calls; in the traced run every other call is untraced so
    // the tracing overhead is measured in the same process.
    let min_calls = 3;
    let mut call_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut attribution = Vec::new();
    let loop_start = Instant::now();
    while call_s.len() < min_calls
        || setup_s.len() < setups
        || loop_start.elapsed().as_secs_f64() < cfg.seconds
    {
        let due = cfg.seconds * setup_s.len() as f64 / setups as f64;
        if setup_s.len() < setups && loop_start.elapsed().as_secs_f64() >= due {
            tr.set_enabled(cfg.trace);
            let (next, own) = set_up::<W>(cfg, &mut tr, v, Some(w));
            w = next;
            setup_s.push(once_s + own);
            attempted += 1;
            failed += u64::from(!w.check(v));
            continue;
        }
        let traced = cfg.trace && call_s.len() % 2 == 0;
        tr.set_enabled(traced);
        let from = tr.now_ns();
        let t = Instant::now();
        w.call(&mut tr, v);
        let dt = t.elapsed().as_secs_f64();
        let to = tr.now_ns();
        attempted += 1;
        failed += u64::from(!w.check(v));
        call_s.push(dt);
        if traced {
            traced_s.push(dt);
            attribution.push((dt, tr.attribute(from, to)));
        } else {
            untraced_s.push(dt);
        }
    }
    v.set("setup_s", median(&setup_s));
    v.set("bench.setups", setups as f64);
    tr.set_enabled(cfg.trace);
    v.set("call_s", median(&call_s));
    v.set("bench.calls", call_s.len() as f64);
    failed += w.finish(cfg, &mut tr, v);

    if cfg.trace {
        // The first set-up runs from process start: its spans and gaps
        // tile that `setup_s` sample.
        let setup_attr = tr.attribute(0, setup_to);
        for layer in LAYERS {
            v.set(&format!("{layer}.setup_self_s"), setup_attr.self_s[layer]);
        }
        for layer in CALL_LAYERS {
            let per_call: Vec<f64> = attribution.iter().map(|(_, a)| a.self_s[layer]).collect();
            v.set(&format!("{layer}.self_s"), median(&per_call));
        }
        v.set("bench.setup_unattributed_s", setup_attr.unattributed_s);
        let un: Vec<f64> = attribution.iter().map(|(_, a)| a.unattributed_s).collect();
        v.set("bench.unattributed_s", median(&un));
        let res: Vec<f64> = attribution
            .iter()
            .map(|(dt, a)| a.residual_s(*dt))
            .collect();
        eprintln!(
            "{{\"residual_s\": {{\"setup\": {}, \"call\": {}}}}}",
            setup_attr.residual_s(setup_s[0]),
            median(&res)
        );
        v.set("bench.call_s.traced", median(&traced_s));
        v.set("bench.call_s.untraced", median(&untraced_s));
        v.set(
            "bench.trace_overhead_s",
            median(&traced_s) - median(&untraced_s),
        );
        let stderr = std::io::stderr();
        tr.dump(&mut stderr.lock())
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok((attempted, failed))
}

fn main() {
    let start = Instant::now();
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if cfg.serial_child {
        apply::serial_child(&cfg);
        return;
    }
    let mut v = Values::default();
    let outcome = match cfg.workload.as_str() {
        "apply-k10" => drive::<apply::ApplyK10>(&cfg, start, &mut v),
        "sim-table6" => drive::<table6::Table6>(&cfg, start, &mut v),
        "sim-des" => drive::<des::SimDes>(&cfg, start, &mut v),
        other => Err(format!(
            "unknown workload {other:?} (apply-k10, sim-table6, sim-des)"
        )),
    };
    let (attempted, failed) = match outcome {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    v.set("peak_rss_mib", peak_rss_mib());
    println!(
        "{}",
        result_line(failed == 0, attempted, failed, cfg.trace, &v)
    );
}
