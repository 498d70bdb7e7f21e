//! Runs the benchmark binary at tiny size: every metric is printed with
//! its unit, the exact counters repeat across calls and processes, and
//! the seed drives the generated inputs.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["apply-k10", "sim-table6", "sim-des"];

fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    let field = |line: &str, key: &str| {
        let from = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[from..from + line[from..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let from = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &line[from..];
    rest[..rest.find(',').expect("value end")]
        .parse()
        .expect("numeric value")
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let names = catalogue(section);
        assert!(!names.is_empty());
        for w in WORKLOADS {
            let line = run(w, 1, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{w}: {line}");
            for (name, unit) in &names {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{w} lacks {name}");
                let after = &line[line.find(&entry).unwrap()..];
                assert!(
                    after.contains(&format!("\"unit\": \"{unit}\"}}")),
                    "{w}: {name} unit"
                );
            }
            assert_eq!(
                line.matches("\"unit\": ").count(),
                names.len(),
                "{w}: extra metrics"
            );
            if !trace {
                for (name, _) in &names {
                    assert!(value(&line, name) > 0.0, "{w}: {name} is 0");
                }
            }
        }
    }
}

#[test]
fn exact_counters_repeat_across_calls_and_processes() {
    let counters = [
        ("apply-k10", "tensor.mtxmq_dispatches"),
        ("apply-k10", "core.batches"),
        ("sim-table6", "gpusim.batches"),
        ("sim-des", "cluster.serve_requests"),
        ("sim-des", "cluster.dag_attempts"),
    ];
    for w in WORKLOADS {
        // Within a run, a call whose counters differ from the first
        // call's counts as failed; two processes must agree as well.
        let (a, b) = (run(w, 3, true), run(w, 3, true));
        assert!(a.contains("\"failed\": 0, ") && b.contains("\"failed\": 0, "));
        assert!(value(&a, "bench.calls") >= 3.0);
        for (_, name) in counters.iter().filter(|(cw, _)| *cw == w) {
            let (x, y) = (value(&a, name), value(&b, name));
            assert!(x > 0.0, "{w}: {name} is 0");
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{w}: {name} differs across processes"
            );
        }
    }
}

#[test]
fn seed_changes_the_generated_serve_and_dag_inputs() {
    let (a, b) = (run("sim-des", 1, true), run("sim-des", 2, true));
    assert_ne!(
        value(&a, "cluster.serve_requests"),
        value(&b, "cluster.serve_requests")
    );
    assert_ne!(
        value(&a, "cluster.dag_makespan_s"),
        value(&b, "cluster.dag_makespan_s")
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "sim-des", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("spawn perfbench");
        assert!(!out.status.success());
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
