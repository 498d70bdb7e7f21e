//! Host-clock spans recorded from outside the library, around each call
//! the benchmark makes into a workspace layer.
//!
//! A disabled [`Tracer`] runs the closure and records nothing, so timed
//! runs are untraced. An enabled one keeps every span in memory (name,
//! layer, start, end, parent, id) and [`Tracer::dump`] writes them out
//! when the run ends. [`Tracer::attribute`] turns the spans inside a
//! window into per-layer self time plus the part of the window no span
//! covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// The workspace layers the benchmark opens spans on. `gpusim`,
/// `trace` and `faults` run only inside `core` and `cluster` calls, so
/// they get no span of their own until the program records spans inside.
pub const LAYERS: [&str; 5] = ["mra", "tensor", "runtime", "core", "cluster"];

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// One id per call, in start order.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer the called function belongs to (one of [`LAYERS`]).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-layer self time inside one window, plus what no span covers.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Seconds of self time per layer (every layer of [`LAYERS`]).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds of the window no span covers.
    pub unattributed_s: f64,
}

impl Attribution {
    /// `timing_s` minus self times minus the unattributed part. Self
    /// times and the unattributed part tile the attributed window by
    /// construction, so against a timing read from its own clock the
    /// residual is only the skew between the two clock reads.
    pub fn residual_s(&self, timing_s: f64) -> f64 {
        timing_s - self.self_s.values().sum::<f64>() - self.unattributed_s
    }
}

impl Tracer {
    /// A tracer whose epoch is `epoch` (the benchmark's process start).
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (used to interleave untraced calls in
    /// the traced run, so tracing overhead can be measured).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` on `layer`; spans opened before the
    /// matching [`Tracer::end`] become its children. Returns its id.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (innermost first).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Attribution of the window `[from_ns, to_ns)` to layers. A span's
    /// self time is its clipped duration minus the clipped durations of
    /// its direct children; the unattributed part is the window minus
    /// the union of top-level spans.
    pub fn attribute(&self, from_ns: u64, to_ns: u64) -> Attribution {
        let clip = |s: &Span| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns));
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += clip(s);
            }
        }
        let mut self_s: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        let mut covered = 0u64;
        for s in &self.spans {
            let own = clip(s).saturating_sub(child_ns[s.id]);
            *self_s.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
            if s.parent.is_none() {
                covered += clip(s);
            }
        }
        Attribution {
            self_s,
            unattributed_s: (to_ns - from_ns).saturating_sub(covered) as f64 * 1e-9,
        }
    }

    /// Total seconds of spans named `name`, clipped to the window.
    pub fn total_s(&self, name: &str, from_ns: u64, to_ns: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns)))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Writes every span as one JSON line to `out`.
    pub fn dump(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_and_unattributed_tile_the_window() {
        let mut tr = Tracer::new(true, Instant::now());
        let from = tr.now_ns();
        tr.span("core", "first", || spin(100_000));
        spin(200_000);
        let outer = tr.begin("cluster", "outer");
        spin(100_000);
        tr.span("mra", "inner", || spin(100_000));
        tr.end(outer);
        let to = tr.now_ns();
        let a = tr.attribute(from, to);
        let window = (to - from) as f64 * 1e-9;
        assert!(
            a.residual_s(window).abs() < 1e-12,
            "{}",
            a.residual_s(window)
        );
        assert!(a.unattributed_s >= 200e-6);
        assert!(a.self_s["core"] >= 100e-6);
        assert!(a.self_s["mra"] >= 100e-6);
        // The child's time leaves the parent's self time.
        assert!(a.self_s["cluster"] < tr.total_s("outer", from, to) - 99e-6);
        assert_eq!(a.self_s["tensor"], 0.0);
        assert_eq!(tr.spans[2].parent, Some(1));
    }

    #[test]
    fn window_clips_spans() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.span("core", "before", || spin(50_000));
        let from = tr.now_ns();
        tr.span("core", "inside", || spin(50_000));
        let to = tr.now_ns();
        let a = tr.attribute(from, to);
        assert!(a.self_s["core"] <= (to - from) as f64 * 1e-9);
        assert!(a.residual_s((to - from) as f64 * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        assert_eq!(tr.span("core", "x", || 7), 7);
        assert!(tr.spans.is_empty());
    }
}
