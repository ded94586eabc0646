//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around each call it makes
//! into a layer of the suite. A span's layer is the prefix of its name up
//! to the first `.` (`netsim.sharded` belongs to `netsim`); the benchmark's
//! own work (op bookkeeping, verification) is layer `bench`. With tracing
//! off, [`Tracer::span`] is a direct call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The op (cell, alltoall, job) the span belongs to.
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Innermost open span on the recording thread.
    open: Option<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as SpanId;
        let parent = self.open;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open = Some(id);
        let out = f(self);
        self.open = parent;
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval as a root span (e.g. a job's
    /// `submit` call, timed by the loop that interleaves many jobs).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: None,
                op,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per-layer self time (ms): each span's duration minus the part of
    /// its interval covered by its child spans, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *by_layer.entry(layer(s.name)).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Write every span as one CSV row:
    /// `id,name,start_ns,end_ns,parent,op` (`parent` empty for roots).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id,name,start_ns,end_ns,parent,op\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

/// The layer a span name belongs to.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The layers whose self time every traced run reports.
pub const LAYERS: [&str; 6] = ["bench", "netsim", "sched", "runtime", "lint", "service"];
