//! Shared benchmark plumbing: seeded inputs, order statistics, host facts,
//! and the per-run report every workload fills in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: every generated input of a run is drawn from one stream
/// seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_a2a0_0b5e_55ed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Set-ups per run: at least `SETUP_MIN`, then more until `SETUP_BUDGET_S`
/// seconds are spent or `SETUP_MAX` are done.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

/// Run a workload's set-up repeatedly, dropping each before the next, and
/// return the last one with the median set-up time (s): `setup_s`.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Percentile of an unsorted sample (`p` in 0..=100), interpolating
/// linearly between the two nearest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of the percentiles p99, p90, p75 and p50 that has enough
/// samples beyond it: `(percentile, value, samples beyond)`. p99 needs 50
/// (5000 samples), the others 10; below 20 samples the maximum is reported
/// as p100. Rarer percentiles, or p99 over a dozen samples, move with
/// the neighbours on a shared host more than with the program. The coarse
/// steps keep the percentile the same across runs of one workload.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let n = samples.len();
    for (p, needed) in [(99.0, 50), (90.0, 10), (75.0, 10), (50.0, 10)] {
        let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
        if beyond >= needed {
            return (p, percentile(samples, p), beyond);
        }
    }
    (100.0, percentile(samples, 100.0), 0)
}

pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// FNV-1a, fed incrementally (simulated-output and receive-buffer digests).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Host threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` from Linux's `<sys/resource.h>`: two timevals then
/// fourteen longs, of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Peak resident memory of this process (MiB).
pub fn peak_rss_mib() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage` and
    // RUSAGE_SELF (0) is a valid selector; the call only writes into it.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.maxrss as f64 / 1024.0
}

/// Last-level (L3) cache size in MiB as glibc reports it, 0 if unknown.
pub fn llc_mib() -> f64 {
    const SC_LEVEL3_CACHE_SIZE: i32 = 194;
    // SAFETY: sysconf takes a plain integer selector and has no other
    // preconditions; unknown selectors return -1.
    let bytes = unsafe { sysconf(SC_LEVEL3_CACHE_SIZE) };
    bytes.max(0) as f64 / (1024.0 * 1024.0)
}

/// One named, unit-carrying number of a run.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Gated metrics: end-to-end (`--trace 0`) or per-layer (`--trace 1`).
    pub metrics: BTreeMap<String, Metric>,
    /// Informational lines printed ahead of the JSON result.
    pub notes: Vec<String>,
    pub attempted: u64,
    /// Failed correctness gates (any entry fails the run); each counts as
    /// one failed op.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Ops attempted (at least 1) and failed checks, capped at attempted.
    pub fn counts(&self) -> (u64, u64) {
        let attempted = self.attempted.max(1);
        (attempted, (self.errors.len() as u64).min(attempted))
    }

    /// `error_rate`: failed, refused or mis-verified ops over attempted.
    pub fn error_rate(&self) -> f64 {
        let (attempted, failed) = self.counts();
        failed as f64 / attempted as f64
    }

    /// The run's last stdout line.
    pub fn json(&self) -> String {
        let (attempted, failed) = self.counts();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.errors.is_empty()
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
