//! The bench ledger: one report schema, one invariant check and one gate
//! for every `repro benchN` sweep.
//!
//! Each bench measures one in-run ratio, the same way the paper reports
//! its results against an in-run reference:
//!
//! | bench   | case      | gated ratio         | reference                 |
//! |---------|-----------|---------------------|---------------------------|
//! | BENCH_4 | algorithm | `speedup`           | legacy data executor      |
//! | BENCH_6 | algorithm | `speedup`           | sequential DES            |
//! | BENCH_7 | algorithm | `warm_over_cold`    | cold per-job stack        |
//! | BENCH_8 | policy    | `goodput_over_warm` | uncontended warm service  |
//!
//! A [`Report`] is the bench name, the machine, a run header of named
//! values and cells of a case, a block size and named metrics. Each
//! bench has one
//! `const` [`Spec`] ([`BENCH4`], [`BENCH6`], [`BENCH7`], [`BENCH8`]) that
//! names the header values and cell metrics the report must carry, the
//! gated ratio and its floors. [`Spec::check`] verifies a report's shape;
//! [`Spec::gate`] applies the floors:
//!
//! * every gated ratio, in the report and in the baseline, must be finite
//!   and positive — a NaN, ∞ or zero ratio fails rather than slipping past
//!   a `<` comparison;
//! * the hard floor bounds the report's geomean on its own, with no
//!   baseline;
//! * the geomean floor bounds the report's geomean as a fraction of the
//!   baseline's;
//! * the cell floor bounds each cell present in both reports as a fraction
//!   of its baseline cell.
//!
//! Ratios are portable across hosts because both sides of each run on the
//! same host in the same process; absolute rates are not, so nothing but
//! the ratio is gated.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Error, Serialize, Value};

use crate::harness::truncate;

/// Named numbers in insertion order, written as one JSON object. Integral
/// values are written as JSON integers; a non-finite value is written as
/// `null` and read back as NaN, so the gate still sees it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Named(pub Vec<(String, f64)>);

impl Named {
    /// The value of `name`, or NaN if there is none, so a missing value
    /// fails every check a NaN fails.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }

    pub(crate) fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(k, _)| k.as_str()).collect()
    }
}

impl<const N: usize> From<[(&str, f64); N]> for Named {
    fn from(values: [(&str, f64); N]) -> Self {
        Named(values.iter().map(|&(k, v)| (k.to_string(), v)).collect())
    }
}

impl Serialize for Named {
    fn serialize(&self) -> Value {
        Value::Object(self.fields().collect())
    }
}

impl Deserialize for Named {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object of numbers, got {v:?}")))?;
        Named::from_fields(fields)
    }
}

impl Named {
    fn fields(&self) -> impl Iterator<Item = (String, Value)> + '_ {
        self.0.iter().map(|&(ref k, v)| {
            let value = if v.is_finite() && v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
                if v >= 0.0 {
                    Value::U64(v as u64)
                } else {
                    Value::I64(v as i64)
                }
            } else {
                Value::F64(v)
            };
            (k.clone(), value)
        })
    }

    fn from_fields(fields: &[(String, Value)]) -> Result<Self, Error> {
        let number = |k: &str, v: &Value| match v {
            Value::Null => Ok(f64::NAN),
            v => v
                .as_f64()
                .ok_or_else(|| Error::custom(format!("{k}: expected number, got {v:?}"))),
        };
        fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), number(k, v)?)))
            .collect::<Result<_, _>>()
            .map(Named)
    }
}

/// One `(case, block size)` measurement, written as one flat JSON object:
/// `{"case": .., "bytes": .., <metric>: <value>, ..}`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The algorithm, or the overload policy for BENCH_8.
    pub case: String,
    /// Per-process block bytes.
    pub bytes: u64,
    pub metrics: Named,
}

impl Cell {
    pub fn new(case: impl Into<String>, bytes: u64, metrics: impl Into<Named>) -> Self {
        Cell {
            case: case.into(),
            bytes,
            metrics: metrics.into(),
        }
    }
}

impl Serialize for Cell {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("case".to_string(), self.case.serialize()),
            ("bytes".to_string(), self.bytes.serialize()),
        ];
        fields.extend(self.metrics.fields());
        Value::Object(fields)
    }
}

impl Deserialize for Cell {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected cell object, got {v:?}")))?;
        let field = |name| {
            serde::get_field(fields, name)
                .ok_or_else(|| Error::custom(format!("cell without `{name}`")))
        };
        let metrics: Vec<_> = fields
            .iter()
            .filter(|(k, _)| k != "case" && k != "bytes")
            .cloned()
            .collect();
        Ok(Cell {
            case: String::deserialize(field("case")?)?,
            bytes: u64::deserialize(field("bytes")?)?,
            metrics: Named::from_fields(&metrics)?,
        })
    }
}

/// One bench run: `BENCH_N.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// `"BENCH_4"`, `"BENCH_6"`, `"BENCH_7"` or `"BENCH_8"`.
    pub bench: String,
    pub machine: String,
    /// Run-wide values: `nodes`, `ppn`, `ranks`, and whatever else the
    /// bench's [`Spec::header`] lists.
    pub header: Named,
    pub cells: Vec<Cell>,
}

impl Report {
    /// Write `<dir>/<bench>.json` and return its path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.bench));
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// Read a report written by [`Report::save`].
    pub fn load(path: &Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Geometric mean of `metric` over all cells (NaN if there are none
    /// or a cell lacks the metric).
    pub fn geomean(&self, metric: &str) -> f64 {
        self.mean_ln(metric).exp()
    }

    fn mean_ln(&self, metric: &str) -> f64 {
        let sum: f64 = self.cells.iter().map(|c| c.metrics.get(metric).ln()).sum();
        sum / self.cells.len() as f64
    }
}

/// What one bench's report must carry and how it is gated.
#[derive(Debug)]
pub struct Spec {
    pub bench: &'static str,
    pub title: &'static str,
    /// Header values every report carries.
    pub header: &'static [&'static str],
    /// Metrics every cell carries, in table order.
    pub metrics: &'static [&'static str],
    /// Metrics that may be 0; every other metric must be > 0 in every
    /// cell.
    pub zero_ok: &'static [&'static str],
    /// Distinct cases and total cells of a full sweep.
    pub cases: usize,
    pub cells: usize,
    /// The gated in-run ratio (one of `metrics`).
    pub ratio: &'static str,
    /// The report's geomean ratio must be at least this fraction of the
    /// baseline's.
    pub geomean_floor: f64,
    /// Each cell's ratio must be at least this fraction of its baseline
    /// cell's.
    pub cell_floor: Option<f64>,
    /// The report's geomean ratio must be at least this, baseline or not.
    pub hard_floor: Option<f64>,
    /// Bench-specific invariants, appended to [`Spec::check`]'s findings.
    pub extra: fn(&Report, &mut Vec<String>),
}

/// BENCH_4 ([`crate::bench4`]): fast over legacy data-executor runs/sec.
/// The 48-cell geomean is stable to a few percent, so it gets the tight
/// 0.8 floor (a >20% regression fails); single cells swing ±25% with
/// scheduling noise on a busy host, so they get only the catastrophic 0.5
/// floor, which still catches one algorithm's path collapsing while the
/// geomean hides it.
pub const BENCH4: Spec = Spec {
    bench: "BENCH_4",
    title: "data-executor throughput, fast path vs legacy executor",
    header: &["nodes", "ppn", "ranks"],
    metrics: &[
        "messages_per_run",
        "fast_msgs_per_sec",
        "fast_bytes_per_sec",
        "legacy_msgs_per_sec",
        "legacy_bytes_per_sec",
        "speedup",
    ],
    zero_ok: &[],
    cases: 8,
    cells: 48,
    ratio: "speedup",
    geomean_floor: 0.8,
    cell_floor: Some(0.5),
    hard_floor: None,
    extra: no_extra,
};

/// BENCH_6 ([`crate::bench6`]): sharded over sequential DES events/sec,
/// gated exactly like BENCH_4. On a single-core host the speedups sit
/// near or below 1x; the gate still catches the sharded engine regressing
/// against the recorded ratio.
pub const BENCH6: Spec = Spec {
    bench: "BENCH_6",
    title: "simulator throughput, sharded vs sequential engine",
    header: &["nodes", "ppn", "ranks", "workers", "shards"],
    metrics: &[
        "events_per_run",
        "cross_events",
        "seq_events_per_sec",
        "par_events_per_sec",
        "speedup",
    ],
    zero_ok: &["cross_events"],
    cases: 8,
    cells: 16,
    ratio: "speedup",
    geomean_floor: 0.8,
    cell_floor: Some(0.5),
    hard_floor: None,
    extra: bench6_extra,
};

/// BENCH_7 ([`crate::bench7`]): warm service over cold per-job stack
/// jobs/sec. The hard 5x floor is the acceptance bar: a service that
/// recompiles, revalidates or relints on the hot path lands near 1x. The
/// baseline floor is a looser 0.5 and there is no cell floor, because
/// cold cells are bound by thread-scope parking, which scheduling noise
/// swings by integer factors per cell; on a busy 2-vCPU host even the
/// geomean moved between 25x and 95x across back-to-back runs.
pub const BENCH7: Spec = Spec {
    bench: "BENCH_7",
    title: "service throughput, warm cache vs cold stack",
    header: &["nodes", "ppn", "ranks", "workers", "tenants", "total_jobs"],
    metrics: &[
        "jobs",
        "cold_jobs_per_sec",
        "warm_jobs_per_sec",
        "warm_over_cold",
    ],
    zero_ok: &[],
    cases: 8,
    cells: 16,
    ratio: "warm_over_cold",
    geomean_floor: 0.5,
    cell_floor: None,
    hard_floor: Some(5.0),
    extra: no_extra,
};

/// BENCH_8 ([`crate::bench8`]): goodput under 2x+ queue overload over
/// the uncontended warm rate, per overload policy. Overload control may
/// refuse work but must not collapse throughput, so the geomean must stay
/// at 0.5x warm or better. Geomean, not min: Reject and ShedOldest
/// complete only a queue's worth of jobs per burst, so their single
/// ratios swing ±0.15 with scheduling noise. The baseline gate mirrors
/// BENCH_7's.
pub const BENCH8: Spec = Spec {
    bench: "BENCH_8",
    title: "goodput under queue overload, per policy vs the warm rate",
    header: &[
        "nodes",
        "ppn",
        "ranks",
        "workers",
        "tenants",
        "queue_capacity",
        "warm_jobs_per_sec",
    ],
    metrics: &[
        "offered",
        "completed",
        "refused",
        "goodput_jobs_per_sec",
        "goodput_over_warm",
    ],
    zero_ok: &["refused"],
    cases: 3,
    cells: 3,
    ratio: "goodput_over_warm",
    geomean_floor: 0.5,
    cell_floor: None,
    hard_floor: Some(0.5),
    extra: bench8_extra,
};

/// Every bench's spec, for lookup by [`Report::bench`].
pub const SPECS: [&Spec; 4] = [&BENCH4, &BENCH6, &BENCH7, &BENCH8];

fn no_extra(_: &Report, _: &mut Vec<String>) {}

/// Sharding: one shard per worker (workers are capped at the node count),
/// and any multi-shard run crosses shard boundaries.
fn bench6_extra(report: &Report, bad: &mut Vec<String>) {
    let h = |k| report.header.get(k);
    let shards = h("shards");
    if shards != h("workers").min(h("nodes")) {
        bad.push(format!(
            "shards = {shards}, expected min(workers, nodes) = {}",
            h("workers").min(h("nodes"))
        ));
    }
    if shards > 1.0 {
        for c in &report.cells {
            if !positive(c.metrics.get("cross_events")) {
                bad.push(format!(
                    "{} @ {} B: no cross-shard events across {shards} shards",
                    c.case, c.bytes
                ));
            }
        }
    }
}

/// Exactly the three overload policies, and the 2x burst overflows the
/// small queue under at least one refusing policy.
fn bench8_extra(report: &Report, bad: &mut Vec<String>) {
    let mut policies: Vec<&str> = report.cells.iter().map(|c| c.case.as_str()).collect();
    policies.sort_unstable();
    if policies != ["Block", "Reject", "ShedOldest"] {
        bad.push(format!(
            "policies {policies:?}, expected [Block, Reject, ShedOldest]"
        ));
    }
    let refused = |p: &str| {
        report
            .cells
            .iter()
            .find(|c| c.case == p)
            .map_or(0.0, |c| c.metrics.get("refused"))
    };
    if !(positive(refused("Reject")) || positive(refused("ShedOldest"))) {
        bad.push("neither Reject nor ShedOldest refused a job: the queue never overflowed".into());
    }
}

/// The spec for a report's bench name.
pub fn spec(bench: &str) -> Option<&'static Spec> {
    SPECS.into_iter().find(|s| s.bench == bench)
}

impl Spec {
    /// Aligned ASCII rendering of `report`, ending with the gated geomean.
    pub fn table(&self, report: &Report) -> String {
        let mut out = String::new();
        let header: Vec<String> = report
            .header
            .0
            .iter()
            .map(|(k, v)| format!("{k}={}", fmt_value(*v)))
            .collect();
        let _ = writeln!(
            out,
            "# {}: {} ({}: {})",
            self.bench,
            self.title,
            report.machine,
            header.join(" ")
        );
        let width = |m: &str| m.len().max(10);
        let _ = write!(out, "{:<28} {:>6}", "case", "bytes");
        for m in self.metrics {
            let _ = write!(out, " {:>w$}", m, w = width(m));
        }
        out.push('\n');
        for c in &report.cells {
            let _ = write!(out, "{:<28} {:>6}", truncate(&c.case, 28), c.bytes);
            for m in self.metrics {
                let v = fmt_value(c.metrics.get(m));
                let _ = write!(out, " {:>w$}", v, w = width(m));
            }
            out.push('\n');
        }
        let mut floors = vec![format!("{}x of baseline", self.geomean_floor)];
        floors.extend(self.cell_floor.map(|f| format!("{f}x per cell")));
        floors.extend(self.hard_floor.map(|f| format!("hard floor {f}x")));
        let _ = writeln!(
            out,
            "geomean {}: {:.2}x (gate: {})",
            self.ratio,
            report.geomean(self.ratio),
            floors.join(", ")
        );
        out
    }

    /// Shape invariants of a full sweep: the header echoes every
    /// `requested` value, `ranks == nodes * ppn`, the sweep has the
    /// expected cases and cells, every cell carries exactly
    /// [`Spec::metrics`], each of them > 0 unless in [`Spec::zero_ok`], plus
    /// the bench's [`Spec::extra`] invariants. Returns the violations.
    pub fn check(&self, report: &Report, requested: &[(&str, usize)]) -> Vec<String> {
        let mut bad = Vec::new();
        if report.bench != self.bench {
            bad.push(format!(
                "report is {}, expected {}",
                report.bench, self.bench
            ));
        }
        if report.header.names() != self.header {
            bad.push(format!(
                "header {:?}, expected {:?}",
                report.header.names(),
                self.header
            ));
        }
        for &(k, want) in requested {
            let got = report.header.get(k);
            if got != want as f64 {
                bad.push(format!("header {k} = {got}, requested {want}"));
            }
        }
        let h = |k| report.header.get(k);
        if h("ranks") != h("nodes") * h("ppn") {
            bad.push(format!(
                "ranks = {} but nodes x ppn = {} x {}",
                h("ranks"),
                h("nodes"),
                h("ppn")
            ));
        }
        let mut cases: Vec<&str> = report.cells.iter().map(|c| c.case.as_str()).collect();
        cases.sort_unstable();
        cases.dedup();
        if cases.len() != self.cases || report.cells.len() != self.cells {
            bad.push(format!(
                "{} cells over {} cases {cases:?}, expected {} over {}",
                report.cells.len(),
                cases.len(),
                self.cells,
                self.cases
            ));
        }
        for c in &report.cells {
            if c.metrics.names() != self.metrics {
                bad.push(format!(
                    "{} @ {} B: metrics {:?}, expected {:?}",
                    c.case,
                    c.bytes,
                    c.metrics.names(),
                    self.metrics
                ));
            }
            for m in self.metrics.iter().filter(|m| !self.zero_ok.contains(m)) {
                let v = c.metrics.get(m);
                if !positive(v) {
                    bad.push(format!(
                        "{} @ {} B: {m} = {v}, must be > 0",
                        c.case, c.bytes
                    ));
                }
            }
        }
        (self.extra)(report, &mut bad);
        bad
    }

    /// Gate `report`, and optionally `baseline`, on [`Spec::ratio`]: see
    /// the module doc for the rules. Returns the failures; empty passes.
    pub fn gate(&self, report: &Report, baseline: Option<&Report>) -> Vec<String> {
        let mut bad = Vec::new();
        let cur = self.valid_mean_ln(report, "report", &mut bad);
        if let (Some(cur), Some(floor)) = (cur, self.hard_floor) {
            if below(cur, floor.ln()) {
                bad.push(format!(
                    "geomean {} {:.2}x is below the hard floor {floor}x",
                    self.ratio,
                    cur.exp()
                ));
            }
        }
        let Some(base) = baseline else {
            return bad;
        };
        if base.bench != self.bench {
            bad.push(format!(
                "baseline is {}, expected {}",
                base.bench, self.bench
            ));
            return bad;
        }
        let base_ln = self.valid_mean_ln(base, "baseline", &mut bad);
        if let (Some(cur), Some(base_ln)) = (cur, base_ln) {
            if below(cur - base_ln, self.geomean_floor.ln()) {
                bad.push(format!(
                    "geomean {} at {:.2}x of baseline (floor {})",
                    self.ratio,
                    (cur - base_ln).exp(),
                    self.geomean_floor
                ));
            }
        }
        let Some(floor) = self.cell_floor else {
            return bad;
        };
        for b in &base.cells {
            let Some(c) = report
                .cells
                .iter()
                .find(|c| c.case == b.case && c.bytes == b.bytes)
            else {
                continue;
            };
            let ratio = c.metrics.get(self.ratio) / b.metrics.get(self.ratio);
            if below(ratio, floor) {
                bad.push(format!(
                    "{} @ {} B: {} at {ratio:.2}x of baseline (floor {floor})",
                    c.case, c.bytes, self.ratio
                ));
            }
        }
        bad
    }

    /// Mean log of the gated ratio, or `None` (with a finding per bad
    /// cell) unless there are cells and every ratio is finite and > 0.
    fn valid_mean_ln(&self, report: &Report, which: &str, bad: &mut Vec<String>) -> Option<f64> {
        let before = bad.len();
        if report.cells.is_empty() {
            bad.push(format!("{which} has no cells"));
        }
        for c in &report.cells {
            let v = c.metrics.get(self.ratio);
            if !(v.is_finite() && positive(v)) {
                bad.push(format!(
                    "{which} {} @ {} B: {} = {v} is not a finite positive ratio",
                    c.case, c.bytes, self.ratio
                ));
            }
        }
        (bad.len() == before).then(|| report.mean_ln(self.ratio))
    }
}

/// `x < floor`, and true for NaN: a gate comparison that cannot pass by
/// accident.
fn below(x: f64, floor: f64) -> bool {
    x.is_nan() || x < floor
}

/// `v > 0`, and false for NaN.
fn positive(v: f64) -> bool {
    v > 0.0
}

/// Integral values print without decimals, large rates rounded, small
/// ratios to three places.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 || v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Named {
        /// Overwrite an existing value.
        fn set(&mut self, name: &str, value: f64) {
            let slot = self.0.iter_mut().find(|(k, _)| k == name).unwrap();
            slot.1 = value;
        }
    }

    /// A one-cell report of `spec`'s bench with gated ratio `ratio`.
    fn one_cell(spec: &Spec, case: &str, ratio: f64) -> Report {
        let metrics = spec
            .metrics
            .iter()
            .map(|&m| (m.to_string(), if m == spec.ratio { ratio } else { 1.0 }))
            .collect();
        Report {
            bench: spec.bench.into(),
            machine: "bench".into(),
            header: Named::default(),
            cells: vec![Cell {
                case: case.into(),
                bytes: 64,
                metrics: Named(metrics),
            }],
        }
    }

    #[test]
    fn gate_applies_each_specs_floors() {
        // The base ratio sits well above every hard floor, so only the
        // baseline floors can trip.
        for spec in SPECS {
            let base = one_cell(spec, "a", 20.0);
            let gate = |ratio: f64, baseline: &Report| {
                spec.gate(&one_cell(spec, "a", ratio), Some(baseline))
            };
            assert!(gate(20.0, &base).is_empty(), "{}", spec.bench);
            // 0.7x of baseline: trips the 0.8 geomean floor of BENCH_4 and
            // BENCH_6 only; BENCH_7 and BENCH_8 have 0.5 headroom.
            let bad = gate(14.0, &base);
            let want = if spec.geomean_floor > 0.7 { 1 } else { 0 };
            assert_eq!(bad.len(), want, "{}: {bad:?}", spec.bench);
            // 0.4x: trips the geomean floor everywhere, and the cell floor
            // where there is one.
            let bad = gate(8.0, &base);
            assert_eq!(
                bad.len(),
                1 + spec.cell_floor.is_some() as usize,
                "{}: {bad:?}",
                spec.bench
            );
            assert!(bad[0].contains("geomean"), "{}: {bad:?}", spec.bench);
            // Unmatched baseline cells are ignored; the geomean floor
            // still applies.
            let bad = spec.gate(&one_cell(spec, "a", 8.0), Some(&one_cell(spec, "b", 20.0)));
            assert_eq!(bad.len(), 1, "{}: {bad:?}", spec.bench);
            assert!(bad[0].contains("geomean"), "{}: {bad:?}", spec.bench);
        }
    }

    #[test]
    fn hard_floors_pass_on_the_floor_and_fail_below_it() {
        let floors: Vec<_> = SPECS
            .into_iter()
            .filter_map(|s| s.hard_floor.map(|f| (s, f)))
            .collect();
        assert_eq!(floors.len(), 2);
        assert_eq!((floors[0].0.bench, floors[0].1), ("BENCH_7", 5.0));
        assert_eq!((floors[1].0.bench, floors[1].1), ("BENCH_8", 0.5));
        for (spec, floor) in floors {
            assert!(spec.gate(&one_cell(spec, "a", floor), None).is_empty());
            let below = floor * (1.0 - 1e-9);
            let bad = spec.gate(&one_cell(spec, "a", below), None);
            assert_eq!(bad.len(), 1, "{}: {bad:?}", spec.bench);
            assert!(bad[0].contains("hard floor"));
        }
        // Without a hard floor a tiny ratio passes on its own.
        assert!(BENCH4.gate(&one_cell(&BENCH4, "a", 0.01), None).is_empty());
    }

    #[test]
    fn gate_fails_on_non_finite_or_non_positive_ratios() {
        for spec in SPECS {
            let good = one_cell(spec, "a", 20.0);
            for bad_ratio in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
                let bad = one_cell(spec, "a", bad_ratio);
                assert!(
                    !spec.gate(&bad, None).is_empty(),
                    "{} {bad_ratio}",
                    spec.bench
                );
                assert!(
                    !spec.gate(&bad, Some(&good)).is_empty(),
                    "{} {bad_ratio}",
                    spec.bench
                );
                // A broken baseline fails too, instead of skipping the
                // geomean check or dividing into an infinite cell ratio.
                let found = spec.gate(&good, Some(&bad));
                assert!(
                    found.iter().any(|f| f.contains("baseline")),
                    "{} {bad_ratio}: {found:?}",
                    spec.bench
                );
            }
            let mut empty = good.clone();
            empty.cells.clear();
            assert!(!spec.gate(&empty, None).is_empty());
            assert!(!spec.gate(&good, Some(&empty)).is_empty());
            // A baseline of another bench is refused.
            let other = SPECS.into_iter().find(|s| s.bench != spec.bench).unwrap();
            assert!(!spec
                .gate(&good, Some(&one_cell(other, "a", 20.0)))
                .is_empty());
        }
    }

    #[test]
    fn report_round_trips_through_json_with_nan_preserved() {
        let mut report = one_cell(&BENCH8, "Reject", f64::NAN);
        report.header = Named::from([("nodes", 1.0), ("warm_jobs_per_sec", 98938.44093996305)]);
        report.cells[0].metrics.set("refused", 4761.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"nodes\": 1,"), "{json}");
        assert!(json.contains("\"refused\": 4761,"), "{json}");
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.bench, "BENCH_8");
        assert_eq!(back.header, report.header);
        assert_eq!(back.cells[0].case, "Reject");
        assert_eq!(back.cells[0].metrics.names(), BENCH8.metrics);
        assert!(back.cells[0].metrics.get("goodput_over_warm").is_nan());
        assert!(!BENCH8.gate(&back, None).is_empty());
        assert!(BENCH8.table(&back).contains("BENCH_8"));
    }

    fn baseline(n: u32) -> Report {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("baselines")
            .join(format!("BENCH_{n}_smoke.json"));
        Report::load(&path).unwrap()
    }

    #[test]
    fn checked_in_baselines_load_check_and_pass_their_own_gate() {
        for (n, want, cells, geomean) in [
            (4, &BENCH4, 48, "5.524566"),
            (6, &BENCH6, 16, "0.782566"),
            (7, &BENCH7, 16, "36.951238"),
            (8, &BENCH8, 3, "0.649658"),
        ] {
            let base = baseline(n);
            let spec = spec(&base.bench).unwrap();
            assert_eq!(spec.bench, want.bench);
            assert_eq!(base.cells.len(), cells, "BENCH_{n}");
            assert_eq!(
                format!("{:.6}", base.geomean(spec.ratio)),
                geomean,
                "BENCH_{n}"
            );
            let echo: Vec<(&str, usize)> = ["nodes", "workers"]
                .into_iter()
                .filter(|k| spec.header.contains(k))
                .map(|k| (k, base.header.get(k) as usize))
                .collect();
            assert!(
                spec.check(&base, &echo).is_empty(),
                "BENCH_{n}: {:?}",
                spec.check(&base, &echo)
            );
            assert!(spec.gate(&base, Some(&base)).is_empty(), "BENCH_{n}");
        }
    }

    #[test]
    fn check_catches_each_broken_invariant() {
        let base = baseline(6);
        let ok = [("nodes", 8), ("workers", 4)];
        assert!(BENCH6.check(&base, &ok).is_empty());
        let broken = |what: &str, edit: fn(&mut Report)| {
            let mut r = base.clone();
            edit(&mut r);
            let bad = BENCH6.check(&r, &ok);
            assert!(bad.iter().any(|f| f.contains(what)), "{what}: {bad:?}");
        };
        broken("nodes", |r| r.header.set("nodes", 4.0));
        broken("ranks", |r| r.header.set("ranks", 7.0));
        broken("shards", |r| r.header.set("shards", 2.0));
        broken("cells", |r| drop(r.cells.pop()));
        broken("metrics", |r| drop(r.cells[0].metrics.0.pop()));
        broken("> 0", |r| r.cells[3].metrics.set("events_per_run", 0.0));
        broken("cross-shard", |r| {
            r.cells[5].metrics.set("cross_events", 0.0)
        });
        assert!(!BENCH6.check(&base, &[("workers", 2)]).is_empty());
        assert!(!BENCH4.check(&base, &[]).is_empty(), "wrong bench");

        let b8 = baseline(8);
        assert!(BENCH8
            .check(&b8, &[("nodes", 1), ("workers", 4)])
            .is_empty());
        let mut renamed = b8.clone();
        renamed.cells[0].case = "Drop".into();
        assert!(!BENCH8.check(&renamed, &[]).is_empty());
        let mut unrefused = b8.clone();
        for c in &mut unrefused.cells {
            c.metrics.set("refused", 0.0);
        }
        let bad = BENCH8.check(&unrefused, &[]);
        assert!(bad.iter().any(|f| f.contains("refused")), "{bad:?}");
    }
}
