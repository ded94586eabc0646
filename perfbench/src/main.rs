//! The all-to-all suite's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-scaling|transpose-bulk|service-stream|service-admit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the same
//! workload with spans around every call into the suite and prints every
//! per-layer metric, each layer's self time and the tracing overhead.
//! Informational lines come first; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed correctness
//! gate makes the command exit 1. See `perfbench/README.md`.

mod common;
mod service;
mod sim;
mod trace;
mod transpose;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{llc_mib, median, nproc, tail, Report};
use trace::{Tracer, LAYERS};

pub const WORKLOADS: [&str; 4] = [
    "sim-scaling",
    "transpose-bulk",
    "service-stream",
    "service-admit",
];

/// Every end-to-end metric an untraced run prints, with its unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("netsim.simulate_ms", "ms"),
    ("netsim.sharded_ms", "ms"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.shard_speedup", "x"),
    ("netsim.cross_event_ratio", "fraction"),
    ("netsim.sim_latency_us", "us"),
    ("netsim.speedup_vs_system_mpi", "x"),
    ("netsim.self_ms", "ms"),
    ("sched.prepare_ms", "ms"),
    ("sched.validate_ms", "ms"),
    ("sched.exec_ms", "ms"),
    ("sched.exec_ops_per_s", "ops/s"),
    ("sched.messages", "count"),
    ("sched.message_bytes", "bytes"),
    ("sched.copy_bytes", "bytes"),
    ("sched.roofline_ratio", "x"),
    ("sched.memcpy_gib_per_s", "GiB/s"),
    ("sched.memcpy_mib", "MiB"),
    ("sched.working_set_mib", "MiB"),
    ("sched.fill_us", "us"),
    ("sched.check_us", "us"),
    ("sched.self_ms", "ms"),
    ("runtime.parallel_ms", "ms"),
    ("runtime.parallel_tail_ms", "ms"),
    ("runtime.parallel_ops_per_s", "ops/s"),
    ("runtime.self_ms", "ms"),
    ("lint.lint_ms", "ms"),
    ("lint.prove_ms", "ms"),
    ("lint.self_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.resolve_us", "us"),
    ("service.cache_hit_ratio", "fraction"),
    ("service.batch_ratio", "fraction"),
    ("service.scratch_builds", "count"),
    ("service.retries", "count"),
    ("service.prove_share", "fraction"),
    ("service.misses", "count"),
    ("service.compiled", "count"),
    ("service.evictions", "count"),
    ("service.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.llc_mib", "MiB"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The end-to-end metrics every untraced run reports. `peak_rss_mb` is
/// read by the caller as soon as the measured loop ends, before the
/// benchmark's own statistics and checks allocate.
pub fn end_to_end(
    rep: &mut Report,
    setup_s: f64,
    ops_per_s: f64,
    latency: Latency,
    peak_rss_mb: f64,
) {
    rep.set("setup_s", setup_s, "s");
    rep.set("ops_per_s", ops_per_s, "ops/s");
    rep.set("latency_p50_ms", latency.p50_ms, "ms");
    rep.set("latency_tail_ms", latency.tail_ms, "ms");
    rep.set("peak_rss_mb", peak_rss_mb, "MiB");
    rep.note(latency.tail_note);
}

/// Median and tail latency of a run, with how the tail was taken.
pub struct Latency {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_note: String,
}

impl Latency {
    /// Over every sample of the run; `what` names one sample's op.
    pub fn of(samples_ms: &[f64], what: &str) -> Self {
        let (p, tail_ms, beyond) = tail(samples_ms);
        Latency {
            p50_ms: median(samples_ms),
            tail_ms,
            tail_note: format!(
                "latency_tail_ms is p{p} of {} {what} samples ({beyond} beyond it)",
                samples_ms.len()
            ),
        }
    }
}

/// Layer self times, tracing overhead and host facts of a traced run;
/// writes the spans out and zero-fills layers the workload never entered.
pub fn per_layer(rep: &mut Report, tr: &Tracer, args: &Args, untraced_ops: f64, traced_ops: f64) {
    for (layer, self_ms) in tr.self_ms_by_layer() {
        assert!(
            LAYERS.contains(&layer),
            "span outside the known layers: {layer}"
        );
        rep.set(&format!("{layer}.self_ms"), self_ms, "ms");
    }
    rep.set(
        "trace.overhead_pct",
        (untraced_ops - traced_ops) / untraced_ops * 100.0,
        "%",
    );
    rep.note(format!(
        "tracing overhead: {untraced_ops:.4} ops/s untraced vs {traced_ops:.4} ops/s traced, \
         {} spans",
        tr.len()
    ));
    rep.set("host.nproc", nproc() as f64, "count");
    rep.set("host.llc_mib", llc_mib(), "MiB");
    let path = PathBuf::from("perfbench/out")
        .join(format!("{}-seed{}.spans.csv", args.workload, args.seed));
    match tr.write_csv(&path) {
        Ok(()) => rep.note(format!("spans written to {}", path.display())),
        Err(e) => rep.note(format!("spans not written ({}): {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = match args.workload.as_str() {
        "sim-scaling" => sim::run(&args),
        "transpose-bulk" => transpose::run(&args),
        "service-stream" => service::run(&args, service::Mode::Stream),
        _ => service::run(&args, service::Mode::Admit),
    };
    let (attempted, failed) = rep.counts();
    rep.note(format!(
        "error_rate {:.6} fraction ({failed} failed of {attempted} attempted)",
        rep.error_rate()
    ));
    let gated: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for name in rep.metrics.keys() {
        assert!(
            gated.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this mode"
        );
    }
    for (name, unit) in gated {
        if !rep.metrics.contains_key(name) {
            // A layer this workload never enters did no work.
            assert!(args.trace, "end-to-end metric {name} was not measured");
            rep.set(name, 0.0, unit);
        }
        let m = &rep.metrics[name];
        assert_eq!(m.unit, unit, "metric {name} reported in the wrong unit");
    }
    for line in &rep.notes {
        println!("# {line}");
    }
    for (name, m) in &rep.metrics {
        println!("{name:<32} {:>18.6} {}", m.value, m.unit);
    }
    for e in &rep.errors {
        println!("# GATE FAILED: {e}");
    }
    println!("{}", rep.json());
    if rep.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
