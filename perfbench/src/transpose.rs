//! `transpose-bulk`: 32 nodes x 4 ppn = 128 ranks exchanging 4096 B
//! blocks with real bytes, for the 8-algorithm bench roster.
//!
//! One op is one alltoall through `DataExecutor::run_prepared` followed by
//! the same schedule through `ParallelExecutor::run` at `nproc` workers.
//! The end-to-end metrics time the sequential alltoall; the parallel one,
//! whose 250 ms wake-up stalls swing its rate by more than any regression
//! bound from run to run, is reported by the `runtime.*` layer metrics.
//! Both fill by copying send buffers generated once in setup; receive
//! buffers are compared with the verified transpose outside the timed
//! region. Each op builds its algorithm's `ExecScratch` and runs it once
//! untimed (first-touch page faults) before the timed call, so only one
//! scratch is resident at a time.

use std::time::Instant;

use a2a_bench::throughput::{bench4_grid, bench4_roster};
use a2a_core::{A2AContext, AlgoSchedule};
use a2a_runtime::ParallelExecutor;
use a2a_sched::{
    check_alltoall_rbuf, fill_alltoall_sbuf, validate, Bytes, DataExecutor, ExecScratch, ExecStats,
    PreparedSchedule,
};

use crate::common::{
    llc_mib, median, ms, nproc, peak_rss_mib, percentile, repeated_setup, tail, Report, Rng,
};
use crate::trace::Tracer;
use crate::{Args, Latency};

const NODES: usize = 32;
const BLOCK: Bytes = 4096;
const MIB: f64 = 1024.0 * 1024.0;
/// Passes the untraced loop makes at least: 40 samples, enough for the
/// tail to be p75 in every run.
const MIN_PASSES: usize = 5;

struct Setup {
    algos: Vec<String>,
    preps: Vec<PreparedSchedule<'static>>,
    sbufs: Vec<Vec<u8>>,
    /// The exact transpose of `sbufs`, checked with `check_alltoall_rbuf`.
    expected: Vec<Vec<u8>>,
    /// Each algorithm's traffic counters from its first op; every later op
    /// must repeat them exactly.
    first_stats: Vec<Option<ExecStats>>,
    /// Destination of the memcpy roofline (traced runs only).
    memcpy_dst: Option<Vec<u8>>,
}

fn setup(tr: &mut Tracer, rep: &mut Report) -> Setup {
    let grid = bench4_grid(NODES);
    let n = grid.world_size();
    let mut algos = Vec::new();
    let mut preps = Vec::new();
    for (i, algo) in bench4_roster().iter().enumerate() {
        let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), BLOCK));
        let prep = tr.span("sched.prepare", i as u64, |_| {
            PreparedSchedule::new_owned(&sched)
        });
        let valid = tr.span("sched.validate", i as u64, |_| validate(&prep, &grid));
        rep.gate(valid.is_ok(), || format!("{}: {valid:?}", algo.name()));
        algos.push(algo.name());
        preps.push(prep);
    }
    let row = n * BLOCK as usize;
    let sbufs: Vec<Vec<u8>> = (0..n)
        .map(|r| {
            let mut buf = vec![0u8; row];
            tr.span("sched.fill", r as u64, |_| {
                fill_alltoall_sbuf(r as u32, n, BLOCK, &mut buf)
            });
            buf
        })
        .collect();
    let b = BLOCK as usize;
    let expected: Vec<Vec<u8>> = (0..n)
        .map(|r| {
            let mut buf = vec![0u8; row];
            for (src, sbuf) in sbufs.iter().enumerate() {
                buf[src * b..(src + 1) * b].copy_from_slice(&sbuf[r * b..(r + 1) * b]);
            }
            let ok = tr.span("sched.check", r as u64, |_| {
                check_alltoall_rbuf(r as u32, n, BLOCK, &buf)
            });
            rep.gate(ok.is_ok(), || format!("expected transpose: {ok:?}"));
            buf
        })
        .collect();
    Setup {
        first_stats: vec![None; preps.len()],
        algos,
        preps,
        sbufs,
        expected,
        memcpy_dst: None,
    }
}

/// Per-op timings of one measured loop.
#[derive(Default)]
struct Loop {
    seq_ms: Vec<f64>,
    par_ms: Vec<f64>,
    /// `seq_ms` over the in-run memcpy time of the same bytes.
    roofline: Vec<f64>,
    memcpy_gib_s: Vec<f64>,
}

/// Run passes over the roster, in seeded order, for `seconds` (whole
/// passes, at least `min_passes`). One op per algorithm per pass.
fn measure(
    s: &mut Setup,
    rng: &mut Rng,
    seconds: f64,
    min_passes: usize,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Loop {
    let workers = nproc();
    let mut lp = Loop::default();
    let t0 = Instant::now();
    let mut op = rep.attempted;
    let mut passes = 0;
    while passes < min_passes || t0.elapsed().as_secs_f64() < seconds {
        passes += 1;
        // Memory roofline: copy every send buffer once (the payload).
        let bw = s.memcpy_dst.as_mut().map(|dst| {
            let t = Instant::now();
            for (chunk, sbuf) in dst.chunks_mut(s.sbufs[0].len()).zip(&s.sbufs) {
                chunk.copy_from_slice(std::hint::black_box(sbuf));
            }
            let secs = t.elapsed().as_secs_f64();
            let gib_s = dst.len() as f64 / (1024.0 * MIB) / secs;
            lp.memcpy_gib_s.push(gib_s);
            gib_s
        });
        for a in rng.permutation(s.preps.len()) {
            let (prep, sbufs) = (&s.preps[a], &s.sbufs);
            let fill = |r: u32, buf: &mut [u8]| {
                let src = &sbufs[r as usize];
                buf[..src.len()].copy_from_slice(src)
            };
            let mut scratch = ExecScratch::new(prep);
            let warm = DataExecutor::run_prepared(prep, &mut scratch, fill);
            let name = &s.algos[a];
            rep.gate(warm.is_ok(), || {
                format!("{name}: warm-up run failed: {warm:?}")
            });
            op += 1;
            rep.attempted += 1;
            let (seq, par, t_seq, t_par) = tr.span("bench.op", op, |tr| {
                let t = Instant::now();
                let seq = tr.span("sched.exec", op, |_| {
                    DataExecutor::run_prepared(prep, &mut scratch, fill)
                });
                let t_seq = t.elapsed();
                let t = Instant::now();
                let par = tr.span("runtime.parallel", op, |_| {
                    ParallelExecutor::run(prep, workers, fill)
                });
                (seq, par, t_seq, t.elapsed())
            });
            lp.seq_ms.push(ms(t_seq));
            lp.par_ms.push(ms(t_par));
            tr.span("bench.verify", op, |_| match (seq, par) {
                (Ok(stats), Ok(out)) => {
                    let bytes = stats.message_bytes + stats.copy_bytes;
                    if let Some(gib_s) = bw {
                        let copy_ms = bytes as f64 / (1024.0 * MIB) / gib_s * 1e3;
                        lp.roofline.push(ms(t_seq) / copy_ms);
                    }
                    let seq_ok = (0..s.expected.len())
                        .all(|r| scratch.rbuf(r as u32) == s.expected[r].as_slice());
                    rep.gate(seq_ok, || {
                        format!("{name}: DataExecutor receive buffers wrong")
                    });
                    rep.gate(out.rbufs == s.expected, || {
                        format!("{name}: ParallelExecutor receive buffers wrong")
                    });
                    let par_stats = ExecStats {
                        messages: out.messages,
                        message_bytes: out.message_bytes,
                        copy_bytes: out.copy_bytes,
                    };
                    rep.gate(par_stats == stats, || {
                        format!("{name}: parallel counters {par_stats:?} != sequential {stats:?}")
                    });
                    let first = s.first_stats[a].get_or_insert(stats);
                    rep.gate(*first == stats, || {
                        format!("{name}: counters {stats:?} changed from {first:?}")
                    });
                }
                (seq, par) => rep.gate(false, || {
                    format!("{name}: {:?} / {:?}", seq.err(), par.err())
                }),
            });
        }
    }
    lp
}

/// Calls per second over the time spent inside them.
fn rate(call_ms: &[f64]) -> f64 {
    call_ms.len() as f64 / (call_ms.iter().sum::<f64>() / 1e3)
}

pub fn run(args: &Args) -> Report {
    let mut rng = Rng::new(args.seed);
    let mut rep = Report::default();
    let mut tr = Tracer::new(args.trace);
    let (mut s, setup_s) = repeated_setup(|| setup(&mut tr, &mut rep));
    let n = s.sbufs.len();
    let payload = (n * n) as f64 * BLOCK as f64 / MIB;
    rep.note(format!(
        "workload transpose-bulk: {n} ranks ({NODES} nodes x 4 ppn), {BLOCK} B blocks, \
         {} algorithms, ParallelExecutor workers {}",
        s.algos.len(),
        nproc()
    ));
    if !args.trace {
        let lp = measure(
            &mut s,
            &mut rng,
            args.seconds,
            MIN_PASSES,
            &mut tr,
            &mut rep,
        );
        let rss = peak_rss_mib();
        crate::end_to_end(
            &mut rep,
            setup_s,
            rate(&lp.seq_ms),
            Latency::of(&lp.seq_ms, "sequential alltoall"),
            rss,
        );
        let (p, par_tail, beyond) = tail(&lp.par_ms);
        rep.note(format!(
            "parallel_ops_per_s {:.4} ops/s (ParallelExecutor alltoalls/s); parallel p50 \
             {:.3} ms, p{p} {par_tail:.3} ms ({beyond} of {} calls beyond it)",
            rate(&lp.par_ms),
            median(&lp.par_ms),
            lp.par_ms.len()
        ));
        return rep;
    }

    // Traced run: half the time untraced for the overhead baseline, half
    // traced; the memcpy roofline runs in both halves.
    s.memcpy_dst = Some(vec![0u8; n * n * BLOCK as usize]);
    tr.set_enabled(false);
    let base = measure(&mut s, &mut rng, args.seconds / 2.0, 1, &mut tr, &mut rep);
    tr.set_enabled(true);
    let lp = measure(&mut s, &mut rng, args.seconds / 2.0, 1, &mut tr, &mut rep);
    let calls = |name: &str| median(&tr.durations_ms(name));
    rep.set("sched.prepare_ms", calls("sched.prepare"), "ms");
    rep.set("sched.validate_ms", calls("sched.validate"), "ms");
    rep.set("sched.fill_us", calls("sched.fill") * 1e3, "us");
    rep.set("sched.check_us", calls("sched.check") * 1e3, "us");
    rep.set("sched.exec_ms", median(&lp.seq_ms), "ms");
    rep.set("sched.exec_ops_per_s", rate(&lp.seq_ms), "ops/s");
    let stats: Vec<ExecStats> = s.first_stats.iter().flatten().copied().collect();
    rep.set(
        "sched.messages",
        stats.iter().map(|s| s.messages as f64).sum(),
        "count",
    );
    rep.set(
        "sched.message_bytes",
        stats.iter().map(|s| s.message_bytes as f64).sum(),
        "bytes",
    );
    rep.set(
        "sched.copy_bytes",
        stats.iter().map(|s| s.copy_bytes as f64).sum(),
        "bytes",
    );
    let roofline = median(&lp.roofline);
    let gib_s = median(&lp.memcpy_gib_s);
    rep.set("sched.roofline_ratio", roofline, "x");
    rep.set("sched.memcpy_gib_per_s", gib_s, "GiB/s");
    rep.set("sched.memcpy_mib", payload, "MiB");
    rep.set("sched.working_set_mib", 2.0 * payload, "MiB");
    rep.note(format!(
        "sched.roofline_ratio {roofline:.4} x: nproc {}, LLC {:.1} MiB, working set {:.1} MiB \
         (send + receive), memcpy {payload:.1} MiB at {gib_s:.3} GiB/s",
        nproc(),
        llc_mib(),
        2.0 * payload
    ));
    let (p, par_tail, beyond) = tail(&lp.par_ms);
    rep.set("runtime.parallel_ms", median(&lp.par_ms), "ms");
    rep.set("runtime.parallel_tail_ms", par_tail, "ms");
    rep.set("runtime.parallel_ops_per_s", rate(&lp.par_ms), "ops/s");
    rep.note(format!(
        "runtime.parallel_tail_ms is p{p} of {} calls ({beyond} beyond it); \
         parallel calls range {:.3}..{:.3} ms",
        lp.par_ms.len(),
        percentile(&lp.par_ms, 0.0),
        percentile(&lp.par_ms, 100.0)
    ));
    crate::per_layer(&mut rep, &tr, args, rate(&base.seq_ms), rate(&lp.seq_ms));
    rep
}
