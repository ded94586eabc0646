//! `sim-scaling`: the paper's Fig. 11 (4 B) and Fig. 12 (4096 B)
//! node-scaling sweeps on the scaled Dane model, through
//! `a2a_bench::figure_by_name` at `workers = nproc`.
//!
//! The untraced run times whole passes (both sweeps, in a seeded order);
//! its op latency is one pass. The traced run times one pass of
//! `figure_by_name` and then replays every cell by hand — schedule build,
//! the same three jittered sharded simulations `run_min` makes — wrapped in
//! spans, plus per-cell probes (prepare, validate, the sequential engine,
//! the static critical-path bound) outside the op spans.

use std::time::Instant;

use a2a_bench::{figure_by_name, run_min, FigureData, RunConfig};
use a2a_core::{
    A2AContext, AlgoSchedule, AlltoallAlgorithm, ExchangeKind, HierarchicalAlltoall,
    MultileaderNodeAwareAlltoall, NodeAwareAlltoall, SystemMpiAlltoall,
};
use a2a_netsim::{crit_params, simulate_sharded_stats, Perturb, ShardOptions, SimOptions};
use a2a_sched::analysis::critical_path;
use a2a_sched::{validate, PreparedSchedule};

use crate::common::{geomean, ms, nproc, peak_rss_mib, repeated_setup, Fnv, Report, Rng};
use crate::trace::Tracer;
use crate::{Args, Latency};

/// The two sweeps and their block sizes.
const FIGURES: [(&str, u64); 2] = [("fig11", 4), ("fig12", 4096)];
/// Node counts `figure_by_name` sweeps at `nodes = 16`.
const NODE_COUNTS: [usize; 4] = [2, 4, 8, 16];
/// Jitter `a2a_netsim::simulate_min_of_sharded` applies to min-of-N runs.
const JITTER: f64 = 0.05;
/// Passes the untraced run makes at least, so that the simulated-output
/// digest can be compared between passes.
const MIN_PASSES: usize = 2;

type Roster = Vec<(String, Box<dyn AlltoallAlgorithm>)>;

/// The Fig. 10–12 roster as `figure_by_name` labels it: every family at
/// 4 processes per leader/group, both inner exchanges, plus system MPI.
fn roster(ppn: usize) -> Roster {
    let mut roster: Roster = Vec::new();
    for (kind, kname) in [
        (ExchangeKind::Pairwise, "pairwise"),
        (ExchangeKind::Nonblocking, "nonblocking"),
    ] {
        roster.push((
            format!("hierarchical-{kname}"),
            Box::new(HierarchicalAlltoall::new(ppn, kind)),
        ));
        roster.push((
            format!("multileader(ppl=4)-{kname}"),
            Box::new(HierarchicalAlltoall::new(4, kind)),
        ));
        roster.push((
            format!("node-aware-{kname}"),
            Box::new(NodeAwareAlltoall::node_aware(kind)),
        ));
        roster.push((
            format!("locality-aware(ppg=4)-{kname}"),
            Box::new(NodeAwareAlltoall::locality_aware(4, kind)),
        ));
        roster.push((
            format!("ml-node-aware(ppl=4)-{kname}"),
            Box::new(MultileaderNodeAwareAlltoall::new(4, kind)),
        ));
    }
    roster.push(("system-mpi".into(), Box::new(SystemMpiAlltoall::default())));
    roster
}

struct Setup {
    cfg: RunConfig,
    roster: Roster,
}

fn setup(jitter_seed: u64) -> Setup {
    let cfg = RunConfig {
        machine: "dane".into(),
        nodes: 16,
        full_scale: false,
        runs: 3,
        seed: jitter_seed,
        workers: nproc(),
    };
    let roster = roster(cfg.grid().machine().ppn());
    // Warm the simulator (thread spawn, allocator) on the smallest cell.
    let small = RunConfig {
        nodes: NODE_COUNTS[0],
        ..cfg.clone()
    };
    let rep = run_min(
        roster[0].1.as_ref(),
        &small.grid(),
        &cfg.model(),
        FIGURES[0].1,
        cfg.runs,
        cfg.seed,
        cfg.workers,
    );
    assert!(rep.total_us > 0.0, "warm-up cell simulated no time");
    Setup { cfg, roster }
}

/// Simulated µs per `[figure][algorithm][node count]`, in canonical order.
type Cells = Vec<Vec<Vec<f64>>>;

/// Pull the cells out of the two figures, checking their shape.
fn cells_of(figs: &[FigureData], roster: &Roster, rep: &mut Report) -> Cells {
    FIGURES
        .iter()
        .map(|(name, _)| {
            let fig = figs.iter().find(|f| f.name == *name);
            rep.gate(fig.is_some(), || format!("{name}: figure missing"));
            roster
                .iter()
                .map(|(label, _)| {
                    NODE_COUNTS
                        .iter()
                        .map(|&n| {
                            let v = fig.and_then(|f| f.value(label, n as f64));
                            let ok = v.is_some_and(|v| v.is_finite() && v > 0.0);
                            rep.gate(ok, || format!("{name} {label} @{n}: bad value {v:?}"));
                            v.unwrap_or(f64::NAN)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn digest(cells: &Cells) -> u64 {
    let mut h = Fnv::new();
    for fig in cells {
        for series in fig {
            for &us in series {
                h.u64(us.to_bits());
            }
        }
    }
    h.finish()
}

/// One pass: both sweeps through `figure_by_name`, in a seeded order.
/// Returns the figures and the pass's wall time (ms).
fn pass(s: &Setup, rng: &mut Rng) -> (Vec<FigureData>, f64) {
    let t = Instant::now();
    let figs = rng
        .permutation(FIGURES.len())
        .into_iter()
        .map(|i| figure_by_name(FIGURES[i].0, &s.cfg))
        .collect();
    (figs, ms(t.elapsed()))
}

fn ncells(roster: &Roster) -> usize {
    FIGURES.len() * NODE_COUNTS.len() * roster.len()
}

/// The headline: at each sweep's largest node count, system-MPI latency
/// over the best roster latency; geomean over the two block sizes.
fn speedup_vs_system_mpi(cells: &Cells) -> f64 {
    let last = NODE_COUNTS.len() - 1;
    geomean(cells.iter().map(|fig| {
        let (system, others) = fig.split_last().expect("roster is non-empty");
        let best = others.iter().map(|s| s[last]).fold(f64::INFINITY, f64::min);
        system[last] / best
    }))
}

fn sim_notes(rep: &mut Report, cells: &Cells, digest: u64) {
    let sim_latency = geomean(cells.iter().flatten().flatten().copied());
    rep.note(format!(
        "sim_latency_us {sim_latency:.4} us (geomean of {} simulated cells)",
        cells.iter().flatten().flatten().count()
    ));
    rep.note(format!(
        "speedup_vs_system_mpi {:.4} x (largest node count, geomean over 4 B and 4096 B)",
        speedup_vs_system_mpi(cells)
    ));
    rep.note(format!(
        "netsim.digest {digest:016x} (every simulated latency)"
    ));
}

pub fn run(args: &Args) -> Report {
    let mut rng = Rng::new(args.seed);
    let jitter_seed = rng.next_u64() % 1_000_000;
    let mut rep = Report::default();
    let (s, setup_s) = repeated_setup(|| setup(jitter_seed));
    rep.note(format!(
        "workload sim-scaling: dane scaled {} ppn, nodes {NODE_COUNTS:?}, {} algorithms, \
         runs {}, jitter seed {jitter_seed}, workers {}",
        s.cfg.grid().machine().ppn(),
        s.roster.len(),
        s.cfg.runs,
        s.cfg.workers
    ));
    if args.trace {
        traced(args, &s, &mut rng, &mut rep);
        return rep;
    }

    let t0 = Instant::now();
    let mut pass_ms = Vec::new();
    let mut first: Option<(Cells, u64)> = None;
    let mut passes = 0;
    while passes < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        let (figs, ms) = pass(&s, &mut rng);
        pass_ms.push(ms);
        rep.attempted += ncells(&s.roster) as u64;
        let cells = cells_of(&figs, &s.roster, &mut rep);
        let d = digest(&cells);
        match &first {
            None => first = Some((cells, d)),
            Some((_, d0)) => rep.gate(d == *d0, || {
                format!("pass {passes}: simulated digest {d:016x} != first pass {d0:016x}")
            }),
        }
        passes += 1;
    }
    let rss = peak_rss_mib();
    let wall_s: f64 = pass_ms.iter().sum::<f64>() / 1e3;
    let (cells, d) = first.expect("at least one pass");
    let ops_per_s = rep.attempted as f64 / wall_s;
    let latency = Latency::of(&pass_ms, "pass (both sweeps)");
    crate::end_to_end(&mut rep, setup_s, ops_per_s, latency, rss);
    sim_notes(&mut rep, &cells, d);
    rep.note(format!("passes {passes}, cells {}", rep.attempted));
    rep
}

/// One pass through `figure_by_name` (the untraced reference), then every
/// cell replayed under spans.
fn traced(args: &Args, s: &Setup, rng: &mut Rng, rep: &mut Report) {
    let (figs, pass_ms) = pass(s, rng);
    let untraced_ops = ncells(&s.roster) as f64 / (pass_ms / 1e3);
    let reference = cells_of(&figs, &s.roster, rep);

    let mut tr = Tracer::new(true);
    let model = s.cfg.model();
    let grids: Vec<_> = NODE_COUNTS
        .iter()
        .map(|&nodes| {
            RunConfig {
                nodes,
                ..s.cfg.clone()
            }
            .grid()
        })
        .collect();
    let crit = crit_params(&model);
    let seq = ShardOptions::with_workers(1);
    let sharded = ShardOptions::with_workers(s.cfg.workers);
    let (mut events, mut cross, mut sharded_events) = (0u64, 0u64, 0u64);
    let mut replay: Cells = reference
        .iter()
        .map(|f| f.iter().map(|a| vec![0.0; a.len()]).collect())
        .collect();
    let n = ncells(&s.roster);
    let per_fig = NODE_COUNTS.len() * s.roster.len();
    let locate = |cell: usize| {
        let (f, rest) = (cell / per_fig, cell % per_fig);
        (f, rest / NODE_COUNTS.len(), rest % NODE_COUNTS.len())
    };
    let opts = |i: usize| SimOptions {
        jitter: JITTER,
        seed: s.cfg.seed.wrapping_add(i as u64),
    };
    // The ops: every cell as `run_min` computes it, in a seeded order.
    let order = rng.permutation(n);
    let mut runs = Vec::with_capacity(n);
    for (op, &cell) in order.iter().enumerate() {
        let (f, a, g) = locate(cell);
        let sched = AlgoSchedule::new(
            s.roster[a].1.as_ref(),
            A2AContext::new(grids[g].clone(), FIGURES[f].1),
        );
        rep.attempted += 1;
        runs.push(tr.span("bench.cell", op as u64, |tr| {
            (0..s.cfg.runs)
                .map(|i| {
                    tr.span("netsim.sharded", op as u64, |_| {
                        simulate_sharded_stats(
                            &sched,
                            &grids[g],
                            &model,
                            &opts(i),
                            &Perturb::default(),
                            &sharded,
                        )
                    })
                })
                .collect::<Vec<_>>()
        }));
    }
    // The probes, outside the op spans: prepare, validate, the sequential
    // engine (must match the sharded one exactly) and the static bound.
    for (op, (&cell, par)) in order.iter().zip(&runs).enumerate() {
        let op = op as u64;
        let (f, a, g) = locate(cell);
        let grid = &grids[g];
        let sched = AlgoSchedule::new(
            s.roster[a].1.as_ref(),
            A2AContext::new(grid.clone(), FIGURES[f].1),
        );
        tr.span("bench.probe", op, |tr| {
            let prep = tr.span("sched.prepare", op, |_| PreparedSchedule::new_owned(&sched));
            let valid = tr.span("sched.validate", op, |_| validate(&prep, grid));
            rep.gate(valid.is_ok(), || format!("cell {cell}: {valid:?}"));
            let mut best = f64::INFINITY;
            for (i, p) in par.iter().enumerate() {
                let single = tr.span("netsim.simulate", op, |_| {
                    simulate_sharded_stats(
                        &sched,
                        grid,
                        &model,
                        &opts(i),
                        &Perturb::default(),
                        &seq,
                    )
                });
                match (p, single) {
                    (Ok((rep_par, st_par)), Ok((rep_seq, st_seq))) => {
                        rep.gate(*rep_par == rep_seq, || {
                            format!(
                                "cell {cell} run {i}: sharded SimReport differs from sequential"
                            )
                        });
                        rep.gate(st_par.events == st_seq.events, || {
                            format!("cell {cell} run {i}: event counts differ")
                        });
                        best = best.min(rep_par.total_us);
                        events += st_seq.events;
                        sharded_events += st_par.events;
                        cross += st_par.cross_events;
                    }
                    (p, q) => rep.gate(false, || format!("cell {cell}: {p:?} / {q:?}")),
                }
            }
            // Jitter scales CPU-side costs by at least (1 - JITTER), so the
            // zero-jitter static bound scaled by it bounds every jittered run.
            let bound = tr.span("sched.critpath", op, |_| {
                critical_path(&prep, grid, &crit, 1).bound_us
            });
            rep.gate(bound * (1.0 - JITTER) <= best, || {
                format!("cell {cell}: static bound {bound} us exceeds DES makespan {best} us")
            });
            replay[f][a][g] = best;
        });
    }
    let d_ref = digest(&reference);
    let d = digest(&replay);
    rep.gate(d == d_ref, || {
        format!("replayed cells digest {d:016x} != figure_by_name digest {d_ref:016x}")
    });
    let cells = n as f64;
    let seq_ms = tr.total_ms("netsim.simulate");
    let par_ms = tr.total_ms("netsim.sharded");
    let traced_ops = cells / (tr.total_ms("bench.cell") / 1e3);
    rep.set("netsim.simulate_ms", seq_ms / cells, "ms");
    rep.set("netsim.sharded_ms", par_ms / cells, "ms");
    rep.set("netsim.events", events as f64, "count");
    rep.set("netsim.events_per_s", events as f64 / (seq_ms / 1e3), "1/s");
    rep.set("netsim.shard_speedup", seq_ms / par_ms, "x");
    rep.set(
        "netsim.cross_event_ratio",
        cross as f64 / sharded_events.max(1) as f64,
        "fraction",
    );
    rep.set(
        "netsim.sim_latency_us",
        geomean(reference.iter().flatten().flatten().copied()),
        "us",
    );
    rep.set(
        "netsim.speedup_vs_system_mpi",
        speedup_vs_system_mpi(&reference),
        "x",
    );
    rep.set(
        "sched.prepare_ms",
        tr.total_ms("sched.prepare") / cells,
        "ms",
    );
    rep.set(
        "sched.validate_ms",
        tr.total_ms("sched.validate") / cells,
        "ms",
    );
    sim_notes(rep, &reference, d_ref);
    crate::per_layer(rep, &tr, args, untraced_ops, traced_ops);
}
