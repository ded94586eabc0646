//! `service-stream` and `service-admit`: a `Service` driven as a closed
//! loop from one submitting thread with a fixed window of outstanding
//! verified `Fill::Transpose` jobs on `Engine::Data`, with `nproc - 1`
//! pool workers.
//!
//! * `service-stream` (8 ranks): jobs round-robin over 8 algorithms x
//!   {16, 64, 256} B x 4 tenants; all 24 cache keys are compiled in setup,
//!   so every timed lookup hits.
//! * `service-admit` (64 ranks): the block size steps through 72 distinct
//!   values, more than the cache's 64 entries, so every lookup misses and
//!   evicts and each job pays compile, validate, lint, prove and prepare.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use a2a_bench::throughput::{bench4_grid, bench4_roster};
use a2a_core::{A2AContext, AlgoSchedule, AlltoallAlgorithm};
use a2a_lint::{lint_schedule, prove_pass, LintConfig};
use a2a_sched::analysis::SemanticsSpec;
use a2a_sched::exec::ExecResult;
use a2a_sched::{
    check_alltoall_rbuf, fill_alltoall_sbuf, validate, DataExecutor, PreparedSchedule,
};
use a2a_service::{JobHandle, JobSpec, Service, ServiceConfig, ServiceStats};
use a2a_topo::ProcGrid;

use crate::common::{median, ms, nproc, peak_rss_mib, repeated_setup, us, Fnv, Report, Rng};
use crate::trace::Tracer;
use crate::{Args, Latency};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Stream,
    Admit,
}

/// Outstanding jobs the closed loop keeps in flight.
const WINDOW: usize = 8;
const TENANTS: u32 = 4;
const STREAM_SIZES: [u64; 3] = [16, 64, 256];
/// Distinct block sizes `service-admit` cycles through (8, 16, ... 576 B):
/// more than the default cache capacity.
const ADMIT_SIZES: usize = 72;
/// The first warm-up block size: warm-up keys use 4, 12, ... 60 B,
/// outside the admit cycle.
const WARM_BYTES: u64 = 4;
/// Passes over the 24 stream keys run untimed in setup.
const STREAM_WARM_PASSES: usize = 50;
/// Keys the traced `service-admit` run compiles by hand to time lint and
/// prove from outside the service.
const COMPILE_PROBES: usize = 16;
/// Bytes each fill/check probe shape is filled and checked over, in total
/// (bounded to 3..=200 repetitions per shape).
const FILL_PROBE_BYTES: usize = 2 << 20;

/// One cache key: (roster index, block bytes).
type Key = (usize, u64);

struct Setup {
    svc: Service,
    grid: ProcGrid,
    roster: Vec<Box<dyn AlltoallAlgorithm>>,
    /// Standalone `DataExecutor::run` results per key checked so far.
    reference: HashMap<Key, Reference>,
}

/// What a standalone run of a key produced.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Reference {
    digest: u64,
    messages: usize,
    message_bytes: u64,
    copy_bytes: u64,
}

impl Reference {
    fn of(res: &ExecResult) -> Self {
        Reference {
            digest: digest(&res.rbufs),
            messages: res.messages,
            message_bytes: res.message_bytes,
            copy_bytes: res.copy_bytes,
        }
    }

    /// Whether a service job's output carries this run's bytes and counts.
    fn matches(&self, out: (u64, usize, u64)) -> bool {
        (self.digest, self.messages, self.message_bytes) == out
    }
}

/// FNV-1a over rank-ordered, length-prefixed receive buffers: the digest
/// `JobOutput::digest` carries.
fn digest(rbufs: &[Vec<u8>]) -> u64 {
    let mut h = Fnv::new();
    for buf in rbufs {
        h.u64(buf.len() as u64);
        h.bytes(buf);
    }
    h.finish()
}

impl Setup {
    /// Run `key` standalone through `DataExecutor::run` and remember its
    /// digest and counters.
    fn standalone(&mut self, key: Key) -> Reference {
        let (grid, roster) = (&self.grid, &self.roster);
        *self.reference.entry(key).or_insert_with(|| {
            let n = grid.world_size();
            let sched =
                AlgoSchedule::new(roster[key.0].as_ref(), A2AContext::new(grid.clone(), key.1));
            match DataExecutor::run(&sched, |r, buf| fill_alltoall_sbuf(r, n, key.1, buf)) {
                Ok(res) => Reference::of(&res),
                Err(_) => Reference::default(),
            }
        })
    }

    /// Submit one job per key with its receive buffers returned and compare
    /// them byte for byte with a standalone `DataExecutor::run`.
    fn compare_bytes(&mut self, key: Key, rep: &mut Report) {
        let n = self.grid.world_size();
        let algo = self.roster[key.0].as_ref();
        let out = self
            .svc
            .submit(
                algo,
                &self.grid,
                JobSpec::new(0, key.1).with_return_data(true),
            )
            .wait();
        let sched = AlgoSchedule::new(algo, A2AContext::new(self.grid.clone(), key.1));
        let alone = DataExecutor::run(&sched, |r, buf| fill_alltoall_sbuf(r, n, key.1, buf));
        let name = algo.name();
        match (out, alone) {
            (Ok(out), Ok(alone)) => {
                rep.gate(out.rbufs.as_ref() == Some(&alone.rbufs), || {
                    format!(
                        "{name} {} B: service bytes differ from DataExecutor::run",
                        key.1
                    )
                });
                let want = Reference::of(&alone);
                rep.gate(out.digest == want.digest, || {
                    format!(
                        "{name} {} B: digest {:016x} != {:016x}",
                        key.1, out.digest, want.digest
                    )
                });
                self.reference.insert(key, want);
            }
            (out, alone) => rep.gate(false, || {
                format!("{name} {} B: {:?} / {:?}", key.1, out.err(), alone.err())
            }),
        }
    }
}

fn setup(mode: Mode, rep: &mut Report) -> Setup {
    let nodes = if mode == Mode::Stream { 2 } else { 16 };
    let roster = bench4_roster();
    let mut s = Setup {
        svc: Service::new(ServiceConfig {
            workers: nproc().saturating_sub(1).max(1),
            ..ServiceConfig::default()
        }),
        grid: bench4_grid(nodes),
        reference: HashMap::new(),
        roster,
    };
    let algos = s.roster.len();
    match mode {
        Mode::Stream => {
            for a in 0..algos {
                for bytes in STREAM_SIZES {
                    s.compare_bytes((a, bytes), rep);
                }
            }
            let keys = (0..algos).flat_map(|a| STREAM_SIZES.map(|b| (a, b)));
            let keys: Vec<Key> = keys.collect();
            warm(
                &s,
                keys.iter().cycle().take(keys.len() * STREAM_WARM_PASSES),
                rep,
            );
        }
        Mode::Admit => {
            s.compare_bytes((0, WARM_BYTES), rep);
            // Fill the cache with keys outside the measured cycle, so that
            // every timed lookup misses and also evicts.
            let sizes = (0..8).map(|k| WARM_BYTES + 8 * k);
            let keys: Vec<Key> = sizes
                .flat_map(|b| (0..algos).map(move |a| (a, b)))
                .collect();
            warm(&s, keys.iter(), rep);
        }
    }
    s
}

/// Run `keys` through the service, `WINDOW` jobs at a time, untimed: the
/// warm-up that lets the cache, scratch pools and allocator settle.
fn warm<'k>(s: &Setup, keys: impl Iterator<Item = &'k Key>, rep: &mut Report) {
    let mut inflight: VecDeque<JobHandle> = VecDeque::with_capacity(WINDOW);
    let mut resolve = |h: JobHandle| {
        let res = h.wait();
        rep.gate(res.is_ok(), || {
            format!("warm-up job failed: {:?}", res.err())
        });
    };
    for &(a, bytes) in keys {
        if inflight.len() == WINDOW {
            resolve(inflight.pop_front().expect("window is full"));
        }
        let job = JobSpec::new(0, bytes);
        inflight.push_back(s.svc.submit(s.roster[a].as_ref(), &s.grid, job));
    }
    inflight.into_iter().for_each(resolve);
}

/// The seeded job stream: keys and tenants.
struct Jobs {
    mode: Mode,
    rng: Rng,
    algos: usize,
    /// Current cycle of keys (stream) or the fixed size order (admit).
    order: Vec<usize>,
    next: usize,
}

impl Jobs {
    fn new(mode: Mode, rng: &mut Rng, algos: usize) -> Self {
        let mut rng = Rng::new(rng.next_u64());
        let order = match mode {
            Mode::Stream => Vec::new(),
            Mode::Admit => rng.permutation(ADMIT_SIZES),
        };
        Jobs {
            mode,
            rng,
            algos,
            order,
            next: 0,
        }
    }

    fn next(&mut self) -> (Key, u32) {
        let i = self.next;
        self.next += 1;
        let key = match self.mode {
            Mode::Stream => {
                let keys = self.algos * STREAM_SIZES.len();
                if i.is_multiple_of(keys) {
                    self.order = self.rng.permutation(keys);
                }
                let k = self.order[i % keys];
                (k / STREAM_SIZES.len(), STREAM_SIZES[k % STREAM_SIZES.len()])
            }
            // 72 fixed keys, size 8 (j + 1) on algorithm j % 8, in a seeded
            // order: each key recurs only after all 71 others, so with LRU
            // and 64 entries every lookup misses.
            Mode::Admit => {
                let j = self.order[i % ADMIT_SIZES];
                (j % self.algos, 8 * (j as u64 + 1))
            }
        };
        (key, self.rng.below(TENANTS as usize) as u32)
    }
}

#[derive(Default)]
struct Loop {
    latency_ms: Vec<f64>,
    /// Traced runs only: time inside `submit`, and from its return to
    /// the job seen resolved.
    submit_us: Vec<f64>,
    resolve_us: Vec<f64>,
    wall: Duration,
    before: ServiceStats,
    after: ServiceStats,
    /// Admit: (key, digest, messages, message bytes) of every job.
    results: Vec<(Key, u64, usize, u64)>,
}

impl Loop {
    fn jobs_per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / self.wall.as_secs_f64()
    }
}

struct InFlight {
    handle: JobHandle,
    key: Key,
    start: Instant,
    submitted: Instant,
    /// When the loop first saw the job resolved.
    resolved: Option<Instant>,
    op: u64,
}

/// The closed loop: keep `WINDOW` jobs outstanding, resolve the oldest,
/// stop submitting after `seconds`, drain.
fn measure(
    s: &mut Setup,
    jobs: &mut Jobs,
    seconds: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Loop {
    let mut lp = Loop {
        before: s.svc.stats(),
        ..Loop::default()
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
    let t0 = Instant::now();
    let first_op = rep.attempted;
    loop {
        while inflight.len() < WINDOW
            && (rep.attempted == first_op || t0.elapsed().as_secs_f64() < seconds)
        {
            let (key, tenant) = jobs.next();
            let op = rep.attempted;
            rep.attempted += 1;
            let start = Instant::now();
            let handle = s.svc.submit(
                s.roster[key.0].as_ref(),
                &s.grid,
                JobSpec::new(tenant, key.1),
            );
            let submitted = Instant::now();
            tr.record("service.submit", op, start, submitted);
            // A submit can take long (a cold compile): note which earlier
            // jobs resolved meanwhile, so their latency stops here.
            for job in inflight.iter_mut().filter(|j| j.resolved.is_none()) {
                if job.handle.try_result().is_some() {
                    job.resolved = Some(submitted);
                }
            }
            inflight.push_back(InFlight {
                handle,
                key,
                start,
                submitted,
                resolved: None,
                op,
            });
        }
        let Some(job) = inflight.pop_front() else {
            break;
        };
        let waited = Instant::now();
        let res = job.handle.wait();
        let end = job.resolved.unwrap_or_else(Instant::now);
        tr.record("service.wait", job.op, waited, waited.max(end));
        lp.latency_ms.push(ms(end - job.start));
        if tr.enabled() {
            lp.submit_us.push(us(job.submitted - job.start));
            lp.resolve_us.push(us(end - job.submitted));
        }
        tr.span("bench.verify", job.op, |_| match res {
            Ok(out) => match jobs.mode {
                Mode::Stream => {
                    let want = s.reference.get(&job.key).copied();
                    let got = (out.digest, out.messages, out.message_bytes);
                    rep.gate(want.is_some_and(|w| w.matches(got)), || {
                        format!("job {}: {got:?} != standalone {want:?}", job.op)
                    });
                }
                Mode::Admit => {
                    lp.results
                        .push((job.key, out.digest, out.messages, out.message_bytes))
                }
            },
            Err(e) => rep.gate(false, || format!("job {}: {e}", job.op)),
        });
    }
    lp.wall = t0.elapsed();
    lp.after = s.svc.stats();
    lp
}

/// Exact counter invariants of a measured loop.
fn check_counters(mode: Mode, lp: &Loop, rep: &mut Report) {
    let (b, a) = (&lp.before, &lp.after);
    let jobs = lp.latency_ms.len() as u64;
    let d = |f: fn(&ServiceStats) -> u64| f(a) - f(b);
    rep.gate(d(|s| s.jobs_ok) == jobs, || {
        format!("{} jobs ok of {jobs}", d(|s| s.jobs_ok))
    });
    rep.gate(d(|s| s.robustness.retries) == 0, || {
        "jobs were retried".into()
    });
    let (hits, misses, compiled) = (
        d(|s| s.cache.hits),
        d(|s| s.cache.misses),
        d(|s| s.cache.compiled),
    );
    let want = match mode {
        Mode::Stream => (jobs, 0, 0),
        Mode::Admit => (0, jobs, jobs),
    };
    rep.gate((hits, misses, compiled) == want, || {
        format!(
            "cache hits/misses/compiles {:?}, expected {want:?}",
            (hits, misses, compiled)
        )
    });
    let capacity = ServiceConfig::default().cache_capacity as u64;
    rep.gate(
        a.cache.evictions == a.cache.misses.saturating_sub(capacity),
        || {
            format!(
                "{} evictions after {} misses",
                a.cache.evictions, a.cache.misses
            )
        },
    );
}

/// Check every admitted job against a standalone run of its key.
fn check_admitted(s: &mut Setup, lp: &Loop, rep: &mut Report) {
    for &(key, dg, messages, bytes) in &lp.results {
        let want = s.standalone(key);
        rep.gate(want.matches((dg, messages, bytes)), || {
            format!(
                "{} {} B: service {:?} != standalone {want:?}",
                s.roster[key.0].name(),
                key.1,
                (dg, messages, bytes)
            )
        });
    }
}

pub fn run(args: &Args, mode: Mode) -> Report {
    let mut rep = Report::default();
    let (mut s, setup_s) = repeated_setup(|| setup(mode, &mut rep));
    let mut jobs = Jobs::new(mode, &mut Rng::new(args.seed), s.roster.len());
    rep.note(format!(
        "workload {}: {} ranks, {} algorithms, {} pool workers, window {WINDOW}, {TENANTS} tenants",
        args.workload,
        s.grid.world_size(),
        s.roster.len(),
        s.svc.workers()
    ));
    let mut tr = Tracer::new(false);
    if !args.trace {
        let lp = measure(&mut s, &mut jobs, args.seconds, &mut tr, &mut rep);
        let rss = peak_rss_mib();
        check_counters(mode, &lp, &mut rep);
        check_admitted(&mut s, &lp, &mut rep);
        let latency = Latency::of(&lp.latency_ms, "job (submit to resolved)");
        crate::end_to_end(&mut rep, setup_s, lp.jobs_per_s(), latency, rss);
        return rep;
    }

    let base = measure(&mut s, &mut jobs, args.seconds / 2.0, &mut tr, &mut rep);
    check_counters(mode, &base, &mut rep);
    check_admitted(&mut s, &base, &mut rep);
    tr.set_enabled(true);
    let lp = measure(&mut s, &mut jobs, args.seconds / 2.0, &mut tr, &mut rep);
    check_counters(mode, &lp, &mut rep);
    check_admitted(&mut s, &lp, &mut rep);
    let (b, a) = (&lp.before, &lp.after);
    let jobs_done = lp.latency_ms.len() as f64;
    let lookups = (a.cache.hits + a.cache.misses - b.cache.hits - b.cache.misses).max(1);
    rep.set("service.submit_us", median(&lp.submit_us), "us");
    rep.set("service.resolve_us", median(&lp.resolve_us), "us");
    rep.set(
        "service.cache_hit_ratio",
        (a.cache.hits - b.cache.hits) as f64 / lookups as f64,
        "fraction",
    );
    rep.set(
        "service.batch_ratio",
        (a.batched_jobs - b.batched_jobs) as f64 / jobs_done,
        "fraction",
    );
    rep.set(
        "service.scratch_builds",
        (a.scratch_builds - b.scratch_builds) as f64,
        "count",
    );
    rep.set(
        "service.retries",
        (a.robustness.retries - b.robustness.retries) as f64,
        "count",
    );
    rep.set(
        "service.prove_share",
        (a.cache.prove_ns - b.cache.prove_ns) as f64 / lp.wall.as_nanos() as f64,
        "fraction",
    );
    rep.set(
        "service.misses",
        (a.cache.misses - b.cache.misses) as f64,
        "count",
    );
    rep.set(
        "service.compiled",
        (a.cache.compiled - b.cache.compiled) as f64,
        "count",
    );
    rep.set(
        "service.evictions",
        (a.cache.evictions - b.cache.evictions) as f64,
        "count",
    );
    probes(&mut s, mode, args.seed, &mut tr, &mut rep);
    crate::per_layer(&mut rep, &tr, args, base.jobs_per_s(), lp.jobs_per_s());
    rep
}

/// Layer probes outside the measured loop: the exact executor counters of
/// the workload's keys, fill/check on the job shapes, and (admit) the
/// cold-miss compile pipeline timed stage by stage on the run's first keys.
fn probes(s: &mut Setup, mode: Mode, seed: u64, tr: &mut Tracer, rep: &mut Report) {
    let keys: Vec<Key> = match mode {
        Mode::Stream => (0..s.roster.len())
            .flat_map(|a| STREAM_SIZES.map(|b| (a, b)))
            .collect(),
        Mode::Admit => {
            let mut jobs = Jobs::new(mode, &mut Rng::new(seed), s.roster.len());
            (0..COMPILE_PROBES).map(|_| jobs.next().0).collect()
        }
    };
    let refs: Vec<Reference> = keys.iter().map(|&key| s.standalone(key)).collect();
    let sum = |f: fn(&Reference) -> u64| refs.iter().map(f).sum::<u64>() as f64;
    rep.set("sched.messages", sum(|r| r.messages as u64), "count");
    rep.set("sched.message_bytes", sum(|r| r.message_bytes), "bytes");
    rep.set("sched.copy_bytes", sum(|r| r.copy_bytes), "bytes");
    rep.note(format!(
        "sched.messages / message_bytes / copy_bytes: one standalone run of each of {} keys",
        keys.len()
    ));

    let n = s.grid.world_size();
    for (op, &(_, block)) in keys.iter().enumerate() {
        let row = n * block as usize;
        let mut sbufs = vec![vec![0u8; row]; n];
        let mut rbufs = vec![vec![0u8; row]; n];
        let reps = (FILL_PROBE_BYTES / (n * row)).clamp(3, 200);
        for _ in 0..reps {
            tr.span("sched.fill", op as u64, |_| {
                for (r, buf) in sbufs.iter_mut().enumerate() {
                    fill_alltoall_sbuf(r as u32, n, block, buf);
                }
            });
        }
        let b = block as usize;
        for (r, rbuf) in rbufs.iter_mut().enumerate() {
            for (src, sbuf) in sbufs.iter().enumerate() {
                rbuf[src * b..(src + 1) * b].copy_from_slice(&sbuf[r * b..(r + 1) * b]);
            }
        }
        for _ in 0..reps {
            let ok = tr.span("sched.check", op as u64, |_| {
                rbufs
                    .iter()
                    .enumerate()
                    .all(|(r, buf)| check_alltoall_rbuf(r as u32, n, block, buf).is_ok())
            });
            rep.gate(ok, || {
                format!("fill/check probe {block} B: transpose check failed")
            });
        }
    }
    let per_rank_us = |name: &str| median(&tr.durations_ms(name)) * 1e3 / n as f64;
    rep.set("sched.fill_us", per_rank_us("sched.fill"), "us");
    rep.set("sched.check_us", per_rank_us("sched.check"), "us");

    if mode == Mode::Admit {
        let lint = LintConfig::default();
        for (op, &(a, block)) in keys.iter().enumerate() {
            let op = op as u64;
            let algo = s.roster[a].as_ref();
            let sched = AlgoSchedule::new(algo, A2AContext::new(s.grid.clone(), block));
            let ok = tr.span("bench.compile", op, |tr| {
                let valid = tr.span("sched.validate", op, |_| validate(&sched, &s.grid));
                let linted = tr.span("lint.lint", op, |_| {
                    lint_schedule(algo.name(), &sched, &s.grid, &lint)
                });
                let spec = SemanticsSpec::alltoall(n, block);
                let proof = tr.span("lint.prove", op, |_| prove_pass(algo.name(), &sched, &spec));
                let prep = tr.span("sched.prepare", op, |_| PreparedSchedule::new_owned(&sched));
                valid.is_ok() && linted.errors() == 0 && proof.errors() == 0 && prep.nranks() == n
            });
            rep.gate(ok, || {
                format!("{} {block} B: compile probe failed", algo.name())
            });
        }
        let calls = |name: &str| median(&tr.durations_ms(name));
        rep.set("sched.validate_ms", calls("sched.validate"), "ms");
        rep.set("sched.prepare_ms", calls("sched.prepare"), "ms");
        rep.set("lint.lint_ms", calls("lint.lint"), "ms");
        rep.set("lint.prove_ms", calls("lint.prove"), "ms");
    }
}
