//! Seeded fault storms and the BENCH_8 overload curve for the collective
//! service's robustness layer.
//!
//! # `repro storm`
//!
//! [`storm`] drives one [`a2a_service::Service`] with three concurrent
//! tenants following the [`a2a_faults::StormProfile`] schedules:
//!
//! * **healthy** — clean serialized round-trips on the sequential engine;
//!   the control group whose latency distribution shows what the storm
//!   costs bystanders.
//! * **flaky** — the [`StormProfile::flaky`] ramp (drops 5% → 15% → 30%,
//!   plus corruption, then stragglers), alternating between the parallel
//!   engine (whose retransmit layer absorbs per-packet faults) and the
//!   sequential engine (no retransmit, so drops surface as transient
//!   job failures and exercise the service-level retry path).
//! * **poisoned** — [`StormProfile::poisoned`]: a dead rank appears
//!   mid-stream (permanent failure → circuit breaker opens, follow-ups
//!   fail fast), then goes away (a half-open probe closes the breaker).
//!
//! Invariants checked by [`StormReport::check`]: every submitted handle
//! resolves; every success (any engine, any retry attempt, batched or
//! not) is verified against the transpose oracle and carries the one
//! reference digest; the poisoned tenant's breaker opens and then
//! recovers through a probe, not a reset; the healthy tenant never sees
//! a failure; the storm exercised at least one retry.
//!
//! Everything in the serialized report is a pure function of the storm
//! seed — fault fates are stateless per `(plan, attempt)`, so per-job
//! outcomes don't depend on scheduling interleavings. Latencies are
//! timing, so they go to stdout only, never into `storm.json`; CI runs
//! the same seed twice and byte-compares the reports.
//!
//! # `repro bench8`
//!
//! [`bench8`] measures goodput under overload: an uncontended warm
//! service sets the reference rate, then a service with a deliberately
//! tiny admission queue takes a burst far larger than its capacity under
//! each [`OverloadPolicy`]. The acceptance floor, [`crate::ledger::BENCH8`]'s
//! hard floor: whatever the policy does with the excess (block, reject,
//! shed), the jobs it *does* complete must flow at no worse than half the
//! uncontended rate — overload control may refuse work, it must not
//! collapse throughput.

use std::time::{Duration, Instant};

use a2a_core::PairwiseAlltoall;
use a2a_faults::StormProfile;
use a2a_service::{
    BreakerConfig, BreakerState, Engine, JobError, JobSpec, OverloadPolicy, Service, ServiceConfig,
};
use serde::{Deserialize, Serialize};

use crate::ledger::{Cell, Named, Report, BENCH8};
use crate::throughput::bench4_grid;

/// Block bytes of every BENCH_8 job.
const BENCH8_BYTES: u64 = 64;

const STORM_TENANT_HEALTHY: u32 = 0;
const STORM_TENANT_FLAKY: u32 = 1;
const STORM_TENANT_POISONED: u32 = 2;

/// One job's deterministic outcome in the storm log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormRecord {
    pub tenant: u32,
    /// The tenant's 0-based submission index.
    pub job: u64,
    /// Phase label from the tenant's profile.
    pub phase: String,
    pub ok: bool,
    /// Stable outcome label (`"ok"`, `"exec-fault"`, `"dead-rank"`, ...).
    pub outcome: String,
    /// Receive-buffer digest of a success; `None` for failures.
    pub digest: Option<u64>,
}

/// The deterministic storm report (`storm.json`). Latency numbers stay
/// out by design — they are the only timing-dependent observations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormReport {
    pub seed: u64,
    pub ranks: usize,
    pub workers: usize,
    /// Digest every success must reproduce.
    pub reference_digest: u64,
    pub jobs: u64,
    pub ok: u64,
    pub failed: u64,
    /// Service-level retry executions the storm provoked.
    pub retries: u64,
    /// Times the poisoned tenant's breaker opened.
    pub breaker_opens: u64,
    /// Submissions the open breaker failed fast.
    pub breaker_denied: u64,
    /// The poisoned tenant's breaker closed again via a half-open probe
    /// (no reset), and its recovery-phase jobs all succeeded.
    pub recovered: bool,
    pub records: Vec<StormRecord>,
}

impl StormReport {
    /// Every violated storm invariant, as human-readable findings; empty
    /// means the storm passed.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let expect = healthy_profile().total_jobs()
            + flaky_profile().total_jobs()
            + poisoned_profile().total_jobs();
        if self.jobs != expect || self.records.len() as u64 != expect {
            bad.push(format!(
                "lost jobs: {} records / {} counted, expected {expect}",
                self.records.len(),
                self.jobs
            ));
        }
        for r in &self.records {
            if r.ok && r.digest != Some(self.reference_digest) {
                bad.push(format!(
                    "tenant {} job {} succeeded with digest {:?} != reference {:#x}",
                    r.tenant, r.job, r.digest, self.reference_digest
                ));
            }
            if r.tenant == STORM_TENANT_HEALTHY && !r.ok {
                bad.push(format!(
                    "healthy tenant job {} failed: {}",
                    r.job, r.outcome
                ));
            }
            if r.tenant == STORM_TENANT_POISONED && r.phase == "dead-rank" && r.ok {
                bad.push(format!(
                    "poisoned job {} succeeded against a dead rank",
                    r.job
                ));
            }
            if r.tenant == STORM_TENANT_POISONED && r.phase == "recovery" && !r.ok {
                bad.push(format!(
                    "recovery job {} failed after the fault cleared: {}",
                    r.job, r.outcome
                ));
            }
        }
        if self.breaker_opens == 0 {
            bad.push("poisoned tenant's breaker never opened".into());
        }
        if self.breaker_denied == 0 {
            bad.push("open breaker never failed a submission fast".into());
        }
        if !self.recovered {
            bad.push("breaker did not recover through a half-open probe".into());
        }
        if self.retries == 0 {
            bad.push("storm provoked no service-level retries".into());
        }
        let flaky_absorbed = self
            .records
            .iter()
            .filter(|r| r.tenant == STORM_TENANT_FLAKY && r.ok && r.phase.starts_with("ramp"))
            .count();
        if flaky_absorbed == 0 {
            bad.push("no flaky-tenant job survived the drop ramp (absorption broken)".into());
        }
        let ok = self.records.iter().filter(|r| r.ok).count() as u64;
        if ok != self.ok || self.ok + self.failed != self.jobs {
            bad.push(format!(
                "inconsistent totals: ok {} failed {} of {}",
                self.ok, self.failed, self.jobs
            ));
        }
        bad
    }
}

fn healthy_profile() -> StormProfile {
    StormProfile::healthy(48)
}

fn flaky_profile() -> StormProfile {
    StormProfile::flaky(8)
}

fn poisoned_profile() -> StormProfile {
    StormProfile::poisoned(4, 8, 4)
}

/// The breaker's cooldown during a storm. Long enough that the poisoned
/// phase's serialized submissions cannot straddle it (which would turn a
/// deterministic fast-fail into a timing-dependent probe), short enough
/// that the recovery sleep stays cheap.
const STORM_COOLDOWN: Duration = Duration::from_millis(1500);

/// Stable outcome label for the storm log; variants that embed counts or
/// durations are collapsed so the label is interleaving-independent.
fn outcome_label(res: &Result<a2a_service::JobOutput, JobError>) -> String {
    match res {
        Ok(_) => "ok".into(),
        Err(JobError::Exec(_)) => "exec-fault".into(),
        Err(JobError::Runtime(e)) => {
            if e.is_transient() {
                "runtime-transient".into()
            } else {
                "runtime-permanent".into()
            }
        }
        Err(JobError::DeadRank { .. }) => "dead-rank".into(),
        Err(JobError::TenantAborted { .. }) => "breaker-denied".into(),
        Err(JobError::Verification(_)) => "verification".into(),
        Err(other) => format!("{other:?}")
            .split(|c: char| !c.is_ascii_alphanumeric())
            .next()
            .unwrap_or("error")
            .to_ascii_lowercase(),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one seeded fault storm. Returns the human summary (with the
/// timing-dependent latency numbers) and the deterministic report.
pub fn storm(seed: u64, workers: usize) -> (String, StormReport) {
    use std::fmt::Write as _;
    let grid = bench4_grid(1);
    let n = grid.world_size();
    let bytes = 64u64;
    let svc = Service::new(ServiceConfig {
        workers: workers.max(1),
        breaker: BreakerConfig {
            // Transient flaky failures must never open a breaker here
            // (that would make outcomes depend on resolution order);
            // permanent failures still open immediately.
            min_samples: usize::MAX / 2,
            window: 64,
            cooldown: STORM_COOLDOWN,
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    });

    // The digest every success must reproduce, from one clean reference
    // job (verified against the transpose oracle like all the others).
    let reference_digest = svc
        .submit(
            &PairwiseAlltoall,
            &grid,
            JobSpec::new(STORM_TENANT_HEALTHY, bytes),
        )
        .wait()
        .expect("clean reference job")
        .digest;

    let healthy = healthy_profile();
    let flaky = flaky_profile();
    let poisoned = poisoned_profile();
    let mut records: Vec<StormRecord> = Vec::new();
    let mut latencies: Vec<Duration> = Vec::new();

    std::thread::scope(|scope| {
        // Healthy control: serialized round-trips, latency per job.
        let healthy_thread = scope.spawn(|| {
            let mut recs = Vec::new();
            let mut lats = Vec::new();
            for j in 0..healthy.total_jobs() {
                let t0 = Instant::now();
                let res = svc
                    .submit(
                        &PairwiseAlltoall,
                        &grid,
                        JobSpec::new(STORM_TENANT_HEALTHY, bytes),
                    )
                    .wait();
                lats.push(t0.elapsed());
                recs.push(StormRecord {
                    tenant: STORM_TENANT_HEALTHY,
                    job: j,
                    phase: healthy.phase_at(j).expect("in profile").name.into(),
                    ok: res.is_ok(),
                    digest: res.as_ref().ok().map(|o| o.digest),
                    outcome: outcome_label(&res),
                });
            }
            (recs, lats)
        });

        // Flaky burst: all jobs in flight at once; even jobs ride the
        // parallel engine (retransmit absorbs packet faults), odd jobs
        // the sequential engine (faults surface as transient job
        // failures → service retries with rerolled plans).
        let flaky_thread = scope.spawn(|| {
            let handles: Vec<_> = (0..flaky.total_jobs())
                .map(|j| {
                    let mut spec = JobSpec::new(STORM_TENANT_FLAKY, bytes);
                    if j % 2 == 0 {
                        spec = spec.with_engine(Engine::Parallel { threads: 2 });
                    }
                    if let Some(plan) = flaky.plan_at(seed, STORM_TENANT_FLAKY, n, j) {
                        spec = spec.with_faults(std::sync::Arc::new(plan));
                    }
                    svc.submit(&PairwiseAlltoall, &grid, spec)
                })
                .collect();
            handles
                .iter()
                .enumerate()
                .map(|(j, h)| {
                    let res = h.wait();
                    StormRecord {
                        tenant: STORM_TENANT_FLAKY,
                        job: j as u64,
                        phase: flaky.phase_at(j as u64).expect("in profile").name.into(),
                        ok: res.is_ok(),
                        digest: res.as_ref().ok().map(|o| o.digest),
                        outcome: outcome_label(&res),
                    }
                })
                .collect::<Vec<_>>()
        });

        // Poisoned stream: serialized so the breaker's state transitions
        // happen in submission order. Before the recovery phase, sleep
        // past the cooldown so the first recovery job is the half-open
        // probe.
        for j in 0..poisoned.total_jobs() {
            let phase = poisoned.phase_at(j).expect("in profile");
            if phase.name == "recovery"
                && poisoned
                    .phase_at(j.saturating_sub(1))
                    .expect("in profile")
                    .name
                    != "recovery"
            {
                std::thread::sleep(STORM_COOLDOWN + Duration::from_millis(500));
            }
            let mut spec = JobSpec::new(STORM_TENANT_POISONED, bytes);
            if let Some(plan) = poisoned.plan_at(seed, STORM_TENANT_POISONED, n, j) {
                spec = spec.with_faults(std::sync::Arc::new(plan));
            }
            let res = svc.submit(&PairwiseAlltoall, &grid, spec).wait();
            records.push(StormRecord {
                tenant: STORM_TENANT_POISONED,
                job: j,
                phase: phase.name.into(),
                ok: res.is_ok(),
                digest: res.as_ref().ok().map(|o| o.digest),
                outcome: outcome_label(&res),
            });
        }

        let (healthy_recs, lats) = healthy_thread.join().expect("healthy thread");
        records.extend(healthy_recs);
        latencies = lats;
        records.extend(flaky_thread.join().expect("flaky thread"));
    });

    svc.join();
    records.sort_by_key(|r| (r.tenant, r.job));

    let health = svc.health();
    let poisoned_health = health
        .tenants
        .iter()
        .find(|t| t.tenant == STORM_TENANT_POISONED)
        .expect("poisoned tenant seen");
    let recovered = poisoned_health.breaker.state == BreakerState::Closed
        && poisoned_health.breaker.first_error.is_none()
        && records
            .iter()
            .filter(|r| r.tenant == STORM_TENANT_POISONED && r.phase == "recovery")
            .all(|r| r.ok);
    let ok = records.iter().filter(|r| r.ok).count() as u64;
    let report = StormReport {
        seed,
        ranks: n,
        workers: workers.max(1),
        reference_digest,
        jobs: records.len() as u64,
        ok,
        failed: records.len() as u64 - ok,
        retries: health.counters.retries,
        breaker_opens: poisoned_health.breaker.opens,
        breaker_denied: health.counters.breaker_denied,
        recovered,
        records,
    };

    latencies.sort();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# storm: seed {} on {} ranks, {} workers: {} jobs, {} ok / {} failed",
        report.seed, report.ranks, report.workers, report.jobs, report.ok, report.failed
    );
    let _ = writeln!(
        out,
        "breaker: opened {}x, denied {} submissions, recovered via probe: {}",
        report.breaker_opens, report.breaker_denied, report.recovered
    );
    let _ = writeln!(out, "retries: {} rerolled re-executions", report.retries);
    let _ = writeln!(
        out,
        "healthy tenant latency: p50 {:.1?}, p99 {:.1?} over {} round-trips (stdout only; not in storm.json)",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.len()
    );
    for v in report.check() {
        let _ = writeln!(out, "VIOLATION: {v}");
    }
    (out, report)
}

/// Submit `burst` jobs as fast as possible and wait for all handles.
/// Returns `(completed, refused, elapsed)`; any error that is not an
/// overload refusal panics — goodput of broken jobs is meaningless.
fn overload_burst(
    svc: &Service,
    grid: &a2a_topo::ProcGrid,
    tenants: u32,
    burst: u64,
) -> (u64, u64, Duration) {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..burst)
        .map(|i| {
            svc.submit(
                &PairwiseAlltoall,
                grid,
                JobSpec::new(i as u32 % tenants, BENCH8_BYTES),
            )
        })
        .collect();
    let mut completed = 0u64;
    let mut refused = 0u64;
    for h in &handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(JobError::ServiceOverloaded { .. }) => refused += 1,
            Err(e) => panic!("bench8 job failed outside overload control: {e}"),
        }
    }
    (completed, refused, t0.elapsed())
}

/// Measure goodput under every overload policy against the uncontended
/// warm rate on the same host and CPU budget.
pub fn bench8(nodes: usize, workers: usize, tenants: u32) -> Report {
    let grid = bench4_grid(nodes);
    let tenants = tenants.max(1);
    let workers = workers.max(1);
    const QUEUE: usize = 32;

    // Uncontended reference: default deep queue, same worker budget.
    let warm = Service::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    // Size the burst so one takes roughly 120 ms at the warm rate.
    let (probe_done, _, probe_t) = overload_burst(&warm, &grid, tenants, 8);
    let per_job = (probe_t / probe_done.max(1) as u32).max(Duration::from_micros(5));
    let burst = (0.12 / per_job.as_secs_f64()).clamp(64.0, 4000.0) as u64;
    let mut warm_rate = 0.0_f64;
    for _ in 0..3 {
        let (done, _, t) = overload_burst(&warm, &grid, tenants, burst);
        warm_rate = warm_rate.max(done as f64 / t.as_secs_f64());
    }

    // Overloaded runs: a queue far smaller than the burst, so every
    // policy's overload path is genuinely exercised.
    let cells = [
        OverloadPolicy::Block,
        OverloadPolicy::Reject,
        OverloadPolicy::ShedOldest,
    ]
    .into_iter()
    .map(|policy| {
        let svc = Service::new(ServiceConfig {
            workers,
            queue_capacity: QUEUE,
            overload: policy,
            ..ServiceConfig::default()
        });
        let mut best = 0.0_f64;
        let (mut completed, mut refused) = (0u64, 0u64);
        for _ in 0..3 {
            let (done, refd, t) = overload_burst(&svc, &grid, tenants, burst);
            completed += done;
            refused += refd;
            best = best.max(done as f64 / t.as_secs_f64());
        }
        Cell::new(
            format!("{policy:?}"),
            BENCH8_BYTES,
            [
                ("offered", (3 * burst) as f64),
                ("completed", completed as f64),
                ("refused", refused as f64),
                ("goodput_jobs_per_sec", best),
                ("goodput_over_warm", best / warm_rate),
            ],
        )
    })
    .collect();

    Report {
        bench: BENCH8.bench.into(),
        machine: grid.machine().name.clone(),
        header: Named::from([
            ("nodes", nodes as f64),
            ("ppn", grid.machine().ppn() as f64),
            ("ranks", grid.world_size() as f64),
            ("workers", workers as f64),
            ("tenants", tenants as f64),
            ("queue_capacity", QUEUE as f64),
            ("warm_jobs_per_sec", warm_rate),
        ]),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_passes_its_invariants_and_is_deterministic() {
        let (summary, a) = storm(42, 2);
        assert!(a.check().is_empty(), "violations:\n{summary}");
        let (_, b) = storm(42, 2);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed, same storm.json"
        );
        // The healthy control resolved every round-trip well under any
        // sane bound (generous: the whole storm sleeps ~2 s once).
        assert!(summary.contains("p99"));
    }

    #[test]
    fn different_seeds_draw_different_storms() {
        let (_, a) = storm(1, 2);
        let (_, b) = storm(2, 2);
        assert!(a.check().is_empty() && b.check().is_empty());
        // Outcome *labels* may coincide, but the fault draws differ, so
        // at least some flaky-job outcome differs across 48 jobs.
        let outcomes = |r: &StormReport| {
            r.records
                .iter()
                .filter(|x| x.tenant == STORM_TENANT_FLAKY)
                .map(|x| x.outcome.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(outcomes(&a), outcomes(&b), "seeds must decorrelate");
    }

    #[test]
    fn bench8_exercises_overload_and_meets_the_floor() {
        let report = bench8(1, 2, 3);
        let refused = |policy: &str| {
            let cell = report.cells.iter().find(|c| c.case == policy).unwrap();
            cell.metrics.get("refused")
        };
        assert!(
            refused("Reject") > 0.0,
            "burst must overflow the tiny queue"
        );
        assert_eq!(
            refused("Block"),
            0.0,
            "blocking backpressure refuses nothing"
        );
        let table = BENCH8.table(&report);
        let bad = BENCH8.check(&report, &[("nodes", 1), ("workers", 2)]);
        assert!(bad.is_empty(), "{bad:?}\n{table}");
        let bad = BENCH8.gate(&report, Some(&report));
        assert!(bad.is_empty(), "{bad:?}\n{table}");
    }
}
