//! Chaos harness for the batch-reasoning service: seeded random fault
//! schedules over seeded random batches, checked against the service's
//! liveness and accounting invariants. A run is reproducible from its
//! seed; any violated invariant panics (non-zero exit), so this binary
//! doubles as a CI smoke gate:
//!
//! ```text
//! cargo run --release -p boole-bench --bin chaosbench -- \
//!     [--seed 1] [--rounds 8] [--smoke] [--json]
//! ```
//!
//! Invariants enforced every round:
//! * every submitted job reaches exactly one terminal status within the
//!   round budget — no handle hangs, no worker dies permanently;
//! * `submitted == completed + cancelled + failed + panicked + shed`;
//! * `shutdown` drains: after it returns, every handle is terminal.

use std::sync::Arc;
use std::time::{Duration, Instant};

use boole::json::{Json, ToJson};
use boole::BooleParams;
use boole_service::faults::site;
use boole_service::{
    FaultAction, FaultPolicy, FaultRegistry, GenSpec, JobHandle, JobSpec, Service, ServiceConfig,
    ServiceStats, ShedPolicy, Trigger,
};

/// Local splitmix64 (the registry's own stream stays private): one
/// seed reproduces the whole run — schedule, config, and batch.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix64(state) % n.max(1)
}

fn spec(text: &str) -> JobSpec {
    JobSpec::generated(GenSpec::parse(text).unwrap())
        .with_params(BooleParams::lightweight().without_time_limit())
}

/// A randomly-armed registry. Panic is never installed at
/// `queue.accept`: that failpoint fires on the submitter's thread
/// (this harness), outside any worker's panic-isolation boundary.
fn random_faults(rng: &mut u64) -> Arc<FaultRegistry> {
    let faults = Arc::new(FaultRegistry::new());
    for &name in site::ALL {
        if below(rng, 2) == 0 {
            continue;
        }
        let trigger = match below(rng, 4) {
            0 => Trigger::Nth(1 + below(rng, 3)),
            1 => Trigger::EveryKth(2 + below(rng, 2)),
            2 => Trigger::Always,
            _ => Trigger::Probability {
                numerator: 1 + below(rng, 3),
                denominator: 4,
                seed: splitmix64(rng),
            },
        };
        let action = match below(rng, 2) {
            0 if name != site::QUEUE_ACCEPT => FaultAction::Panic,
            _ => FaultAction::Error,
        };
        faults.configure(name, FaultPolicy { trigger, action });
    }
    faults
}

struct RoundReport {
    stats: ServiceStats,
    faults_fired: u64,
    elapsed: Duration,
}

/// One chaos round: random schedule, random config, random batch.
/// Panics on any violated invariant.
fn chaos_round(seed: u64, round: u64, jobs: usize) -> RoundReport {
    let mut rng = seed ^ round.wrapping_mul(0x517c_c1b7_2722_0a95);
    let faults = random_faults(&mut rng);
    let shed_policy = match below(&mut rng, 2) {
        0 => ShedPolicy::Block,
        _ => ShedPolicy::Shed,
    };
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1 + below(&mut rng, 3) as usize)
            .with_queue_capacity(1 + below(&mut rng, 4) as usize)
            .with_shed_policy(shed_policy)
            .with_max_retries(below(&mut rng, 3) as u32)
            .with_retry_base(Duration::from_millis(1))
            .with_faults(Arc::clone(&faults)),
    );

    // Duplicates on purpose: single-flight leadership must survive
    // injected panics (followers re-elect, nobody hangs).
    let pool = ["csa:3", "wallace:3", "booth:4", "csa:3"];
    let start = Instant::now();
    let handles: Vec<JobHandle> = (0..jobs)
        .map(|i| {
            let handle = service.submit(spec(pool[i % pool.len()]));
            if below(&mut rng, 4) == 0 {
                handle.cancel();
            }
            handle
        })
        .collect();
    for handle in &handles {
        let outcome = handle
            .wait_timeout(Duration::from_secs(120))
            .unwrap_or_else(|| {
                panic!(
                    "liveness violated (seed {seed}, round {round}): job {} never terminal",
                    handle.id()
                )
            });
        assert!(outcome.status().is_terminal());
    }
    let stats = service.shutdown();
    for handle in &handles {
        assert!(
            handle.status().is_terminal(),
            "drain violated (seed {seed}, round {round}): job {} non-terminal after shutdown",
            handle.id()
        );
    }
    assert_eq!(
        stats.submitted, jobs as u64,
        "accounting violated (seed {seed}, round {round}): submissions"
    );
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.failed + stats.panicked + stats.shed,
        "accounting violated (seed {seed}, round {round}): {stats:?}"
    );
    RoundReport {
        stats,
        faults_fired: faults.fired_total(),
        elapsed: start.elapsed(),
    }
}

fn main() {
    let seed = boole_bench::arg_usize("--seed", 1) as u64;
    let smoke = boole_bench::arg_flag("--smoke");
    let default_rounds = if smoke { 2 } else { 8 };
    let rounds = boole_bench::arg_usize("--rounds", default_rounds) as u64;
    let jobs = if smoke { 4 } else { 8 };
    let as_json = boole_bench::arg_flag("--json");

    if !as_json {
        println!("== chaosbench — seed {seed}, {rounds} rounds x {jobs} jobs ==");
        println!(
            "{:>7} {:>6} {:>10} {:>10} {:>8} {:>6} {:>8} {:>8} {:>10}",
            "round",
            "fired",
            "completed",
            "cancelled",
            "failed",
            "shed",
            "panicked",
            "retried",
            "time(s)"
        );
    }
    let mut rows: Vec<Json> = Vec::new();
    let mut totals = (0u64, 0u64);
    for round in 0..rounds {
        let report = chaos_round(seed, round, jobs);
        let s = &report.stats;
        totals.0 += s.submitted;
        totals.1 += report.faults_fired;
        if as_json {
            rows.push(Json::obj([
                ("round", Json::from(round as usize)),
                ("faults_fired", Json::from(report.faults_fired as usize)),
                ("elapsed_ms", Json::duration_ms(report.elapsed)),
                ("service", s.to_json()),
            ]));
        } else {
            println!(
                "{round:>7} {:>6} {:>10} {:>10} {:>8} {:>6} {:>8} {:>8} {:>9.2}s",
                report.faults_fired,
                s.completed,
                s.cancelled,
                s.failed,
                s.shed,
                s.panicked,
                s.retried,
                report.elapsed.as_secs_f64(),
            );
        }
    }
    if as_json {
        println!(
            "{}",
            Json::obj([
                ("experiment", Json::str("chaosbench")),
                ("seed", Json::from(seed as usize)),
                ("rounds", Json::from(rounds as usize)),
                ("jobs_per_round", Json::from(jobs)),
                ("jobs_total", Json::from(totals.0 as usize)),
                ("faults_fired_total", Json::from(totals.1 as usize)),
                ("invariants", Json::str("ok")),
                ("rows", Json::arr(rows)),
            ])
            .pretty()
        );
    } else {
        println!(
            "all invariants held: {} jobs terminal, {} faults fired",
            totals.0, totals.1
        );
    }
}
