//! Integration tests for the batch-reasoning service: pooled results
//! match the bare pipeline byte for byte, cache behavior, and
//! cooperative cancellation.

use std::time::{Duration, Instant};

use boole::json::ToJson;
use boole::{BoolE, BooleParams};
use boole_service::{
    GenSpec, JobSpec, JobStatus, JobVerdict, ResultSummary, Service, ServiceConfig,
};

/// Eight distinct jobs mixing families, widths, and preparations.
const MIXED: [&str; 8] = [
    "csa:2",
    "csa:3",
    "csa:4",
    "booth:4",
    "wallace:3",
    "wallace:4",
    "csa:3:mapped",
    "csa:3:dch",
];

/// No wall-clock stop: under CPU contention a time-bound phase stops
/// at a load-dependent point, which would break the byte-identical
/// contract this file asserts.
fn params() -> BooleParams {
    BooleParams::small().without_time_limit()
}

fn mixed_specs() -> Vec<JobSpec> {
    MIXED
        .iter()
        .map(|text| JobSpec::generated(GenSpec::parse(text).unwrap()).with_params(params()))
        .collect()
}

/// The reference document for a generated job: the `BoolE` pipeline
/// itself, run on the calling thread with no service code in the way.
fn pipeline_json(text: &str, params: BooleParams) -> String {
    let netlist = GenSpec::parse(text).unwrap().build();
    ResultSummary::from(&BoolE::new(params).run(&netlist))
        .to_json()
        .to_string()
}

#[test]
fn four_worker_batch_matches_serial_byte_for_byte() {
    // The reference is the pipeline run inline, one job after another.
    let service = Service::new(ServiceConfig {
        num_workers: 4,
        queue_capacity: 16,
        cache_capacity: 64,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let concurrent = service.run_batch(mixed_specs());
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.completed, 8);

    assert_eq!(concurrent.len(), MIXED.len());
    for (c, text) in concurrent.iter().zip(MIXED) {
        assert_eq!(c.label, *text);
        // The canonical JSON excludes wall-clock timing by contract;
        // everything else must agree byte-for-byte.
        assert_eq!(
            c.summary().unwrap().to_json().to_string(),
            pipeline_json(text, params()),
            "job {} diverged between the 4-worker service and the pipeline",
            c.label
        );
        assert!(c.summary().unwrap().exact_fa_count >= 1 || c.label == "csa:2");
    }
}

#[test]
fn duplicate_netlists_serialize_identically_across_modes() {
    // Two identical jobs: with the cache one of them is served from
    // it, without the cache neither is. The canonical JSON must not
    // leak that difference.
    let spec = || JobSpec::generated(GenSpec::parse("csa:3").unwrap()).with_params(params());
    let service = Service::new(ServiceConfig {
        num_workers: 2,
        queue_capacity: 4,
        cache_capacity: 4,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let cached = service.run_batch([spec(), spec()]);
    let uncached = service.run_batch([spec().without_cache(), spec().without_cache()]);
    service.shutdown();
    assert_eq!(cached.iter().filter(|o| o.from_cache).count(), 1);
    assert!(uncached.iter().all(|o| !o.from_cache));
    for (c, u) in cached.iter().zip(&uncached) {
        assert_eq!(c.to_json().to_string(), u.to_json().to_string());
    }
}

#[test]
fn search_threads_never_change_the_canonical_result_json() {
    // The parallel in-saturation rule search must be invisible in the
    // result document: whatever thread count the operator configures,
    // the canonical JSON stays byte-identical to the single-threaded
    // pipeline's.
    let oracle_json = pipeline_json("wallace:4", params());
    let spec = |params: BooleParams| {
        JobSpec::generated(GenSpec::parse("wallace:4").unwrap())
            .with_params(params)
            .without_cache()
    };
    let service = Service::new(ServiceConfig {
        num_workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    // Via the per-spec knob.
    for threads in [2, 5] {
        let outcome = service
            .submit(spec(params().with_search_threads(threads)))
            .wait();
        assert_eq!(
            outcome.summary().unwrap().to_json().to_string(),
            oracle_json,
            "per-spec search_threads={threads} changed the result JSON"
        );
    }
    service.shutdown();

    // Via the service-wide operator override.
    let service = Service::new(ServiceConfig {
        num_workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        telemetry: None,
        search_threads: Some(3),
        ..ServiceConfig::default()
    });
    let outcome = service.submit(spec(params())).wait();
    service.shutdown();
    assert!(!outcome.from_cache);
    assert_eq!(
        outcome.summary().unwrap().to_json().to_string(),
        oracle_json,
        "ServiceConfig::search_threads changed the result JSON"
    );
}

#[test]
fn resubmitted_netlist_is_answered_from_cache_without_saturation() {
    let service = Service::new(ServiceConfig {
        num_workers: 2,
        queue_capacity: 8,
        cache_capacity: 8,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let spec =
        || JobSpec::generated(GenSpec::parse("csa:3").unwrap()).with_params(BooleParams::small());

    let first = service.submit(spec()).wait();
    assert!(!first.from_cache);
    let after_first = service.stats();
    assert_eq!(after_first.pipelines_run, 1);
    assert_eq!(after_first.cache.misses, 1);
    assert_eq!(after_first.cache.insertions, 1);

    let second = service.submit(spec()).wait();
    assert!(second.from_cache, "resubmission must hit the cache");
    let after_second = service.stats();
    // The key check: no second saturation run happened.
    assert_eq!(after_second.pipelines_run, 1);
    assert_eq!(after_second.cache.hits, 1);

    // Identical payloads, not merely equal counters.
    assert_eq!(
        first.summary().unwrap().to_json().to_string(),
        second.summary().unwrap().to_json().to_string()
    );

    // An *isomorphic* netlist (same structure, fresh object) also hits.
    let iso =
        JobSpec::netlist("iso", aig::gen::csa_multiplier(3)).with_params(BooleParams::small());
    assert!(service.submit(iso).wait().from_cache);

    // A different width misses.
    let other =
        JobSpec::netlist("other", aig::gen::csa_multiplier(4)).with_params(BooleParams::small());
    assert!(!service.submit(other).wait().from_cache);

    // Different params on the same netlist miss too.
    let heavier = JobSpec::generated(GenSpec::parse("csa:3").unwrap())
        .with_params(BooleParams::lightweight());
    assert!(!service.submit(heavier).wait().from_cache);

    service.shutdown();
}

#[test]
fn full_cache_evicts_the_least_recently_used_result() {
    // One worker runs csa:3, wallace:3, csa:3 in order. With room for
    // one entry, wallace:3 evicts csa:3 and the resubmission reruns;
    // with room for two, it is a hit and nothing is evicted.
    let run = |cache_capacity: usize| {
        let service = Service::new(ServiceConfig {
            num_workers: 1,
            cache_capacity,
            ..ServiceConfig::default()
        });
        let outcomes: Vec<_> = ["csa:3", "wallace:3", "csa:3"]
            .iter()
            .map(|text| {
                let spec = JobSpec::generated(GenSpec::parse(text).unwrap()).with_params(params());
                service.submit(spec).wait()
            })
            .collect();
        (outcomes[2].from_cache, service.shutdown())
    };

    let (third_from_cache, stats) = run(1);
    assert!(!third_from_cache, "the evicted csa:3 result must rerun");
    assert_eq!(stats.pipelines_run, 3);
    assert_eq!(stats.cache.evictions, 2);

    let (third_from_cache, stats) = run(2);
    assert!(third_from_cache, "csa:3 must still be cached");
    assert_eq!(stats.pipelines_run, 2);
    assert_eq!(stats.cache.evictions, 0);
}

#[test]
fn cold_cache_stampede_runs_saturation_exactly_once() {
    // Six identical jobs hit a cold cache on four workers: the
    // single-flight table must coalesce them onto one pipeline run.
    // Pre-dedup, each worker that dequeued before the first finished
    // ran its own saturation (pipelines_run == min(N, workers)).
    let service = Service::new(ServiceConfig {
        num_workers: 4,
        queue_capacity: 16,
        cache_capacity: 16,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let specs: Vec<JobSpec> = (0..6)
        .map(|_| {
            JobSpec::generated(GenSpec::parse("csa:4").unwrap())
                .with_params(BooleParams::small().without_time_limit())
        })
        .collect();
    let outcomes = service.run_batch(specs);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(
        stats.pipelines_run, 1,
        "identical concurrent submissions must run saturation once: {stats:?}"
    );
    // Every non-leader was answered either by the in-flight pipeline
    // (coalesced) or, if it started after the leader finished, by the
    // cache it filled.
    assert_eq!(stats.coalesced + stats.cache.hits, 5, "{stats:?}");
    // And all six payloads are the same bytes.
    let first = outcomes[0].summary().unwrap().to_json().to_string();
    for outcome in &outcomes {
        assert_eq!(outcome.summary().unwrap().to_json().to_string(), first);
    }
}

#[test]
fn cancelled_leader_does_not_strand_coalesced_followers() {
    // The leader gets a deadline short enough to cancel mid-saturation;
    // the followers (no deadline) must elect a new leader and finish,
    // not wait forever or inherit the cancellation.
    let service = Service::new(ServiceConfig {
        num_workers: 3,
        queue_capacity: 16,
        cache_capacity: 16,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let spec = || {
        JobSpec::generated(GenSpec::parse("csa:5").unwrap())
            .with_params(BooleParams::small().without_time_limit())
    };
    let doomed = service.submit(spec().with_deadline(Duration::from_millis(30)));
    let followers: Vec<_> = (0..2).map(|_| service.submit(spec())).collect();
    // Whatever happens to the doomed leader (it may even complete if
    // the machine is fast), every follower must reach a completed
    // result.
    doomed.wait();
    for follower in &followers {
        let outcome = follower.wait();
        assert!(
            outcome.summary().is_some(),
            "follower must complete after leader cancellation, got {:?}",
            outcome.status()
        );
    }
    service.shutdown();
}

#[test]
fn one_ms_deadline_cancels_cooperatively_without_poisoning_the_pool() {
    let service = Service::new(ServiceConfig {
        num_workers: 2,
        queue_capacity: 8,
        cache_capacity: 8,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    // csa:8 saturates for many seconds under default params; a 1 ms
    // deadline must kill it long before that.
    let doomed = service.submit(
        JobSpec::generated(GenSpec::parse("csa:8").unwrap())
            .with_deadline(Duration::from_millis(1)),
    );
    let outcome = doomed.wait();
    assert!(
        matches!(outcome.verdict, JobVerdict::Cancelled { .. }),
        "expected cancellation, got {:?}",
        outcome.status()
    );
    assert_eq!(doomed.status(), JobStatus::Cancelled);

    // The worker pool must remain fully functional afterwards.
    let healthy = service.submit(
        JobSpec::generated(GenSpec::parse("csa:3").unwrap()).with_params(BooleParams::small()),
    );
    let outcome = healthy.wait();
    assert!(outcome.summary().is_some(), "pool poisoned by cancellation");

    let stats = service.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn explicit_cancel_stops_a_large_job_mid_saturation() {
    let service = Service::new(ServiceConfig {
        num_workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    // Give the job a huge budget so only cancellation can stop it soon.
    let params = BooleParams {
        saturate: boole::SaturateParams {
            node_limit: 10_000_000,
            time_limit: Duration::from_secs(600),
            ..boole::SaturateParams::default()
        },
    };
    let job =
        service.submit(JobSpec::generated(GenSpec::parse("csa:8").unwrap()).with_params(params));

    // Wait until the pipeline is actually running, then cancel.
    let start = Instant::now();
    while !matches!(job.status(), JobStatus::Running) {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "job never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200)); // let saturation get going
    job.cancel();
    let cancel_issued = Instant::now();
    let outcome = job.wait();
    let latency = cancel_issued.elapsed();
    match &outcome.verdict {
        JobVerdict::Cancelled { phase } => {
            assert!(phase.is_some(), "cancellation should name the phase");
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
    // Cooperative latency is bounded by one rule search/apply step.
    assert!(
        latency < Duration::from_secs(30),
        "cancellation took {latency:?}"
    );
    service.shutdown();
}

#[test]
fn queued_jobs_cancel_before_running() {
    // One worker + a long job in front: the queued job is cancelled
    // while it waits and must resolve with no pipeline phase.
    let service = Service::new(ServiceConfig {
        num_workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let blocker = service.submit(
        JobSpec::generated(GenSpec::parse("csa:6").unwrap()).with_params(BooleParams::default()),
    );
    let queued = service.submit(
        JobSpec::generated(GenSpec::parse("csa:3").unwrap()).with_params(BooleParams::small()),
    );
    queued.cancel();
    let outcome = queued.wait();
    assert!(matches!(
        outcome.verdict,
        JobVerdict::Cancelled { phase: None }
    ));
    blocker.cancel();
    blocker.wait();
    service.shutdown();
}

#[test]
fn failed_sources_are_reported_not_panicked() {
    let service = Service::new(ServiceConfig {
        num_workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let missing = service.submit(JobSpec::file("/nonexistent/never.aag"));
    let outcome = missing.wait();
    assert!(matches!(outcome.verdict, JobVerdict::Failed(_)));
    // A missing file will still be missing after any backoff.
    assert_eq!(outcome.retries, 0);
    let path = std::env::temp_dir().join(format!("boole-garbled-{}.aag", std::process::id()));
    std::fs::write(&path, "not an aiger file").unwrap();
    let garbled = service.submit(JobSpec::file(&path)).wait();
    std::fs::remove_file(&path).ok();
    assert!(matches!(garbled.verdict, JobVerdict::Failed(_)));
    // A parse error fails the same way every time: no retry budget spent.
    assert_eq!(garbled.retries, 0);
    let stats = service.shutdown();
    assert_eq!(stats.failed, 2);
}

#[test]
fn job_expiring_in_the_queue_resolves_without_running() {
    // One worker, busy with a job that runs out its own deadline: the
    // queued job's deadline passes while it waits, and nothing but its
    // token says so.
    let service = Service::new(ServiceConfig {
        num_workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let blocker = service.submit(
        JobSpec::generated(GenSpec::parse("csa:8").unwrap())
            .with_deadline(Duration::from_millis(50)),
    );
    let queued = service.submit(
        JobSpec::generated(GenSpec::parse("csa:3").unwrap())
            .with_params(params())
            .with_deadline(Duration::from_millis(1)),
    );
    let outcome = queued.wait();
    assert!(
        matches!(outcome.verdict, JobVerdict::Cancelled { phase: None }),
        "expected cancellation before any phase, got {:?}",
        outcome.verdict
    );
    blocker.wait();
    let stats = service.shutdown();
    assert_eq!(
        stats.pipelines_run, 1,
        "only the blocker may run a pipeline"
    );
}

#[test]
fn unrepresentable_deadline_means_no_deadline() {
    let service = Service::new(ServiceConfig::default().with_workers(1));
    let job = service.submit(
        JobSpec::generated(GenSpec::parse("csa:3").unwrap())
            .with_params(params())
            .with_deadline(Duration::MAX),
    );
    assert!(job.wait().summary().is_some());
    assert_eq!(job.status(), JobStatus::Completed);
    let stats = service.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
}

#[test]
fn wait_timeout_with_an_unrepresentable_timeout_waits_for_the_outcome() {
    let service = Service::new(ServiceConfig::default().with_workers(1));
    let job =
        service.submit(JobSpec::generated(GenSpec::parse("csa:3").unwrap()).with_params(params()));
    let outcome = job.wait_timeout(Duration::MAX);
    assert!(outcome.is_some_and(|o| o.summary().is_some()));
    service.shutdown();
}
