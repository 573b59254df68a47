//! Event-stream invariants: phase bracketing per job, gapless sequence
//! numbers (modulo explicit `dropped` markers), terminal events under
//! cancellation, the NDJSON rendering of the pipeline's own events, and
//! the stream's agreement with the service's stats block.

use std::sync::Arc;
use std::time::Duration;

use boole::telemetry::{EventBus, EventKind, TelemetryEvent, TelemetrySink};
use boole::{BooleParams, Json};
use boole_service::faults::site;
use boole_service::{
    FaultAction, FaultPolicy, FaultRegistry, GenSpec, JobSpec, Service, ServiceConfig, Trigger,
};

fn sink() -> TelemetrySink {
    Arc::new(EventBus::default())
}

fn config(workers: usize, telemetry: &TelemetrySink) -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(workers)
        .with_telemetry(Arc::clone(telemetry))
}

fn spec(text: &str) -> JobSpec {
    JobSpec::generated(GenSpec::parse(text).unwrap())
        .with_params(BooleParams::small().without_time_limit())
}

fn job_of(kind: &EventKind) -> Option<u64> {
    match kind {
        EventKind::JobSubmitted { job, .. }
        | EventKind::JobStarted { job }
        | EventKind::PhaseStarted { job, .. }
        | EventKind::PhaseFinished { job, .. }
        | EventKind::Iteration { job, .. }
        | EventKind::CacheHit { job, .. }
        | EventKind::CacheMiss { job, .. }
        | EventKind::JobRetry { job, .. }
        | EventKind::JobDone { job, .. } => Some(*job),
        EventKind::CacheEvicted { .. } | EventKind::Dropped { .. } => None,
    }
}

/// Asserts the cross-job invariants on a full drained stream: sequence
/// numbers are gapless except where a `dropped` marker accounts for
/// exactly the burned range, and every job's events are well-bracketed
/// (submitted, then started, phases open/close strictly nested with
/// iterations only inside `saturate`, and a single terminal
/// `job_done` after which the job goes silent).
fn assert_stream_invariants(events: &[TelemetryEvent]) {
    let mut expected_seq = 0u64;
    for event in events {
        if let EventKind::Dropped { count } = event.kind {
            assert!(count > 0, "empty dropped marker at seq {}", event.seq);
            expected_seq += count;
        }
        assert_eq!(
            event.seq, expected_seq,
            "sequence gap not accounted by a dropped marker"
        );
        expected_seq += 1;
    }

    let jobs: std::collections::BTreeSet<u64> =
        events.iter().filter_map(|e| job_of(&e.kind)).collect();
    for job in jobs {
        let stream: Vec<&EventKind> = events
            .iter()
            .filter(|e| job_of(&e.kind) == Some(job))
            .map(|e| &e.kind)
            .collect();
        assert!(
            matches!(stream[0], EventKind::JobSubmitted { .. }),
            "job {job} must open with job_submitted, got {:?}",
            stream[0]
        );
        let mut open_phase: Option<&str> = None;
        let mut done = false;
        let mut started = false;
        for kind in &stream[1..] {
            assert!(!done, "job {job} emitted {kind:?} after its job_done");
            match kind {
                EventKind::JobSubmitted { .. } => panic!("job {job} submitted twice"),
                EventKind::JobStarted { .. } => {
                    assert!(!started, "job {job} started twice");
                    started = true;
                }
                EventKind::PhaseStarted { phase, .. } => {
                    assert!(started, "job {job}: phase before job_started");
                    assert_eq!(
                        open_phase, None,
                        "job {job}: phase {phase} opened inside another phase"
                    );
                    open_phase = Some(phase);
                }
                EventKind::PhaseFinished { phase, .. } => {
                    assert_eq!(
                        open_phase,
                        Some(*phase),
                        "job {job}: phase_finished({phase}) without matching start"
                    );
                    open_phase = None;
                }
                EventKind::Iteration { .. } => {
                    assert_eq!(
                        open_phase,
                        Some("saturate"),
                        "job {job}: iteration outside the saturate phase"
                    );
                }
                EventKind::CacheHit { .. } | EventKind::CacheMiss { .. } => {
                    assert!(started, "job {job}: cache lookup before job_started");
                }
                EventKind::JobRetry { .. } => {
                    assert_eq!(
                        open_phase, None,
                        "job {job}: retry announced inside an open phase"
                    );
                }
                EventKind::JobDone { .. } => {
                    assert_eq!(open_phase, None, "job {job} finished inside an open phase");
                    done = true;
                }
                EventKind::CacheEvicted { .. } | EventKind::Dropped { .. } => {
                    unreachable!("not job-scoped")
                }
            }
        }
        assert!(done, "job {job} never reached a terminal job_done event");
    }
}

#[test]
fn pooled_batch_stream_is_bracketed_and_gapless() {
    let telemetry = sink();
    let service = Service::new(config(3, &telemetry));
    // Distinct specs: no single-flight coalescing, every job runs its
    // own pipeline, so each one must show the full phase bracket.
    service.run_batch(vec![spec("csa:2"), spec("csa:3"), spec("wallace:3")]);
    service.shutdown();
    telemetry.close();
    let events = telemetry.drain();
    assert_stream_invariants(&events);
    assert_eq!(telemetry.dropped_total(), 0);
    let done = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::JobDone { .. }))
        .count();
    assert_eq!(done, 3, "one terminal event per job");
}

#[test]
fn deadline_doomed_job_still_emits_terminal_event() {
    // A job whose deadline expires mid-saturation must still close its
    // stream with job_done { status: "cancelled" }.
    let telemetry = sink();
    let service = Service::new(config(1, &telemetry));
    let doomed = JobSpec::generated(GenSpec::parse("csa:8").unwrap())
        .with_deadline(Duration::from_millis(1));
    service.run_batch(vec![doomed]);
    service.shutdown();
    telemetry.close();
    let events = telemetry.drain();
    let terminal = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::JobDone { status, .. } => Some(status.clone()),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(terminal, ["cancelled"], "events: {events:?}");
}

#[test]
fn tiny_bus_drops_under_backpressure_but_accounts_for_every_seq() {
    // Nobody drains while the batch runs, so a 16-slot ring must drop;
    // the final drain still yields a gapless stream via its marker, and
    // the drop counter matches the markers' sum.
    let telemetry: TelemetrySink = Arc::new(EventBus::with_capacity(16));
    let service = Service::new(config(2, &telemetry));
    service.run_batch(vec![spec("csa:3"), spec("csa:4"), spec("wallace:4")]);
    service.shutdown();
    telemetry.close();
    let events = telemetry.drain();

    let mut expected_seq = 0u64;
    let mut marked = 0u64;
    for event in &events {
        if let EventKind::Dropped { count } = event.kind {
            expected_seq += count;
            marked += count;
        }
        assert_eq!(event.seq, expected_seq, "unaccounted sequence gap");
        expected_seq += 1;
    }
    assert!(marked > 0, "a 16-slot ring must have dropped something");
    assert_eq!(
        marked,
        telemetry.dropped_total(),
        "markers must account for exactly the dropped events"
    );
}

/// Renders every event as its NDJSON line, strict-parses it back, and
/// checks the pipeline-published fields: per job, the iteration phase
/// times never add up to more than the saturate phase that contains
/// them; the first iteration of each ruleset replays no candidate
/// class (each saturation phase starts with a full search), and later
/// ones replay some.
fn assert_lines_parse_and_iterations_fit_saturate(events: &[TelemetryEvent]) {
    let mut iteration_us: std::collections::BTreeMap<i64, i64> = Default::default();
    let mut saturate_us: std::collections::BTreeMap<i64, i64> = Default::default();
    let mut replayed = 0;
    for event in events {
        let line = event.to_json().to_string();
        let parsed =
            Json::parse(&line).unwrap_or_else(|e| panic!("event line must parse: {e}: {line}"));
        assert_eq!(parsed.to_string(), line, "round trip must be exact");
        let int = |key: &str| {
            parsed
                .field(key)
                .and_then(Json::as_int)
                .unwrap_or_else(|| panic!("{key} missing from {line}"))
        };
        match parsed.field("event").and_then(Json::as_str) {
            Some("iteration") => {
                if int("index") == 0 {
                    assert_eq!(int("replayed"), 0, "a first iteration replayed: {line}");
                }
                replayed += int("replayed");
                let spent = ["search_us", "merge_us", "apply_us", "rebuild_us"]
                    .iter()
                    .map(|key| int(key))
                    .sum::<i64>();
                *iteration_us.entry(int("job")).or_default() += spent;
            }
            Some("phase_finished")
                if parsed.field("phase").and_then(Json::as_str) == Some("saturate") =>
            {
                saturate_us.insert(int("job"), int("elapsed_us"));
            }
            _ => {}
        }
    }
    assert_eq!(
        iteration_us.keys().collect::<Vec<_>>(),
        saturate_us.keys().collect::<Vec<_>>(),
        "every saturating job reports iterations"
    );
    assert!(replayed > 0, "no iteration replayed a candidate class");
    for (job, spent) in &iteration_us {
        assert!(
            *spent <= saturate_us[job],
            "job {job}: iteration phase times {spent}us exceed saturate's {}us",
            saturate_us[job]
        );
    }
}

#[test]
fn event_lines_strict_parse_and_iteration_times_fit_saturate() {
    let telemetry = sink();
    let service = Service::new(config(2, &telemetry));
    service.run_batch(vec![spec("csa:3"), spec("wallace:3")]);
    service.shutdown();
    telemetry.close();
    let events = telemetry.drain();
    assert_stream_invariants(&events);
    assert_lines_parse_and_iterations_fit_saturate(&events);
}

#[test]
fn stream_counts_agree_with_the_stats_block() {
    // One worker, a one-entry cache and a first pipeline attempt that
    // fails transiently: the batch below exercises a retry, a hit,
    // misses, evictions and a failure, and every count the stats block
    // reports must be recoverable from the event stream alone.
    let telemetry = sink();
    let faults = FaultRegistry::new();
    faults.configure(
        site::WORKER_PIPELINE,
        FaultPolicy {
            trigger: Trigger::Nth(1),
            action: FaultAction::Error,
        },
    );
    let service = Service::new(
        ServiceConfig {
            num_workers: 1,
            cache_capacity: 1,
            ..ServiceConfig::default()
        }
        .with_telemetry(Arc::clone(&telemetry))
        .with_faults(Arc::new(faults))
        .with_retry_base(Duration::from_millis(1)),
    );
    for job in [
        spec("csa:3"),
        spec("csa:3"),
        spec("wallace:3"),
        spec("csa:3"),
        JobSpec::file("/nonexistent/never.aag"),
    ] {
        service.submit(job).wait();
    }
    let stats = service.shutdown();
    telemetry.close();
    let events = telemetry.drain();
    assert_stream_invariants(&events);

    let count =
        |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    let done =
        |want: &str| count(&|k| matches!(k, EventKind::JobDone { status, .. } if status == want));
    let stats_counts = (
        stats.retried,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
    );
    assert_eq!(stats_counts, (1, 1, 3, 2), "the batch exercises every path");
    assert_eq!(
        count(&|k| matches!(k, EventKind::JobSubmitted { .. })),
        stats.submitted
    );
    assert_eq!(done("completed"), stats.completed);
    assert_eq!(done("failed"), stats.failed);
    assert_eq!(done("cancelled"), stats.cancelled);
    assert_eq!(done("panicked"), stats.panicked);
    assert_eq!(done("rejected"), stats.shed);
    assert_eq!(
        count(&|k| matches!(k, EventKind::CacheHit { .. })),
        stats.cache.hits
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::CacheMiss { .. })),
        stats.cache.misses
    );
    let evicted: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CacheEvicted { entries } => Some(entries),
            _ => None,
        })
        .sum();
    assert_eq!(evicted, stats.cache.evictions);
    assert_eq!(
        count(&|k| matches!(k, EventKind::JobRetry { .. })),
        stats.retried
    );
}
