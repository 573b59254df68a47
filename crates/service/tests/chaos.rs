//! Chaos suite: deterministic fault injection against the service's
//! liveness and accounting invariants.
//!
//! The invariants under test, from the fault model:
//! * every submitted job reaches **exactly one** terminal status — no
//!   handle ever hangs, no worker thread dies permanently;
//! * `ServiceStats` accounting balances: `submitted` equals the sum of
//!   terminal outcomes (`completed + cancelled + failed + panicked +
//!   shed`);
//! * with every failpoint disabled the service is byte-identical to an
//!   unconfigured one.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use boole::json::ToJson;
use boole::BooleParams;
use boole_service::faults::site;
use boole_service::{
    FaultAction, FaultPolicy, FaultRegistry, GenSpec, JobHandle, JobSpec, JobStatus, JobVerdict,
    RejectReason, Service, ServiceConfig, ShedPolicy, Trigger,
};
use proptest::prelude::*;

fn spec(text: &str) -> JobSpec {
    JobSpec::generated(GenSpec::parse(text).unwrap())
        .with_params(BooleParams::lightweight().without_time_limit())
}

/// One policy, tersely.
fn policy(trigger: Trigger, action: FaultAction) -> FaultPolicy {
    FaultPolicy { trigger, action }
}

/// The accounting invariant: every submitted job is counted in exactly
/// one terminal bucket.
fn assert_balanced(stats: &boole_service::ServiceStats) {
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.failed + stats.panicked + stats.shed,
        "terminal outcomes must balance submissions: {stats:?}"
    );
}

#[test]
fn a_panicking_pipeline_is_isolated_and_the_worker_survives() {
    let faults = Arc::new(FaultRegistry::new());
    faults.configure(
        site::WORKER_PIPELINE,
        policy(Trigger::Nth(1), FaultAction::Panic),
    );
    // One worker: if the panic killed it, the second job would hang.
    let service = Service::new(ServiceConfig::default().with_workers(1).with_faults(faults));
    let first = service.submit(spec("csa:3")).wait();
    assert_eq!(first.status(), JobStatus::Panicked);
    match &first.verdict {
        JobVerdict::Panicked { message } => {
            assert!(
                message.contains(site::WORKER_PIPELINE),
                "the payload must name the failpoint, got: {message}"
            );
        }
        other => panic!("expected a panicked verdict, got {other:?}"),
    }
    let second = service.submit(spec("wallace:3")).wait();
    assert!(
        second.summary().is_some(),
        "the worker that caught the panic must take and finish the next job"
    );
    let stats = service.shutdown();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 1);
    assert_balanced(&stats);
}

#[test]
fn transient_pipeline_faults_are_retried_to_success() {
    let faults = Arc::new(FaultRegistry::new());
    faults.configure(
        site::WORKER_PIPELINE,
        policy(Trigger::Nth(1), FaultAction::Error),
    );
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_max_retries(2)
            .with_retry_base(Duration::from_millis(1))
            .with_faults(Arc::clone(&faults)),
    );
    let outcome = service.submit(spec("csa:3")).wait();
    assert!(
        outcome.summary().is_some(),
        "one injected transient failure must be absorbed by a retry: {:?}",
        outcome.verdict
    );
    assert_eq!(outcome.retries, 1, "exactly one retry should be recorded");
    let stats = service.shutdown();
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.completed, 1);
    assert_balanced(&stats);
    assert_eq!(faults.fired(site::WORKER_PIPELINE), 1);
}

#[test]
fn an_exhausted_retry_budget_fails_the_job_with_the_injected_error() {
    let faults = Arc::new(FaultRegistry::new());
    faults.configure(
        site::WORKER_PIPELINE,
        policy(Trigger::Always, FaultAction::Error),
    );
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_max_retries(1)
            .with_retry_base(Duration::from_millis(1))
            .with_faults(faults),
    );
    let outcome = service.submit(spec("csa:3")).wait();
    match &outcome.verdict {
        JobVerdict::Failed(message) => {
            assert!(
                message.contains(site::WORKER_PIPELINE),
                "the failure must carry the injected error, got: {message}"
            );
        }
        other => panic!("expected a failed verdict, got {other:?}"),
    }
    assert_eq!(outcome.retries, 1, "the whole budget should be consumed");
    let stats = service.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.retried, 1);
    assert_balanced(&stats);
}

#[test]
fn queue_full_races_under_shed_policy_resolve_every_job_terminally() {
    let service = Arc::new(Service::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_shed_policy(ShedPolicy::Shed)
            .with_queue_capacity(1),
    ));
    // Three submitters race a one-deep queue and a single worker:
    // acceptance is a genuine race, but termination must not be.
    let handles: Arc<Mutex<Vec<JobHandle>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let service = Arc::clone(&service);
            let handles = Arc::clone(&handles);
            scope.spawn(move || {
                for _ in 0..4 {
                    let handle = service.submit(spec("csa:3"));
                    handles.lock().unwrap().push(handle);
                }
            });
        }
    });
    let handles = Arc::try_unwrap(handles).ok().unwrap().into_inner().unwrap();
    assert_eq!(handles.len(), 12);
    for handle in &handles {
        let outcome = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("every submitted job must reach a terminal status");
        if let JobVerdict::Rejected { reason } = &outcome.verdict {
            assert_eq!(*reason, RejectReason::QueueFull);
        }
    }
    let stats = Arc::try_unwrap(service).ok().unwrap().shutdown();
    assert_eq!(stats.submitted, 12);
    assert!(stats.shed > 0, "a one-deep queue must have shed something");
    assert!(stats.completed > 0, "accepted jobs must still complete");
    assert_balanced(&stats);
}

#[test]
fn injected_admission_faults_reject_typed() {
    let faults = Arc::new(FaultRegistry::new());
    faults.configure(
        site::QUEUE_ACCEPT,
        policy(Trigger::Nth(1), FaultAction::Error),
    );
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_faults(Arc::clone(&faults)),
    );
    // The handle comes back already terminal.
    let outcome = service.submit(spec("csa:3")).wait();
    assert!(matches!(
        outcome.verdict,
        JobVerdict::Rejected {
            reason: RejectReason::Injected
        }
    ));
    // The same spec resubmits cleanly once the failpoint is spent.
    let retried = service.submit(spec("csa:3")).wait();
    assert!(retried.summary().is_some());
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 2, "a rejected submit still counts");
    assert_eq!(stats.shed, 1);
    assert_balanced(&stats);
}

#[test]
fn shutdown_always_drains_the_queue() {
    let service = Service::new(ServiceConfig::default().with_workers(1));
    let handles: Vec<JobHandle> = (0..5).map(|_| service.submit(spec("csa:3"))).collect();
    // Shutdown closes the channel and joins workers; queued jobs must
    // all have been executed, not dropped.
    let stats = service.shutdown();
    for handle in &handles {
        assert!(
            handle.status().is_terminal(),
            "job {} was left non-terminal by shutdown",
            handle.id()
        );
    }
    assert_eq!(stats.submitted, 5);
    assert_balanced(&stats);
}

#[test]
fn a_disabled_fault_registry_is_byte_identical_to_none() {
    let batch = || vec![spec("csa:3"), spec("wallace:3")];
    let run = |faults: Option<Arc<FaultRegistry>>| {
        let mut config = ServiceConfig::default().with_workers(1);
        if let Some(faults) = faults {
            config = config.with_faults(faults);
        }
        let service = Service::new(config);
        let docs: Vec<String> = service
            .run_batch(batch())
            .iter()
            .map(|o| o.to_json().to_string())
            .collect();
        service.shutdown();
        docs
    };
    let without = run(None);
    // An attached-but-unconfigured registry: every failpoint present,
    // none armed. This is the production configuration.
    let unconfigured = run(Some(Arc::new(FaultRegistry::new())));
    assert_eq!(
        without, unconfigured,
        "unconfigured failpoints must not change a single output byte"
    );
}

/// One randomized chaos round: a seeded fault schedule over a small
/// batch, checked against the liveness + accounting invariants.
fn chaos_round(rng: &mut TestRng) {
    let faults = Arc::new(FaultRegistry::new());
    for &site_name in site::ALL {
        if rng.below(2) == 0 {
            continue;
        }
        let trigger = match rng.below(4) {
            0 => Trigger::Nth(1 + rng.below(3)),
            1 => Trigger::EveryKth(2 + rng.below(2)),
            2 => Trigger::Always,
            _ => Trigger::Probability {
                numerator: 1 + rng.below(3),
                denominator: 4,
                seed: rng.next_u64(),
            },
        };
        // No Panic at queue.accept: that failpoint fires on the
        // *submitter's* thread (this test), not in a worker.
        let action = match rng.below(2) {
            0 if site_name != site::QUEUE_ACCEPT => FaultAction::Panic,
            _ => FaultAction::Error,
        };
        faults.configure(site_name, FaultPolicy { trigger, action });
    }
    let shed_policy = match rng.below(2) {
        0 => ShedPolicy::Block,
        _ => ShedPolicy::Shed,
    };
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1 + rng.below(3) as usize)
            .with_shed_policy(shed_policy)
            .with_max_retries(rng.below(3) as u32)
            .with_retry_base(Duration::from_millis(1))
            .with_faults(Arc::clone(&faults))
            .with_queue_capacity(1 + rng.below(4) as usize),
    );
    let pool = ["csa:3", "wallace:3", "booth:4", "csa:3"];
    let jobs = 3 + rng.below(4) as usize;
    let handles: Vec<JobHandle> = (0..jobs)
        .map(|i| {
            let handle = service.submit(spec(pool[i % pool.len()]));
            if rng.below(4) == 0 {
                handle.cancel();
            }
            handle
        })
        .collect();
    for handle in &handles {
        let outcome = handle
            .wait_timeout(Duration::from_secs(120))
            .expect("liveness: every job must reach a terminal status under any schedule");
        assert!(outcome.status().is_terminal());
        // Terminal means settled: a second wait returns the same
        // outcome (exactly one terminal status, never a transition).
        assert_eq!(handle.wait().status(), outcome.status());
    }
    let stats = service.shutdown();
    // Shutdown drains: no handle is left non-terminal once it returns.
    for handle in &handles {
        assert!(
            handle.status().is_terminal(),
            "job {} non-terminal after shutdown",
            handle.id()
        );
    }
    assert_eq!(stats.submitted, jobs as u64);
    assert_balanced(&stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_fault_schedules_preserve_liveness_and_accounting(seed in any::<u64>()) {
        let mut rng = TestRng::seeded(seed);
        chaos_round(&mut rng);
    }
}
