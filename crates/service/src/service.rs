//! The concurrent batch-reasoning engine: a std-only worker pool with a
//! bounded queue, per-job deadlines carried by each job's
//! [`CancelToken`], and the in-memory structural-hash result cache with
//! single-flight deduplication.
//!
//! A job's cell (its `JobState`) is the one completion primitive: a
//! caller's [`JobHandle::wait`] blocks on it, and so does a job that
//! coalesces onto an identical job already running its pipeline. The
//! flights table maps each running pipeline's [`CacheKey`] to its
//! leader's cell. The leader's guard removes that entry before the
//! cell turns terminal, on every exit path, and a completing leader
//! fills the cache before that. A follower woken by a leader that
//! ran the pipeline takes its result; one woken by a leader that gave
//! up, or that was itself answered from the cache, goes back to the
//! cache-or-lead decision. One retry loop, with one backoff, serves
//! both netlist loading and the pipeline run.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use boole::json::{Json, ToJson};
use boole::telemetry::{EventKind, TelemetrySink};
use boole::{BoolE, CancelToken};
use egraph::hash::FxHashMap;

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::faults::{self, site, FaultAction, FaultRegistry};
use crate::fingerprint::{fingerprint_aig, fingerprint_params};
use crate::job::{
    JobOutcome, JobSource, JobSpec, JobStatus, JobVerdict, RejectReason, ResultSummary,
};

/// What [`Service::submit`] does when the bounded queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Block the submitter until the queue has room (the original
    /// behavior; backpressure propagates to the caller).
    #[default]
    Block,
    /// Fail fast: the job resolves immediately with a terminal
    /// [`JobVerdict::Rejected`] outcome instead of blocking forever —
    /// the overload behavior a network tier needs.
    Shed,
}

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing pipelines (>= 1).
    pub num_workers: usize,
    /// Bounded queue depth; once this many jobs wait,
    /// [`Service::submit`] applies the configured [`ShedPolicy`].
    pub queue_capacity: usize,
    /// Result-cache capacity in entries, evicted least recently used
    /// first. 0 disables storage (every lookup misses); single-flight
    /// deduplication still applies to cache-enabled jobs.
    pub cache_capacity: usize,
    /// Optional telemetry event bus: every lifecycle, phase,
    /// iteration, and cache transition publishes an event here. `None`
    /// (the default) makes every telemetry site a no-op; attaching a
    /// sink never changes job results (telemetry is strictly
    /// out-of-band).
    pub telemetry: Option<TelemetrySink>,
    /// When set, every accepted job's saturation search fans out
    /// across this many threads (`0` = one per available CPU),
    /// overriding whatever the spec's params carry — an operator
    /// policy knob, like the worker count. `None` (the default)
    /// leaves each spec's own `SaturateParams.search_threads` alone.
    /// Results are byte-identical at any setting, so this never
    /// affects cache keys or reproducibility.
    pub search_threads: Option<usize>,
    /// Overload behavior of [`Service::submit`]; the default blocks.
    pub shed_policy: ShedPolicy,
    /// Retry budget for transiently-failing jobs (I/O errors loading a
    /// netlist, injected transient faults). `0` disables retries;
    /// permanent failures (parse errors, panics) never retry.
    pub max_retries: u32,
    /// Base delay of the exponential retry backoff. Attempt `n` waits
    /// `retry_base * 2^n` plus deterministic per-job jitter, capped at
    /// two seconds.
    pub retry_base: Duration,
    /// Fault-injection registry shared by every failpoint in this
    /// service (cache insertion, queue admission, worker pipelines). `None` — the default — compiles every failpoint
    /// down to one relaxed atomic load, leaving production behavior
    /// byte-identical.
    pub faults: Option<Arc<FaultRegistry>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig {
            num_workers: parallelism.clamp(1, 4),
            queue_capacity: 64,
            cache_capacity: 256,
            telemetry: None,
            search_threads: None,
            shed_policy: ShedPolicy::Block,
            max_retries: 2,
            retry_base: Duration::from_millis(25),
            faults: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.num_workers = n.max(1);
        self
    }

    /// Sets the bounded job-queue depth (the admission-control
    /// backlog a [`ShedPolicy`] guards).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Attaches a telemetry event bus.
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Fans every job's saturation search across `threads` threads
    /// (`0` = one per available CPU). See
    /// [`ServiceConfig::search_threads`].
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.search_threads = Some(threads);
        self
    }

    /// Sets the overload behavior of [`Service::submit`].
    pub fn with_shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }

    /// Sets the retry budget for transiently-failing jobs.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the base delay of the exponential retry backoff.
    pub fn with_retry_base(mut self, base: Duration) -> Self {
        self.retry_base = base;
        self
    }

    /// Attaches a fault-injection registry (see [`crate::faults`]).
    pub fn with_faults(mut self, faults: Arc<FaultRegistry>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Aggregate service counters (see also [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Jobs submitted, including those rejected at admission.
    pub submitted: u64,
    /// Jobs that completed with a result.
    pub completed: u64,
    /// Jobs that ended cancelled.
    pub cancelled: u64,
    /// Jobs that failed to produce a netlist.
    pub failed: u64,
    /// Jobs whose pipeline panicked (isolated; the worker survived).
    pub panicked: u64,
    /// Jobs rejected at admission (queue full under the shed policy,
    /// submit during shutdown, or an injected admission fault).
    pub shed: u64,
    /// Individual retry attempts across all jobs (a job retried twice
    /// contributes two).
    pub retried: u64,
    /// Pipelines actually executed (cache misses that ran saturation).
    pub pipelines_run: u64,
    /// Jobs answered by another job's in-flight pipeline (single-flight
    /// deduplication) instead of running their own.
    pub coalesced: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
}

impl ToJson for ServiceStats {
    fn to_json(&self) -> Json {
        let cache = Json::obj([
            ("hits", Json::Int(self.cache.hits as i64)),
            ("misses", Json::Int(self.cache.misses as i64)),
            ("insertions", Json::Int(self.cache.insertions as i64)),
            ("evictions", Json::Int(self.cache.evictions as i64)),
            ("entries", Json::from(self.cache.entries)),
        ]);
        Json::obj([
            ("submitted", Json::Int(self.submitted as i64)),
            ("completed", Json::Int(self.completed as i64)),
            ("cancelled", Json::Int(self.cancelled as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("panicked", Json::Int(self.panicked as i64)),
            ("shed", Json::Int(self.shed as i64)),
            ("retried", Json::Int(self.retried as i64)),
            ("pipelines_run", Json::Int(self.pipelines_run as i64)),
            ("coalesced", Json::Int(self.coalesced as i64)),
            ("cache", cache),
        ])
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    shed: AtomicU64,
    retried: AtomicU64,
    pipelines_run: AtomicU64,
    coalesced: AtomicU64,
}

struct JobCell {
    status: JobStatus,
    outcome: Option<Arc<JobOutcome>>,
}

/// Locks a mutex, recovering from poisoning. The job cell and the
/// flights table hold plain state (enums, `Arc`s, a map) that is valid
/// after any partial update, and a panicking waiter or pipeline must
/// not turn every later `wait()` into a cascading panic — one failed
/// job may not take down the handles of every other job parked on the
/// same cell.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared per-job record: the handle and the queue entry both point at
/// one of these.
struct JobState {
    id: u64,
    label: String,
    cancel: CancelToken,
    cell: Mutex<JobCell>,
    done: Condvar,
    submitted_at: Instant,
    /// Retry attempts consumed so far; copied into the outcome.
    retries: AtomicU32,
}

impl JobState {
    fn set_status(&self, status: JobStatus) {
        let mut cell = lock_recover(&self.cell);
        if !cell.status.is_terminal() {
            cell.status = status;
        }
    }

    fn finalize(&self, verdict: JobVerdict, from_cache: bool) -> Arc<JobOutcome> {
        let outcome = Arc::new(JobOutcome {
            job_id: self.id,
            label: self.label.clone(),
            verdict,
            from_cache,
            service_time: self.submitted_at.elapsed(),
            retries: self.retries.load(Ordering::Relaxed),
        });
        let mut cell = lock_recover(&self.cell);
        cell.status = outcome.status();
        cell.outcome = Some(Arc::clone(&outcome));
        self.done.notify_all();
        outcome
    }

    /// Blocks until the job is terminal and returns its outcome, or
    /// returns `None` once `deadline` passes or `cancel` reads as
    /// cancelled. The token is polled every 10 ms, so a follower whose
    /// own deadline expires stops waiting on a slow leader.
    fn wait(
        &self,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> Option<Arc<JobOutcome>> {
        const POLL: Duration = Duration::from_millis(10);
        let mut cell = lock_recover(&self.cell);
        loop {
            if let Some(outcome) = &cell.outcome {
                return Some(Arc::clone(outcome));
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return None;
            }
            let slice = match deadline {
                Some(at) => at.checked_duration_since(Instant::now())?.min(POLL),
                None => POLL,
            };
            cell = self
                .done
                .wait_timeout(cell, slice)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// A claim ticket for a submitted job.
pub struct JobHandle {
    state: Arc<JobState>,
}

impl JobHandle {
    /// Service-assigned id (submission order, starting at 1).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The spec's label.
    pub fn label(&self) -> &str {
        &self.state.label
    }

    /// Current lifecycle status.
    pub fn status(&self) -> JobStatus {
        lock_recover(&self.state.cell).status.clone()
    }

    /// Requests cooperative cancellation. Running pipelines stop at
    /// their next check point; queued jobs resolve as cancelled when a
    /// worker dequeues them.
    pub fn cancel(&self) {
        self.state.cancel.cancel();
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> Arc<JobOutcome> {
        self.state
            .wait(None, None)
            .expect("a wait without deadline or token ends only at an outcome")
    }

    /// Like [`JobHandle::wait`] with a timeout; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<JobOutcome>> {
        // An unrepresentable deadline (e.g. `Duration::MAX`) waits with
        // no timeout.
        self.state.wait(Instant::now().checked_add(timeout), None)
    }
}

/// The worker-shared end of the bounded job queue.
type JobQueue = Mutex<Receiver<(JobSpec, Arc<JobState>)>>;

/// A leader's claim on its flights-table entry. Dropping it removes
/// the entry, when the leader returns and while a panic unwinds alike.
/// The leader's cell turns terminal only after that (`worker_loop`
/// finalizes it once `execute_job` has returned or unwound), so a
/// follower woken by the cell never finds the finished leader still in
/// the table.
struct FlightGuard<'a> {
    shared: &'a Shared,
    key: CacheKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        lock_recover(&self.shared.flights).remove(&self.key);
    }
}

struct Shared {
    cache: ResultCache,
    /// The leader of each pipeline currently executing, by cache key:
    /// a concurrent identical submission waits on the leader's job cell
    /// instead of running its own pipeline (single-flight
    /// deduplication).
    flights: Mutex<FxHashMap<CacheKey, Arc<JobState>>>,
    counters: Counters,
    /// Out-of-band event bus; `None` disables all telemetry.
    telemetry: Option<TelemetrySink>,
    /// Fault-injection registry; `None` disables every failpoint.
    faults: Option<Arc<FaultRegistry>>,
    /// Retry budget for transient failures (see [`ServiceConfig`]).
    max_retries: u32,
    /// Base delay of the exponential retry backoff.
    retry_base: Duration,
}

/// A concurrent batch-reasoning server over the BoolE pipeline.
///
/// ```
/// use boole_service::{GenSpec, JobSpec, Service, ServiceConfig};
///
/// let service = Service::new(ServiceConfig::default().with_workers(2));
/// let job = service.submit(JobSpec::generated(GenSpec::parse("csa:3").unwrap()));
/// let outcome = job.wait();
/// assert!(outcome.summary().unwrap().exact_fa_count >= 1);
/// service.shutdown();
/// ```
pub struct Service {
    shared: Arc<Shared>,
    sender: Option<SyncSender<(JobSpec, Arc<JobState>)>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    search_threads: Option<usize>,
    shed_policy: ShedPolicy,
}

impl Service {
    /// Starts the worker pool.
    pub fn new(config: ServiceConfig) -> Self {
        let telemetry = config.telemetry.clone();
        let faults = config.faults.clone();
        let shared = Arc::new(Shared {
            cache: ResultCache::new(config.cache_capacity)
                .with_telemetry(telemetry.clone())
                .with_faults(faults.clone()),
            flights: Mutex::new(FxHashMap::default()),
            counters: Counters::default(),
            telemetry,
            faults,
            max_retries: config.max_retries,
            retry_base: config.retry_base,
        });
        let (sender, receiver) = mpsc::sync_channel(config.queue_capacity.max(1));
        let receiver: Arc<JobQueue> = Arc::new(Mutex::new(receiver));
        let workers = (0..config.num_workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("boole-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &shared))
                    .expect("spawn worker")
            })
            .collect();
        Service {
            shared,
            sender: Some(sender),
            workers,
            next_id: AtomicU64::new(1),
            search_threads: config.search_threads,
            shed_policy: config.shed_policy,
        }
    }

    /// Builds the job record and installs the per-job token — carrying
    /// the spec's deadline, measured from now — in the spec's params
    /// (replacing any token the caller left there), plus the
    /// service-wide search-thread override, if configured.
    fn make_state(&self, spec: &mut JobSpec) -> Arc<JobState> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let submitted_at = Instant::now();
        // A deadline too far out to represent is no deadline.
        let cancel = match spec.deadline.and_then(|d| submitted_at.checked_add(d)) {
            Some(at) => CancelToken::new().with_deadline(at),
            None => CancelToken::new(),
        };
        spec.params = std::mem::take(&mut spec.params).with_cancel_token(cancel.clone());
        if let Some(threads) = self.search_threads {
            spec.params.saturate.search_threads = threads;
        }
        Arc::new(JobState {
            id,
            label: spec.label.clone(),
            cancel,
            cell: Mutex::new(JobCell {
                status: JobStatus::Queued,
                outcome: None,
            }),
            done: Condvar::new(),
            submitted_at,
            retries: AtomicU32::new(0),
        })
    }

    /// Submits a job. Queue-full behavior follows the configured
    /// [`ShedPolicy`]: block (the default) or reject immediately.
    /// Rejected jobs — including submits racing a shutdown — come back
    /// with a handle that is *already* terminal
    /// ([`JobVerdict::Rejected`]); the caller never observes a hang or
    /// a panic.
    pub fn submit(&self, mut spec: JobSpec) -> JobHandle {
        let state = self.make_state(&mut spec);
        let injected = match faults::check(self.shared.faults.as_ref(), site::QUEUE_ACCEPT) {
            Some(FaultAction::Panic) => {
                panic!("{}", FaultRegistry::injected(site::QUEUE_ACCEPT));
            }
            Some(FaultAction::Error) => true,
            None => false,
        };
        // Published before the job can reach a worker, whose
        // `job_started` must follow it in the stream.
        if let Some(telemetry) = &self.shared.telemetry {
            telemetry.publish(EventKind::JobSubmitted {
                job: state.id,
                label: state.label.clone(),
            });
        }
        if injected {
            return self.reject(&state, RejectReason::Injected);
        }
        let sender = self.sender.as_ref().expect("service alive");
        match self.shed_policy {
            ShedPolicy::Block => {
                if sender.send((spec, Arc::clone(&state))).is_err() {
                    // Workers gone: racing a shutdown. Resolve the job
                    // terminally instead of panicking the submitter.
                    return self.reject(&state, RejectReason::ShuttingDown);
                }
            }
            ShedPolicy::Shed => match sender.try_send((spec, Arc::clone(&state))) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    return self.reject(&state, RejectReason::QueueFull);
                }
                Err(TrySendError::Disconnected(_)) => {
                    return self.reject(&state, RejectReason::ShuttingDown);
                }
            },
        }
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        JobHandle { state }
    }

    /// Resolves a job as terminally rejected without queueing it.
    /// Rejected jobs still count as submitted (so the accounting
    /// invariant `submitted == terminal outcomes` holds) and close the
    /// caller's `job_submitted` event with the usual `job_done`.
    fn reject(&self, state: &Arc<JobState>, reason: RejectReason) -> JobHandle {
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        let outcome = state.finalize(JobVerdict::Rejected { reason }, false);
        if let Some(telemetry) = &self.shared.telemetry {
            publish_job_done(telemetry, &outcome);
        }
        JobHandle {
            state: Arc::clone(state),
        }
    }

    /// Submits every spec (blocking as needed), then waits for all, in
    /// order.
    pub fn run_batch(&self, specs: impl IntoIterator<Item = JobSpec>) -> Vec<Arc<JobOutcome>> {
        let handles: Vec<JobHandle> = specs.into_iter().map(|s| self.submit(s)).collect();
        handles.iter().map(JobHandle::wait).collect()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            retried: c.retried.load(Ordering::Relaxed),
            pipelines_run: c.pipelines_run.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
        }
    }

    /// Drains the queue, stops all threads, and returns final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // Closing the channel lets each worker finish its current job
        // and exit on the next recv.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.sender.is_some() || !self.workers.is_empty() {
            self.stop();
        }
    }
}

fn worker_loop(receiver: &JobQueue, shared: &Shared) {
    loop {
        // Scope the receiver lock to the dequeue. Waiting workers do
        // block each other on `recv`, but the queue is the intended
        // serialization point; the job itself runs unlocked.
        let next = {
            // Recover from poisoning: a Receiver is just a channel
            // endpoint (no invariant a panic can break), and one
            // worker dying mid-recv must not idle the rest of the
            // pool.
            let receiver = receiver.lock().unwrap_or_else(PoisonError::into_inner);
            receiver.recv()
        };
        let Ok((spec, state)) = next else {
            return; // channel closed: shutdown
        };
        if let Some(telemetry) = &shared.telemetry {
            telemetry.publish(EventKind::JobStarted { job: state.id });
        }
        // A panicking job must not strand the JobHandle: convert the
        // panic into a terminal Panicked outcome so wait() always
        // returns and this worker survives to take the next job. This
        // is the job's one panic boundary, and the one place its cell
        // turns terminal: `execute_job` has returned or unwound by
        // now, so its flight guard has left the flights table.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(&spec, &state, shared)
        }));
        let (verdict, from_cache) = run.unwrap_or_else(|payload| {
            let message = panic_message(payload.as_ref());
            (JobVerdict::Panicked { message }, false)
        });
        let outcome = state.finalize(verdict, from_cache);
        debug_assert!(outcome.status().is_terminal());
        match &outcome.verdict {
            JobVerdict::Completed(_) => &shared.counters.completed,
            JobVerdict::Cancelled { .. } => &shared.counters.cancelled,
            JobVerdict::Failed(_) => &shared.counters.failed,
            JobVerdict::Panicked { .. } => &shared.counters.panicked,
            // Rejection happens at admission, before a job can reach a
            // worker; counted in `reject`, unreachable here.
            JobVerdict::Rejected { .. } => &shared.counters.shed,
        }
        .fetch_add(1, Ordering::Relaxed);
        // The terminal event is published from the outcome (not inside
        // `execute_job`), so even a panicking pipeline emits one.
        if let Some(telemetry) = &shared.telemetry {
            publish_job_done(telemetry, &outcome);
        }
    }
}

/// Publishes a job's terminal event, for jobs that ran on a worker and
/// for jobs rejected at admission alike.
fn publish_job_done(telemetry: &TelemetrySink, outcome: &JobOutcome) {
    telemetry.publish(EventKind::JobDone {
        job: outcome.job_id,
        status: outcome.status().name().to_owned(),
        from_cache: outcome.from_cache,
    });
}

/// Best-effort text from a panic payload (`&str` and `String` cover
/// `panic!`; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "pipeline panicked".to_owned())
}

/// Whether a failure is worth retrying (`Transient`) or will fail the
/// same way every time (`Permanent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorClass {
    /// Environmental: a retry may succeed (I/O errors, injected
    /// transient faults).
    Transient,
    /// Deterministic: retrying burns the budget for nothing (parse
    /// errors, malformed netlists).
    Permanent,
}

/// Resolves a job source into a netlist, classifying failures so the
/// retry loop only spends its budget where a retry can help.
fn load_netlist(source: &JobSource) -> Result<aig::Aig, (String, ErrorClass)> {
    match source {
        JobSource::Netlist(aig) => Ok(aig.clone()),
        JobSource::File(path) => aig::read_netlist(path).map_err(|e| {
            // Only the OS-level read is environmental; a file that
            // *parses* wrong will parse wrong again, and a file that
            // does not exist will still be missing after the backoff.
            let missing =
                std::fs::metadata(path).is_err_and(|m| m.kind() == std::io::ErrorKind::NotFound);
            let class = match e.kind {
                aig::netlist::NetlistErrorKind::Io if !missing => ErrorClass::Transient,
                _ => ErrorClass::Permanent,
            };
            (format!("cannot load {}: {e}", path.display()), class)
        }),
        JobSource::Generate(spec) => Ok(spec.build()),
    }
}

/// A worker's role for one cache key, decided under the flights lock:
/// either it runs the pipeline (and owns the flight entry via the
/// guard), or it waits on the cell of the job that does.
enum FlightRole<'a> {
    Leader(FlightGuard<'a>),
    Follower(Arc<JobState>),
}

fn join_or_lead<'a>(shared: &'a Shared, key: CacheKey, state: &Arc<JobState>) -> FlightRole<'a> {
    let mut flights = lock_recover(&shared.flights);
    match flights.get(&key) {
        Some(leader) => FlightRole::Follower(Arc::clone(leader)),
        None => {
            flights.insert(key, Arc::clone(state));
            FlightRole::Leader(FlightGuard { shared, key })
        }
    }
}

/// Runs one job to its verdict and whether the verdict came from the
/// cache; the caller turns them into the job's terminal outcome. Unless
/// the spec opts out, the result cache is consulted/populated and
/// concurrent identical submissions are deduplicated to one pipeline
/// run.
fn execute_job(spec: &JobSpec, state: &Arc<JobState>, shared: &Shared) -> (JobVerdict, bool) {
    if state.cancel.is_cancelled() {
        return (JobVerdict::Cancelled { phase: None }, false);
    }
    state.set_status(JobStatus::Running);
    let telemetry = shared.telemetry.as_ref();
    // Loading happens before fingerprinting, so a flaky read retries
    // here rather than surfacing as a spurious cache miss.
    let netlist = match retry(state, shared, || load_netlist(&spec.source)) {
        Ok(netlist) => netlist,
        Err(verdict) => return (verdict, false),
    };
    let cache_key = CacheKey {
        netlist: fingerprint_aig(&netlist),
        params: fingerprint_params(&spec.params),
    };
    // The cached path. Key ordering invariant: cache lookups happen
    // only while *holding* the key's flight entry, and a completing
    // leader fills the cache before its guard removes the entry — so a
    // job that acquires leadership after a previous leader finished is
    // guaranteed to see that leader's result in the cache. This is
    // what makes "N concurrent identical submissions run saturation
    // exactly once" airtight rather than probabilistic: without it, a
    // job could miss the cache, find the flight table empty, and
    // re-run a pipeline that completed in between.
    //
    // The loop re-enters when a leader ends without running the
    // pipeline to a result (cancelled/failed/panicked, or answered from
    // the cache) — some waiting job then becomes the new leader or hits
    // the cache, so one doomed leader never strands the rest.
    let guard = if spec.use_cache {
        loop {
            if state.cancel.is_cancelled() {
                return (JobVerdict::Cancelled { phase: None }, false);
            }
            match join_or_lead(shared, cache_key, state) {
                FlightRole::Leader(guard) => {
                    let looked_up = shared.cache.get(&cache_key);
                    publish_cache_lookup(telemetry, state.id, looked_up.is_some());
                    if let Some(summary) = looked_up {
                        return (JobVerdict::Completed(summary), true);
                    }
                    break Some(guard);
                }
                FlightRole::Follower(leader) => {
                    let Some(outcome) = leader.wait(None, Some(&state.cancel)) else {
                        return (JobVerdict::Cancelled { phase: None }, false);
                    };
                    if let (JobVerdict::Completed(summary), false) =
                        (&outcome.verdict, outcome.from_cache)
                    {
                        shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                        return (JobVerdict::Completed(Arc::clone(summary)), true);
                    }
                }
            }
        }
    } else {
        None
    };
    shared
        .counters
        .pipelines_run
        .fetch_add(1, Ordering::Relaxed);
    let mut engine = BoolE::new(spec.params.clone());
    if let Some(telemetry) = telemetry {
        engine = engine.with_telemetry(Arc::clone(telemetry), state.id);
    }
    // Retries run under the same flight leadership (the guard stays
    // held), so followers keep waiting through a retry instead of
    // racing to run the pipeline themselves. A *panic* is terminal (a
    // deterministic bug would panic again): it unwinds to worker_loop,
    // dropping the guard, and the followers woken by the panicked cell
    // elect a new leader. A cancelled pipeline is an answer, not an
    // error: it passes through without a retry.
    let run = retry(state, shared, || {
        // One failpoint consultation per attempt: Panic fires exactly
        // where a real pipeline bug would; Error models a
        // transiently-failing pipeline and feeds the retry path.
        match faults::check(shared.faults.as_ref(), site::WORKER_PIPELINE) {
            Some(FaultAction::Panic) => {
                panic!("{}", FaultRegistry::injected(site::WORKER_PIPELINE))
            }
            Some(FaultAction::Error) => Err((
                FaultRegistry::injected(site::WORKER_PIPELINE).to_string(),
                ErrorClass::Transient,
            )),
            None => Ok(engine.try_run(&netlist)),
        }
    });
    let result = match run {
        Ok(Ok(result)) => result,
        Ok(Err(cancelled)) => {
            let phase = Some(cancelled.phase);
            return (JobVerdict::Cancelled { phase }, false);
        }
        Err(verdict) => return (verdict, false),
    };
    let summary = Arc::new(ResultSummary::from(&result));
    if spec.use_cache {
        shared.cache.insert(cache_key, Arc::clone(&summary));
    }
    // The cache is filled before the guard drops here, so a job that
    // misses the flight afterwards finds the result in the cache.
    drop(guard);
    (JobVerdict::Completed(summary), false)
}

/// Runs `attempt` until it succeeds, retrying transient errors under
/// the deterministic backoff. A permanent error, or a transient one
/// once the retry budget is spent, fails the job; a cancel while
/// backing off resolves it as cancelled before any phase. Netlist
/// loading and the pipeline run share this one policy.
fn retry<T>(
    state: &JobState,
    shared: &Shared,
    mut attempt: impl FnMut() -> Result<T, (String, ErrorClass)>,
) -> Result<T, JobVerdict> {
    let mut retries = 0;
    loop {
        let (err, class) = match attempt() {
            Ok(value) => return Ok(value),
            Err(failure) => failure,
        };
        if class == ErrorClass::Permanent || retries >= shared.max_retries {
            return Err(JobVerdict::Failed(err));
        }
        if !note_retry(state, shared, retries) {
            return Err(JobVerdict::Cancelled { phase: None });
        }
        retries += 1;
    }
}

/// Deterministic backoff for retry `attempt` of job `job_id`:
/// exponential in the attempt with per-(job, attempt) jitter from the
/// splitmix64 stream, capped at two seconds. Deterministic so chaos
/// runs replay exactly from a seed.
fn backoff_delay(base: Duration, attempt: u32, job_id: u64) -> Duration {
    const CAP: Duration = Duration::from_secs(2);
    let base = base.max(Duration::from_millis(1));
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let mut rng = job_id ^ (u64::from(attempt) << 32) ^ 0x9e37_79b9_7f4a_7c15;
    let base_ms = u64::try_from(base.as_millis()).unwrap_or(u64::MAX).max(1);
    let jitter = Duration::from_millis(faults::splitmix64(&mut rng) % base_ms);
    (exp + jitter).min(CAP)
}

/// Sleeps out a backoff in short slices, polling the cancel token so a
/// cancelled (or deadline-expired) job stops backing off immediately.
/// Returns false when cancelled.
fn backoff_pause(cancel: &CancelToken, delay: Duration) -> bool {
    let until = Instant::now() + delay;
    loop {
        if cancel.is_cancelled() {
            return false;
        }
        let Some(remaining) = until.checked_duration_since(Instant::now()) else {
            return true;
        };
        std::thread::sleep(remaining.min(Duration::from_millis(2)));
    }
}

/// Accounts one retry — the per-job counter, the service-wide counter,
/// the `job_retry` event — then sleeps the backoff. Returns false when
/// the job was cancelled while backing off.
fn note_retry(state: &JobState, shared: &Shared, attempt: u32) -> bool {
    let delay = backoff_delay(shared.retry_base, attempt, state.id);
    state.retries.fetch_add(1, Ordering::Relaxed);
    shared.counters.retried.fetch_add(1, Ordering::Relaxed);
    if let Some(telemetry) = &shared.telemetry {
        telemetry.publish(EventKind::JobRetry {
            job: state.id,
            attempt: attempt + 1,
            delay,
        });
    }
    backoff_pause(&state.cancel, delay)
}

/// Publishes the cache hit/miss event for one lookup.
fn publish_cache_lookup(telemetry: Option<&TelemetrySink>, job: u64, hit: bool) {
    let Some(telemetry) = telemetry else { return };
    telemetry.publish(if hit {
        EventKind::CacheHit { job }
    } else {
        EventKind::CacheMiss { job }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobVerdict;

    fn fresh_state() -> Arc<JobState> {
        Arc::new(JobState {
            id: 1,
            label: "poison-test".to_owned(),
            cancel: CancelToken::new(),
            cell: Mutex::new(JobCell {
                status: JobStatus::Queued,
                outcome: None,
            }),
            done: Condvar::new(),
            submitted_at: Instant::now(),
            retries: AtomicU32::new(0),
        })
    }

    /// Panics while holding the lock, from a scoped thread, leaving
    /// the mutex poisoned.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|scope| {
            let result = scope
                .spawn(|| {
                    let _guard = mutex.lock().unwrap();
                    panic!("poisoning the lock on purpose");
                })
                .join();
            assert!(result.is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn poisoned_job_cell_recovers_instead_of_cascading() {
        let state = fresh_state();
        poison(&state.cell);
        let handle = JobHandle {
            state: Arc::clone(&state),
        };
        // Every access used to `.expect("job cell poisoned")`: one
        // panicking waiter turned all of these into panics too.
        assert!(matches!(handle.status(), JobStatus::Queued));
        assert!(!handle.status().is_terminal());
        state.set_status(JobStatus::Running);
        let outcome = state.finalize(JobVerdict::Failed("boom".to_owned()), false);
        assert!(outcome.status().is_terminal());
        assert!(matches!(handle.wait().verdict, JobVerdict::Failed(_)));
        assert!(handle.wait_timeout(Duration::from_millis(50)).is_some());
    }

    #[test]
    fn follower_waiting_on_a_poisoned_leader_cell_wakes_at_its_outcome() {
        let leader = fresh_state();
        poison(&leader.cell);
        let follower = CancelToken::new();
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| {
                started.wait();
                leader.wait(None, Some(&follower))
            });
            started.wait();
            leader.finalize(JobVerdict::Failed("leader gone".to_owned()), false);
            let outcome = waiting.join().unwrap().expect("the leader's outcome");
            assert!(matches!(outcome.verdict, JobVerdict::Failed(_)));
        });
        // A cancelled follower stops waiting on a leader that never ends.
        let stuck = fresh_state();
        poison(&stuck.cell);
        follower.cancel();
        assert!(stuck.wait(None, Some(&follower)).is_none());
    }
}
