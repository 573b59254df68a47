//! Out-of-band observability: a bounded structured event bus whose
//! events render through the strict [`crate::json`] layer.
//!
//! Everything in this module is *strictly out-of-band*: publishing an
//! event never blocks a worker (a full event ring drops the event and
//! counts the drop), and nothing here feeds back into canonical result
//! documents — the byte-identity guarantees of the pipeline and service
//! layers are untouched whether telemetry is attached or not.
//!
//! # Event stream contract
//!
//! Every published event gets a monotonically increasing sequence
//! number and a timestamp (microseconds since the bus was created).
//! When the bounded ring is full, incoming events are *dropped but
//! still consume a sequence number*; the next successful publish (or
//! the next drain) first emits an explicit [`EventKind::Dropped`]
//! marker whose `count` equals the number of burned sequence numbers.
//! Consumers can therefore verify losslessness: consecutive received
//! events have gapless sequence numbers, except immediately before a
//! `dropped` marker, where the gap size equals the marker's count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Default bound of the event ring (events held between drains).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// The typed payload of a [`TelemetryEvent`].
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A job entered the service queue.
    JobSubmitted {
        /// Service-assigned job id.
        job: u64,
        /// Human-readable job label (usually the netlist path or spec).
        label: String,
    },
    /// A worker picked the job up and began executing it.
    JobStarted {
        /// Service-assigned job id.
        job: u64,
    },
    /// A pipeline phase is about to run.
    PhaseStarted {
        /// Service-assigned job id.
        job: u64,
        /// Stable phase name (`convert`, `saturate`, …).
        phase: &'static str,
    },
    /// A pipeline phase completed.
    PhaseFinished {
        /// Service-assigned job id.
        job: u64,
        /// Stable phase name.
        phase: &'static str,
        /// Wall-clock time the phase took.
        elapsed: Duration,
    },
    /// One saturation iteration completed.
    Iteration {
        /// Service-assigned job id.
        job: u64,
        /// Which ruleset phase is running (`r1` or `r2`).
        ruleset: &'static str,
        /// Zero-based iteration index within the ruleset phase.
        index: usize,
        /// E-nodes after the iteration.
        nodes: usize,
        /// E-classes after the iteration.
        classes: usize,
        /// Substitutions found this iteration (post-scheduling).
        matches: usize,
        /// Time the iteration spent in the rule-search fan-out.
        search_time: Duration,
        /// Time spent merging search results after the fan-out joined.
        merge_time: Duration,
        /// Time spent applying matches.
        apply_time: Duration,
        /// Time spent rebuilding (congruence repair).
        rebuild_time: Duration,
        /// Matcher budget units the iteration's completed rule
        /// searches spent.
        visits: usize,
        /// Candidate classes whose match run the work budget cut short.
        budget_exhausted: usize,
        /// Candidate classes whose match run stopped at the per-class
        /// match cap.
        capped: usize,
        /// Candidate classes whose match count was replayed from the
        /// rule's previous search instead of searched, because no
        /// change since reaches them.
        replayed: usize,
    },
    /// The result cache answered a lookup.
    CacheHit {
        /// Service-assigned job id.
        job: u64,
    },
    /// The result cache had no record for a lookup.
    CacheMiss {
        /// Service-assigned job id.
        job: u64,
    },
    /// The result cache evicted an entry to make room.
    CacheEvicted {
        /// Entries evicted in this insertion's eviction pass.
        entries: u64,
    },
    /// A job's transient failure is being retried after a backoff
    /// delay (the service's bounded-retry policy).
    JobRetry {
        /// Service-assigned job id.
        job: u64,
        /// One-based retry attempt about to run.
        attempt: u32,
        /// Backoff the worker slept before this attempt.
        delay: Duration,
    },
    /// A job reached a terminal state. Emitted exactly once per job,
    /// whatever the outcome (completed, failed, cancelled, panicked).
    JobDone {
        /// Service-assigned job id.
        job: u64,
        /// Terminal status name (`completed`, `failed`, `cancelled`).
        status: String,
        /// Whether the result was served from the result cache.
        from_cache: bool,
    },
    /// Marker standing in for `count` events dropped under
    /// backpressure. The dropped events' sequence numbers are the
    /// `count` numbers immediately preceding this marker's.
    Dropped {
        /// How many events were dropped.
        count: u64,
    },
}

impl EventKind {
    /// Stable snake_case event name (the `"event"` field in NDJSON).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::JobSubmitted { .. } => "job_submitted",
            EventKind::JobStarted { .. } => "job_started",
            EventKind::PhaseStarted { .. } => "phase_started",
            EventKind::PhaseFinished { .. } => "phase_finished",
            EventKind::Iteration { .. } => "iteration",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::CacheEvicted { .. } => "cache_evicted",
            EventKind::JobRetry { .. } => "job_retry",
            EventKind::JobDone { .. } => "job_done",
            EventKind::Dropped { .. } => "dropped",
        }
    }
}

/// One event on the bus: a sequence number, a timestamp, and a typed
/// payload.
#[derive(Debug, Clone)]
pub struct TelemetryEvent {
    /// Monotonic sequence number (gapless except across explicit
    /// [`EventKind::Dropped`] markers).
    pub seq: u64,
    /// Microseconds since the bus was created.
    pub ts_us: u64,
    /// The payload.
    pub kind: EventKind,
}

impl TelemetryEvent {
    /// Renders the event as one flat JSON object (an NDJSON line once
    /// compact-printed). Every document this produces survives the
    /// strict [`Json::parse`] round trip.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("seq".into(), Json::Int(self.seq as i64)),
            ("ts_us".into(), Json::Int(self.ts_us as i64)),
            ("event".into(), Json::str(self.kind.name())),
        ];
        let mut push = |k: &str, v: Json| fields.push((k.to_owned(), v));
        match &self.kind {
            EventKind::JobSubmitted { job, label } => {
                push("job", Json::Int(*job as i64));
                push("label", Json::str(label.clone()));
            }
            EventKind::JobStarted { job } => push("job", Json::Int(*job as i64)),
            EventKind::PhaseStarted { job, phase } => {
                push("job", Json::Int(*job as i64));
                push("phase", Json::str(*phase));
            }
            EventKind::PhaseFinished {
                job,
                phase,
                elapsed,
            } => {
                push("job", Json::Int(*job as i64));
                push("phase", Json::str(*phase));
                push("elapsed_us", micros(*elapsed));
            }
            EventKind::Iteration {
                job,
                ruleset,
                index,
                nodes,
                classes,
                matches,
                search_time,
                merge_time,
                apply_time,
                rebuild_time,
                visits,
                budget_exhausted,
                capped,
                replayed,
            } => {
                push("job", Json::Int(*job as i64));
                push("ruleset", Json::str(*ruleset));
                push("index", Json::Int(*index as i64));
                push("nodes", Json::Int(*nodes as i64));
                push("classes", Json::Int(*classes as i64));
                push("matches", Json::Int(*matches as i64));
                push("search_us", micros(*search_time));
                push("merge_us", micros(*merge_time));
                push("apply_us", micros(*apply_time));
                push("rebuild_us", micros(*rebuild_time));
                push("visits", Json::Int(*visits as i64));
                push("budget_exhausted", Json::Int(*budget_exhausted as i64));
                push("capped", Json::Int(*capped as i64));
                push("replayed", Json::Int(*replayed as i64));
            }
            EventKind::CacheHit { job } | EventKind::CacheMiss { job } => {
                push("job", Json::Int(*job as i64))
            }
            EventKind::CacheEvicted { entries } => push("entries", Json::Int(*entries as i64)),
            EventKind::JobRetry {
                job,
                attempt,
                delay,
            } => {
                push("job", Json::Int(*job as i64));
                push("attempt", Json::Int(i64::from(*attempt)));
                push("delay_us", micros(*delay));
            }
            EventKind::JobDone {
                job,
                status,
                from_cache,
            } => {
                push("job", Json::Int(*job as i64));
                push("status", Json::str(status.clone()));
                push("from_cache", Json::Bool(*from_cache));
            }
            EventKind::Dropped { count } => push("count", Json::Int(*count as i64)),
        }
        Json::Obj(fields)
    }
}

/// A duration as whole microseconds (the `_us` fields of event lines).
fn micros(d: Duration) -> Json {
    Json::Int(i64::try_from(d.as_micros()).unwrap_or(i64::MAX))
}

#[derive(Debug)]
struct BusState {
    queue: VecDeque<TelemetryEvent>,
    next_seq: u64,
    /// Events dropped since the last emitted `Dropped` marker; their
    /// sequence numbers are already burned.
    dropped_pending: u64,
    closed: bool,
}

/// A bounded multi-producer event ring.
///
/// Publishing never blocks: when the ring is full the event is dropped
/// (and accounted — see the module docs for the marker protocol).
/// Consumers call [`EventBus::drain`] (non-blocking) or
/// [`EventBus::wait`] (parks until events arrive or the bus closes).
#[derive(Debug)]
pub struct EventBus {
    capacity: usize,
    epoch: Instant,
    state: Mutex<BusState>,
    available: Condvar,
    dropped_total: AtomicU64,
}

impl Default for EventBus {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventBus {
    /// Creates a bus holding at most `capacity` undrained events.
    pub fn with_capacity(capacity: usize) -> EventBus {
        EventBus {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            state: Mutex::new(BusState {
                queue: VecDeque::new(),
                next_seq: 0,
                dropped_pending: 0,
                closed: false,
            }),
            available: Condvar::new(),
            dropped_total: AtomicU64::new(0),
        }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Publishes an event. Never blocks; a full ring drops the event
    /// (burning its sequence number) and a closed bus ignores it.
    pub fn publish(&self, kind: EventKind) {
        let ts_us = self.now_us();
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return;
        }
        // Flush an outstanding drop marker ahead of the incoming event
        // whenever the ring has any room at all: the marker accounts
        // for the seq gap immediately preceding it, so it must never
        // be starved behind newer events. The incoming event then
        // competes for whatever room is left (and may itself join the
        // dropped batch). The previous `len + 1 < capacity` condition
        // held the marker back under sustained exactly-at-capacity
        // load, letting an event slip in ahead of the gap it should
        // have explained.
        if s.dropped_pending > 0 && s.queue.len() < self.capacity {
            let count = std::mem::take(&mut s.dropped_pending);
            let seq = s.next_seq;
            s.next_seq += 1;
            s.queue.push_back(TelemetryEvent {
                seq,
                ts_us,
                kind: EventKind::Dropped { count },
            });
        }
        if s.queue.len() >= self.capacity {
            s.dropped_pending += 1;
            s.next_seq += 1; // the dropped event still burns its seq
            self.dropped_total.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.queue.push_back(TelemetryEvent { seq, ts_us, kind });
        drop(s);
        self.available.notify_all();
    }

    fn drain_locked(&self, s: &mut BusState, ts_us: u64) -> Vec<TelemetryEvent> {
        if s.dropped_pending > 0 {
            let count = std::mem::take(&mut s.dropped_pending);
            let seq = s.next_seq;
            s.next_seq += 1;
            s.queue.push_back(TelemetryEvent {
                seq,
                ts_us,
                kind: EventKind::Dropped { count },
            });
        }
        s.queue.drain(..).collect()
    }

    /// Removes and returns all buffered events (flushing any pending
    /// drop marker). Non-blocking.
    pub fn drain(&self) -> Vec<TelemetryEvent> {
        let ts_us = self.now_us();
        let mut s = self.state.lock().unwrap();
        self.drain_locked(&mut s, ts_us)
    }

    /// Blocks until at least one event is available, then drains.
    /// Returns an empty vector only when the bus is closed and empty —
    /// the consumer's signal to stop.
    pub fn wait(&self) -> Vec<TelemetryEvent> {
        let mut s = self.state.lock().unwrap();
        loop {
            if !s.queue.is_empty() || s.dropped_pending > 0 {
                let ts_us = self.now_us();
                return self.drain_locked(&mut s, ts_us);
            }
            if s.closed {
                return vec![];
            }
            s = self.available.wait(s).unwrap();
        }
    }

    /// Closes the bus: later publishes are ignored and a consumer
    /// blocked in [`EventBus::wait`] wakes up (draining what is left).
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        drop(s);
        self.available.notify_all();
    }

    /// Total events dropped under backpressure since creation.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }
}

/// A shared handle to an [`EventBus`]: the telemetry surface handed
/// around the service.
pub type TelemetrySink = Arc<EventBus>;

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(events: &[TelemetryEvent]) -> Vec<u64> {
        events.iter().map(|e| e.seq).collect()
    }

    /// The ordering invariant consumers rely on: gapless sequence
    /// numbers, except that a `dropped` marker accounts for exactly
    /// the burned gap before it.
    fn assert_gapless(events: &[TelemetryEvent]) {
        let mut expected = events.first().map(|e| e.seq).unwrap_or(0);
        for e in events {
            if let EventKind::Dropped { count } = e.kind {
                expected += count;
            }
            assert_eq!(
                e.seq,
                expected,
                "seq gap not accounted for by a dropped marker: {:?}",
                seqs(events)
            );
            expected += 1;
        }
    }

    #[test]
    fn publish_drain_preserves_order_and_seqs() {
        let bus = EventBus::with_capacity(16);
        for job in 0..5 {
            bus.publish(EventKind::JobStarted { job });
        }
        let events = bus.drain();
        assert_eq!(seqs(&events), vec![0, 1, 2, 3, 4]);
        assert_gapless(&events);
        assert_eq!(bus.dropped_total(), 0);
        assert!(bus.drain().is_empty());
    }

    #[test]
    fn full_ring_drops_and_emits_marker_with_burned_seqs() {
        let bus = EventBus::with_capacity(3);
        for job in 0..7 {
            bus.publish(EventKind::JobStarted { job });
        }
        // Ring held 0,1,2; events 3..7 were dropped (seqs burned).
        assert_eq!(bus.dropped_total(), 4);
        let first = bus.drain();
        assert_eq!(first.len(), 4, "3 events + 1 drop marker");
        assert!(matches!(first[3].kind, EventKind::Dropped { count: 4 }));
        assert_eq!(first[3].seq, 7, "marker takes the next seq after the gap");
        assert_gapless(&first);
        // Publishing resumes seamlessly after the marker.
        bus.publish(EventKind::JobStarted { job: 99 });
        let next = bus.drain();
        assert_eq!(seqs(&next), vec![8]);
    }

    #[test]
    fn marker_is_flushed_by_next_publish_with_room() {
        let bus = EventBus::with_capacity(2);
        bus.publish(EventKind::JobStarted { job: 0 });
        bus.publish(EventKind::JobStarted { job: 1 });
        bus.publish(EventKind::JobStarted { job: 2 }); // dropped
        assert_eq!(bus.dropped_total(), 1);
        let events = bus.drain();
        assert_gapless(&events);
        bus.publish(EventKind::JobStarted { job: 3 });
        let events = bus.drain();
        // Marker was already flushed by the drain above; the new event
        // continues the sequence.
        assert_eq!(events.len(), 1);
        assert_gapless(&events);
    }

    #[test]
    fn sustained_at_capacity_load_flushes_the_marker_ahead_of_new_events() {
        // Repeated fill-to-capacity / overflow / drain cycles, the
        // regime in which the marker used to starve: the flush
        // condition required room for the marker *and* the incoming
        // event (`len + 1 < capacity`), so at `len == capacity - 1`
        // a new event could be enqueued ahead of the gap the pending
        // marker explains. The marker must always come first, and the
        // accounting must stay gapless across every cycle.
        let bus = EventBus::with_capacity(2);
        for cycle in 0..5u64 {
            bus.publish(EventKind::JobStarted { job: cycle * 10 });
            bus.publish(EventKind::JobStarted {
                job: cycle * 10 + 1,
            });
            bus.publish(EventKind::JobStarted {
                job: cycle * 10 + 2,
            }); // dropped
            bus.publish(EventKind::JobStarted {
                job: cycle * 10 + 3,
            }); // dropped
            let events = bus.drain();
            assert_eq!(events.len(), 3, "2 events + 1 marker, cycle {cycle}");
            assert!(
                matches!(events[2].kind, EventKind::Dropped { count: 2 }),
                "cycle {cycle}: {:?}",
                seqs(&events)
            );
            assert_gapless(&events);
            // A marker in the stream must never be preceded by an
            // event published *after* the drops it accounts for.
            let marker_seq = events[2].seq;
            assert!(events[..2].iter().all(|e| e.seq < marker_seq - 2));
        }
        assert_eq!(bus.dropped_total(), 10);
    }

    #[test]
    fn closed_bus_ignores_publishes_and_wakes_waiters() {
        let bus = Arc::new(EventBus::with_capacity(8));
        let waiter = {
            let bus = Arc::clone(&bus);
            std::thread::spawn(move || bus.wait())
        };
        // Give the waiter a moment to park, then close.
        std::thread::sleep(Duration::from_millis(20));
        bus.close();
        assert!(waiter.join().unwrap().is_empty());
        bus.publish(EventKind::JobStarted { job: 0 });
        assert!(bus.drain().is_empty(), "closed bus accepts nothing");
    }

    #[test]
    fn wait_returns_published_events() {
        let bus = Arc::new(EventBus::with_capacity(8));
        let waiter = {
            let bus = Arc::clone(&bus);
            std::thread::spawn(move || bus.wait())
        };
        bus.publish(EventKind::JobStarted { job: 7 });
        let events = waiter.join().unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::JobStarted { job: 7 }));
    }

    #[test]
    fn every_event_kind_renders_strict_parseable_json() {
        let kinds = vec![
            EventKind::JobSubmitted {
                job: 1,
                label: "bench/a.blif".into(),
            },
            EventKind::JobStarted { job: 1 },
            EventKind::PhaseStarted {
                job: 1,
                phase: "saturate",
            },
            EventKind::PhaseFinished {
                job: 1,
                phase: "saturate",
                elapsed: Duration::from_micros(1234),
            },
            EventKind::Iteration {
                job: 1,
                ruleset: "r1",
                index: 0,
                nodes: 100,
                classes: 40,
                matches: 17,
                search_time: Duration::from_micros(900),
                merge_time: Duration::from_micros(30),
                apply_time: Duration::from_micros(200),
                rebuild_time: Duration::from_micros(100),
                visits: 5_000,
                budget_exhausted: 1,
                capped: 2,
                replayed: 3,
            },
            EventKind::CacheHit { job: 1 },
            EventKind::CacheMiss { job: 1 },
            EventKind::CacheEvicted { entries: 2 },
            EventKind::JobDone {
                job: 1,
                status: "completed".into(),
                from_cache: false,
            },
            EventKind::Dropped { count: 3 },
        ];
        for (seq, kind) in kinds.into_iter().enumerate() {
            let event = TelemetryEvent {
                seq: seq as u64,
                ts_us: 42,
                kind,
            };
            let line = event.to_json().to_string();
            let parsed =
                Json::parse(&line).unwrap_or_else(|e| panic!("event line must parse: {e}: {line}"));
            assert_eq!(parsed.to_string(), line, "round trip must be exact");
            assert!(!line.contains('\n'), "one event is one line");
        }
    }
}
