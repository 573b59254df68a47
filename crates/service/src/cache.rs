//! The in-memory tier of the structural-hash result cache.

use std::sync::{Arc, Mutex};

use boole::telemetry::{EventKind, TelemetrySink};
use egraph::hash::FxHashMap;

use crate::faults::{self, site, FaultAction, FaultRegistry};
use crate::fingerprint::Fingerprint;
use crate::job::ResultSummary;

/// Cache key: netlist structure × result-relevant parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Structural fingerprint of the submitted netlist.
    pub netlist: Fingerprint,
    /// Fingerprint of the pipeline parameters.
    pub params: u64,
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Summaries stored.
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A bounded, thread-safe map from [`CacheKey`] to completed
/// [`ResultSummary`]s.
///
/// Eviction is cost-aware (the GreedyDual algorithm): each entry
/// carries a priority `clock + cost`, where the cost is its
/// `pipeline_runtime` — what a miss on this entry would make the
/// service pay again — and `clock` is an inflation value that rises to
/// the victim's priority on every eviction. Hits and re-insertions
/// re-price the entry at the *current* clock, so recency still
/// matters: an expensive result survives a stream of one-off cheap
/// submissions, but once the clock has inflated past its cost an
/// untouched expensive entry ages out too. Among equal-cost entries
/// (ties broken by last-use stamp) the policy degenerates to exact
/// LRU. The victim search is a scan — O(capacity), irrelevant next to
/// the saturation runs the cache fronts, and dependency-free.
///
/// All counters live under the same lock as the map, so a
/// [`CacheStats`] snapshot is consistent: `insertions == entries +
/// evictions` holds in every snapshot, concurrent writers or not.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    /// Optional event sink notified of evictions (out-of-band; never
    /// consulted for cache decisions).
    telemetry: Option<TelemetrySink>,
    /// Optional fault-injection registry; the `cache.insert`
    /// failpoint fires here.
    faults: Option<Arc<FaultRegistry>>,
}

struct CacheInner {
    // Keys are already-uniform fingerprints, so the e-graph's fast
    // FxHash hasher is safe and skips SipHash on every job lookup.
    map: FxHashMap<CacheKey, Entry>,
    /// Monotonic logical clock; bumped on every touch. Tie-breaker for
    /// equal priorities (= exact LRU among equal costs).
    tick: u64,
    /// GreedyDual inflation value: the priority of the last victim.
    clock: f64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

struct Entry {
    summary: Arc<ResultSummary>,
    /// The logical time of the last get/insert touching this entry.
    last_used: u64,
    /// GreedyDual priority: clock at last touch + recompute cost.
    priority: f64,
}

/// The eviction cost of a summary, in milliseconds of saturation the
/// service would pay to recompute it. The +1 floor keeps entries with
/// sub-millisecond (or disk-restored zero) runtimes ordered by
/// recency rather than collapsing to priority ≈ clock.
fn recompute_cost(summary: &ResultSummary) -> f64 {
    summary.pipeline_runtime.as_secs_f64() * 1e3 + 1.0
}

impl ResultCache {
    /// Creates a cache holding up to `capacity` entries (0 disables
    /// storage; lookups always miss).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(CacheInner {
                map: FxHashMap::default(),
                tick: 0,
                clock: 0.0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
            telemetry: None,
            faults: None,
        }
    }

    /// Attaches a telemetry sink that receives an event per eviction
    /// pass.
    pub fn with_telemetry(mut self, telemetry: Option<TelemetrySink>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a fault-injection registry (chaos testing only); see
    /// [`crate::faults`].
    pub fn with_faults(mut self, faults: Option<Arc<FaultRegistry>>) -> Self {
        self.faults = faults;
        self
    }

    /// Looks up `key`, counting a hit or miss. A hit re-prices the
    /// entry at the current clock (most-recently-used among its cost
    /// class).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<ResultSummary>> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                entry.priority = clock + recompute_cost(&entry.summary);
                let summary = Arc::clone(&entry.summary);
                inner.hits += 1;
                Some(summary)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores `summary` under `key`, evicting the lowest-priority
    /// (cheapest-to-recompute, least-recently-touched) entry if at
    /// capacity. Re-inserting an existing key refreshes the value and
    /// re-prices the entry without counting a new insertion.
    pub fn insert(&self, key: CacheKey, summary: Arc<ResultSummary>) {
        if self.capacity == 0 {
            return;
        }
        match faults::check(self.faults.as_ref(), site::CACHE_INSERT) {
            Some(FaultAction::Panic) => panic!("{}", FaultRegistry::injected(site::CACHE_INSERT)),
            // An injected insertion failure silently drops the entry:
            // the job still completes, the next lookup just misses.
            Some(_) => return,
            None => {}
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let entry = Entry {
            last_used: inner.tick,
            priority: inner.clock + recompute_cost(&summary),
            summary,
        };
        let fresh = inner.map.insert(key, entry).is_none();
        let mut evicted = 0u64;
        if fresh {
            inner.insertions += 1;
            while inner.map.len() > self.capacity {
                let (victim, priority) = inner
                    .map
                    .iter()
                    .min_by(|(_, a), (_, b)| {
                        a.priority
                            .total_cmp(&b.priority)
                            .then(a.last_used.cmp(&b.last_used))
                    })
                    .map(|(k, e)| (*k, e.priority))
                    .expect("non-empty map over capacity");
                inner.map.remove(&victim);
                inner.evictions += 1;
                evicted += 1;
                // Inflate: everything cheaper than the victim would
                // also have been evicted, so future entries must beat
                // this price to outlive the present working set.
                inner.clock = inner.clock.max(priority);
            }
        }
        drop(inner);
        if evicted > 0 {
            if let Some(telemetry) = &self.telemetry {
                telemetry
                    .events
                    .publish(EventKind::CacheEvicted { entries: evicted });
                telemetry.metrics.counter("cache_evictions").add(evicted);
            }
        }
    }

    /// A consistent snapshot of the counters: taken under the map
    /// lock, so `insertions == entries + evictions` in every snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boole::{BoolE, BooleParams};

    fn dummy_summary() -> Arc<ResultSummary> {
        let aig = aig::gen::csa_multiplier(3);
        let result = BoolE::new(BooleParams::small()).run(&aig);
        Arc::new(ResultSummary::from(&result))
    }

    fn key(tag: u64) -> CacheKey {
        CacheKey {
            netlist: crate::fingerprint::Fingerprint([tag, !tag]),
            params: 7,
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = ResultCache::new(8);
        let summary = dummy_summary();
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Arc::clone(&summary));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn untouched_entries_evict_in_insertion_order() {
        let cache = ResultCache::new(2);
        let summary = dummy_summary();
        for i in 0..3 {
            cache.insert(key(i), Arc::clone(&summary));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // With no intervening touches LRU degenerates to FIFO: the
        // oldest key goes, the newer two stay.
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn hit_promotes_entry_over_older_unused_ones() {
        let cache = ResultCache::new(2);
        let summary = dummy_summary();
        cache.insert(key(1), Arc::clone(&summary));
        cache.insert(key(2), Arc::clone(&summary));
        // Touch key 1: it becomes most-recently-used, so key 2 is now
        // the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), Arc::clone(&summary));
        assert!(cache.get(&key(2)).is_none(), "unpromoted entry must go");
        assert!(cache.get(&key(1)).is_some(), "promoted entry must stay");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_follows_recency_order_under_interleaved_touches() {
        let cache = ResultCache::new(3);
        let summary = dummy_summary();
        for i in 0..3 {
            cache.insert(key(i), Arc::clone(&summary));
        }
        // Recency (oldest → newest) is now 1, 0, 2.
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        cache.insert(key(3), Arc::clone(&summary)); // evicts 1
        assert!(cache.get(&key(1)).is_none());
        // Recency is now 0, 2, 3.
        cache.insert(key(4), Arc::clone(&summary)); // evicts 0
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert!(cache.get(&key(4)).is_some());
        assert_eq!(cache.stats().evictions, 2);
    }

    /// A hand-built summary whose only meaningful field is the
    /// recompute cost, so eviction-order tests control it exactly.
    fn summary_with_runtime_ms(ms: u64) -> Arc<ResultSummary> {
        use std::time::Duration;
        Arc::new(ResultSummary {
            exact_fa_count: 0,
            inputs: 0,
            outputs: 0,
            ands: 0,
            fas: Vec::new(),
            original_fas: Vec::new(),
            saturation: boole::SaturationStats {
                nodes_after_r1: 0,
                nodes_after_r2: 0,
                classes: 0,
                r1_stop: egraph::StopReason::Saturated,
                r2_stop: egraph::StopReason::Saturated,
                r1_iterations: 0,
                r2_iterations: 0,
                pruned: 0,
                search_time: Duration::ZERO,
                merge_time: Duration::ZERO,
                apply_time: Duration::ZERO,
                rebuild_time: Duration::ZERO,
                total_matches: 0,
                rules: Vec::new(),
            },
            pairing: boole::PairStats::default(),
            pipeline_runtime: Duration::from_millis(ms),
        })
    }

    #[test]
    fn cheap_entries_evict_before_expensive_older_ones() {
        let cache = ResultCache::new(2);
        // An expensive result inserted first, then a cheap one.
        cache.insert(key(100), summary_with_runtime_ms(500));
        cache.insert(key(1), summary_with_runtime_ms(0));
        // A third (cheap) insertion must evict the *cheap* entry, not
        // the older-but-expensive one: under pure LRU key(100) would
        // go; cost-awareness keeps it.
        cache.insert(key(2), summary_with_runtime_ms(0));
        assert!(
            cache.get(&key(100)).is_some(),
            "expensive entry must survive a cheap one-off"
        );
        assert!(cache.get(&key(1)).is_none(), "cheap entry is the victim");
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn untouched_expensive_entries_age_out_eventually() {
        let cache = ResultCache::new(2);
        // Cost 5 ms ⇒ priority 0 + 6. A stream of one-off cheap
        // entries (cost 1) inflates the clock (roughly 1 per two
        // evictions in this pattern); once it reaches 6 the untouched
        // expensive entry is the minimum and goes.
        cache.insert(key(100), summary_with_runtime_ms(5));
        for i in 0..20 {
            cache.insert(key(i), summary_with_runtime_ms(0));
        }
        assert!(
            cache.get(&key(100)).is_none(),
            "an inflating clock must age out even expensive entries"
        );
        // The cache still holds exactly `capacity` of the cheap ones.
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn touched_expensive_entry_outlives_the_stream() {
        let cache = ResultCache::new(2);
        cache.insert(key(100), summary_with_runtime_ms(5));
        for i in 0..20 {
            cache.insert(key(i), summary_with_runtime_ms(0));
            // A periodic hit re-prices the expensive entry at the
            // current clock, so it never becomes the minimum.
            assert!(
                cache.get(&key(100)).is_some(),
                "re-priced expensive entry must survive insertion {i}"
            );
        }
    }

    #[test]
    fn concurrent_snapshots_are_internally_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cache = Arc::new(ResultCache::new(8));
        let summary = summary_with_runtime_ms(1);
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let summary = Arc::clone(&summary);
                std::thread::spawn(move || {
                    let mut gets = 0u64;
                    for i in 0..2000u64 {
                        let k = key(t * 1000 + i % 16);
                        if i % 3 == 0 {
                            cache.insert(k, Arc::clone(&summary));
                        } else {
                            cache.get(&k);
                            gets += 1;
                        }
                    }
                    gets
                })
            })
            .collect();
        // Sample snapshots while the writers hammer the cache: the
        // accounting identity must hold in every single snapshot, not
        // just at quiescence. (Pre-fix, counters were read outside the
        // map lock, so a snapshot could observe `insertions` ahead of
        // `entries + evictions`.)
        let sampler = {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let s = cache.stats();
                    assert_eq!(
                        s.insertions,
                        s.entries as u64 + s.evictions,
                        "torn snapshot: {s:?}"
                    );
                    samples += 1;
                }
                samples
            })
        };
        let total_gets: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        let samples = sampler.join().unwrap();
        assert!(samples > 0, "sampler never ran");
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, total_gets);
        assert_eq!(s.insertions, s.entries as u64 + s.evictions);
    }

    #[test]
    fn evictions_are_reported_to_telemetry() {
        let telemetry = Arc::new(boole::Telemetry::new());
        let cache = ResultCache::new(1).with_telemetry(Some(Arc::clone(&telemetry)));
        cache.insert(key(1), summary_with_runtime_ms(1));
        assert!(telemetry.events.drain().is_empty(), "no eviction yet");
        cache.insert(key(2), summary_with_runtime_ms(1));
        let events = telemetry.events.drain();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CacheEvicted { entries: 1 })),
            "eviction must publish an event: {events:?}"
        );
        assert_eq!(telemetry.metrics.counter("cache_evictions").get(), 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), dummy_summary());
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn reinsert_refreshes_promotes_and_does_not_duplicate() {
        let cache = ResultCache::new(2);
        let summary = dummy_summary();
        cache.insert(key(1), Arc::clone(&summary));
        cache.insert(key(2), Arc::clone(&summary));
        // Re-inserting key 1 promotes it, so key 2 is the next victim.
        cache.insert(key(1), Arc::clone(&summary));
        cache.insert(key(3), Arc::clone(&summary));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
    }
}
