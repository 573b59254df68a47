//! The structural-hash result cache: one in-memory LRU.

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
/// [`ResultSummary`]s with least-recently-used eviction.
///
/// Every get or insert stamps the entry with a logical clock; at
/// capacity the entry with the oldest stamp goes. The victim search is
/// a scan — O(capacity), irrelevant next to the saturation runs the
/// cache fronts, and dependency-free.
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
    /// Monotonic logical clock; bumped on every touch.
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

struct Entry {
    summary: Arc<ResultSummary>,
    /// The logical time of the last get/insert touching this entry.
    last_used: u64,
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

    /// Looks up `key`, counting a hit or miss. A hit makes the entry
    /// the most recently used.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<ResultSummary>> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
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

    /// Stores `summary` under `key`, evicting the least recently used
    /// entry if at capacity. Re-inserting an existing key refreshes the
    /// value and promotes the entry without counting a new insertion.
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
            summary,
        };
        let fresh = inner.map.insert(key, entry).is_none();
        let mut evicted = 0u64;
        if fresh {
            inner.insertions += 1;
            while inner.map.len() > self.capacity {
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("non-empty map over capacity");
                inner.map.remove(&victim);
                inner.evictions += 1;
                evicted += 1;
            }
        }
        drop(inner);
        if evicted > 0 {
            if let Some(telemetry) = &self.telemetry {
                telemetry.publish(EventKind::CacheEvicted { entries: evicted });
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

    #[test]
    fn concurrent_snapshots_are_internally_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        let cache = Arc::new(ResultCache::new(8));
        let summary = dummy_summary();
        let stop = Arc::new(AtomicBool::new(false));
        // The writers start only once the sampler has taken its first
        // snapshot, so sampling overlaps the writes by construction.
        let start = Arc::new(Barrier::new(5));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let summary = Arc::clone(&summary);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
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
                loop {
                    let s = cache.stats();
                    assert_eq!(
                        s.insertions,
                        s.entries as u64 + s.evictions,
                        "torn snapshot: {s:?}"
                    );
                    samples += 1;
                    if samples == 1 {
                        start.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break samples;
                    }
                }
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
        let telemetry = Arc::new(boole::EventBus::default());
        let cache = ResultCache::new(1).with_telemetry(Some(Arc::clone(&telemetry)));
        let summary = dummy_summary();
        cache.insert(key(1), Arc::clone(&summary));
        assert!(telemetry.drain().is_empty(), "no eviction yet");
        cache.insert(key(2), summary);
        let events = telemetry.drain();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CacheEvicted { entries: 1 })),
            "eviction must publish an event: {events:?}"
        );
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
