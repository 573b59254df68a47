//! Deterministic fault injection for the service tier.
//!
//! A [`FaultRegistry`] is a table of named **failpoints** — places in
//! the service where an operator (usually a chaos test) can make the
//! real world go wrong on purpose: a submission that is refused, a
//! cache insertion that is lost, a pipeline that panics mid-job. Every
//! failpoint site in the service calls [`FaultRegistry::hit`] with its
//! [`site`] name; the registry consults the site's configured
//! [`Trigger`] and either stays silent (`None`) or hands back the
//! [`FaultAction`] the site must perform.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Every trigger is a pure function of the
//!    site's hit counter and (for [`Trigger::Probability`]) a seeded
//!    per-site RNG stream — the same registry configuration over the
//!    same submission order injects the same faults. Chaos failures
//!    reproduce from a seed, never from luck.
//! 2. **Zero-cost when unconfigured.** Sites hold an
//!    `Option<Arc<FaultRegistry>>`; the `None` path (every production
//!    configuration) is a single branch. Even with a registry
//!    attached, an un-armed one answers from one relaxed atomic load.
//! 3. **Typed.** Injected failures carry [`InjectedFault`] so the
//!    error classification layer can tell "the chaos harness did this
//!    (transient, retry it)" from a real bug.
//!
//! The failpoint names are constants in [`site`]; a schedule is built
//! with [`FaultRegistry::configure`], one [`FaultPolicy`] per site.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use egraph::hash::FxHashMap;

/// The named failpoint sites wired through the service. Using
/// constants (rather than free strings at each call site) keeps the
/// set greppable and lets the chaos harness enumerate every site.
pub mod site {
    /// The pipeline execution inside a worker. `error` injects a
    /// transient failure (retried under `max_retries`); `panic` panics
    /// inside the worker's panic-isolation boundary.
    pub const WORKER_PIPELINE: &str = "worker.pipeline";
    /// Job admission (`submit`).
    /// `error` rejects the job as shed
    /// ([`RejectReason::Injected`]); `panic` unwinds the submitter.
    ///
    /// [`RejectReason::Injected`]: crate::RejectReason::Injected
    pub const QUEUE_ACCEPT: &str = "queue.accept";
    /// A result-cache insertion. `error` drops the insertion silently
    /// (the entry is simply not cached); `panic` unwinds the inserter.
    pub const CACHE_INSERT: &str = "cache.insert";

    /// Every site, for enumeration by chaos harnesses.
    pub const ALL: &[&str] = &[WORKER_PIPELINE, QUEUE_ACCEPT, CACHE_INSERT];
}

/// What a triggered failpoint makes its site do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return the site's typed error (a transient pipeline failure, a
    /// shed rejection, a dropped insertion — whatever the site's real
    /// failure mode is).
    Error,
    /// Panic at the site, exercising the panic-isolation boundaries.
    Panic,
}

impl FaultAction {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Panic => "panic",
        }
    }
}

/// When a configured failpoint fires, as a deterministic function of
/// the site's hit count (and, for probability, a seeded RNG stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on exactly the `n`th hit (1-based), once.
    Nth(u64),
    /// Fire on every `k`th hit (`k` = 1 fires always).
    EveryKth(u64),
    /// Fire on each hit with probability `numerator / denominator`,
    /// drawn from a splitmix64 stream seeded by `seed` xor the site
    /// name hash — so two sites configured with one seed still see
    /// independent (but reproducible) streams.
    Probability {
        /// Chance numerator.
        numerator: u64,
        /// Chance denominator (>= 1).
        denominator: u64,
        /// RNG seed; same seed + same hit order = same faults.
        seed: u64,
    },
    /// Fire on every hit.
    Always,
}

/// A trigger/action pair installed at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// When the failpoint fires.
    pub trigger: Trigger,
    /// What the site does when it fires.
    pub action: FaultAction,
}

/// The typed error a site returns for [`FaultAction::Error`].
/// Injected failures are transient by definition — the next attempt
/// may not trigger — which is what the retry classification keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint that fired.
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint {}", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// Per-site bookkeeping: the installed policy plus the deterministic
/// state the trigger evolves over.
#[derive(Debug)]
struct SiteState {
    policy: FaultPolicy,
    /// Times the site was evaluated.
    hits: u64,
    /// Times the trigger fired.
    fired: u64,
    /// splitmix64 state for [`Trigger::Probability`].
    rng: u64,
}

/// One step of splitmix64: a tiny, high-quality, dependency-free PRNG
/// — exactly reproducible across platforms, which is the whole point.
/// Also the source of the retry backoff jitter in `service.rs`.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, to decorrelate per-site RNG streams
/// derived from one operator-chosen seed.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in site.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A registry of named failpoints with seeded, per-site trigger
/// policies. See the [module docs](self) for the design contract.
#[derive(Debug, Default)]
pub struct FaultRegistry {
    /// Fast-path flag: false until the first `configure`, so an
    /// attached-but-empty registry costs one relaxed load per site.
    armed: AtomicBool,
    sites: Mutex<FxHashMap<String, SiteState>>,
}

impl FaultRegistry {
    /// An empty (un-armed) registry: every [`FaultRegistry::hit`]
    /// answers `None`.
    pub fn new() -> FaultRegistry {
        FaultRegistry::default()
    }

    /// Installs (or replaces) the policy at `site`, resetting the
    /// site's hit counter and RNG stream.
    pub fn configure(&self, site: impl Into<String>, policy: FaultPolicy) {
        let site = site.into();
        let rng = match policy.trigger {
            Trigger::Probability { seed, .. } => seed ^ site_hash(&site),
            _ => 0,
        };
        self.lock().insert(
            site,
            SiteState {
                policy,
                hits: 0,
                fired: 0,
                rng,
            },
        );
        self.armed.store(true, Ordering::Release);
    }

    /// Evaluates the failpoint at `site`: counts the hit and returns
    /// the action to perform if the site's trigger fires. Sites with
    /// no configured policy (and every site of an un-armed registry)
    /// return `None`.
    pub fn hit(&self, site: &str) -> Option<FaultAction> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut sites = self.lock();
        let state = sites.get_mut(site)?;
        state.hits += 1;
        let fire = match state.policy.trigger {
            Trigger::Nth(n) => state.hits == n,
            Trigger::EveryKth(k) => k > 0 && state.hits % k == 0,
            Trigger::Probability {
                numerator,
                denominator,
                ..
            } => denominator > 0 && splitmix64(&mut state.rng) % denominator < numerator,
            Trigger::Always => true,
        };
        if fire {
            state.fired += 1;
            Some(state.policy.action)
        } else {
            None
        }
    }

    /// Times `site` was evaluated (whether or not it fired).
    pub fn hits(&self, site: &str) -> u64 {
        self.lock().get(site).map_or(0, |s| s.hits)
    }

    /// Times `site`'s trigger fired.
    pub fn fired(&self, site: &str) -> u64 {
        self.lock().get(site).map_or(0, |s| s.fired)
    }

    /// Total fires across all sites.
    pub fn fired_total(&self) -> u64 {
        self.lock().values().map(|s| s.fired).sum()
    }

    /// The typed error for an [`FaultAction::Error`] at `site`.
    pub fn injected(site: &str) -> InjectedFault {
        InjectedFault {
            site: site.to_owned(),
        }
    }

    /// The sites lock never guards anything that can be left torn —
    /// recover from poisoning instead of cascading a chaos panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, FxHashMap<String, SiteState>> {
        self.sites.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Evaluates an optional registry at `site`; the everyone-disabled
/// fast path is one `None` check.
pub(crate) fn check(faults: Option<&Arc<FaultRegistry>>, site: &str) -> Option<FaultAction> {
    faults.and_then(|f| f.hit(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(trigger: Trigger) -> FaultPolicy {
        FaultPolicy {
            trigger,
            action: FaultAction::Error,
        }
    }

    #[test]
    fn unarmed_registry_is_silent_and_counts_nothing() {
        let registry = FaultRegistry::new();
        for s in site::ALL {
            assert_eq!(registry.hit(s), None);
        }
        assert_eq!(registry.hits(site::QUEUE_ACCEPT), 0);
        assert_eq!(registry.fired_total(), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let registry = FaultRegistry::new();
        registry.configure(site::CACHE_INSERT, policy(Trigger::Nth(3)));
        let fired: Vec<bool> = (0..6)
            .map(|_| registry.hit(site::CACHE_INSERT).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(registry.hits(site::CACHE_INSERT), 6);
        assert_eq!(registry.fired(site::CACHE_INSERT), 1);
        // Other sites stay silent.
        assert_eq!(registry.hit(site::QUEUE_ACCEPT), None);
    }

    #[test]
    fn every_kth_fires_periodically_and_always_fires_always() {
        let registry = FaultRegistry::new();
        registry.configure(site::WORKER_PIPELINE, policy(Trigger::EveryKth(2)));
        let fired: Vec<bool> = (0..6)
            .map(|_| registry.hit(site::WORKER_PIPELINE).is_some())
            .collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
        registry.configure(site::QUEUE_ACCEPT, policy(Trigger::Always));
        assert!(registry.hit(site::QUEUE_ACCEPT).is_some());
        assert!(registry.hit(site::QUEUE_ACCEPT).is_some());
    }

    #[test]
    fn probability_streams_are_deterministic_and_seed_sensitive() {
        let draw = |seed: u64| -> Vec<bool> {
            let registry = FaultRegistry::new();
            registry.configure(
                site::QUEUE_ACCEPT,
                policy(Trigger::Probability {
                    numerator: 1,
                    denominator: 2,
                    seed,
                }),
            );
            (0..64)
                .map(|_| registry.hit(site::QUEUE_ACCEPT).is_some())
                .collect()
        };
        assert_eq!(draw(42), draw(42), "same seed must replay identically");
        assert_ne!(draw(42), draw(43), "different seeds must diverge");
        let fires = draw(42).iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fires),
            "p=1/2 over 64 draws fired {fires} times"
        );
    }

    #[test]
    fn one_seed_decorrelates_across_sites() {
        let registry = FaultRegistry::new();
        for s in [site::QUEUE_ACCEPT, site::CACHE_INSERT] {
            registry.configure(
                s,
                policy(Trigger::Probability {
                    numerator: 1,
                    denominator: 2,
                    seed: 7,
                }),
            );
        }
        let a: Vec<bool> = (0..64)
            .map(|_| registry.hit(site::QUEUE_ACCEPT).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| registry.hit(site::CACHE_INSERT).is_some())
            .collect();
        assert_ne!(a, b, "per-site streams must not mirror each other");
    }

    #[test]
    fn reconfigure_resets_site_state() {
        let registry = FaultRegistry::new();
        registry.configure(site::CACHE_INSERT, policy(Trigger::Nth(1)));
        assert!(registry.hit(site::CACHE_INSERT).is_some());
        registry.configure(site::CACHE_INSERT, policy(Trigger::Nth(1)));
        assert!(
            registry.hit(site::CACHE_INSERT).is_some(),
            "counter must reset"
        );
    }
}
