//! The saturation driver: [`Runner`], schedulers, and per-iteration
//! statistics.

use std::fmt;
use std::time::{Duration, Instant};

use crate::delta::{Cone, Replay, SearchRecord};
use crate::hash::FxHashMap;
use crate::machine::{search_rules_since, RuleDirective, SearchStats};
use crate::{CancelToken, EGraph, Id, Language, RecExpr, Rewrite, Symbol};

/// Why a [`Runner`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// No rule produced a change: the e-graph is saturated.
    Saturated,
    /// The iteration limit was reached.
    IterLimit(usize),
    /// The e-graph grew past the node limit.
    NodeLimit(usize),
    /// The time limit was exceeded.
    TimeLimit(Duration),
    /// A [`CancelToken`] requested cooperative cancellation.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Saturated => write!(f, "saturated"),
            StopReason::IterLimit(n) => write!(f, "hit iteration limit {n}"),
            StopReason::NodeLimit(n) => write!(f, "hit node limit {n}"),
            StopReason::TimeLimit(d) => write!(f, "hit time limit {d:?}"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Cumulative per-rule accounting over one [`Runner::run`], maintained
/// by the driver for every rule regardless of scheduler: how long the
/// rule's searches took, how many substitutions they yielded (after
/// scheduling caps), how many applications changed the e-graph, and
/// what the searches spent and where they were truncated.
/// The numbers are the rule-granular view of the aggregate
/// [`Iteration`] statistics, and feed per-rule saturation profiles
/// (`satbench`'s `top_rules`).
#[derive(Debug, Clone, Default)]
pub struct RuleProfile {
    /// Wall-clock time spent searching this rule, summed over all
    /// iterations.
    pub search_time: Duration,
    /// Substitutions the searcher yielded (post-scheduling), summed,
    /// replayed ones included.
    pub matches: usize,
    /// Applications that changed the e-graph, summed.
    pub applications: usize,
    /// Budget units spent, truncations hit and roots replayed by the
    /// rule's completed searches, summed.
    pub search: SearchStats,
}

impl RuleProfile {
    /// Folds another profile (e.g. the same rule's profile from a
    /// later saturation phase) into this one.
    pub fn merge(&mut self, other: &RuleProfile) {
        self.search_time += other.search_time;
        self.matches += other.matches;
        self.applications += other.applications;
        self.search += other.search;
    }
}

/// Observer invoked by [`Runner::run`] after each completed iteration
/// with `(iteration_index, &Iteration)` — the hook live progress
/// reporting (telemetry event streams) attaches to.
pub type IterationHook = Box<dyn Fn(usize, &Iteration)>;

/// Statistics for one saturation iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Number of e-nodes after this iteration.
    pub egraph_nodes: usize,
    /// Number of e-classes after this iteration.
    pub egraph_classes: usize,
    /// Applications per rule that changed the e-graph.
    pub applied: FxHashMap<Symbol, usize>,
    /// Total substitutions found across all rules this iteration
    /// (after scheduling caps, before application), replayed ones
    /// included: the count a search of every root would give.
    pub total_matches: usize,
    /// Time spent searching for matches — the search fan-out only.
    /// The serial post-join merge (`BackoffScheduler` ban
    /// accounting plus [`RuleProfile`] bookkeeping) is reported
    /// separately as [`Iteration::merge_time`]; earlier versions
    /// folded it into `search_time`, silently inflating it.
    pub search_time: Duration,
    /// Time spent merging search results serially in rule-index order
    /// (scheduler accounting and per-rule profile updates) after the
    /// search fan-out joined.
    pub merge_time: Duration,
    /// Time spent applying rules.
    pub apply_time: Duration,
    /// Time spent rebuilding.
    pub rebuild_time: Duration,
    /// Unions performed by congruence repair during rebuild.
    pub n_rebuilds: usize,
    /// Rules *not* searched this iteration because the time limit or a
    /// cancel request tripped mid-search. A rule whose own search the
    /// trip interrupted counts as skipped too: its partial matches are
    /// discarded. Skipped rules contribute no matches and leave their
    /// [`RuleProfile`]s untouched, so per-rule accounting only reflects
    /// searches that ran to completion.
    pub rules_skipped: usize,
    /// Budget units spent, truncations hit and roots replayed by this
    /// iteration's completed rule searches, summed over rules (the sum
    /// of this iteration's [`RuleProfile::search`] increments).
    pub search: SearchStats,
}

/// Limits configuring a [`Runner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerLimits {
    /// Maximum number of iterations (default 30).
    pub iter_limit: usize,
    /// Maximum number of e-nodes (default 10 000).
    pub node_limit: usize,
    /// Wall-clock limit (default 5 s).
    pub time_limit: Duration,
}

impl Default for RunnerLimits {
    fn default() -> Self {
        Self {
            iter_limit: 30,
            node_limit: 10_000,
            time_limit: Duration::from_secs(5),
        }
    }
}

/// Exponential-backoff scheduler (like `egg`'s `BackoffScheduler`):
/// controls how often each rule is searched.
///
/// A rule that yields more than `match_limit` total substitutions in one
/// iteration is banned for `ban_length` iterations; each subsequent ban
/// doubles both numbers for that rule. This keeps explosive rules (e.g.
/// associativity) from starving the rest.
/// `BackoffScheduler::new(usize::MAX, 1)` never bans.
///
/// The protocol is split into a read-only directive and a mutable
/// post-merge accounting step so the runner can fan the searches out
/// across threads (the search phase only reads the e-graph): every
/// rule of an iteration is searched as `search_directive` asks, then
/// `finish_rewrite` runs serially in rule-index order over the
/// collected results. The split is behavior-preserving because each
/// rule only consults its own stats, and a ban recorded during
/// iteration `i` cannot start before iteration `i + 1`.
#[derive(Debug, Clone)]
pub struct BackoffScheduler {
    default_match_limit: usize,
    default_ban_length: usize,
    stats: FxHashMap<Symbol, RuleStats>,
}

#[derive(Debug, Clone)]
struct RuleStats {
    times_banned: usize,
    banned_until: usize,
    match_limit: usize,
    ban_length: usize,
}

impl BackoffScheduler {
    /// Creates a scheduler with the given initial match limit and ban
    /// length.
    pub fn new(match_limit: usize, ban_length: usize) -> Self {
        Self {
            default_match_limit: match_limit,
            default_ban_length: ban_length,
            stats: FxHashMap::default(),
        }
    }

    fn rule_stats(&mut self, name: Symbol) -> &mut RuleStats {
        self.stats.entry(name).or_insert(RuleStats {
            times_banned: 0,
            banned_until: 0,
            match_limit: self.default_match_limit,
            ban_length: self.default_ban_length,
        })
    }

    /// Skips a banned rule; otherwise bounds its search, so an
    /// explosive rule costs at most `allowed` substitutions before
    /// `finish_rewrite` bans it. Reads the stats table without
    /// touching it: absent entries read as the defaults `rule_stats`
    /// would install.
    fn search_directive<L: Language>(
        &self,
        iteration: usize,
        rewrite: &Rewrite<L>,
    ) -> RuleDirective {
        let (banned_until, allowed) = match self.stats.get(&rewrite.name()) {
            Some(s) => (s.banned_until, s.match_limit << s.times_banned),
            None => (0, self.default_match_limit),
        };
        if iteration < banned_until {
            RuleDirective::Skip
        } else {
            RuleDirective::Limit(allowed)
        }
    }

    /// Records the outcome of one rule's search, which counted `total`
    /// substitutions, and returns whether its matches stand (`false` if
    /// the rule is banned, now or already). Called exactly once per
    /// searched rule per iteration, serially, in rule-index order, so
    /// scheduler state stays deterministic.
    fn finish_rewrite<L: Language>(
        &mut self,
        iteration: usize,
        rewrite: &Rewrite<L>,
        total: usize,
    ) -> bool {
        let stats = self.rule_stats(rewrite.name());
        if iteration < stats.banned_until {
            // The search phase saw the same ban and returned nothing.
            return false;
        }
        let allowed = stats.match_limit << stats.times_banned;
        if total > allowed {
            let ban = stats.ban_length << stats.times_banned;
            stats.times_banned += 1;
            stats.banned_until = iteration + ban;
            return false;
        }
        true
    }

    /// Returns `true` if saturation can be trusted (no rule is banned
    /// at `iteration`).
    fn can_stop(&self, iteration: usize) -> bool {
        self.stats.values().all(|s| iteration >= s.banned_until)
    }
}

impl Default for BackoffScheduler {
    fn default() -> Self {
        Self::new(1_000, 5)
    }
}

/// Drives equality saturation: repeatedly search all rules, apply the
/// matches, and rebuild, until saturation or a limit is hit.
///
/// Search is semi-naive (see [`crate::machine`]). The first iteration of
/// each [`Runner::run`] searches every candidate root. After that, a
/// rule searches only the roots that a change since its last search
/// can reach, and replays every other root's match count from that
/// search. Replayed counts feed the match limit, the backoff ban,
/// [`RuleProfile::matches`] and [`Iteration::total_matches`] exactly
/// as found ones do, so scheduling and the e-graph are what searching
/// every root would give; only the matcher's work drops. A rule's next
/// search is full again if its last one was banned, interrupted or
/// cut by its match limit, or if a node-limit or interrupt abort of
/// the apply phase stopped before the rule's matches were applied.
///
/// ```
/// use egraph::{Runner, Rewrite, SymbolLang, RecExpr};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rules: Vec<Rewrite<SymbolLang>> =
///     vec![Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)")?];
/// let expr: RecExpr<SymbolLang> = "(+ x y)".parse()?;
/// let runner = Runner::default().with_expr(&expr).run(&rules);
/// assert!(runner.egraph.lookup_expr(&"(+ y x)".parse()?).is_some());
/// # Ok(())
/// # }
/// ```
pub struct Runner<L: Language> {
    /// The e-graph being saturated.
    pub egraph: EGraph<L>,
    /// Root e-classes registered via [`Runner::with_expr`].
    pub roots: Vec<Id>,
    /// Per-iteration statistics.
    pub iterations: Vec<Iteration>,
    /// Why the run stopped (`None` until [`Runner::run`] is called).
    pub stop_reason: Option<StopReason>,
    /// Cumulative per-rule search/match/application accounting (filled
    /// in by [`Runner::run`]).
    pub rule_profiles: FxHashMap<Symbol, RuleProfile>,
    limits: RunnerLimits,
    scheduler: BackoffScheduler,
    cancel: CancelToken,
    iteration_hook: Option<IterationHook>,
    search_threads: usize,
    /// Drops every rule's record before each search, so every search
    /// is full: the reference run semi-naive search must reproduce.
    #[cfg(test)]
    forget_records: bool,
}

impl<L: Language> Default for Runner<L> {
    /// A runner over an empty e-graph, with default [`RunnerLimits`]
    /// and a default [`BackoffScheduler`].
    fn default() -> Self {
        Self {
            egraph: EGraph::default(),
            roots: vec![],
            iterations: vec![],
            stop_reason: None,
            rule_profiles: FxHashMap::default(),
            limits: RunnerLimits::default(),
            scheduler: BackoffScheduler::default(),
            cancel: CancelToken::new(),
            iteration_hook: None,
            search_threads: 1,
            #[cfg(test)]
            forget_records: false,
        }
    }
}

impl<L: Language> fmt::Debug for Runner<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("egraph", &self.egraph)
            .field("roots", &self.roots)
            .field("iterations", &self.iterations.len())
            .field("stop_reason", &self.stop_reason)
            .finish()
    }
}

impl<L: Language> Runner<L> {
    /// Replaces the e-graph (e.g. to continue saturating an existing
    /// graph with a different ruleset — BoolE's two-phase flow).
    pub fn with_egraph(mut self, egraph: EGraph<L>) -> Self {
        self.egraph = egraph;
        self
    }

    /// Adds `expr` and registers its root.
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let id = self.egraph.add_expr(expr);
        self.roots.push(id);
        self
    }

    /// Registers an existing e-class as a root.
    pub fn with_root(mut self, root: Id) -> Self {
        self.roots.push(root);
        self
    }

    /// Sets the iteration limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.limits.iter_limit = limit;
        self
    }

    /// Sets the e-node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.limits.node_limit = limit;
        self
    }

    /// Sets the wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.limits.time_limit = limit;
        self
    }

    /// Replaces the scheduler.
    pub fn with_scheduler(mut self, scheduler: BackoffScheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Attaches a [`CancelToken`]. When another thread cancels it, or
    /// its deadline passes, the run stops with [`StopReason::Cancelled`]
    /// at the next check point (iteration boundary, between rules, or
    /// inside a rule's search).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Registers an observer invoked after every completed iteration
    /// with the iteration index and its statistics (from the thread
    /// running saturation). Used to stream live progress events.
    pub fn with_iteration_hook(mut self, hook: impl Fn(usize, &Iteration) + 'static) -> Self {
        self.iteration_hook = Some(Box::new(hook));
        self
    }

    /// Sets how many threads the per-iteration rule search fans out
    /// across. `1` (the default) searches serially on the calling
    /// thread — the determinism oracle; `0` means one thread per
    /// available CPU. Any value produces identical results: the search
    /// phase is read-only over the e-graph, and the match sets are
    /// merged (and scheduler state updated) in rule-index order before
    /// the apply phase, so batch output is byte-identical to serial.
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.search_threads = threads;
        self
    }

    /// Runs saturation with `rules` until a stop condition; returns
    /// `self` with statistics filled in.
    pub fn run(mut self, rules: &[Rewrite<L>]) -> Self
    where
        L: Sync,
        L::Discriminant: Sync,
    {
        let patterns: Vec<_> = rules.iter().map(|r| r.searcher()).collect();
        let start = Instant::now();
        self.egraph.rebuild();
        let threads = match self.search_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
        .min(rules.len().max(1));
        // One token carries both interrupts into the search and apply
        // loops: the caller's cancel flag and this run's time limit.
        let interrupt = match start.checked_add(self.limits.time_limit) {
            Some(at) => self.cancel.with_deadline(at),
            None => self.cancel.clone(),
        };
        // Each rule's record from its last search, for the next one to
        // replay clean roots from; `None` makes the next search full.
        let mut records: Vec<Option<SearchRecord>> = vec![None; rules.len()];
        // Per level `k`, the operators of the recorded patterns deeper
        // than `k` (see `Cone::new`).
        let mut levels: Vec<u64> = Vec::new();
        for iteration in 0..self.limits.iter_limit {
            if self.cancel.is_cancelled() {
                self.stop_reason = Some(StopReason::Cancelled);
                return self;
            }
            #[cfg(test)]
            if self.forget_records {
                records.fill(None);
            }
            // Which roots the changes since the last search reach, for
            // the patterns that have a record to replay from; then a
            // fresh delta for the next search.
            levels.clear();
            for (p, _) in patterns.iter().zip(&records).filter(|(_, r)| r.is_some()) {
                if levels.len() < p.depth() {
                    levels.resize(p.depth(), 0);
                }
                for level in &mut levels[..p.depth()] {
                    *level |= p.ops();
                }
            }
            let cone = Cone::new(&self.egraph, &levels);
            let replay = cone.as_ref().map(|cone| Replay {
                cone,
                records: &records,
            });
            self.egraph.start_delta();
            let search_start = Instant::now();
            // Search phase (time limit and cancellation enforced per
            // rule and per quantum of matcher work, not only per
            // iteration, so one explosive rule cannot stall the run or
            // delay a cancel request). The searches only read the e-graph; scheduler
            // state and profiles are updated afterwards, serially, in
            // rule-index order, so the fan-out never changes results.
            let directives: Vec<RuleDirective> = rules
                .iter()
                .map(|r| self.scheduler.search_directive(iteration, r))
                .collect();
            let searched = search_rules_since(
                &patterns,
                &self.egraph,
                &directives,
                replay,
                &interrupt,
                threads,
            );
            let search_time = search_start.elapsed();
            // Free the cone before the apply phase grows the e-graph:
            // held across it, its buffers fragment the heap.
            drop(cone);
            #[cfg(test)]
            self.assert_replay_exact(&patterns, &directives, &searched);

            // Merge phase: serial, rule-index order, regardless of how
            // the searches fanned out. Timed separately from the
            // search — scheduler accounting is not match finding.
            let merge_start = Instant::now();
            let mut all_matches = Vec::with_capacity(rules.len());
            let mut total_matches = 0;
            let mut rules_skipped = 0usize;
            let mut search = SearchStats::default();
            for ((rule, slot), record) in rules.iter().zip(searched).zip(&mut records) {
                match slot {
                    Some(result) => {
                        let total = result.total_matches();
                        let stands = self.scheduler.finish_rewrite(iteration, rule, total);
                        let profile = self.rule_profiles.entry(rule.name()).or_default();
                        profile.search_time += result.elapsed;
                        profile.search += result.stats;
                        search += result.stats;
                        if stands {
                            profile.matches += total;
                            total_matches += total;
                            *record = result.record;
                            all_matches.push(result.matches);
                        } else {
                            *record = None;
                            all_matches.push(vec![]);
                        }
                    }
                    // Skipped by a mid-search time-limit/cancel trip:
                    // no matches, and the rule's profile is untouched.
                    None => {
                        rules_skipped += 1;
                        *record = None;
                        all_matches.push(vec![]);
                    }
                }
            }
            let merge_time = merge_start.elapsed();

            // Apply phase. The node limit is also enforced *between*
            // rules so a single explosive iteration cannot overshoot by
            // more than one rule's worth of matches. A replayed root's
            // substitutions were applied after an earlier search, so
            // they are not applied again.
            let apply_start = Instant::now();
            let mut applied: FxHashMap<Symbol, usize> = FxHashMap::default();
            let mut apply_aborted = false;
            for (k, (rule, matches)) in rules.iter().zip(&all_matches).enumerate() {
                if self.egraph.total_number_of_nodes() > self.limits.node_limit
                    || interrupt.is_cancelled()
                {
                    // The rules from here on were not applied, so their
                    // next searches cannot replay these matches.
                    records[k..].fill(None);
                    apply_aborted = true;
                    break;
                }
                let n = rule.apply(&mut self.egraph, matches);
                if n > 0 {
                    *applied.entry(rule.name()).or_insert(0) += n;
                    self.rule_profiles
                        .entry(rule.name())
                        .or_default()
                        .applications += n;
                }
            }
            let apply_time = apply_start.elapsed();

            // Rebuild phase.
            let rebuild_start = Instant::now();
            let n_rebuilds = self.egraph.rebuild();
            let rebuild_time = rebuild_start.elapsed();

            let saturated =
                applied.is_empty() && !apply_aborted && self.scheduler.can_stop(iteration + 1);
            self.iterations.push(Iteration {
                egraph_nodes: self.egraph.total_number_of_nodes(),
                egraph_classes: self.egraph.num_classes(),
                applied,
                total_matches,
                search_time,
                merge_time,
                apply_time,
                rebuild_time,
                n_rebuilds,
                rules_skipped,
                search,
            });
            if let Some(hook) = &self.iteration_hook {
                hook(iteration, self.iterations.last().unwrap());
            }

            if self.cancel.is_cancelled() {
                self.stop_reason = Some(StopReason::Cancelled);
                return self;
            }
            if saturated {
                self.stop_reason = Some(StopReason::Saturated);
                return self;
            }
            if self.egraph.total_number_of_nodes() > self.limits.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit(self.limits.node_limit));
                return self;
            }
            if start.elapsed() > self.limits.time_limit {
                self.stop_reason = Some(StopReason::TimeLimit(self.limits.time_limit));
                return self;
            }
        }
        self.stop_reason = Some(StopReason::IterLimit(self.limits.iter_limit));
        self
    }
}

#[cfg(test)]
impl<L: Language + Sync> Runner<L>
where
    L::Discriminant: Sync,
{
    /// [`Runner::run`] with every rule's record dropped before each
    /// search, so every search is full: what semi-naive search must
    /// reproduce.
    pub(crate) fn run_full_searches(mut self, rules: &[Rewrite<L>]) -> Self {
        self.forget_records = true;
        self.run(rules)
    }

    /// Checks every search that replayed a root against a full search
    /// of the same rule on the same e-graph: the same per-root counts,
    /// truncations and total. Test builds run it on every iteration.
    fn assert_replay_exact(
        &self,
        patterns: &[&crate::Pattern<L>],
        directives: &[RuleDirective],
        searched: &[Option<crate::RuleSearch>],
    ) {
        let replayed =
            |slot: &Option<crate::RuleSearch>| slot.as_ref().is_some_and(|s| s.stats.replayed > 0);
        if !searched.iter().any(replayed) {
            return;
        }
        let full = crate::search_rules(patterns, &self.egraph, directives, &CancelToken::new(), 1);
        for (i, (slot, full)) in searched.iter().zip(full).enumerate() {
            if !replayed(slot) {
                continue;
            }
            let (slot, full) = (slot.as_ref().unwrap(), full.unwrap());
            assert_eq!(slot.record, full.record, "rule {i}: per-root counts differ");
            assert_eq!(slot.total_matches(), full.total_matches(), "rule {i}");
            assert_eq!(slot.stats.budget_exhausted, full.stats.budget_exhausted);
            assert_eq!(slot.stats.capped, full.stats.capped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::search_rules_slots;
    use crate::SearchMatches;
    use crate::SymbolLang;

    type RW = Rewrite<SymbolLang>;

    fn math_rules() -> Vec<RW> {
        vec![
            RW::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            RW::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            RW::parse("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
            RW::parse("add-zero", "(+ ?a 0)", "?a").unwrap(),
            RW::parse("mul-one", "(* ?a 1)", "?a").unwrap(),
            RW::parse("mul-zero", "(* ?a 0)", "0").unwrap(),
            RW::parse("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
        ]
    }

    #[test]
    fn saturates_simple_identity() {
        let expr = "(+ 0 (* 1 x))".parse().unwrap();
        let runner = Runner::default().with_expr(&expr).run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
        let x = runner.egraph.lookup(&SymbolLang::leaf("x")).unwrap();
        assert_eq!(runner.egraph.find(runner.roots[0]), x);
    }

    #[test]
    fn node_limit_stops_explosive_rules() {
        let expr = "(+ a (+ b (+ c (+ d (+ e f)))))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_node_limit(50)
            .with_scheduler(BackoffScheduler::new(usize::MAX, 1))
            .run(&math_rules());
        assert!(matches!(runner.stop_reason, Some(StopReason::NodeLimit(_))));
    }

    #[test]
    fn iter_limit_respected() {
        let expr = "(+ a (+ b (+ c d)))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(1)
            .run(&math_rules());
        assert!(matches!(
            runner.stop_reason,
            Some(StopReason::IterLimit(1)) | Some(StopReason::Saturated)
        ));
        assert!(runner.iterations.len() <= 1);
    }

    #[test]
    fn iterations_record_applications() {
        let expr = "(+ x 0)".parse().unwrap();
        let runner = Runner::default().with_expr(&expr).run(&math_rules());
        let total: usize = runner
            .iterations
            .iter()
            .flat_map(|i| i.applied.values())
            .sum();
        assert!(total >= 1);
    }

    #[test]
    fn pre_cancelled_run_stops_before_first_iteration() {
        let token = crate::CancelToken::new();
        token.cancel();
        let expr = "(+ a (+ b (+ c d)))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_cancel_token(token)
            .run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
        assert!(runner.iterations.is_empty());
    }

    #[test]
    fn expired_token_deadline_stops_as_cancelled() {
        // A deadline on the caller's token is a cancellation, not the
        // runner's own time limit.
        let token = CancelToken::new().with_deadline(Instant::now());
        std::thread::sleep(Duration::from_millis(1));
        let expr = "(+ a (+ b (+ c d)))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_cancel_token(token)
            .run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
        assert!(runner.iterations.is_empty());
    }

    #[test]
    fn uncancelled_token_does_not_change_behavior() {
        let expr = "(+ 0 (* 1 x))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_cancel_token(crate::CancelToken::new())
            .run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
    }

    #[test]
    fn two_phase_continuation() {
        // Phase 1: only commutativity. Phase 2: add-zero on the same
        // e-graph, mirroring BoolE's incremental R1/R2 flow.
        let expr = "(+ 0 x)".parse().unwrap();
        let phase1 = vec![RW::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
        let phase2 = vec![RW::parse("add-zero", "(+ ?a 0)", "?a").unwrap()];
        let r1 = Runner::default().with_expr(&expr).run(&phase1);
        let roots = r1.roots.clone();
        let r2 = Runner::default()
            .with_egraph(r1.egraph)
            .with_root(roots[0])
            .run(&phase2);
        let x = r2.egraph.lookup(&SymbolLang::leaf("x")).unwrap();
        assert_eq!(r2.egraph.find(roots[0]), r2.egraph.find(x));
    }

    #[test]
    fn expired_time_limit_skips_search_and_leaves_profiles_untouched() {
        let expr = "(+ a (+ b (+ c d)))".parse().unwrap();
        let rules = math_rules();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_time_limit(Duration::ZERO)
            .run(&rules);
        assert!(matches!(runner.stop_reason, Some(StopReason::TimeLimit(_))));
        assert_eq!(runner.iterations.len(), 1);
        // The search loop must break out, not scan the remaining rules:
        // every rule counts as skipped and none acquires a profile.
        assert_eq!(runner.iterations[0].rules_skipped, rules.len());
        assert_eq!(runner.iterations[0].total_matches, 0);
        assert!(runner.rule_profiles.is_empty());
    }

    #[test]
    fn parallel_search_is_identical_to_serial() {
        let expr: RecExpr<SymbolLang> = "(* (+ a (+ b (+ c (+ d 0)))) 1)".parse().unwrap();
        // A tight backoff so bans actually fire: the parallel merge
        // must reproduce the serial ban schedule exactly.
        let run_with = |threads: usize| {
            Runner::default()
                .with_expr(&expr)
                .with_scheduler(BackoffScheduler::new(4, 2))
                .with_iter_limit(12)
                .with_node_limit(20_000)
                .with_search_threads(threads)
                .run(&math_rules())
        };
        let serial = run_with(1);
        for threads in [2, 4, 7] {
            let par = run_with(threads);
            assert_eq!(par.stop_reason, serial.stop_reason, "threads={threads}");
            assert_eq!(par.iterations.len(), serial.iterations.len());
            for (p, s) in par.iterations.iter().zip(&serial.iterations) {
                assert_eq!(p.egraph_nodes, s.egraph_nodes);
                assert_eq!(p.egraph_classes, s.egraph_classes);
                assert_eq!(p.applied, s.applied);
                assert_eq!(p.total_matches, s.total_matches);
                assert_eq!(p.rules_skipped, 0);
            }
            assert_eq!(
                par.egraph.total_number_of_nodes(),
                serial.egraph.total_number_of_nodes()
            );
            assert_eq!(par.egraph.num_classes(), serial.egraph.num_classes());
            // Class by class: the same ids holding the same e-nodes.
            let classes = |runner: &Runner<SymbolLang>| -> Vec<(Id, Vec<SymbolLang>)> {
                runner
                    .egraph
                    .classes()
                    .map(|c| (c.id, c.nodes.clone()))
                    .collect()
            };
            assert_eq!(classes(&par), classes(&serial), "threads={threads}");
            assert_eq!(
                par.egraph.find(par.roots[0]),
                serial.egraph.find(serial.roots[0])
            );
        }
    }

    #[test]
    fn deadline_mid_rule_skips_the_interrupted_rule() {
        // The explosive probe takes far longer than the time limit, so
        // the deadline trips while its search runs: the rule must count
        // as skipped and its partial search must not reach a profile.
        let (egraph, probe) = crate::machine::tests::explosive_workload(400, 200);
        let rules = vec![
            RW::new("probe", probe, "?x".parse().unwrap()).unwrap(),
            RW::parse("cheap", "(g ?a ?b ?t)", "(g ?b ?a ?t)").unwrap(),
        ];
        for threads in [1, 2] {
            let runner = Runner::default()
                .with_egraph(egraph.clone())
                .with_time_limit(Duration::from_millis(20))
                .with_node_limit(usize::MAX)
                .with_search_threads(threads)
                .run(&rules);
            assert!(matches!(runner.stop_reason, Some(StopReason::TimeLimit(_))));
            let iteration = &runner.iterations[0];
            assert!(iteration.rules_skipped >= 1, "threads={threads}");
            assert!(
                !runner.rule_profiles.contains_key(&Symbol::from("probe")),
                "threads={threads}: an interrupted search must leave no profile"
            );
        }
    }

    /// A search closure for the fan-out that runs a real pattern search
    /// and calls `hook` with the number of searches started so far.
    fn counting_search<'a>(
        egraph: &'a EGraph<SymbolLang>,
        rules: &'a [RW],
        cancel: &'a CancelToken,
        hook: impl Fn(usize) + Sync + 'a,
    ) -> impl Fn(usize) -> Option<Vec<SearchMatches>> + Sync + 'a {
        let searches = std::sync::atomic::AtomicUsize::new(0);
        move |i| {
            hook(searches.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1);
            let (matches, _) =
                rules[i]
                    .searcher()
                    .search_interruptible(egraph, usize::MAX, cancel)?;
            Some(matches)
        }
    }

    fn search_fixture() -> EGraph<SymbolLang> {
        let mut egraph = EGraph::default();
        // Every rule's root operator occurs, so a search that starts
        // after the trip has a class to be interrupted on.
        egraph.add_expr(&"(* (+ a (+ b (+ c 0))) 1)".parse().unwrap());
        egraph.rebuild();
        egraph
    }

    #[test]
    fn parallel_mid_search_cancellation_stops_the_run() {
        // The token trips inside the second rule search; every rule
        // claimed after it (workers check before each claim) and the
        // interrupted one itself must come back skipped.
        let egraph = search_fixture();
        let rules = math_rules();
        for threads in [1, 4] {
            let token = CancelToken::new();
            let search = counting_search(&egraph, &rules, &token, |started| {
                if started >= 2 {
                    token.cancel();
                }
            });
            let slots = search_rules_slots(rules.len(), threads, &token, search);
            // Only the first search started before the trip.
            let skipped = slots.iter().filter(|s| s.is_none()).count();
            assert!(
                skipped >= rules.len() - 1,
                "threads={threads}: only {skipped} rules skipped"
            );
        }
    }

    #[test]
    fn panicking_search_worker_propagates_its_payload_cleanly() {
        // The join loop must collect *all* workers before re-raising:
        // unwinding mid-join while another scoped worker has also
        // panicked would abort the process (panic during unwind), and
        // an aborted test binary is exactly what this guards against.
        // Run the single- and many-thread shapes; in both, the caller
        // must observe an unwind carrying the original payload.
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                let (egraph, rules, cancel) = (search_fixture(), math_rules(), CancelToken::new());
                let search = counting_search(&egraph, &rules, &cancel, |started| {
                    if started >= 2 {
                        panic!("search exploded on purpose");
                    }
                });
                search_rules_slots(rules.len(), threads, &cancel, search)
            });
            let payload = result.expect_err("the search panic must propagate");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("payload should be the original &str");
            assert_eq!(message, "search exploded on purpose", "threads={threads}");
        }
    }

    #[test]
    fn per_rule_search_times_sum_to_at_most_search_phase_time() {
        // The honest-timing regression test: per-rule search slots are
        // disjoint shares of the search fan-out, so their sum can never
        // exceed the reported search phase time (it used to, because
        // `search_time` silently included the post-join merge loop).
        let expr: RecExpr<SymbolLang> = "(* (+ a (+ b (+ c (+ d 0)))) 1)".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(8)
            .with_node_limit(20_000)
            .run(&math_rules());
        let phase_total: Duration = runner.iterations.iter().map(|i| i.search_time).sum();
        let rule_total: Duration = runner.rule_profiles.values().map(|p| p.search_time).sum();
        assert!(
            rule_total <= phase_total,
            "per-rule search times ({rule_total:?}) exceed the search phase total \
             ({phase_total:?})"
        );
    }

    #[test]
    fn a_banned_rule_searches_every_root_next_time() {
        // Three `(+ x_i y_i)` roots and a match limit of 2: iteration 0
        // bans comm-add, so its matches are never applied, and only
        // `tag` changes the e-graph, far from the roots. Iteration 1
        // allows 4 matches; had the banned search kept its record, all
        // three roots would replay.
        let mut egraph = EGraph::default();
        for i in 0..3 {
            egraph.add_expr(&format!("(+ x{i} y{i})").parse().unwrap());
        }
        egraph.add_expr(&"(k w)".parse().unwrap());
        let rules = vec![
            RW::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            RW::parse("tag", "(k ?a)", "(t ?a)").unwrap(),
        ];
        let runner = Runner::default()
            .with_egraph(egraph)
            .with_scheduler(BackoffScheduler::new(2, 1))
            .with_iter_limit(2)
            .run(&rules);
        assert_eq!(runner.iterations.len(), 2);
        let comm = &runner.rule_profiles[&Symbol::from("comm-add")];
        assert_eq!(comm.matches, 3, "banned at iteration 0, standing at 1");
        assert_eq!(comm.search.replayed, 0);
    }

    #[test]
    fn a_rule_the_apply_abort_skipped_searches_every_root_next_time() {
        // `merge` unites x and y; `grow` then adds (g x) and (g y),
        // which puts the e-graph over its node limit, so the apply
        // phase stops before `keep`. Rebuilding merges the copies back
        // under the limit, and the run goes on. `keep` matches only
        // (h z), which no change reaches: it replays there only if its
        // matches were applied.
        let mut egraph = EGraph::default();
        for expr in ["(f x)", "(f y)", "(h z)"] {
            egraph.add_expr(&expr.parse().unwrap());
        }
        egraph.rebuild();
        let rules = vec![
            RW::parse("merge", "x", "y").unwrap(),
            RW::parse("grow", "(f ?a)", "(g ?a)").unwrap(),
            RW::parse("keep", "(h ?a)", "(h ?a)").unwrap(),
        ];
        let run = |node_limit| {
            let runner = Runner::default()
                .with_egraph(egraph.clone())
                .with_node_limit(node_limit)
                .with_iter_limit(2)
                .run(&rules);
            assert_eq!(runner.iterations.len(), 2);
            runner.rule_profiles[&Symbol::from("keep")].search.replayed
        };
        assert_eq!(egraph.total_number_of_nodes(), 6);
        assert_eq!(run(6), 0);
        assert_eq!(run(100), 1);
    }

    #[test]
    fn backoff_bans_explosive_rule_but_allows_progress() {
        let expr = "(+ a (+ b (+ c (+ d 0))))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_scheduler(BackoffScheduler::new(2, 2))
            .with_iter_limit(20)
            .with_node_limit(100_000)
            .run(&math_rules());
        // add-zero must still have fired despite comm/assoc being banned.
        let simplified = runner
            .egraph
            .lookup_expr(&"(+ a (+ b (+ c d)))".parse().unwrap());
        assert!(simplified.is_some());
    }
}
