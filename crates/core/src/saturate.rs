//! Two-phase incremental saturation (Section IV-A2) plus redundant
//! e-node pruning.

use std::sync::Arc;
use std::time::Duration;

use egraph::hash::{FxHashMap, FxHashSet};
use egraph::{
    BackoffScheduler, CancelToken, EGraph, Id, Iteration, Language, RuleProfile, Runner,
    SearchStats, StopReason, Symbol,
};

use crate::convert::NetlistEGraph;
use crate::rules;
use crate::BoolLang;

/// Parameters for [`saturate`].
#[derive(Debug, Clone)]
pub struct SaturateParams {
    /// Iterations of the basic ruleset `R1` (paper default: 10).
    pub r1_iters: usize,
    /// Iterations of the identification ruleset `R2` (paper default: 3).
    pub r2_iters: usize,
    /// E-node limit for the `R2` phase (the overall cap).
    pub node_limit: usize,
    /// Growth factor limiting the `R1` expansion phase: `R1` may grow
    /// the e-graph to at most `r1_growth ×` its initial node count
    /// (still capped by `node_limit`). Keeping `R1` compact leaves the
    /// identification phase `R2` room to work — `R2` dominates
    /// reasoning quality (paper RQ1).
    pub r1_growth: f64,
    /// Wall-clock limit across both phases (`R1` gets a quarter).
    pub time_limit: Duration,
    /// Use the lightweight `R1` subset (for large benchmarks).
    pub lightweight: bool,
    /// Backoff scheduler match limit.
    pub match_limit: usize,
    /// Prune redundant (commuted-duplicate) e-nodes after saturation.
    pub prune: bool,
    /// Threads the per-iteration rule search fans out across in both
    /// phases (`1` = serial, the determinism oracle; `0` = one per
    /// available CPU). Any value yields byte-identical results — match
    /// sets are merged in rule-index order before the apply phase — so
    /// this knob is excluded from cache-key fingerprints, like the
    /// cancel token.
    pub search_threads: usize,
    /// Cooperative cancellation token checked by both saturation
    /// phases. Defaults to a fresh (never-cancelled) token; clone a
    /// shared token in to make the run externally killable.
    pub cancel: CancelToken,
}

impl Default for SaturateParams {
    fn default() -> Self {
        Self {
            r1_iters: 10,
            r2_iters: 3,
            node_limit: 100_000,
            r1_growth: 12.0,
            time_limit: Duration::from_secs(60),
            lightweight: false,
            match_limit: 2_000,
            prune: true,
            search_threads: 1,
            cancel: CancelToken::new(),
        }
    }
}

impl SaturateParams {
    /// A small configuration for unit tests and tiny netlists.
    pub fn small() -> Self {
        Self {
            node_limit: 20_000,
            time_limit: Duration::from_secs(10),
            match_limit: 500,
            ..Self::default()
        }
    }

    /// The effectively-unbounded time limit installed by
    /// [`SaturateParams::without_time_limit`] (one year; large enough
    /// to never bind).
    pub const UNBOUNDED_TIME: Duration = Duration::from_secs(365 * 24 * 3600);

    /// Disables the wall-clock limit, leaving iteration and node
    /// limits as the only stopping criteria.
    ///
    /// Wall-clock stops are inherently nondeterministic — the same
    /// netlist can yield different e-graphs depending on machine load,
    /// which breaks result caching and concurrent-vs-serial
    /// reproducibility. Service deployments should bound runtime with
    /// per-job deadlines (cooperative cancellation) instead and keep
    /// saturation itself deterministic.
    pub fn without_time_limit(mut self) -> Self {
        self.time_limit = Self::UNBOUNDED_TIME;
        self
    }

    /// Sets [`SaturateParams::search_threads`] (`1` = serial, `0` =
    /// one per available CPU). Never changes results — only how many
    /// cores the search phase uses.
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.search_threads = threads;
        self
    }
}

/// Statistics from a saturation run.
#[derive(Debug, Clone)]
pub struct SaturationStats {
    /// E-nodes after the `R1` phase.
    pub nodes_after_r1: usize,
    /// E-nodes after the `R2` phase.
    pub nodes_after_r2: usize,
    /// E-classes after both phases.
    pub classes: usize,
    /// Why the `R1` phase stopped.
    pub r1_stop: StopReason,
    /// Why the `R2` phase stopped.
    pub r2_stop: StopReason,
    /// `R1` iterations actually run.
    pub r1_iterations: usize,
    /// `R2` iterations actually run.
    pub r2_iterations: usize,
    /// Redundant e-nodes pruned.
    pub pruned: usize,
    /// Time spent in the e-matching search phase (the parallel
    /// fan-out only), summed over all iterations of both phases.
    pub search_time: Duration,
    /// Time spent in the serial merge that bookkeeps per-rule match
    /// sets after each search fan-out,
    /// summed over all iterations. Reported separately so
    /// `search_time` stays an honest measure of matching work.
    pub merge_time: Duration,
    /// Time spent applying matches, summed over all iterations.
    pub apply_time: Duration,
    /// Time spent rebuilding (congruence repair), summed over all
    /// iterations.
    pub rebuild_time: Duration,
    /// Total substitutions found by the searchers across both phases.
    pub total_matches: usize,
    /// Matcher budget units spent and truncations hit, summed over all
    /// iterations of both phases. Deterministic, but struct-only like
    /// `rules`: the canonical JSON document leaves it out.
    pub search: SearchStats,
    /// Per-rule accounting merged across both phases, sorted by rule
    /// name. Struct-only, like the wall-clock fields above: excluded
    /// from the canonical JSON document (per-rule timings are
    /// machine-dependent).
    pub rules: Vec<RuleSummary>,
}

/// Per-rule totals from one saturation run (both phases merged).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSummary {
    /// The rule's name.
    pub name: String,
    /// Wall-clock time spent searching this rule.
    pub search_time: Duration,
    /// Substitutions the searcher yielded (post-scheduling).
    pub matches: usize,
    /// Applications that changed the e-graph.
    pub applications: usize,
    /// Matcher budget units spent and truncations hit.
    pub search: SearchStats,
}

/// Observer invoked after each completed saturation iteration with the
/// ruleset phase name (`"r1"` or `"r2"`), the zero-based iteration
/// index within that phase, and the iteration's statistics. Must be
/// `Send + Sync`: the service calls saturation from worker threads.
pub type IterationObserver = Arc<dyn Fn(&'static str, usize, &Iteration) + Send + Sync>;

impl SaturationStats {
    /// Returns `true` if either phase was stopped by cooperative
    /// cancellation.
    pub fn was_cancelled(&self) -> bool {
        self.r1_stop == StopReason::Cancelled || self.r2_stop == StopReason::Cancelled
    }
}

/// Runs BoolE's two-phase saturation on a netlist e-graph: first `R1`
/// expands the e-graph with equivalent Boolean forms, then `R2`
/// identifies XOR/MAJ structures on top of it; finally, redundant
/// commuted duplicates are pruned (Section IV-A2, optimizations 1–3).
pub fn saturate(net: NetlistEGraph, params: &SaturateParams) -> (NetlistEGraph, SaturationStats) {
    saturate_observed(net, params, None)
}

/// [`saturate`] with an optional per-iteration observer — the hook
/// telemetry event streams attach to. Passing `None` is exactly
/// [`saturate`]; the observer cannot influence the run, so attaching
/// one never changes the resulting e-graph or statistics.
pub fn saturate_observed(
    net: NetlistEGraph,
    params: &SaturateParams,
    observer: Option<IterationObserver>,
) -> (NetlistEGraph, SaturationStats) {
    let r1 = if params.lightweight {
        rules::r1_lightweight_rules()
    } else {
        rules::r1_rules()
    };
    let r2 = rules::r2_rules();

    let initial_nodes = net.egraph.total_number_of_nodes();
    let r1_node_limit = ((initial_nodes as f64 * params.r1_growth) as usize)
        .max(2_000)
        .min(params.node_limit);
    let mut runner1 = Runner::default()
        .with_egraph(net.egraph)
        .with_iter_limit(params.r1_iters)
        .with_node_limit(r1_node_limit)
        .with_time_limit(params.time_limit / 4)
        .with_scheduler(BackoffScheduler::new(params.match_limit, 2))
        .with_search_threads(params.search_threads)
        .with_cancel_token(params.cancel.clone());
    if let Some(obs) = observer.clone() {
        runner1 = runner1.with_iteration_hook(move |i, it| obs("r1", i, it));
    }
    let runner1 = runner1.run(&r1);
    let nodes_after_r1 = runner1.egraph.total_number_of_nodes();
    let r1_stop = runner1.stop_reason.clone().expect("phase 1 ran");
    let r1_iterations = runner1.iterations.len();
    let mut search_time = Duration::ZERO;
    let mut merge_time = Duration::ZERO;
    let mut apply_time = Duration::ZERO;
    let mut rebuild_time = Duration::ZERO;
    let mut total_matches = 0usize;
    let mut search = SearchStats::default();
    let mut accumulate = |iterations: &[egraph::Iteration]| {
        for it in iterations {
            search_time += it.search_time;
            merge_time += it.merge_time;
            apply_time += it.apply_time;
            rebuild_time += it.rebuild_time;
            total_matches += it.total_matches;
            search += it.search;
        }
    };
    accumulate(&runner1.iterations);

    let mut runner2 = Runner::default()
        .with_egraph(runner1.egraph)
        .with_iter_limit(params.r2_iters)
        .with_node_limit(params.node_limit)
        .with_time_limit(params.time_limit - params.time_limit / 4)
        .with_scheduler(BackoffScheduler::new(params.match_limit, 2))
        .with_search_threads(params.search_threads)
        .with_cancel_token(params.cancel.clone());
    if let Some(obs) = observer {
        runner2 = runner2.with_iteration_hook(move |i, it| obs("r2", i, it));
    }
    let runner2 = runner2.run(&r2);
    accumulate(&runner2.iterations);
    let rules = merge_rule_profiles(&runner1.rule_profiles, &runner2.rule_profiles);
    let mut egraph = runner2.egraph;
    let nodes_after_r2 = egraph.total_number_of_nodes();
    let r2_stop = runner2.stop_reason.clone().expect("phase 2 ran");
    let r2_iterations = runner2.iterations.len();

    let pruned = if params.prune {
        prune_redundant(&mut egraph)
    } else {
        0
    };

    let stats = SaturationStats {
        nodes_after_r1,
        nodes_after_r2,
        classes: egraph.num_classes(),
        r1_stop,
        r2_stop,
        r1_iterations,
        r2_iterations,
        pruned,
        search_time,
        merge_time,
        apply_time,
        rebuild_time,
        total_matches,
        search,
        rules,
    };
    (
        NetlistEGraph {
            egraph,
            inputs: net.inputs,
            outputs: net.outputs,
            vmap: net.vmap,
        },
        stats,
    )
}

/// Merges the two phases' per-rule profiles into one name-sorted list
/// (rules shared by both rulesets — there are none today — would sum).
fn merge_rule_profiles(
    r1: &FxHashMap<Symbol, RuleProfile>,
    r2: &FxHashMap<Symbol, RuleProfile>,
) -> Vec<RuleSummary> {
    let mut merged: FxHashMap<Symbol, RuleProfile> = r1.clone();
    for (name, profile) in r2 {
        merged.entry(*name).or_default().merge(profile);
    }
    let mut rules: Vec<RuleSummary> = merged
        .into_iter()
        .map(|(name, p)| RuleSummary {
            name: name.as_str().to_owned(),
            search_time: p.search_time,
            matches: p.matches,
            applications: p.applications,
            search: p.search,
        })
        .collect();
    rules.sort_by(|a, b| a.name.cmp(&b.name));
    rules
}

/// Deletes commuted duplicates of symmetric operators: within each
/// e-class, among nodes with the same operator and the same child
/// multiset, only one representative is kept (the paper's third
/// optimization: `XOR(a,b,c)` and `XOR(b,a,c)` need not coexist).
pub fn prune_redundant(egraph: &mut EGraph<BoolLang>) -> usize {
    // Collect the representatives to keep.
    let mut keep: FxHashSet<(Id, BoolLang)> = FxHashSet::default();
    for class in egraph.classes() {
        let mut seen: FxHashSet<(std::mem::Discriminant<BoolLang>, Vec<Id>)> = FxHashSet::default();
        for node in class.iter() {
            if node.is_symmetric() {
                let mut key: Vec<Id> = node.children().to_vec();
                key.sort_unstable();
                if seen.insert((std::mem::discriminant(node), key)) {
                    keep.insert((class.id, node.clone()));
                }
            } else {
                keep.insert((class.id, node.clone()));
            }
        }
    }
    egraph.retain_nodes(|class, node| keep.contains(&(class.id, node.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::aig_to_egraph;
    use egraph::RecExpr;

    fn fa_netlist() -> aig::Aig {
        let mut a = aig::Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let z = a.add_input();
        let (s, c) = aig::gen::full_adder(&mut a, x, y, z);
        a.add_output("s", s);
        a.add_output("c", c);
        a
    }

    #[test]
    fn saturation_discovers_xor3_and_maj() {
        let net = aig_to_egraph(&fa_netlist());
        let (net, stats) = saturate(net, &SaturateParams::small());
        assert!(stats.nodes_after_r2 >= stats.nodes_after_r1);
        // The sum output class must now contain (^3 i0 i1 i2) and the
        // carry class (maj i0 i1 i2).
        let sum_expr: RecExpr<BoolLang> = "(^3 i0 i1 i2)".parse().unwrap();
        let maj_expr: RecExpr<BoolLang> = "(maj i0 i1 i2)".parse().unwrap();
        let sum = net.egraph.lookup_expr(&sum_expr).expect("xor3 identified");
        let maj = net.egraph.lookup_expr(&maj_expr).expect("maj identified");
        assert_eq!(net.egraph.find(sum), net.egraph.find(net.outputs[0].1));
        assert_eq!(net.egraph.find(maj), net.egraph.find(net.outputs[1].1));
    }

    #[test]
    fn pruning_reduces_nodes() {
        let net = aig_to_egraph(&fa_netlist());
        let params = SaturateParams {
            prune: false,
            ..SaturateParams::small()
        };
        let (net, _) = saturate(net, &params);
        let mut egraph = net.egraph;
        let before = egraph.total_number_of_nodes();
        let pruned = prune_redundant(&mut egraph);
        assert_eq!(egraph.total_number_of_nodes(), before - pruned);
        egraph.check_invariants();
    }

    #[test]
    fn huge_time_limit_splits_without_overflow() {
        // R2's share of `Duration::MAX` must not overflow, and a limit
        // that large never binds.
        let net = aig_to_egraph(&aig::gen::csa_multiplier(3));
        let params = SaturateParams {
            time_limit: Duration::MAX,
            ..SaturateParams::small()
        };
        let (_, stats) = saturate(net, &params);
        assert!(!matches!(stats.r1_stop, StopReason::TimeLimit(_)));
        assert!(!matches!(stats.r2_stop, StopReason::TimeLimit(_)));
    }

    #[test]
    fn cancelled_token_stops_both_phases() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let net = aig_to_egraph(&fa_netlist());
        let params = SaturateParams {
            cancel: cancel.clone(),
            ..SaturateParams::small()
        };
        let (_, stats) = saturate(net, &params);
        assert_eq!(stats.r1_stop, StopReason::Cancelled);
        assert_eq!(stats.r2_stop, StopReason::Cancelled);
        assert!(stats.was_cancelled());
        assert_eq!(stats.r1_iterations, 0);
        assert_eq!(stats.r2_iterations, 0);
    }

    #[test]
    fn lightweight_params_still_identify() {
        let net = aig_to_egraph(&fa_netlist());
        let params = SaturateParams {
            lightweight: true,
            ..SaturateParams::small()
        };
        let (net, _) = saturate(net, &params);
        let maj_expr: RecExpr<BoolLang> = "(maj i0 i1 i2)".parse().unwrap();
        assert!(net.egraph.lookup_expr(&maj_expr).is_some());
    }
}
