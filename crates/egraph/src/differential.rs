//! Differential tests: the compiled e-matching VM must find exactly
//! the same match sets as the legacy recursive backtracking matcher
//! (kept as [`Pattern::search_oracle`]) on randomized e-graphs — pattern
//! by pattern, and through the runner's rule fan-out ([`search_rules`])
//! at any thread count, under scheduler directives and cancellation.
//!
//! The oracle charges the work budget by its own e-node visits, and
//! the VM probes bound subterms the oracle scans, so the two may only
//! be compared where the budget is out of play: every comparison
//! asserts that no VM search ran out of it.

use proptest::{proptest, ProptestConfig, TestRng};

use crate::{
    search_rules, BackoffScheduler, CancelToken, EGraph, Id, Pattern, Rewrite, RuleDirective,
    Runner, SymbolLang,
};

type EG = EGraph<SymbolLang>;

/// Builds a random e-graph: leaves from a small alphabet, random
/// operator applications over already-present classes, then a few
/// random unions and a rebuild. Sized so the work budget cannot bind
/// (equality of truncated sets is not guaranteed between enumeration
/// orders).
fn random_egraph(rng: &mut TestRng) -> EG {
    let mut eg = EG::default();
    let mut ids: Vec<Id> = ["a", "b", "c", "x", "y"]
        .iter()
        .map(|s| eg.add(SymbolLang::leaf(*s)))
        .collect();
    let n_nodes = 8 + rng.below(28) as usize;
    for _ in 0..n_nodes {
        let pick = |rng: &mut TestRng, ids: &[Id]| ids[rng.below(ids.len() as u64) as usize];
        let node = match rng.below(6) {
            0 => SymbolLang::new("f", vec![pick(rng, &ids)]),
            1 => SymbolLang::new("g", vec![pick(rng, &ids), pick(rng, &ids)]),
            2 => SymbolLang::new("h", vec![pick(rng, &ids), pick(rng, &ids)]),
            3 => SymbolLang::new("+", vec![pick(rng, &ids), pick(rng, &ids)]),
            4 => SymbolLang::new("m", vec![pick(rng, &ids), pick(rng, &ids), pick(rng, &ids)]),
            _ => SymbolLang::leaf(["a", "b", "c", "x", "y"][rng.below(5) as usize]),
        };
        ids.push(eg.add(node));
    }
    let n_unions = rng.below(6) as usize;
    for _ in 0..n_unions {
        let a = ids[rng.below(ids.len() as u64) as usize];
        let b = ids[rng.below(ids.len() as u64) as usize];
        eg.union(a, b);
    }
    eg.rebuild();
    eg
}

/// The pattern shapes exercised: linear/nonlinear, nested, and ground
/// subterms (whole patterns and arguments beside variables), which the
/// VM probes through `Build` chains, and repeated subterms, which it
/// binds once and enumerates last: a repeat nested in a repeat, one
/// whose second occurrence is reached only through a `Build` chain,
/// two distinct repeats in one pattern, and one whose variable also
/// occurs outside it, which compiles in preorder.
const PATTERNS: &[&str] = &[
    "(f ?x)",
    "(g ?x ?y)",
    "(g ?x ?x)",
    "(f (g ?x ?y))",
    "(g (f ?x) ?y)",
    "(g (f ?x) (f ?x))",
    "(+ (g ?a ?b) ?a)",
    "(m ?a ?b ?a)",
    "(m ?a ?a ?a)",
    "(g a ?x)",
    "(f (g a b))",
    "(+ ?x (f ?x))",
    "(h (h ?a ?b) (h ?c ?d))",
    "a",
    "(h (g (f ?x) (f ?x)) (g (f ?x) (f ?x)))",
    "(+ (h (f ?x) ?y) (h ?y (f ?x)))",
    "(g (h (f ?x) (f ?y)) (h (f ?y) (f ?x)))",
    "(m (f ?x) (f ?x) ?x)",
];

/// A small ruleset over `random_egraph`'s operators: commutativity
/// and associativity, which merge old classes, and rules that build
/// new operators over matched ones, which old classes gain.
const RULES: &[(&str, &str, &str)] = &[
    ("comm-g", "(g ?x ?y)", "(g ?y ?x)"),
    ("comm-plus", "(+ ?x ?y)", "(+ ?y ?x)"),
    ("assoc-plus", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
    ("f-of-g", "(f (g ?x ?y))", "(h ?x ?y)"),
    ("h-idem", "(h ?a ?a)", "?a"),
    ("lift-f", "(+ (f ?x) ?y)", "(f (+ ?x ?y))"),
    ("m-to-g", "(m ?a ?b ?a)", "(g ?a ?b)"),
];

/// Flattens search results for comparison: both matchers sort each
/// class's distinct substitutions (the oracle canonicalizes and dedups
/// its own), so equal match *sets* mean equal flattened forms.
fn flatten(matches: Vec<crate::SearchMatches>) -> Vec<(Id, Vec<crate::Subst>)> {
    let mut v: Vec<_> = matches.into_iter().map(|m| (m.eclass, m.substs)).collect();
    v.sort_unstable_by_key(|(id, _)| *id);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The VM and the recursive oracle agree on every pattern over
    /// random e-graphs.
    #[test]
    fn prop_vm_matches_oracle(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        for pat in PATTERNS {
            let p: Pattern<SymbolLang> = pat.parse().unwrap();
            let (vm, stats) = p.search_interruptible(&eg, usize::MAX, &CancelToken::new()).unwrap();
            assert_eq!(stats.budget_exhausted, 0, "pattern {pat} hit the budget (seed {seed:#x})");
            let oracle = flatten(p.search_oracle(&eg));
            assert_eq!(flatten(vm), oracle, "pattern {pat} diverged (seed {seed:#x})");
        }
    }

    /// The rule fan-out produces, per rule, exactly the oracle's match
    /// set over the whole pattern set — at 1, 2, and N search threads.
    #[test]
    fn prop_all_backends_agree(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        let patterns: Vec<Pattern<SymbolLang>> =
            PATTERNS.iter().map(|s| s.parse().unwrap()).collect();
        let refs: Vec<&Pattern<SymbolLang>> = patterns.iter().collect();
        let directives = vec![RuleDirective::Limit(usize::MAX); patterns.len()];
        for threads in [1usize, 2, 5] {
            let slots = search_rules(&refs, &eg, &directives, &CancelToken::new(), threads);
            for ((pat, p), slot) in PATTERNS.iter().zip(&patterns).zip(slots) {
                let searched = slot.expect("no rule may be skipped without a cancel/deadline");
                assert_eq!(searched.stats.budget_exhausted, 0, "{pat} hit the budget (seed {seed:#x})");
                assert_eq!(
                    flatten(searched.matches),
                    flatten(p.search_oracle(&eg)),
                    "VM vs oracle diverged on {pat} at {threads} threads (seed {seed:#x})"
                );
            }
        }
    }

    /// Backoff-style envelopes: the fan-out honors `Skip` directives,
    /// and under `Limit(n)` a search overflows exactly when the
    /// oracle's full match count exceeds `n`, and otherwise returns the
    /// oracle's matches. Limits small enough to bind are exercised.
    #[test]
    fn prop_all_backends_agree_under_directives(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        let patterns: Vec<Pattern<SymbolLang>> =
            PATTERNS.iter().map(|s| s.parse().unwrap()).collect();
        let refs: Vec<&Pattern<SymbolLang>> = patterns.iter().collect();
        let directives: Vec<RuleDirective> = (0..patterns.len())
            .map(|i| match i % 4 {
                0 => RuleDirective::Skip,
                1 => RuleDirective::Limit(1),
                2 => RuleDirective::Limit(rng.below(8) as usize),
                _ => RuleDirective::Limit(usize::MAX),
            })
            .collect();
        for threads in [1usize, 2] {
            let slots = search_rules(&refs, &eg, &directives, &CancelToken::new(), threads);
            for (((pat, p), directive), slot) in
                PATTERNS.iter().zip(&patterns).zip(&directives).zip(slots)
            {
                let searched = slot.expect("no rule may be skipped without a cancel/deadline");
                assert_eq!(searched.stats.budget_exhausted, 0, "{pat} hit the budget (seed {seed:#x})");
                let oracle = flatten(p.search_oracle(&eg));
                let count: usize = oracle.iter().map(|(_, substs)| substs.len()).sum();
                let (overflows, expected) = match *directive {
                    RuleDirective::Limit(limit) if count <= limit => (false, oracle),
                    RuleDirective::Limit(_) => (true, Vec::new()),
                    RuleDirective::Skip => (false, Vec::new()),
                };
                assert_eq!(
                    (searched.overflowed, flatten(searched.matches)), (overflows, expected),
                    "VM vs oracle diverged under {directive:?} on {pat} at {threads} threads (seed {seed:#x})"
                );
            }
        }
    }

    /// `SymbolLang`'s derived `Ord` sorts by operator first, so every
    /// class of a rebuilt e-graph holds each operator in one run, the
    /// order the VM's `Bind` walks (`check_invariants` asserts it).
    #[test]
    fn prop_rebuilt_classes_hold_one_run_per_operator(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        random_egraph(&mut rng).check_invariants();
    }

    /// Pruning any e-nodes keeps every invariant, the operator index
    /// included, even where a class loses its last e-node of an
    /// operator.
    #[test]
    fn prop_retain_nodes_keeps_invariants(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let mut eg = random_egraph(&mut rng);
        eg.retain_nodes(|_, _| rng.below(3) != 0);
        eg.check_invariants();
    }

    /// Semi-naive saturation reproduces a run whose every search is
    /// full: the same matches per iteration (the runner's test-build
    /// check also compares every replaying search's per-root counts
    /// with a full search on the same e-graph) and the same e-graph,
    /// class by class, under match limits tight enough to ban.
    #[test]
    fn prop_semi_naive_runner_matches_full_searches(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        let rules: Vec<Rewrite<SymbolLang>> = RULES
            .iter()
            .map(|(name, lhs, rhs)| Rewrite::parse(name, lhs, rhs).unwrap())
            .collect();
        let match_limit = [4, 16, 1_000][rng.below(3) as usize];
        let threads = 1 + rng.below(2) as usize;
        let runner = || {
            Runner::default()
                .with_egraph(eg.clone())
                .with_iter_limit(4)
                .with_node_limit(5_000)
                .with_scheduler(BackoffScheduler::new(match_limit, 1))
                .with_search_threads(threads)
        };
        let semi = runner().run(&rules);
        let full = runner().run_full_searches(&rules);
        let per_iteration = |r: &Runner<SymbolLang>| -> Vec<(usize, usize, usize)> {
            r.iterations
                .iter()
                .map(|it| (it.total_matches, it.egraph_nodes, it.egraph_classes))
                .collect()
        };
        assert_eq!(per_iteration(&semi), per_iteration(&full), "seed {seed:#x}");
        assert_eq!(semi.stop_reason, full.stop_reason, "seed {seed:#x}");
        let classes = |r: &Runner<SymbolLang>| -> Vec<(Id, Vec<SymbolLang>)> {
            r.egraph.classes().map(|c| (c.id, c.nodes.clone())).collect()
        };
        assert_eq!(classes(&semi), classes(&full), "seed {seed:#x}");
        let full_visits: usize = full.iterations.iter().map(|it| it.search.visits).sum();
        let semi_visits: usize = semi.iterations.iter().map(|it| it.search.visits).sum();
        assert!(semi_visits <= full_visits, "seed {seed:#x}");
        assert!(full.iterations.iter().all(|it| it.search.replayed == 0));
    }

    /// A pre-set cancel token makes the fan-out report every rule as
    /// skipped (no partial match sets leak), at any thread count.
    #[test]
    fn prop_backend_cancellation_skips_all(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        let patterns: Vec<Pattern<SymbolLang>> =
            PATTERNS.iter().map(|s| s.parse().unwrap()).collect();
        let refs: Vec<&Pattern<SymbolLang>> = patterns.iter().collect();
        let directives = vec![RuleDirective::Limit(usize::MAX); patterns.len()];
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 3] {
            let slots = search_rules(&refs, &eg, &directives, &token, threads);
            assert!(
                slots.iter().all(Option::is_none),
                "slots leaked under a pre-set cancel at {threads} threads (seed {seed:#x})"
            );
        }
    }
}
