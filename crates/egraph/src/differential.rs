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

use crate::{search_rules, CancelToken, EGraph, Id, Pattern, RuleDirective, SymbolLang};

type EG = EGraph<SymbolLang>;

/// Builds a random e-graph: leaves from a small alphabet, random
/// operator applications over already-present classes, then a few
/// random unions and a rebuild. Sized so the matcher's deterministic
/// caps cannot bind (equality of truncated sets is not guaranteed
/// between enumeration orders).
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

/// Flattens search results for comparison: both matchers canonicalize,
/// sort, and dedup per-class substitutions, so equal match *sets* mean
/// equal flattened forms.
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

    /// Backoff-style envelopes: the fan-out honors `Skip` directives and
    /// truncates over-limit rules exactly where the oracle does. Limits
    /// small enough to bind are exercised because truncation points
    /// must align (the "finish the class, then stop" discipline).
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
                let expected = match *directive {
                    RuleDirective::Skip => Vec::new(),
                    RuleDirective::Limit(limit) => flatten(p.search_oracle_with_limit(&eg, limit)),
                };
                let searched = slot.expect("no rule may be skipped without a cancel/deadline");
                assert_eq!(searched.stats.budget_exhausted, 0, "{pat} hit the budget (seed {seed:#x})");
                assert_eq!(
                    flatten(searched.matches), expected,
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
