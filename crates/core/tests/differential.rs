//! Differential tests of the compiled e-matching VM on BoolE's own
//! workload: for every rule pattern in `R1` and `R2` (197 left-hand
//! sides plus their right-hand sides), the VM must find exactly the
//! same match sets on real netlist e-graphs as the legacy recursive
//! matcher (`Pattern::search_oracle`, enabled via the egraph crate's
//! `oracle` feature).
//!
//! The VM probes bound subterms through the hash-cons memo where the
//! oracle scans them, so the two spend the work budget differently and
//! are compared only with the budget out of play: every VM search here
//! asserts, through its truncation count, that it never ran out.

use boole::convert::aig_to_egraph;
use boole::{rules, saturate, BoolLang, SaturateParams};
use egraph::{search_rules, CancelToken, EGraph, Id, Pattern, RuleDirective, SearchMatches, Subst};

/// The benchmark netlists the patterns are matched against: a lone
/// full adder, a ripple-carry stage, and a small CSA multiplier —
/// covering the structural shapes the identification rules target.
fn test_egraphs() -> Vec<EGraph<BoolLang>> {
    let mut netlists = Vec::new();
    {
        let mut a = aig::Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let z = a.add_input();
        let (s, c) = aig::gen::full_adder(&mut a, x, y, z);
        a.add_output("s", s);
        a.add_output("c", c);
        netlists.push(a);
    }
    netlists.push(aig::gen::csa_multiplier(3));

    netlists
        .into_iter()
        .map(|aig| {
            // A short saturation run unions in enough equivalent
            // shapes to make the classes interesting (multiple nodes
            // per class, merged children) without growing past the
            // matcher's deterministic caps — truncated match sets are
            // not comparable across enumeration orders.
            let net = aig_to_egraph::<()>(&aig);
            let params = SaturateParams {
                r1_iters: 3,
                r2_iters: 2,
                node_limit: 4_000,
                prune: false,
                ..SaturateParams::small()
            }
            .without_time_limit();
            let (net, _) = saturate(net, &params);
            net.egraph
        })
        .collect()
}

/// Searches every pattern through the rule fan-out with no limit,
/// asserting that no search hit the work budget; returns each
/// pattern's matches in pattern order.
fn search_within_budget(
    patterns: &[&Pattern<BoolLang>],
    eg: &EGraph<BoolLang>,
    threads: usize,
) -> Vec<Vec<SearchMatches>> {
    let directives = vec![RuleDirective::Limit(usize::MAX); patterns.len()];
    let slots = search_rules(patterns, eg, &directives, &CancelToken::new(), threads);
    assert_eq!(slots.len(), patterns.len());
    slots
        .into_iter()
        .zip(patterns)
        .map(|(slot, p)| {
            let searched = slot.expect("no skip without cancel/deadline");
            assert_eq!(
                searched.stats.budget_exhausted, 0,
                "pattern {p} hit the work budget: VM and oracle are not comparable"
            );
            searched.matches
        })
        .collect()
}

fn flatten(matches: Vec<SearchMatches>) -> Vec<(Id, Vec<Subst>)> {
    let mut v: Vec<_> = matches.into_iter().map(|m| (m.eclass, m.substs)).collect();
    v.sort_unstable_by_key(|(id, _)| *id);
    v
}

fn all_rule_patterns() -> Vec<(String, String)> {
    let mut specs = rules::r1_table();
    specs.extend(rules::maj_table());
    specs.extend(rules::xor_table());
    // Both sides of every rule are legitimate search patterns (the
    // rhs shapes also occur as lhs of other rules' inverses), except a
    // bare-variable rhs such as `?a`, which has no operator to search
    // by.
    specs
        .into_iter()
        .flat_map(|(name, lhs, rhs)| [(format!("{name}:lhs"), lhs), (format!("{name}:rhs"), rhs)])
        .filter(|(_, src)| !src.starts_with('?'))
        .collect()
}

#[test]
fn vm_matches_oracle_on_every_boole_rule_pattern() {
    let egraphs = test_egraphs();
    let specs = all_rule_patterns();
    let lhs_count = specs
        .iter()
        .filter(|(name, _)| name.ends_with(":lhs"))
        .count();
    assert!(lhs_count >= 197, "expected all 197 rules");
    let patterns: Vec<Pattern<BoolLang>> = specs
        .iter()
        .map(|(name, src)| {
            src.parse()
                .unwrap_or_else(|e| panic!("pattern {name} ({src}) must parse: {e}"))
        })
        .collect();
    let refs: Vec<&Pattern<BoolLang>> = patterns.iter().collect();
    for (i, eg) in egraphs.iter().enumerate() {
        let searched = search_within_budget(&refs, eg, 1);
        for (((name, src), p), vm) in specs.iter().zip(&patterns).zip(searched) {
            assert_eq!(
                flatten(vm),
                flatten(p.search_oracle(eg)),
                "match sets diverged for rule pattern {name} ({src}) on e-graph #{i}"
            );
        }
    }
}

#[test]
fn all_backends_match_on_full_ruleset() {
    // The runner's search path — every R1/R2 rule on its own VM
    // program, rules fanned out over worker threads — yields exactly
    // the recursive oracle's per-rule match sets across all 197 rules
    // on real netlist e-graphs, serial and threaded alike.
    let egraphs = test_egraphs();
    let rules: Vec<egraph::Rewrite<BoolLang, ()>> = rules::r1_rules()
        .into_iter()
        .chain(rules::r2_rules())
        .collect();
    assert!(rules.len() >= 197, "expected all 197 rules");
    let patterns: Vec<&Pattern<BoolLang>> = rules.iter().map(|r| r.searcher()).collect();
    for (i, eg) in egraphs.iter().enumerate() {
        let oracle: Vec<_> = rules
            .iter()
            .map(|r| flatten(r.searcher().search_oracle(eg)))
            .collect();
        for threads in [1usize, 2] {
            let searched = search_within_budget(&patterns, eg, threads);
            for ((rule, expected), matches) in rules.iter().zip(&oracle).zip(searched) {
                assert_eq!(
                    &flatten(matches),
                    expected,
                    "VM fan-out vs oracle diverged for rule {} on e-graph #{i} at {threads} threads",
                    rule.name()
                );
            }
        }
    }
}

#[test]
fn vm_matches_oracle_through_rewrite_search() {
    // `Pattern::search` on each rule's left-hand side, the one-pattern
    // convenience over the runner's search, agrees with the oracle as
    // well.
    let egraphs = test_egraphs();
    let rules: Vec<egraph::Rewrite<BoolLang, ()>> = rules::r1_rules();
    let patterns: Vec<&Pattern<BoolLang>> = rules.iter().map(|r| r.searcher()).collect();
    for eg in &egraphs {
        search_within_budget(&patterns, eg, 1);
        for rule in &rules {
            let vm = flatten(rule.searcher().search(eg));
            let oracle = flatten(rule.searcher().search_oracle(eg));
            assert_eq!(vm, oracle, "rule {} diverged", rule.name());
        }
    }
}
