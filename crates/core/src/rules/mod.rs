//! BoolE's rewriting library (Table I of the paper).
//!
//! The ruleset is split exactly as in the paper:
//!
//! * `R1` ([`r1_table`], 68 rules) — basic Boolean algebra
//!   (commutativity, associativity, De Morgan, distributivity,
//!   absorption, XOR identities…) that *expands* the e-graph with
//!   functionally equivalent forms.
//! * `R2` ([`maj_table`], 39 rules; [`xor_table`], 90 rules) —
//!   identification rules that rewrite structural patterns into
//!   first-class `maj` / `^3` operators. Following the paper's
//!   methodology, these are harvested from the structural shapes that
//!   adder cones exhibit before and after optimization/mapping
//!   (SOP, factored, NAND–NAND, AOI, mux/Shannon forms), instantiated
//!   over input permutations and polarities, and de-duplicated.
//!
//! Every rule is checked sound by exhaustive truth-table evaluation in
//! the test suite (and the counts are pinned to the paper's).

mod gen;
mod r1;
mod r2;

pub use gen::{perms3, permuted_variants, PatExpr};

use egraph::Rewrite;

use crate::BoolLang;

/// A rewrite rule as strings: `(name, lhs, rhs)`.
pub type RuleSpec = (String, String, String);

/// The 68 basic Boolean rules (`R1`).
pub fn r1_table() -> Vec<RuleSpec> {
    r1::table()
}

/// The 39 majority-identification rules of `R2`.
pub fn maj_table() -> Vec<RuleSpec> {
    r2::maj_table()
}

/// The 90 XOR-identification rules of `R2`.
pub fn xor_table() -> Vec<RuleSpec> {
    r2::xor_table()
}

/// A pruned `R1` subset for very large benchmarks (the paper's
/// "lightweight version of rewriting rules", Section IV-A2): keeps the
/// simplification and recognition directions, drops the most explosive
/// expansion rules (right-to-left distributivity, XOR definitions as
/// expansions, consensus introduction).
pub fn r1_lightweight_table() -> Vec<RuleSpec> {
    let heavy = [
        "dist-and-or",
        "dist-or-and",
        "xor-def-sop",
        "xor-def-aoi",
        "consensus-add",
        "xor-dist-and",
        "not-push-xor",
    ];
    r1::table()
        .into_iter()
        .filter(|(name, _, _)| !heavy.contains(&name.as_str()))
        .collect()
}

fn build(specs: Vec<RuleSpec>) -> Vec<Rewrite<BoolLang>> {
    specs
        .into_iter()
        .map(|(name, lhs, rhs)| {
            Rewrite::parse(&name, &lhs, &rhs)
                .unwrap_or_else(|e| panic!("invalid rule {name}: {lhs} => {rhs}: {e}"))
        })
        .collect()
}

/// Builds the `R1` rewrites.
pub fn r1_rules() -> Vec<Rewrite<BoolLang>> {
    build(r1_table())
}

/// Builds the lightweight `R1` rewrites.
pub fn r1_lightweight_rules() -> Vec<Rewrite<BoolLang>> {
    build(r1_lightweight_table())
}

/// Builds the full `R2` rewrites (majority + XOR identification).
pub fn r2_rules() -> Vec<Rewrite<BoolLang>> {
    let mut specs = maj_table();
    specs.extend(xor_table());
    build(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph::{ENodeOrVar, Id, Language, Pattern, Var};
    use std::collections::HashMap;

    /// Evaluates a pattern under a variable assignment.
    fn eval_pattern(p: &Pattern<BoolLang>, env: &HashMap<Var, bool>) -> bool {
        fn go(p: &Pattern<BoolLang>, id: Id, env: &HashMap<Var, bool>) -> bool {
            match &p.ast[id] {
                ENodeOrVar::Var(v) => env[v],
                ENodeOrVar::ENode(node) => {
                    let c = node.children();
                    match node {
                        BoolLang::Const(b) => *b,
                        BoolLang::Var(_) => panic!("rules must not use concrete signals"),
                        BoolLang::Not(_) => !go(p, c[0], env),
                        BoolLang::And(_) => go(p, c[0], env) & go(p, c[1], env),
                        BoolLang::Or(_) => go(p, c[0], env) | go(p, c[1], env),
                        BoolLang::Xor(_) => go(p, c[0], env) ^ go(p, c[1], env),
                        BoolLang::Xor3(_) => go(p, c[0], env) ^ go(p, c[1], env) ^ go(p, c[2], env),
                        BoolLang::Maj(_) => {
                            let (a, b, cc) = (go(p, c[0], env), go(p, c[1], env), go(p, c[2], env));
                            (a & b) | (a & cc) | (b & cc)
                        }
                        BoolLang::Fa(_) | BoolLang::Fst(_) | BoolLang::Snd(_) => {
                            panic!("fa/fst/snd must not appear in rewrite rules")
                        }
                    }
                }
            }
        }
        go(p, p.ast.root(), env)
    }

    fn check_sound(specs: &[RuleSpec]) {
        for (name, lhs, rhs) in specs {
            let l: Pattern<BoolLang> = lhs
                .parse()
                .unwrap_or_else(|e| panic!("rule {name}: bad lhs {lhs}: {e}"));
            let r: Pattern<BoolLang> = rhs
                .parse()
                .unwrap_or_else(|e| panic!("rule {name}: bad rhs {rhs}: {e}"));
            let vars = l.vars().to_vec();
            for v in r.vars() {
                assert!(vars.contains(v), "rule {name}: unbound rhs var {v}");
            }
            assert!(vars.len() <= 4, "rule {name} has too many variables");
            for assignment in 0u32..(1 << vars.len()) {
                let env: HashMap<Var, bool> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, (assignment >> i) & 1 == 1))
                    .collect();
                assert_eq!(
                    eval_pattern(&l, &env),
                    eval_pattern(&r, &env),
                    "rule {name} unsound: {lhs} != {rhs} under {env:?}"
                );
            }
        }
    }

    fn check_distinct(specs: &[RuleSpec]) {
        let mut seen = std::collections::HashSet::new();
        for (name, lhs, rhs) in specs {
            assert!(
                seen.insert((lhs.clone(), rhs.clone())),
                "duplicate rule {name}: {lhs} => {rhs}"
            );
        }
        let mut names = std::collections::HashSet::new();
        for (name, ..) in specs {
            assert!(names.insert(name.clone()), "duplicate rule name {name}");
        }
    }

    #[test]
    fn r1_is_sound_and_counts_match_paper() {
        let t = r1_table();
        check_sound(&t);
        check_distinct(&t);
        assert_eq!(t.len(), 68, "paper: 68 R1 rules");
    }

    #[test]
    fn maj_rules_sound_and_counted() {
        let t = maj_table();
        check_sound(&t);
        check_distinct(&t);
        assert_eq!(t.len(), 39, "paper: 39 MAJ rules");
        // Every MAJ rule must introduce a maj operator on the rhs.
        for (name, _, rhs) in &t {
            assert!(rhs.contains("maj"), "rule {name} rhs lacks maj");
        }
    }

    #[test]
    fn xor_rules_sound_and_counted() {
        let t = xor_table();
        check_sound(&t);
        check_distinct(&t);
        assert_eq!(t.len(), 90, "paper: 90 XOR rules");
        for (name, _, rhs) in &t {
            assert!(rhs.contains('^'), "rule {name} rhs lacks xor");
        }
    }

    #[test]
    fn lightweight_is_a_strict_subset() {
        let light = r1_lightweight_table();
        let full = r1_table();
        assert!(light.len() < full.len());
        for spec in &light {
            assert!(full.contains(spec));
        }
    }

    #[test]
    fn rules_build_into_rewrites() {
        let r1 = r1_rules();
        let r2 = r2_rules();
        assert_eq!(r1.len(), 68);
        assert_eq!(r2.len(), 129);
    }
}
