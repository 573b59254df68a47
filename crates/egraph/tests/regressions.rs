//! Regression tests for issues found while developing the BoolE
//! pipeline on top of this engine.

use egraph::{
    BackoffScheduler, EGraph, Pattern, RecExpr, Rewrite, Runner, StopReason, SymbolLang,
    MAX_SUBSTS_PER_CLASS,
};

type EG = EGraph<SymbolLang>;
type RW = Rewrite<SymbolLang>;

/// The matcher must not blow up on wide e-classes: a class with many
/// equivalent binary nodes used to make deep patterns explore the
/// cross product of every level.
#[test]
fn matcher_work_is_bounded_on_wide_classes() {
    let mut eg = EG::default();
    // Build a class with many `+` nodes by unioning `(+ x_i x_j)` pairs.
    let leaves: Vec<_> = (0..24)
        .map(|i| eg.add(SymbolLang::leaf(format!("x{i}"))))
        .collect();
    let mut first = None;
    for w in leaves.windows(2) {
        let node = eg.add(SymbolLang::new("+", vec![w[0], w[1]]));
        match first {
            None => first = Some(node),
            Some(f) => {
                eg.union(f, node);
            }
        }
    }
    eg.rebuild();
    // Nest it: (+ class class) so a 3-level pattern multiplies choices.
    eg.add(SymbolLang::new("+", vec![first.unwrap(), first.unwrap()]));
    eg.rebuild();
    let deep: Pattern<SymbolLang> = "(+ (+ (+ ?a ?b) (+ ?c ?d)) (+ ?e ?f))".parse().unwrap();
    let start = std::time::Instant::now();
    let matches = deep.search(&eg);
    assert!(start.elapsed() < std::time::Duration::from_secs(2));
    for m in &matches {
        assert!(m.substs.len() <= MAX_SUBSTS_PER_CLASS);
    }
}

/// The node limit must also hold *within* one iteration: a single rule
/// with thousands of matches must not overshoot by more than one
/// rule's worth of applications.
#[test]
fn node_limit_is_enforced_mid_iteration() {
    // Chain of `+` so associativity/commutativity explode.
    let mut expr = String::from("a");
    for i in 0..40 {
        expr = format!("(+ {expr} b{i})");
    }
    let expr: RecExpr<SymbolLang> = expr.parse().unwrap();
    let rules = vec![
        RW::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
        RW::parse("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
    ];
    let runner = Runner::default()
        .with_expr(&expr)
        .with_node_limit(500)
        .with_iter_limit(50)
        .with_scheduler(BackoffScheduler::new(100_000, 1))
        .run(&rules);
    assert!(matches!(runner.stop_reason, Some(StopReason::NodeLimit(_))));
    // Allow bounded overshoot (one rule's applications), not unbounded.
    assert!(
        runner.egraph.total_number_of_nodes() < 500 + 100_000,
        "graph exploded to {}",
        runner.egraph.total_number_of_nodes()
    );
}

/// An aborted apply phase (node limit hit before any rule ran) must
/// not be misreported as saturation.
#[test]
fn aborted_apply_is_not_saturation() {
    let mut expr = String::from("a");
    for i in 0..20 {
        expr = format!("(+ {expr} b{i})");
    }
    let expr: RecExpr<SymbolLang> = expr.parse().unwrap();
    let rules = vec![RW::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
    // Node limit below the initial size: the very first apply aborts.
    let runner = Runner::default()
        .with_expr(&expr)
        .with_node_limit(5)
        .run(&rules);
    assert!(matches!(runner.stop_reason, Some(StopReason::NodeLimit(5))));
}

/// Unions performed by congruence repair during rebuild must be
/// reflected in lookups immediately afterwards (memo canonicity).
#[test]
fn congruence_repair_updates_memo() {
    let mut eg = EG::default();
    let a = eg.add(SymbolLang::leaf("a"));
    let b = eg.add(SymbolLang::leaf("b"));
    let mut level_a = a;
    let mut level_b = b;
    for _ in 0..10 {
        level_a = eg.add(SymbolLang::new("f", vec![level_a]));
        level_b = eg.add(SymbolLang::new("f", vec![level_b]));
    }
    eg.union(a, b);
    eg.rebuild();
    eg.check_invariants();
    assert_eq!(eg.find(level_a), eg.find(level_b));
    // A fresh add of the canonical form must hit the merged class.
    let again = eg.add(SymbolLang::new("f", vec![eg.find(level_a)]));
    let expect = eg.add(SymbolLang::new("f", vec![eg.find(level_b)]));
    assert_eq!(eg.find(again), eg.find(expect));
}

/// `retain_nodes` keeps lookups coherent: removed nodes miss, kept
/// nodes still hit their classes.
#[test]
fn retain_nodes_memo_coherence() {
    let mut eg = EG::default();
    let a = eg.add(SymbolLang::leaf("a"));
    let b = eg.add(SymbolLang::leaf("b"));
    let ab = eg.add(SymbolLang::new("f", vec![a, b]));
    let ba = eg.add(SymbolLang::new("f", vec![b, a]));
    eg.union(ab, ba);
    eg.rebuild();
    eg.retain_nodes(|_, node| node.children != [b, a]);
    assert_eq!(eg.lookup(&SymbolLang::new("f", vec![b, a])), None);
    assert_eq!(
        eg.lookup(&SymbolLang::new("f", vec![a, b]))
            .map(|i| eg.find(i)),
        Some(eg.find(ab))
    );
    // Rewriting continues to work on the pruned graph.
    let rules = vec![RW::parse("wrap", "(f ?x ?y)", "(g ?x ?y)").unwrap()];
    let runner = Runner::default().with_egraph(eg).run(&rules);
    let g = runner
        .egraph
        .lookup(&SymbolLang::new("g", vec![a, b]))
        .expect("rule fired");
    assert_eq!(runner.egraph.find(g), runner.egraph.find(ab));
}
