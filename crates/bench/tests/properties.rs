//! Property-based tests over the cross-crate invariants.

use proptest::prelude::*;

use aig::test_util::random_aig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `dch` optimization preserves functionality on arbitrary logic.
    #[test]
    fn prop_dch_preserves_function(aig in random_aig(5, 24)) {
        let opt = aig::opt::dch(&aig);
        prop_assert!(aig::sim::exhaustive_equiv_check(&aig, &opt));
    }

    /// Technology mapping round trips preserve functionality.
    #[test]
    fn prop_mapping_preserves_function(aig in random_aig(5, 24)) {
        let mapped = aig::map::map_round_trip(&aig);
        prop_assert!(aig::sim::exhaustive_equiv_check(&aig, &mapped));
    }

    /// Balancing preserves functionality.
    #[test]
    fn prop_balance_preserves_function(aig in random_aig(6, 32)) {
        let balanced = aig::opt::balance(&aig);
        prop_assert!(aig::sim::exhaustive_equiv_check(&aig, &balanced));
    }

    /// AIGER round trips preserve functionality and interface.
    #[test]
    fn prop_aiger_roundtrip(aig in random_aig(4, 20)) {
        let text = aig::aiger::to_aag(&aig);
        let parsed = aig::aiger::from_aag(&text).expect("self-produced aiger parses");
        prop_assert_eq!(parsed.num_inputs(), aig.num_inputs());
        prop_assert_eq!(parsed.num_outputs(), aig.num_outputs());
        prop_assert!(aig::sim::exhaustive_equiv_check(&aig, &parsed));
    }

    /// Every block the ABC-style detector reports satisfies the adder
    /// identities under simulation (no false positives).
    #[test]
    fn prop_atree_blocks_are_real(aig in random_aig(5, 24)) {
        let report = baselines::detect_blocks_atree(&aig);
        let inputs: Vec<u64> = (0..aig.num_inputs() as u64)
            .map(|i| 0x9E3779B97F4A7C15u64.wrapping_mul(i + 1).wrapping_add(0xABCD))
            .collect();
        let words = aig::sim::simulate_node_words(&aig, &inputs);
        let val = |v: aig::Var| words[v.index()];
        for fa in &report.fas {
            if !fa.exact { continue; }
            let (a, b, c) = (val(fa.leaves[0]), val(fa.leaves[1]), val(fa.leaves[2]));
            let sum = val(fa.sum) ^ if fa.sum_neg { !0 } else { 0 };
            let carry = val(fa.carry) ^ if fa.carry_neg { !0 } else { 0 };
            prop_assert_eq!(sum, a ^ b ^ c);
            prop_assert_eq!(carry, (a & b) | (a & c) | (b & c));
        }
        for ha in &report.has {
            if !ha.exact { continue; }
            let (a, b) = (val(ha.leaves[0]), val(ha.leaves[1]));
            let sum = val(ha.sum) ^ if ha.sum_neg { !0 } else { 0 };
            let carry = val(ha.carry) ^ if ha.carry_neg { !0 } else { 0 };
            prop_assert_eq!(sum, a ^ b);
            prop_assert_eq!(carry, a & b);
        }
    }

    /// The SCA engine agrees with simulation: for a random netlist,
    /// the polynomial `out − backward_rewritten(out)` vanishes, i.e.
    /// verifying `out == out` always succeeds and never times out on
    /// small graphs.
    #[test]
    fn prop_sca_self_consistency(aig in random_aig(4, 16)) {
        // Spec: first output equals itself -> poly out - out = 0 after
        // rewriting both occurrences identically. Instead we check a
        // stronger fact: rewriting the output literal polynomial to
        // primary inputs and evaluating it matches simulation.
        let (_, out_lit) = &aig.outputs()[0];
        let mut poly = sca::spec::lit_poly(*out_lit);
        for idx in (0..aig.num_nodes()).rev() {
            let var = aig::Var(idx as u32);
            if let aig::Node::And(a, b) = aig.node(var) {
                if poly.uses_var(var.0) {
                    let pa = sca::spec::lit_poly(a);
                    let pb = sca::spec::lit_poly(b);
                    poly = poly.substitute(var.0, &pa.mul(&pb));
                }
            }
        }
        // Evaluate on a few input assignments and compare with
        // simulation.
        for pattern in 0u32..8 {
            let input_bits: Vec<bool> =
                (0..aig.num_inputs()).map(|i| (pattern >> (i % 3)) & 1 == 1).collect();
            let sim = aig::sim::simulate_values(&aig, &input_bits);
            let expect = i64::from(sim[0]);
            let mut total: i64 = 0;
            for (mono, coeff) in poly.iter() {
                let prod: i64 = mono
                    .vars()
                    .iter()
                    .map(|&v| {
                        // Variables are input vars (1..=n in our AIG layout).
                        let ordinal = (v - 1) as usize;
                        i64::from(input_bits[ordinal])
                    })
                    .product();
                total += coeff.to_string().parse::<i64>().unwrap() * prod;
            }
            prop_assert_eq!(total, expect, "pattern {}", pattern);
        }
    }
}

mod egraph_props {
    use super::*;
    use std::collections::HashMap;

    use egraph::{EGraph, Id, RecExpr, Rewrite, Runner, SymbolLang};

    fn random_expr() -> impl Strategy<Value = String> {
        // Random arithmetic-ish expression strings over +, *, vars.
        let leaf = prop_oneof![
            Just("x".to_owned()),
            Just("y".to_owned()),
            Just("0".to_owned())
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            (inner.clone(), inner).prop_flat_map(|(a, b)| {
                prop_oneof![Just(format!("(+ {a} {b})")), Just(format!("(* {a} {b})")),]
            })
        })
    }

    fn rules() -> Vec<Rewrite<SymbolLang>> {
        vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("add-zero", "(+ ?a 0)", "?a").unwrap(),
            Rewrite::parse("mul-zero", "(* ?a 0)", "0").unwrap(),
        ]
    }

    /// The value of `node` under `x`, `y`, given its children's values
    /// (`None` if a child has none yet).
    fn node_value(
        node: &SymbolLang,
        x: i64,
        y: i64,
        child: impl Fn(Id) -> Option<i64>,
    ) -> Option<i64> {
        let arg = |i: usize| child(node.children[i]);
        Some(match node.op.as_str() {
            "x" => x,
            "y" => y,
            "0" => 0,
            "+" => arg(0)?.wrapping_add(arg(1)?),
            "*" => arg(0)?.wrapping_mul(arg(1)?),
            other => panic!("unexpected op {other}"),
        })
    }

    fn eval(expr: &RecExpr<SymbolLang>, x: i64, y: i64) -> i64 {
        let mut vals: Vec<i64> = Vec::with_capacity(expr.len());
        for node in expr.iter() {
            let v = node_value(node, x, y, |c| Some(vals[c.index()]));
            vals.push(v.expect("children precede parents"));
        }
        *vals.last().unwrap()
    }

    /// The value of every class under `x`, `y`: each class takes the
    /// value of its first e-node whose children are all valued, until
    /// nothing changes.
    fn class_values(eg: &EGraph<SymbolLang>, x: i64, y: i64) -> HashMap<Id, i64> {
        let mut vals: HashMap<Id, i64> = HashMap::new();
        let mut changed = true;
        while changed {
            changed = false;
            for class in eg.classes() {
                if vals.contains_key(&class.id) {
                    continue;
                }
                let value = class
                    .iter()
                    .find_map(|n| node_value(n, x, y, |c| vals.get(&eg.find(c)).copied()));
                if let Some(v) = value {
                    vals.insert(class.id, v);
                    changed = true;
                }
            }
        }
        vals
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Saturation keeps every e-class semantically uniform: under
        /// each assignment, every e-node of a class evaluates to the
        /// class's value, and the root class holds the original
        /// expression's value.
        #[test]
        fn prop_saturation_preserves_semantics(s in random_expr()) {
            let expr: RecExpr<SymbolLang> = s.parse().unwrap();
            let runner = Runner::default()
                .with_expr(&expr)
                .with_iter_limit(6)
                .with_node_limit(4_000)
                .run(&rules());
            let eg = &runner.egraph;
            for (x, y) in [(0i64, 0i64), (1, 2), (-3, 5), (7, -11)] {
                let vals = class_values(eg, x, y);
                prop_assert_eq!(vals.len(), eg.num_classes());
                for class in eg.classes() {
                    for node in class.iter() {
                        let value = node_value(node, x, y, |c| vals.get(&eg.find(c)).copied());
                        prop_assert_eq!(value, Some(vals[&class.id]), "node {} in class {}", node, class.id);
                    }
                }
                prop_assert_eq!(vals[&eg.find(runner.roots[0])], eval(&expr, x, y));
            }
        }

        /// E-graph invariants hold after arbitrary add/union sequences.
        #[test]
        fn prop_egraph_invariants(ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..40)) {
            let mut eg: EGraph<SymbolLang> = EGraph::default();
            let mut ids = vec![eg.add(SymbolLang::leaf("a")), eg.add(SymbolLang::leaf("b"))];
            for (op, i, j) in ops {
                let x = ids[i as usize % ids.len()];
                let y = ids[j as usize % ids.len()];
                match op % 3 {
                    0 => ids.push(eg.add(SymbolLang::new("f", vec![x, y]))),
                    1 => ids.push(eg.add(SymbolLang::new("g", vec![x]))),
                    _ => {
                        eg.union(x, y);
                    }
                }
            }
            eg.rebuild();
            eg.check_invariants();
            // Congruence: structurally equal nodes resolve to one class.
            let x = ids[0];
            let f1 = eg.add(SymbolLang::new("f", vec![x, x]));
            let f2 = eg.add(SymbolLang::new("f", vec![x, x]));
            prop_assert_eq!(eg.find(f1), eg.find(f2));
        }
    }
}

mod bigint_props {
    use super::*;
    use sca::Int;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_bigint_matches_i128(a in -(1i64<<40)..(1i64<<40), b in -(1i64<<40)..(1i64<<40)) {
            let ia = Int::from(a);
            let ib = Int::from(b);
            prop_assert_eq!((&ia + &ib).to_string(), (a as i128 + b as i128).to_string());
            prop_assert_eq!((&ia - &ib).to_string(), (a as i128 - b as i128).to_string());
            prop_assert_eq!((&ia * &ib).to_string(), (a as i128 * b as i128).to_string());
            prop_assert_eq!(ia.cmp(&ib), (a).cmp(&b));
        }

        #[test]
        fn prop_bigint_shift_is_mul_pow2(a in -(1i64<<30)..(1i64<<30), k in 0usize..70) {
            let shifted = Int::from(a) << k;
            let reference = &Int::from(a) * &Int::pow2(k);
            prop_assert_eq!(shifted, reference);
        }
    }
}

mod npn_props {
    use super::*;
    use aig::npn::{npn_canon, npn_equivalent};
    use aig::tt::Tt;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// NPN canonicalization is invariant under random input
        /// permutation/negation and output negation.
        #[test]
        fn prop_npn_orbit_invariance(bits in any::<u64>(), perm_idx in 0usize..6, neg in 0u32..8, out_neg: bool) {
            let perms = [[0usize,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]];
            let tt = Tt::from_bits(3, bits);
            let mut t = tt.permute(&perms[perm_idx]);
            for i in 0..3 {
                if (neg >> i) & 1 == 1 { t = t.flip_var(i); }
            }
            if out_neg { t = !t; }
            prop_assert_eq!(npn_canon(tt).tt, npn_canon(t).tt);
            prop_assert!(npn_equivalent(tt, t));
        }
    }
}
