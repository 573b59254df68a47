//! [`BoolLang`]: the Boolean term language BoolE saturates over.

use std::fmt;

use egraph::{FromOp, FromOpError, Id, Language, Symbol};

/// The Boolean operators of BoolE's e-graph.
///
/// Besides the plain gate algebra (`&`, `|`, `!`, `^`), the language has
/// first-class 3-input XOR (`^3`) and majority (`maj`) operators that
/// the identification ruleset `R2` rewrites into, plus the multi-output
/// full-adder machinery of Section IV-B: `fa` produces a (carry, sum)
/// tuple, and the pseudo-operations `fst`/`snd` project the carry and
/// sum out of it.
///
/// ```
/// use boole::BoolLang;
/// use egraph::RecExpr;
/// let e: RecExpr<BoolLang> = "(maj a b (! c))".parse().unwrap();
/// assert_eq!(e.to_string(), "(maj a b (! c))");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoolLang {
    /// Constant false/true.
    Const(bool),
    /// A named input signal.
    Var(Symbol),
    /// Negation.
    Not(Id),
    /// 2-input AND.
    And([Id; 2]),
    /// 2-input OR.
    Or([Id; 2]),
    /// 2-input XOR.
    Xor([Id; 2]),
    /// 3-input XOR (a full-adder sum).
    Xor3([Id; 3]),
    /// 3-input majority (a full-adder carry).
    Maj([Id; 3]),
    /// A full adder over three inputs, producing a (carry, sum) tuple.
    Fa([Id; 3]),
    /// Projects the carry out of an [`BoolLang::Fa`] tuple.
    Fst(Id),
    /// Projects the sum out of an [`BoolLang::Fa`] tuple.
    Snd(Id),
}

/// The operator tag of a [`BoolLang`] node (its
/// [`Language::Discriminant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoolOp {
    /// `false` / `true`.
    Const(bool),
    /// A named input.
    Var(Symbol),
    /// `!`
    Not,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `^3`
    Xor3,
    /// `maj`
    Maj,
    /// `fa`
    Fa,
    /// `fst`
    Fst,
    /// `snd`
    Snd,
}

impl BoolLang {
    /// Convenience constructor for a named variable.
    pub fn var(name: impl Into<Symbol>) -> Self {
        BoolLang::Var(name.into())
    }

    /// Returns `true` for the symmetric operators whose operand order
    /// is semantically irrelevant (used by redundancy pruning).
    pub fn is_symmetric(&self) -> bool {
        matches!(
            self,
            BoolLang::And(_)
                | BoolLang::Or(_)
                | BoolLang::Xor(_)
                | BoolLang::Xor3(_)
                | BoolLang::Maj(_)
                | BoolLang::Fa(_)
        )
    }
}

impl Language for BoolLang {
    type Discriminant = BoolOp;

    fn discriminant(&self) -> BoolOp {
        match self {
            BoolLang::Const(b) => BoolOp::Const(*b),
            BoolLang::Var(s) => BoolOp::Var(*s),
            BoolLang::Not(_) => BoolOp::Not,
            BoolLang::And(_) => BoolOp::And,
            BoolLang::Or(_) => BoolOp::Or,
            BoolLang::Xor(_) => BoolOp::Xor,
            BoolLang::Xor3(_) => BoolOp::Xor3,
            BoolLang::Maj(_) => BoolOp::Maj,
            BoolLang::Fa(_) => BoolOp::Fa,
            BoolLang::Fst(_) => BoolOp::Fst,
            BoolLang::Snd(_) => BoolOp::Snd,
        }
    }

    /// One bit per operator, assigned in declaration order. Every input
    /// shares one bit whatever its name: rules never name an input, and
    /// a bit drawn from the name's interned id would make matcher work
    /// depend on what the process interned first.
    fn operator_bit(&self) -> u32 {
        match self {
            BoolLang::Const(false) => 0,
            BoolLang::Const(true) => 1,
            BoolLang::Var(_) => 2,
            BoolLang::Not(_) => 3,
            BoolLang::And(_) => 4,
            BoolLang::Or(_) => 5,
            BoolLang::Xor(_) => 6,
            BoolLang::Xor3(_) => 7,
            BoolLang::Maj(_) => 8,
            BoolLang::Fa(_) => 9,
            BoolLang::Fst(_) => 10,
            BoolLang::Snd(_) => 11,
        }
    }

    fn children(&self) -> &[Id] {
        match self {
            BoolLang::Const(_) | BoolLang::Var(_) => &[],
            BoolLang::Not(c) | BoolLang::Fst(c) | BoolLang::Snd(c) => std::slice::from_ref(c),
            BoolLang::And(c) | BoolLang::Or(c) | BoolLang::Xor(c) => c,
            BoolLang::Xor3(c) | BoolLang::Maj(c) | BoolLang::Fa(c) => c,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            BoolLang::Const(_) | BoolLang::Var(_) => &mut [],
            BoolLang::Not(c) | BoolLang::Fst(c) | BoolLang::Snd(c) => std::slice::from_mut(c),
            BoolLang::And(c) | BoolLang::Or(c) | BoolLang::Xor(c) => c,
            BoolLang::Xor3(c) | BoolLang::Maj(c) | BoolLang::Fa(c) => c,
        }
    }
}

impl fmt::Display for BoolLang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolLang::Const(b) => write!(f, "{b}"),
            BoolLang::Var(s) => write!(f, "{s}"),
            BoolLang::Not(_) => write!(f, "!"),
            BoolLang::And(_) => write!(f, "&"),
            BoolLang::Or(_) => write!(f, "|"),
            BoolLang::Xor(_) => write!(f, "^"),
            BoolLang::Xor3(_) => write!(f, "^3"),
            BoolLang::Maj(_) => write!(f, "maj"),
            BoolLang::Fa(_) => write!(f, "fa"),
            BoolLang::Fst(_) => write!(f, "fst"),
            BoolLang::Snd(_) => write!(f, "snd"),
        }
    }
}

impl FromOp for BoolLang {
    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, FromOpError> {
        let arity = children.len();
        let c1 = |c: &[Id]| c[0];
        let c2 = |c: &[Id]| [c[0], c[1]];
        let c3 = |c: &[Id]| [c[0], c[1], c[2]];
        match (op, arity) {
            ("true", 0) => Ok(BoolLang::Const(true)),
            ("false", 0) => Ok(BoolLang::Const(false)),
            ("!", 1) => Ok(BoolLang::Not(c1(&children))),
            ("&", 2) => Ok(BoolLang::And(c2(&children))),
            ("|", 2) => Ok(BoolLang::Or(c2(&children))),
            ("^", 2) => Ok(BoolLang::Xor(c2(&children))),
            ("^3", 3) => Ok(BoolLang::Xor3(c3(&children))),
            ("maj", 3) => Ok(BoolLang::Maj(c3(&children))),
            ("fa", 3) => Ok(BoolLang::Fa(c3(&children))),
            ("fst", 1) => Ok(BoolLang::Fst(c1(&children))),
            ("snd", 1) => Ok(BoolLang::Snd(c1(&children))),
            (name, 0)
                if !name.is_empty()
                    && !name.starts_with('?')
                    && name.chars().all(|c| c.is_alphanumeric() || c == '_') =>
            {
                Ok(BoolLang::var(name))
            }
            _ => Err(FromOpError::new(op, arity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph::RecExpr;

    #[test]
    fn parse_roundtrip() {
        for s in [
            "(& a b)",
            "(| (! a) (^ b c))",
            "(^3 a b c)",
            "(maj a b c)",
            "(snd (fa a b c))",
            "true",
            "(& x0 false)",
        ] {
            let e: RecExpr<BoolLang> = s.parse().unwrap();
            assert_eq!(e.to_string(), s);
        }
    }

    #[test]
    fn rejects_bad_arity() {
        assert!("(& a)".parse::<RecExpr<BoolLang>>().is_err());
        assert!("(! a b)".parse::<RecExpr<BoolLang>>().is_err());
        assert!("(maj a b)".parse::<RecExpr<BoolLang>>().is_err());
    }

    #[test]
    fn symmetric_classification() {
        let e: RecExpr<BoolLang> = "(maj a b c)".parse().unwrap();
        assert!(e.as_slice().last().unwrap().is_symmetric());
        let e: RecExpr<BoolLang> = "(! a)".parse().unwrap();
        assert!(!e.as_slice().last().unwrap().is_symmetric());
    }

    /// The matcher walks only its operator's run of a class's sorted
    /// e-nodes, so `Ord` must sort by discriminant first, as the
    /// derived `Ord` of this enum does: every class of a saturated and
    /// paired csa:4 e-graph, which holds both constants, several
    /// inputs and every operator, keeps each discriminant in one run
    /// (`check_invariants` asserts it). The multiplier folds nothing to
    /// `true`, so a tautology over its inputs is added to saturate too.
    #[test]
    fn ord_keeps_each_discriminant_in_one_run() {
        let mut net = crate::convert::aig_to_egraph(&aig::gen::csa_multiplier(4));
        net.egraph
            .add_expr(&"(| i0 (! i0))".parse().expect("a BoolLang expression"));
        let (net, _) = crate::saturate::saturate(net, &crate::SaturateParams::small());
        let mut egraph = net.egraph;
        crate::pair::pair_full_adders(&mut egraph);
        egraph.check_invariants();
        let ops: std::collections::HashSet<BoolOp> = egraph
            .classes()
            .flat_map(|class| class.iter().map(Language::discriminant))
            .collect();
        let inputs = ops.iter().filter(|op| matches!(op, BoolOp::Var(_))).count();
        assert!(inputs > 1, "{inputs} inputs");
        for op in [
            BoolOp::Const(false),
            BoolOp::Const(true),
            BoolOp::Not,
            BoolOp::And,
            BoolOp::Or,
            BoolOp::Xor,
            BoolOp::Xor3,
            BoolOp::Maj,
            BoolOp::Fa,
            BoolOp::Fst,
            BoolOp::Snd,
        ] {
            assert!(ops.contains(&op), "no {op:?} e-node");
        }
    }

    /// The matcher's class signatures give each operator one of 64
    /// bits. Every operator must get its own, or a signature could
    /// never tell a class holding one from a class holding the other,
    /// and every input must get the same one, whatever its name, so
    /// that matcher work never depends on symbol interning order.
    #[test]
    fn operators_get_pairwise_distinct_signature_bits() {
        let c = Id::from_index(0);
        let nodes = [
            BoolLang::Const(false),
            BoolLang::Const(true),
            BoolLang::var("a"),
            BoolLang::Not(c),
            BoolLang::And([c; 2]),
            BoolLang::Or([c; 2]),
            BoolLang::Xor([c; 2]),
            BoolLang::Xor3([c; 3]),
            BoolLang::Maj([c; 3]),
            BoolLang::Fa([c; 3]),
            BoolLang::Fst(c),
            BoolLang::Snd(c),
        ];
        let mask = nodes
            .iter()
            .fold(0u64, |mask, node| mask | 1 << node.operator_bit());
        assert_eq!(mask.count_ones() as usize, nodes.len(), "{mask:#066b}");
        let fresh = BoolLang::var("an-input-no-other-test-interns");
        assert_eq!(fresh.operator_bit(), BoolLang::var("a").operator_bit());
    }
}
