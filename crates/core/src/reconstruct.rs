//! Conversion of an extracted e-graph DAG back into an AIG
//! (part 4 of Figure 2).

use std::collections::{HashMap, HashSet};

use aig::{Aig, Lit};
use egraph::{EGraph, Id, Language, Symbol};

use crate::extract::DagExtraction;
use crate::BoolLang;

/// A full adder recovered in the reconstructed netlist, described by
/// literals of the *output* AIG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredFa {
    /// The three input literals.
    pub inputs: [Lit; 3],
    /// The sum literal (`inputs[0] ^ inputs[1] ^ inputs[2]`).
    pub sum: Lit,
    /// The carry literal (`maj(inputs)`).
    pub carry: Lit,
}

/// Rebuilds an AIG from a DAG extraction.
///
/// `num_inputs` fixes the input count/order: variable `i{k}` maps to
/// input `k` (see [`crate::convert::input_name`]). Recovered FA blocks
/// are emitted with the canonical full-adder shape and reported.
///
/// # Panics
///
/// Panics if a root has no extraction choice, if the selection is
/// cyclic (which [`crate::extract_dag`] rules out), or if a variable is
/// not of the `i{k}` form with `k < num_inputs`.
pub fn reconstruct_aig(
    egraph: &EGraph<BoolLang>,
    extraction: &DagExtraction,
    num_inputs: usize,
    outputs: &[(String, Id)],
) -> (Aig, Vec<RecoveredFa>) {
    let mut aig = Aig::new();
    let inputs = aig.add_inputs(num_inputs);
    let mut builder = Builder {
        egraph,
        extraction,
        inputs,
        aig,
        memo: HashMap::new(),
        fa_memo: HashMap::new(),
        fas: Vec::new(),
    };
    let mut named: Vec<(String, Lit)> = Vec::new();
    for (name, root) in outputs {
        let lit = builder.build(egraph.find(*root));
        named.push((name.clone(), lit));
    }
    let mut aig = builder.aig;
    for (name, lit) in named {
        aig.add_output(name, lit);
    }
    (aig, builder.fas)
}

struct Builder<'a> {
    egraph: &'a EGraph<BoolLang>,
    extraction: &'a DagExtraction,
    inputs: Vec<Lit>,
    aig: Aig,
    memo: HashMap<Id, Lit>,
    /// FA tuple class -> (sum, carry) literals.
    fa_memo: HashMap<Id, (Lit, Lit)>,
    fas: Vec<RecoveredFa>,
}

/// Work items of the iterative (stack-overflow-free) builder.
enum Task<'a> {
    Visit(Id),
    Emit(Id, &'a BoolLang),
    VisitFa(Id),
    EmitFa(Id, [Id; 3]),
}

impl<'a> Builder<'a> {
    /// The e-node the extraction selected for `class`.
    fn choice(&self, class: Id) -> &'a BoolLang {
        &self
            .extraction
            .choice(class)
            .unwrap_or_else(|| panic!("no extraction choice for e-class {class}"))
            .node
    }

    /// Builds the literal of `root` by one iterative post-order walk
    /// over the extraction's choices (extraction DAGs of saturated
    /// e-graphs can be very deep). Completed classes are memoized
    /// across roots.
    fn build(&mut self, root: Id) -> Lit {
        let root = self.egraph.find(root);
        let mut stack = vec![Task::Visit(root)];
        let mut visiting: HashSet<Id> = HashSet::new();
        while let Some(task) = stack.pop() {
            match task {
                Task::Visit(class) => {
                    let class = self.egraph.find(class);
                    if self.memo.contains_key(&class) {
                        continue;
                    }
                    assert!(
                        visiting.insert(class),
                        "extraction selection is cyclic at e-class {class}"
                    );
                    let node = self.choice(class);
                    stack.push(Task::Emit(class, node));
                    match node {
                        BoolLang::Fst(fa) | BoolLang::Snd(fa) => {
                            stack.push(Task::VisitFa(self.egraph.find(*fa)));
                        }
                        node => {
                            for &c in node.children() {
                                stack.push(Task::Visit(c));
                            }
                        }
                    }
                }
                Task::Emit(class, node) => {
                    visiting.remove(&class);
                    let get = |b: &Self, id: Id| -> Lit { b.memo[&b.egraph.find(id)] };
                    let lit = match node {
                        BoolLang::Const(b) => {
                            if *b {
                                Lit::TRUE
                            } else {
                                Lit::FALSE
                            }
                        }
                        BoolLang::Var(sym) => self.input_lit(*sym),
                        BoolLang::Not(c) => !get(self, *c),
                        BoolLang::And([a, b]) => {
                            let (la, lb) = (get(self, *a), get(self, *b));
                            self.aig.and(la, lb)
                        }
                        BoolLang::Or([a, b]) => {
                            let (la, lb) = (get(self, *a), get(self, *b));
                            self.aig.or(la, lb)
                        }
                        BoolLang::Xor([a, b]) => {
                            let (la, lb) = (get(self, *a), get(self, *b));
                            self.aig.xor(la, lb)
                        }
                        BoolLang::Xor3([a, b, c]) => {
                            let (la, lb, lc) = (get(self, *a), get(self, *b), get(self, *c));
                            self.aig.xor3(la, lb, lc)
                        }
                        BoolLang::Maj([a, b, c]) => {
                            let (la, lb, lc) = (get(self, *a), get(self, *b), get(self, *c));
                            self.aig.maj(la, lb, lc)
                        }
                        BoolLang::Fst(fa) => self.fa_memo[&self.egraph.find(*fa)].1,
                        BoolLang::Snd(fa) => self.fa_memo[&self.egraph.find(*fa)].0,
                        BoolLang::Fa(_) => {
                            panic!("fa tuple class must be consumed through fst/snd")
                        }
                    };
                    self.memo.insert(class, lit);
                }
                Task::VisitFa(fa_class) => {
                    if self.fa_memo.contains_key(&fa_class) {
                        continue;
                    }
                    let &BoolLang::Fa(inputs) = self.choice(fa_class) else {
                        panic!("fa class {fa_class} must select the fa node")
                    };
                    stack.push(Task::EmitFa(fa_class, inputs));
                    for c in inputs {
                        stack.push(Task::Visit(c));
                    }
                }
                Task::EmitFa(fa_class, [a, b, c]) => {
                    let la = self.memo[&self.egraph.find(a)];
                    let lb = self.memo[&self.egraph.find(b)];
                    let lc = self.memo[&self.egraph.find(c)];
                    let (sum, carry) = aig::gen::full_adder(&mut self.aig, la, lb, lc);
                    self.fa_memo.insert(fa_class, (sum, carry));
                    self.fas.push(RecoveredFa {
                        inputs: [la, lb, lc],
                        sum,
                        carry,
                    });
                }
            }
        }
        self.memo[&root]
    }

    fn input_lit(&self, sym: Symbol) -> Lit {
        let name = sym.as_str();
        let ordinal: usize = name
            .strip_prefix('i')
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("variable {name} is not an input of the form iN"));
        assert!(
            ordinal < self.inputs.len(),
            "input {name} out of range ({} inputs)",
            self.inputs.len()
        );
        self.inputs[ordinal]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_dag;
    use crate::pair::pair_full_adders;
    use egraph::RecExpr;

    #[test]
    fn reconstructs_fa_once() {
        let mut eg: egraph::EGraph<BoolLang> = egraph::EGraph::default();
        let sum = eg.add_expr(&"(^3 i0 i1 i2)".parse::<RecExpr<BoolLang>>().unwrap());
        let carry = eg.add_expr(&"(maj i0 i1 i2)".parse::<RecExpr<BoolLang>>().unwrap());
        eg.rebuild();
        pair_full_adders(&mut eg);
        let ex = extract_dag(&eg);
        let outputs = vec![("s".to_owned(), sum), ("c".to_owned(), carry)];
        let (aig, fas) = reconstruct_aig(&eg, &ex, 3, &outputs);
        assert_eq!(fas.len(), 1);
        assert_eq!(aig.num_outputs(), 2);
        // Function check against a reference FA.
        let mut reference = Aig::new();
        let a = reference.add_input();
        let b = reference.add_input();
        let c = reference.add_input();
        let (s, co) = aig::gen::full_adder(&mut reference, a, b, c);
        reference.add_output("s", s);
        reference.add_output("c", co);
        assert!(aig::sim::exhaustive_equiv_check(&reference, &aig));
    }

    #[test]
    fn reconstructs_plain_logic() {
        let mut eg: egraph::EGraph<BoolLang> = egraph::EGraph::default();
        let root = eg.add_expr(&"(| (& i0 i1) (! i2))".parse::<RecExpr<BoolLang>>().unwrap());
        eg.rebuild();
        let ex = extract_dag(&eg);
        let (aig, fas) = reconstruct_aig(&eg, &ex, 3, &[("y".to_owned(), root)]);
        assert!(fas.is_empty());
        let mut reference = Aig::new();
        let a = reference.add_input();
        let b = reference.add_input();
        let c = reference.add_input();
        let ab = reference.and(a, b);
        let y = reference.or(ab, !c);
        reference.add_output("y", y);
        assert!(aig::sim::exhaustive_equiv_check(&reference, &aig));
    }
}
