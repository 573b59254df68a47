//! AIG ↔ e-graph conversion (Algorithm 1 of the paper).

use aig::{Aig, Lit, Node};
use egraph::{EGraph, Id};

use crate::BoolLang;

/// An e-graph built from a netlist, remembering the netlist interface.
#[derive(Debug)]
pub struct NetlistEGraph {
    /// The e-graph holding the netlist logic.
    pub egraph: EGraph<BoolLang>,
    /// E-class of each primary input, in input order.
    pub inputs: Vec<Id>,
    /// Named output e-classes.
    pub outputs: Vec<(String, Id)>,
    /// E-class of each original AIG variable (`vmap` of Algorithm 1),
    /// used to map reasoning results back onto original netlist
    /// signals.
    pub vmap: Vec<Id>,
}

/// The canonical name of AIG input `ordinal` inside the e-graph.
pub fn input_name(ordinal: usize) -> String {
    format!("i{ordinal}")
}

/// Converts an AIG into an e-graph (Algorithm 1): nodes are inserted
/// leaf-to-root in topological order, with a `vmap` carrying each
/// variable's e-class; complemented fanin edges become `!` nodes.
pub fn aig_to_egraph(aig: &Aig) -> NetlistEGraph {
    let mut egraph: EGraph<BoolLang> = EGraph::default();
    // vmap: AIG variable index -> e-class id.
    let mut vmap: Vec<Id> = vec![Id::from_index(0); aig.num_nodes()];
    let mut inputs = Vec::with_capacity(aig.num_inputs());
    for (i, node) in aig.nodes().iter().enumerate() {
        vmap[i] = match *node {
            Node::Const => egraph.add(BoolLang::Const(false)),
            Node::Input(ordinal) => {
                let id = egraph.add(BoolLang::var(input_name(ordinal as usize)));
                inputs.push(id);
                id
            }
            Node::And(a, b) => {
                let ia = lit_id(&mut egraph, &vmap, a);
                let ib = lit_id(&mut egraph, &vmap, b);
                egraph.add(BoolLang::And([ia, ib]))
            }
        };
    }
    let outputs = aig
        .outputs()
        .iter()
        .map(|(name, lit)| (name.clone(), lit_id(&mut egraph, &vmap, *lit)))
        .collect();
    egraph.rebuild();
    NetlistEGraph {
        egraph,
        inputs,
        outputs,
        vmap,
    }
}

fn lit_id(egraph: &mut EGraph<BoolLang>, vmap: &[Id], lit: Lit) -> Id {
    let id = vmap[lit.var().index()];
    if lit.is_complemented() {
        egraph.add(BoolLang::Not(id))
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph::RecExpr;

    #[test]
    fn converts_simple_gate() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let y = aig.and(a, !b);
        aig.add_output("y", y);
        let net: NetlistEGraph = aig_to_egraph(&aig);
        let expr: RecExpr<BoolLang> = "(& i0 (! i1))".parse().unwrap();
        let found = net.egraph.lookup_expr(&expr).expect("expression present");
        assert_eq!(net.egraph.find(found), net.egraph.find(net.outputs[0].1));
    }

    #[test]
    fn shares_structure() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a, b);
        aig.add_output("x", x);
        let net: NetlistEGraph = aig_to_egraph(&aig);
        // xor = (a|b) & !(a&b): the constant class, 2 inputs, their
        // negations, and(a,b) and its negation, and(!a,!b) and its
        // negation (the or), plus the top and — 10 classes, with the
        // and(a,b) class shared.
        assert!(net.egraph.num_classes() <= 10);
        assert_eq!(net.inputs.len(), 2);
    }

    #[test]
    fn complemented_output() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let y = aig.and(a, b);
        aig.add_output("nand", !y);
        let net: NetlistEGraph = aig_to_egraph(&aig);
        let expr: RecExpr<BoolLang> = "(! (& i0 i1))".parse().unwrap();
        assert_eq!(
            net.egraph.lookup_expr(&expr).map(|i| net.egraph.find(i)),
            Some(net.egraph.find(net.outputs[0].1))
        );
    }
}
