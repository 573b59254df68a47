//! DAG-based exact extraction (Section IV-B, Algorithm 2).
//!
//! The cost function maximizes the number of *distinct* full adders in
//! the extracted DAG — each shared FA is counted once — with a
//! weighted-depth tie-breaker. Per e-class we maintain a cost set (the
//! set of FA tuple-class ids reachable through the chosen sub-DAG);
//! `fst`, `snd`, and `fa` are selected atomically because the
//! projections' only child is the FA tuple class itself.
//!
//! One improving worklist fixpoint computes one selection, and that
//! selection stays acyclic at every step:
//!
//! * a class's **first** choice cannot close a cycle: a node is only
//!   eligible once every child has a choice, so no selected node can
//!   point at a class that has none yet;
//! * **re-adopting** the current node to refresh its cost changes no
//!   edge;
//! * **switching** to a different node is allowed only if the class is
//!   not reachable from that node's children through the current
//!   selection.
//!
//! Cost sets can go stale (a child switching to a different, larger FA
//! set whose union with its siblings shrinks), so the realized FA count
//! is the one [`crate::reconstruct_aig`] reports.
//!
//! A cost set is a sorted `Vec<u32>` of FA indices. The paper stores
//! them as `u16` on small e-graphs; here one width serves every size,
//! and the narrower ids made no measurable difference to peak memory.

use std::collections::{HashMap, HashSet, VecDeque};

use egraph::{EGraph, Id, Language};

use crate::BoolLang;

/// Merges the sorted set `b` into the sorted set `a`.
fn merge_sorted(a: &mut Vec<u32>, b: &[u32]) {
    if b.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    *a = out;
}

/// The chosen e-node and cost for one e-class.
#[derive(Debug, Clone)]
pub struct DagChoice {
    /// The selected e-node (children are canonical class ids).
    pub node: BoolLang,
    /// Indices of the FA tuple classes reachable through the selection
    /// when this choice was made, sorted (may be stale; see the module
    /// docs).
    pub fas: Vec<u32>,
    /// Weighted-depth tie-breaker (max-plus over children; cannot
    /// saturate, unlike tree size).
    pub size: u64,
}

/// The result of DAG extraction: one acyclic selection with one choice
/// per e-class reachable from the leaves.
#[derive(Debug)]
pub struct DagExtraction {
    choices: HashMap<Id, DagChoice>,
}

impl DagExtraction {
    /// The choice for `class`, if it was extractable.
    pub fn choice(&self, class: Id) -> Option<&DagChoice> {
        self.choices.get(&class)
    }

    /// Number of e-classes with a choice.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Returns `true` if nothing was extractable.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

/// Approximate AIG cost of materializing one operator. Strictly
/// positive for every operator with children so that depth strictly
/// increases along selection edges.
fn node_size(node: &BoolLang) -> u64 {
    match node {
        BoolLang::Const(_) | BoolLang::Var(_) => 0,
        BoolLang::Not(_) | BoolLang::Fst(_) | BoolLang::Snd(_) => 1,
        BoolLang::And(_) | BoolLang::Or(_) => 2,
        BoolLang::Xor(_) => 4,
        BoolLang::Xor3(_) => 7,
        BoolLang::Maj(_) => 6,
        // The FA pair shares its XOR/MAJ structure across both outputs.
        BoolLang::Fa(_) => 9,
    }
}

/// Runs the fixed-point DAG extraction over the whole e-graph
/// (Algorithm 2). Classes unreachable from any leaf remain without a
/// choice.
///
/// # Panics
///
/// Panics if the e-graph is not clean.
pub fn extract_dag(egraph: &EGraph<BoolLang>) -> DagExtraction {
    assert!(egraph.is_clean(), "extraction requires a clean e-graph");
    // Index FA tuple classes for compact cost sets.
    let fa_pos: HashMap<Id, u32> = crate::pair::fa_classes(egraph)
        .into_iter()
        .zip(0..)
        .collect();

    // Parent index: which classes reference a class as a child
    // (Algorithm 2's `node.parents()`).
    let mut parents: HashMap<Id, Vec<Id>> = HashMap::new();
    for class in egraph.classes() {
        for node in class.iter() {
            for &c in node.children() {
                let entry = parents.entry(egraph.find(c)).or_default();
                if entry.last() != Some(&class.id) {
                    entry.push(class.id);
                }
            }
        }
    }
    let mut queue: VecDeque<Id> = egraph
        .classes()
        .filter(|class| class.iter().any(|n| n.is_leaf()))
        .map(|class| class.id)
        .collect();
    let mut queued: HashSet<Id> = queue.iter().copied().collect();

    let mut choices: HashMap<Id, DagChoice> = HashMap::new();
    while let Some(class_id) = queue.pop_front() {
        queued.remove(&class_id);
        let current = choices.get(&class_id).map(|c| &c.node);
        let mut best: Option<DagChoice> = None;
        for node in egraph.eclass(class_id).iter() {
            // All children must be selected already.
            let eligible = node.children().iter().all(|&c| {
                let c = egraph.find(c);
                c != class_id && choices.contains_key(&c)
            });
            if !eligible {
                continue;
            }
            let mut fas = Vec::new();
            let mut size = node_size(node);
            for &c in node.children() {
                let child = &choices[&egraph.find(c)];
                merge_sorted(&mut fas, &child.fas);
                size = size.max(node_size(node) + child.size);
            }
            if let BoolLang::Fa(_) = node {
                merge_sorted(&mut fas, &[fa_pos[&class_id]]);
            }
            let incumbent = best.as_ref().or_else(|| choices.get(&class_id));
            let better = match incumbent {
                None => true,
                Some(b) => fas.len() > b.fas.len() || (fas.len() == b.fas.len() && size < b.size),
            };
            let switches = current.is_some_and(|cur| cur != node);
            if better && !(switches && reaches(egraph, &choices, node, class_id)) {
                best = Some(DagChoice {
                    node: node.clone(),
                    fas,
                    size,
                });
            }
        }
        if let Some(best) = best {
            choices.insert(class_id, best);
            // Cost map update: re-enqueue the parents (Algorithm 2
            // line 16). FA tuple classes go first: they only need their
            // three inputs, and the XOR3/MAJ classes that adopt their
            // fst/snd projections then find them selected.
            if let Some(ps) = parents.get(&class_id) {
                for &p in ps {
                    if queued.insert(p) {
                        if fa_pos.contains_key(&p) {
                            queue.push_front(p);
                        } else {
                            queue.push_back(p);
                        }
                    }
                }
            }
        }
    }
    DagExtraction { choices }
}

/// Whether `target` is reachable from `node`'s children through the
/// current selection, i.e. whether selecting `node` for `target` would
/// close a cycle. Iterative DFS: selections can be very deep.
fn reaches(
    egraph: &EGraph<BoolLang>,
    choices: &HashMap<Id, DagChoice>,
    node: &BoolLang,
    target: Id,
) -> bool {
    let mut stack: Vec<Id> = node.children().iter().map(|&c| egraph.find(c)).collect();
    let mut visited: HashSet<Id> = HashSet::new();
    while let Some(class) = stack.pop() {
        if class == target {
            return true;
        }
        if visited.insert(class) {
            stack.extend(
                choices[&class]
                    .node
                    .children()
                    .iter()
                    .map(|&c| egraph.find(c)),
            );
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::pair_full_adders;
    use crate::reconstruct_aig;
    use egraph::RecExpr;

    fn add(eg: &mut EGraph<BoolLang>, expr: &str) -> Id {
        eg.add_expr(&expr.parse::<RecExpr<BoolLang>>().unwrap())
    }

    /// The number of FAs the reconstruction of `roots` realizes.
    fn realized_fas(eg: &EGraph<BoolLang>, num_inputs: usize, roots: &[Id]) -> usize {
        let ex = extract_dag(eg);
        let outputs: Vec<(String, Id)> = roots
            .iter()
            .enumerate()
            .map(|(k, &root)| (format!("o{k}"), root))
            .collect();
        reconstruct_aig(eg, &ex, num_inputs, &outputs).1.len()
    }

    #[test]
    fn fa_set_merge_dedups() {
        let mut a = vec![1, 3, 5];
        merge_sorted(&mut a, &[2, 3, 6]);
        assert_eq!(a, [1, 2, 3, 5, 6]);
    }

    #[test]
    fn extraction_prefers_fa_projections() {
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let sum = add(&mut eg, "(^3 i0 i1 i2)");
        let carry = add(&mut eg, "(maj i0 i1 i2)");
        eg.rebuild();
        pair_full_adders(&mut eg);
        let ex = extract_dag(&eg);
        let sum_choice = ex.choice(eg.find(sum)).unwrap();
        let carry_choice = ex.choice(eg.find(carry)).unwrap();
        assert!(matches!(sum_choice.node, BoolLang::Snd(_)));
        assert!(matches!(carry_choice.node, BoolLang::Fst(_)));
        assert_eq!(
            realized_fas(&eg, 3, &[sum, carry]),
            1,
            "shared FA counted once"
        );
    }

    #[test]
    fn shared_fa_counted_once_across_roots() {
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let sum = add(&mut eg, "(^3 i0 i1 i2)");
        let carry = add(&mut eg, "(maj i0 i1 i2)");
        // Two downstream users of the same FA outputs.
        let u1 = eg.add(BoolLang::And([sum, carry]));
        let u2 = eg.add(BoolLang::Or([sum, carry]));
        eg.rebuild();
        pair_full_adders(&mut eg);
        assert_eq!(realized_fas(&eg, 3, &[u1, u2]), 1);
    }

    #[test]
    fn unpaired_classes_extract_normally() {
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let root = add(&mut eg, "(& (| p q) r)");
        eg.rebuild();
        let ex = extract_dag(&eg);
        let choice = ex.choice(eg.find(root)).unwrap();
        assert!(choice.fas.is_empty());
        assert!(matches!(choice.node, BoolLang::And(_)));
    }

    #[test]
    fn chained_fas_all_counted() {
        // carry of one FA feeds another FA.
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let c1 = add(&mut eg, "(maj i0 i1 i2)");
        add(&mut eg, "(^3 i0 i1 i2)");
        let s = eg.add(BoolLang::var("i3"));
        let t = eg.add(BoolLang::var("i4"));
        let sum2 = eg.add(BoolLang::Xor3([c1, s, t]));
        let carry2 = eg.add(BoolLang::Maj([c1, s, t]));
        eg.rebuild();
        let stats = pair_full_adders(&mut eg);
        assert_eq!(stats.fa_inserted, 2);
        assert_eq!(realized_fas(&eg, 5, &[sum2, carry2]), 2);
    }

    #[test]
    fn switch_that_would_close_a_loop_is_refused() {
        // A = i0 | i1 and B = s1 & i0, where s1 is FA1's sum. Merging
        // A with (B & s2) and B with (A | i2) makes each class offer a
        // node through the other. A adopts (B & s2) for FA2; B must
        // then keep (s1 & i0) for FA1 rather than switch to (A | i2).
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let s1 = add(&mut eg, "(^3 i0 i1 i2)");
        add(&mut eg, "(maj i0 i1 i2)");
        let s2 = add(&mut eg, "(^3 i3 i4 i5)");
        add(&mut eg, "(maj i3 i4 i5)");
        let i0 = add(&mut eg, "i0");
        let i2 = add(&mut eg, "i2");
        let a = add(&mut eg, "(| i0 i1)");
        let b = eg.add(BoolLang::And([s1, i0]));
        let b_s2 = eg.add(BoolLang::And([b, s2]));
        let a_i2 = eg.add(BoolLang::Or([a, i2]));
        eg.union(a, b_s2);
        eg.union(b, a_i2);
        eg.rebuild();
        pair_full_adders(&mut eg);
        let ex = extract_dag(&eg);
        let b_node = &ex.choice(eg.find(b)).unwrap().node;
        assert_eq!(*b_node, BoolLang::And([eg.find(s1), eg.find(i0)]));
        assert_eq!(realized_fas(&eg, 7, &[a]), 2);
    }
}
