//! The [`EGraph`] data structure.

use std::fmt;

use crate::delta::Delta;
use crate::hash::{FxHashMap, FxHashSet};
use crate::signature::Signature;
use crate::{Id, Language, RecExpr, UnionFind};

/// An equivalence class of e-nodes.
#[derive(Debug, Clone)]
pub struct EClass<L> {
    /// The canonical id of this class at the time of the last rebuild.
    pub id: Id,
    /// The e-nodes in this class (canonicalized on rebuild).
    pub nodes: Vec<L>,
    /// Parent e-nodes (and the class they live in) that reference this
    /// class; used for congruence repair. Entries may be stale between
    /// rebuilds.
    pub(crate) parents: Vec<(L, Id)>,
}

impl<L: Language> EClass<L> {
    /// Number of e-nodes in the class.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the class has no e-nodes (never happens for a
    /// live class).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over the e-nodes in this class.
    pub fn iter(&self) -> std::slice::Iter<'_, L> {
        self.nodes.iter()
    }
}

/// An e-graph: a congruence-closed union of term DAGs.
///
/// The implementation follows `egg`'s design: hash-consing via `memo`,
/// a [`UnionFind`] over class ids, and *deferred* congruence repair —
/// [`EGraph::union`] only records work, and [`EGraph::rebuild`] restores
/// the congruence invariant. Search operations require a clean e-graph.
///
/// ```
/// use egraph::{EGraph, SymbolLang};
/// let mut eg: EGraph<SymbolLang> = EGraph::default();
/// let a = eg.add(SymbolLang::leaf("a"));
/// let b = eg.add(SymbolLang::leaf("b"));
/// let fa = eg.add(SymbolLang::new("f", vec![a]));
/// let fb = eg.add(SymbolLang::new("f", vec![b]));
/// eg.union(a, b);
/// eg.rebuild();
/// assert_eq!(eg.find(fa), eg.find(fb)); // congruence
/// ```
#[derive(Clone)]
pub struct EGraph<L: Language> {
    unionfind: UnionFind,
    memo: FxHashMap<L, Id>,
    classes: Vec<Option<EClass<L>>>,
    /// Parents that need congruence re-processing.
    pending: Vec<(L, Id)>,
    /// Classes containing at least one e-node with a given operator;
    /// rebuilt by [`EGraph::rebuild`] and [`EGraph::retain_nodes`] and
    /// used to speed up searches.
    by_op: FxHashMap<L::Discriminant, Vec<Id>>,
    /// Each class's operator [`Signature`], indexed by class id (dead
    /// ids hold stale or empty masks); rebuilt with `by_op` and read by
    /// the matching VM.
    signatures: Vec<Signature>,
    clean: bool,
    /// Live-class count, maintained incrementally (`add` +1, merging
    /// `union` -1) so [`EGraph::num_classes`] is O(1).
    n_live_classes: usize,
    /// Total e-node count across live classes (sum of `nodes.len()`),
    /// maintained incrementally so [`EGraph::total_number_of_nodes`]
    /// is O(1): `add` +1, dedup during rebuild and
    /// [`EGraph::retain_nodes`] subtract.
    n_nodes: usize,
    /// Scratch buffer reused across [`EGraph::rebuild`] calls to avoid
    /// re-allocating the live-id worklist every iteration.
    scratch_ids: Vec<Id>,
    /// What unions changed since [`EGraph::start_delta`], for
    /// semi-naive search (see [`crate::delta`]); `None` until a delta
    /// starts, and after [`EGraph::retain_nodes`] ends it.
    delta: Option<Delta>,
}

impl<L: Language> Default for EGraph<L> {
    fn default() -> Self {
        Self {
            unionfind: UnionFind::default(),
            memo: FxHashMap::default(),
            classes: Vec::new(),
            pending: Vec::new(),
            by_op: FxHashMap::default(),
            signatures: Vec::new(),
            clean: true,
            n_live_classes: 0,
            n_nodes: 0,
            scratch_ids: Vec::new(),
            delta: None,
        }
    }
}

impl<L: Language> fmt::Debug for EGraph<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EGraph")
            .field("classes", &self.num_classes())
            .field("nodes", &self.total_number_of_nodes())
            .field("clean", &self.clean)
            .finish()
    }
}

impl<L: Language> EGraph<L> {
    /// The classes containing at least one e-node with `op`'s
    /// discriminant (valid on a clean e-graph).
    pub fn classes_with_op(&self, op: &L::Discriminant) -> &[Id] {
        self.by_op.get(op).map_or(&[], |v| v.as_slice())
    }

    /// Number of live e-classes. O(1): the count is maintained
    /// incrementally across adds and unions.
    pub fn num_classes(&self) -> usize {
        self.n_live_classes
    }

    /// Total number of e-nodes across all classes. O(1): the count is
    /// maintained incrementally (the saturation runner polls this
    /// between every rule application to enforce its node limit).
    pub fn total_number_of_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Returns `true` if the congruence invariant holds (no pending
    /// work).
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// Finds the canonical id of `id`.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Finds the canonical id of `id`, compressing union-find paths.
    pub fn find_mut(&mut self, id: Id) -> Id {
        self.unionfind.find_mut(id)
    }

    /// Iterates over the live e-classes. The [`ExactSizeIterator`]
    /// length comes from the O(1) live-class counter (no pre-scan of
    /// the class table).
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &EClass<L>> {
        ClassIter {
            inner: self.classes.iter(),
            remaining: self.n_live_classes,
        }
    }

    /// Returns the e-class of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid id for this e-graph.
    pub fn eclass(&self, id: Id) -> &EClass<L> {
        let id = self.find(id);
        self.classes[id.index()]
            .as_ref()
            .expect("canonical id must have a class")
    }

    /// The e-nodes of class `id`, which must be canonical: the matching
    /// VM's registers are, so it skips [`EGraph::eclass`]'s `find`.
    pub(crate) fn canonical_class_nodes(&self, id: Id) -> &[L] {
        debug_assert_eq!(id, self.find(id), "class id must be canonical");
        &self.classes[id.index()]
            .as_ref()
            .expect("canonical id must have a class")
            .nodes
    }

    /// The operator [`Signature`] of class `id`, which must be
    /// canonical (valid on a clean e-graph).
    pub(crate) fn signature(&self, id: Id) -> Signature {
        debug_assert_eq!(id, self.find(id), "class id must be canonical");
        self.signatures[id.index()]
    }

    /// The number of class ids handed out so far, live or merged away:
    /// every [`Id`] of this e-graph indexes below it.
    pub(crate) fn class_slots(&self) -> usize {
        self.classes.len()
    }

    /// The parent e-nodes of class `id`, which must be canonical, each
    /// with its class: every e-node that has `id` as a child is listed
    /// at least once, in some form, with some id of its class.
    pub(crate) fn parents(&self, id: Id) -> &[(L, Id)] {
        &self.classes[id.index()]
            .as_ref()
            .expect("canonical id must have a class")
            .parents
    }

    /// Starts recording what unions change, from the current e-graph
    /// on: the classes that exist now are the old ones, and any
    /// previous delta is dropped. A search calls this, so the delta
    /// always covers the changes since the last one.
    pub(crate) fn start_delta(&mut self) {
        let mut delta = self.delta.take().unwrap_or_default();
        delta.old = self.classes.len();
        delta.touched.clear();
        self.delta = Some(delta);
    }

    /// The changes recorded since [`EGraph::start_delta`], if a delta
    /// is pending.
    pub(crate) fn delta(&self) -> Option<&Delta> {
        self.delta.as_ref()
    }

    /// Canonicalizes the children of `enode`.
    pub fn canonicalize(&self, enode: &L) -> L {
        enode.map_children(|c| self.find(c))
    }

    /// Looks up an e-node without inserting; returns its canonical class
    /// if present.
    pub fn lookup(&self, enode: &L) -> Option<Id> {
        self.lookup_canonical(&self.canonicalize(enode))
    }

    /// [`EGraph::lookup`] for an e-node whose children are already
    /// canonical, as the matching VM's registers are: no
    /// canonicalizing copy is made.
    pub(crate) fn lookup_canonical(&self, enode: &L) -> Option<Id> {
        debug_assert!(
            enode.children().iter().all(|&c| c == self.find(c)),
            "children must be canonical"
        );
        self.memo.get(enode).map(|&id| self.find(id))
    }

    /// Looks up a whole expression without inserting.
    pub fn lookup_expr(&self, expr: &RecExpr<L>) -> Option<Id> {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.iter() {
            let node = node.map_children(|c| ids[c.index()]);
            ids.push(self.lookup(&node)?);
        }
        ids.last().copied()
    }

    /// Adds an e-node, returning its (possibly pre-existing) class id.
    pub fn add(&mut self, enode: L) -> Id {
        let enode = self.canonicalize(&enode);
        if let Some(&id) = self.memo.get(&enode) {
            return self.find(id);
        }
        let id = self.unionfind.make_set();
        debug_assert_eq!(id.index(), self.classes.len());
        for &child in enode.children() {
            let child = self.find(child);
            let child_class = self.classes[child.index()]
                .as_mut()
                .expect("child class must exist");
            child_class.parents.push((enode.clone(), id));
        }
        self.classes.push(Some(EClass {
            id,
            nodes: vec![enode.clone()],
            parents: Vec::new(),
        }));
        self.n_live_classes += 1;
        self.n_nodes += 1;
        self.memo.insert(enode, id);
        self.clean = false;
        id
    }

    /// Adds a whole expression, returning the class of its root.
    pub fn add_expr(&mut self, expr: &RecExpr<L>) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.iter() {
            let node = node.map_children(|c| ids[c.index()]);
            ids.push(self.add(node));
        }
        *ids.last().expect("cannot add an empty expression")
    }

    /// Unions two e-classes, returning the canonical id and whether
    /// anything changed. Congruence is restored lazily by
    /// [`EGraph::rebuild`].
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.find_mut(a);
        let b = self.find_mut(b);
        if a == b {
            return (a, false);
        }
        // Keep the class with more parents as the root to move less data.
        let a_parents = self.classes[a.index()]
            .as_ref()
            .map_or(0, |c| c.parents.len());
        let b_parents = self.classes[b.index()]
            .as_ref()
            .map_or(0, |c| c.parents.len());
        let (to, from) = if a_parents >= b_parents {
            (a, b)
        } else {
            (b, a)
        };

        self.unionfind.union_roots(to, from);
        self.n_live_classes -= 1;
        self.clean = false;

        let from_class = self.classes[from.index()]
            .take()
            .expect("from class must exist");
        if let Some(delta) = &mut self.delta {
            let to_nodes = &self.classes[to.index()]
                .as_ref()
                .expect("to class must exist")
                .nodes;
            delta.union(to, to_nodes, from, &from_class.nodes);
        }
        self.pending.extend(from_class.parents.iter().cloned());

        let to_class = self.classes[to.index()]
            .as_mut()
            .expect("to class must exist");
        to_class.id = to;
        to_class.nodes.extend(from_class.nodes);
        to_class.parents.extend(from_class.parents);
        (to, true)
    }

    /// Restores the congruence invariant, returning the number of
    /// unions applied during repair.
    pub fn rebuild(&mut self) -> usize {
        let mut n_repairs = 0;
        while let Some((mut node, class)) = self.pending.pop() {
            let class = self.find_mut(class);
            node.update_children(|c| self.unionfind.find_mut(c));
            if let Some(old) = self.memo.insert(node, class) {
                let (_, did) = self.union(old, class);
                n_repairs += usize::from(did);
            }
        }
        self.rebuild_classes();
        self.clean = true;
        n_repairs
    }

    fn rebuild_classes(&mut self) {
        // Canonicalize and dedup the node lists of every live class,
        // and rebuild the operator index and the signatures' `ops`
        // masks. Clearing the index's buckets in place (rather than
        // dropping them) keeps their allocations across rebuilds.
        for bucket in self.by_op.values_mut() {
            bucket.clear();
        }
        self.signatures.clear();
        self.signatures
            .resize(self.classes.len(), Signature::default());
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        ids.extend(
            (0..self.classes.len())
                .map(Id::from_index)
                .filter(|id| self.classes[id.index()].is_some()),
        );
        for &id in &ids {
            let mut nodes =
                std::mem::take(&mut self.classes[id.index()].as_mut().expect("live class").nodes);
            for node in &mut nodes {
                node.update_children(|c| self.unionfind.find_mut(c));
            }
            let before = nodes.len();
            nodes.sort_unstable();
            nodes.dedup();
            self.n_nodes -= before - nodes.len();
            index_ops(&mut self.by_op, id, &nodes);
            self.signatures[id.index()].ops = ops_mask(&nodes);
            self.classes[id.index()].as_mut().expect("live class").nodes = nodes;
        }
        self.fill_pairs(&ids);
        self.scratch_ids = ids;
    }

    /// Sets the `pairs` mask of every class in `ids` from its e-nodes
    /// and their child classes' `ops` masks, which must be current.
    fn fill_pairs(&mut self, ids: &[Id]) {
        for &id in ids {
            let nodes = &self.classes[id.index()].as_ref().expect("live class").nodes;
            self.signatures[id.index()].pairs = pairs_mask(nodes, &self.signatures);
        }
    }

    /// Removes e-nodes for which `keep` returns `false`.
    ///
    /// This implements BoolE's redundant e-node pruning: after
    /// saturation, semantically duplicated e-nodes (e.g. commuted copies
    /// of a symmetric operator) can be dropped to save memory without
    /// affecting the equivalence relation. The e-graph must be clean.
    /// E-nodes are never removed if they are the last node of their
    /// class. The operator index and the class signatures are rebuilt
    /// for the kept e-nodes.
    ///
    /// Removing e-nodes can take matches away, which the union-only
    /// delta of semi-naive search cannot describe, so this ends any
    /// pending delta: the next search of a running saturation would be
    /// full. The runner never calls it mid-run; BoolE prunes after its
    /// last saturation phase.
    ///
    /// Returns the number of removed e-nodes.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (call [`EGraph::rebuild`]).
    pub fn retain_nodes<F: FnMut(&EClass<L>, &L) -> bool>(&mut self, mut keep: F) -> usize {
        assert!(self.clean, "retain_nodes requires a clean e-graph");
        self.delta = None;
        let mut removed = 0;
        let ids: Vec<Id> = (0..self.classes.len())
            .map(Id::from_index)
            .filter(|id| self.classes[id.index()].is_some())
            .collect();
        for bucket in self.by_op.values_mut() {
            bucket.clear();
        }
        for &id in &ids {
            let class = self.classes[id.index()].take().expect("live class");
            let mut kept: Vec<L> = Vec::with_capacity(class.nodes.len());
            let mut dropped: Vec<L> = Vec::new();
            for node in &class.nodes {
                if keep(&class, node) {
                    kept.push(node.clone());
                } else {
                    dropped.push(node.clone());
                }
            }
            if kept.is_empty() {
                // Never empty a class: keep the first node.
                let first = dropped.remove(0);
                kept.push(first);
            }
            removed += dropped.len();
            for node in dropped {
                self.memo.remove(&node);
            }
            index_ops(&mut self.by_op, id, &kept);
            self.signatures[id.index()].ops = ops_mask(&kept);
            self.classes[id.index()] = Some(EClass {
                nodes: kept,
                ..class
            });
        }
        self.fill_pairs(&ids);
        self.n_nodes -= removed;
        removed
    }

    /// Checks internal invariants (memo canonicity, congruence, sorted
    /// class e-nodes with one run per operator); used by tests. Cheap
    /// enough for debug assertions on small graphs.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        assert!(self.clean, "e-graph must be clean");
        assert_eq!(
            self.n_live_classes,
            self.classes.iter().filter(|c| c.is_some()).count(),
            "live-class counter must match the class table"
        );
        assert_eq!(
            self.n_nodes,
            self.classes
                .iter()
                .flatten()
                .map(|c| c.len())
                .sum::<usize>(),
            "node counter must match the class node lists"
        );
        for class in self.classes() {
            assert_eq!(class.id, self.find(class.id), "class id must be canonical");
            // The matcher walks only its operator's run of a class's
            // e-nodes, so they must be sorted, and `Ord` must give each
            // discriminant one run (see `Language`).
            assert!(
                class.nodes.windows(2).all(|w| w[0] < w[1]),
                "class {} nodes must be sorted and distinct",
                class.id
            );
            let mut ops = FxHashSet::default();
            for run in class
                .nodes
                .chunk_by(|a, b| a.discriminant() == b.discriminant())
            {
                assert!(
                    ops.insert(run[0].discriminant()),
                    "class {} splits the operator of {:?} into two runs",
                    class.id,
                    run[0]
                );
            }
            for node in &class.nodes {
                let canon = self.canonicalize(node);
                assert_eq!(&canon, node, "class nodes must be canonical");
                let memo_id = self
                    .memo
                    .get(&canon)
                    .map(|&id| self.find(id))
                    .unwrap_or_else(|| panic!("node {node:?} missing from memo"));
                assert_eq!(
                    memo_id,
                    self.find(class.id),
                    "memo must map node to its class"
                );
            }
        }
        // The operator index must be compact: each bucket holds exactly
        // the live canonical classes containing that operator, once
        // each, in ascending id order (the search driver relies on
        // never revisiting a merged class).
        let mut expected: FxHashMap<L::Discriminant, Vec<Id>> = FxHashMap::default();
        for class in self.classes() {
            for node in &class.nodes {
                let bucket = expected.entry(node.discriminant()).or_default();
                if bucket.last() != Some(&class.id) {
                    bucket.push(class.id);
                }
            }
        }
        assert_eq!(
            self.by_op.values().filter(|b| !b.is_empty()).count(),
            expected.len(),
            "by_op must have exactly one non-empty bucket per live operator"
        );
        for (disc, bucket) in &expected {
            assert_eq!(
                self.by_op.get(disc),
                Some(bucket),
                "by_op bucket must list each live canonical class once, ascending"
            );
        }
        // Every live class's signature must be exactly what its e-nodes
        // give now: a missing bit would make the VM skip a real match,
        // and a stale extra bit would cost pruning.
        for class in self.classes() {
            assert_eq!(
                self.signatures[class.id.index()].ops,
                ops_mask(&class.nodes),
                "class {} has a stale ops mask",
                class.id
            );
        }
        for class in self.classes() {
            assert_eq!(
                self.signatures[class.id.index()].pairs,
                pairs_mask(&class.nodes, &self.signatures),
                "class {} has a stale pairs mask",
                class.id
            );
        }
    }
}

/// Lists class `id`, which holds the sorted `nodes`, in the operator
/// index bucket of each of their operators. Called in ascending id
/// order, so every bucket stays ascending.
fn index_ops<L: Language>(by_op: &mut FxHashMap<L::Discriminant, Vec<Id>>, id: Id, nodes: &[L]) {
    for run in nodes.chunk_by(|a, b| a.discriminant() == b.discriminant()) {
        by_op.entry(run[0].discriminant()).or_default().push(id);
    }
}

/// The `ops` mask of a class holding `nodes`.
pub(crate) fn ops_mask<L: Language>(nodes: &[L]) -> u64 {
    nodes
        .iter()
        .fold(0, |ops, node| ops | 1 << node.operator_bit())
}

/// The `pairs` mask of a class holding `nodes`, given every class's
/// current `ops` mask.
fn pairs_mask<L: Language>(nodes: &[L], signatures: &[Signature]) -> u64 {
    let mut pairs = 0;
    for node in nodes {
        let op = node.operator_bit();
        for &child in node.children() {
            pairs |= Signature::pair_mask(op, signatures[child.index()].ops);
        }
    }
    pairs
}

struct ClassIter<'a, L> {
    inner: std::slice::Iter<'a, Option<EClass<L>>>,
    remaining: usize,
}

impl<'a, L> Iterator for ClassIter<'a, L> {
    type Item = &'a EClass<L>;
    fn next(&mut self) -> Option<Self::Item> {
        if let Some(class) = self.inner.by_ref().flatten().next() {
            self.remaining -= 1;
            return Some(class);
        }
        None
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<L> ExactSizeIterator for ClassIter<'_, L> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    type EG = EGraph<SymbolLang>;

    #[test]
    fn add_is_hash_consed() {
        let mut eg = EG::default();
        let a1 = eg.add(SymbolLang::leaf("a"));
        let a2 = eg.add(SymbolLang::leaf("a"));
        assert_eq!(a1, a2);
        let f1 = eg.add(SymbolLang::new("f", vec![a1]));
        let f2 = eg.add(SymbolLang::new("f", vec![a2]));
        assert_eq!(f1, f2);
        assert_eq!(eg.num_classes(), 2);
    }

    #[test]
    fn union_and_congruence() {
        let mut eg = EG::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        assert_ne!(eg.find(fa), eg.find(fb));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(fa), eg.find(fb));
        eg.check_invariants();
    }

    #[test]
    fn congruence_propagates_upward() {
        let mut eg = EG::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        let gfa = eg.add(SymbolLang::new("g", vec![fa]));
        let gfb = eg.add(SymbolLang::new("g", vec![fb]));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(gfa), eg.find(gfb));
        eg.check_invariants();
    }

    #[test]
    fn lookup_and_lookup_expr() {
        let mut eg = EG::default();
        let expr: RecExpr<SymbolLang> = "(f (g x) y)".parse().unwrap();
        assert_eq!(eg.lookup_expr(&expr), None);
        let id = eg.add_expr(&expr);
        assert_eq!(eg.lookup_expr(&expr), Some(eg.find(id)));
        let missing: RecExpr<SymbolLang> = "(f (g y) y)".parse().unwrap();
        assert_eq!(eg.lookup_expr(&missing), None);
    }

    #[test]
    fn union_counts() {
        let mut eg = EG::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        assert_eq!(eg.num_classes(), 2);
        let (_, did) = eg.union(a, b);
        assert!(did);
        assert_eq!(eg.num_classes(), 1);
        let (_, did) = eg.union(a, b);
        assert!(!did);
        assert_eq!(eg.num_classes(), 1);
    }

    #[test]
    fn retain_nodes_prunes_but_keeps_classes() {
        let mut eg = EG::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        let ab = eg.add(SymbolLang::new("+", vec![a, b]));
        let ba = eg.add(SymbolLang::new("+", vec![b, a]));
        eg.union(ab, ba);
        eg.rebuild();
        let class_nodes = eg.eclass(ab).len();
        assert_eq!(class_nodes, 2);
        let removed = eg.retain_nodes(|_, node| node.children() != [b, a]);
        assert_eq!(removed, 1);
        assert_eq!(eg.eclass(ab).len(), 1);
        // Lookup for the removed node now misses.
        assert_eq!(eg.lookup(&SymbolLang::new("+", vec![b, a])), None);
        assert!(eg.lookup(&SymbolLang::new("+", vec![a, b])).is_some());
    }

    #[test]
    fn retain_nodes_drops_a_class_from_an_operator_it_no_longer_holds() {
        let mut eg = EG::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let ga = eg.add(SymbolLang::new("g", vec![a]));
        eg.union(fa, ga);
        eg.rebuild();
        let f = SymbolLang::leaf("f").discriminant();
        assert_eq!(eg.classes_with_op(&f), [eg.find(fa)]);
        assert_eq!(eg.retain_nodes(|_, node| node.op.as_str() != "f"), 1);
        assert!(eg.classes_with_op(&f).is_empty());
        eg.check_invariants();
    }

    /// The bit of operator `op`, as a touch mask.
    fn bit(op: &str) -> u64 {
        1 << SymbolLang::leaf(op).operator_bit()
    }

    /// The touch recorded for the class of `id`, if any.
    fn touch(eg: &EG, id: Id) -> Option<crate::delta::Touch> {
        let delta = eg.delta().expect("a delta is pending");
        delta.touched.get(&eg.find(id)).copied()
    }

    /// An e-graph holding the old classes `x`, `y`, `(f x)` and
    /// `(g y)`, with a delta started after them.
    fn old_classes() -> (EG, [Id; 4]) {
        let mut eg = EG::default();
        let x = eg.add(SymbolLang::leaf("x"));
        let y = eg.add(SymbolLang::leaf("y"));
        let fx = eg.add(SymbolLang::new("f", vec![x]));
        let gy = eg.add(SymbolLang::new("g", vec![y]));
        eg.rebuild();
        eg.start_delta();
        (eg, [x, y, fx, gy])
    }

    #[test]
    fn adding_records_nothing_and_a_union_with_a_new_class_gains_its_operators() {
        let (mut eg, [x, _, fx, _]) = old_classes();
        // `(h x)` is a new class over an old one: no touch.
        let hx = eg.add(SymbolLang::new("h", vec![x]));
        assert_eq!(eg.delta().unwrap().touched.len(), 0);
        // `(f x)` gains `h` and nothing else.
        eg.union(fx, hx);
        eg.rebuild();
        assert_eq!(
            touch(&eg, fx),
            Some(crate::delta::Touch {
                merged: false,
                gained: bit("h"),
            })
        );
        assert_eq!(eg.delta().unwrap().touched.len(), 1);
        // Two new classes uniting touch nothing.
        let k = eg.add(SymbolLang::leaf("k"));
        let m = eg.add(SymbolLang::leaf("m"));
        eg.union(k, m);
        eg.rebuild();
        assert_eq!(touch(&eg, k), None);
    }

    #[test]
    fn a_union_of_two_old_classes_is_a_merge() {
        let (mut eg, [x, y, fx, gy]) = old_classes();
        eg.union(x, y);
        eg.rebuild();
        // Congruence merges nothing here, so only `x` and `y` merged.
        assert!(touch(&eg, x).unwrap().merged);
        assert_eq!(touch(&eg, fx), None);
        assert_eq!(touch(&eg, gy), None);
    }

    #[test]
    fn a_new_class_that_wins_a_union_still_holds_the_old_one() {
        let (mut eg, [x, y, _, _]) = old_classes();
        // `n` is new, with two parents to `x`'s one, so it wins the
        // union and its id becomes the class's.
        let n = eg.add(SymbolLang::leaf("n"));
        eg.add(SymbolLang::new("p", vec![n]));
        eg.add(SymbolLang::new("q", vec![n]));
        let (root, _) = eg.union(x, n);
        assert_eq!(root, n);
        // The old `x` gained the new side's operator, `n`.
        let gained = touch(&eg, n).unwrap();
        assert!(!gained.merged);
        assert_eq!(gained.gained, bit("n"));
        // It holds `x`, so a union with another old class is a merge.
        eg.union(n, y);
        eg.rebuild();
        assert!(touch(&eg, y).unwrap().merged);
    }

    #[test]
    fn retain_nodes_ends_the_delta() {
        let (mut eg, _) = old_classes();
        assert!(eg.delta().is_some());
        eg.retain_nodes(|_, _| true);
        assert!(eg.delta().is_none());
    }

    #[test]
    fn by_op_buckets_stay_compact_after_merges() {
        // Merge-heavy workload: many `f`/`g` applications collapsing
        // into few classes. After every rebuild, each `by_op` bucket
        // must list exactly the *live canonical* classes containing the
        // operator — once each — or the search driver would revisit
        // merged classes.
        let mut eg = EG::default();
        let leaves: Vec<Id> = (0..8)
            .map(|i| eg.add(SymbolLang::leaf(format!("x{i}"))))
            .collect();
        let mut apps = Vec::new();
        for &a in &leaves {
            for &b in &leaves {
                apps.push(eg.add(SymbolLang::new("f", vec![a, b])));
                apps.push(eg.add(SymbolLang::new("g", vec![b, a])));
            }
        }
        eg.rebuild();
        // Collapse all leaves into one class, then all apps into one.
        for w in leaves.windows(2) {
            eg.union(w[0], w[1]);
        }
        eg.rebuild();
        eg.check_invariants();
        for op in ["f", "g"] {
            let disc = SymbolLang::leaf(op).discriminant();
            let bucket = eg.classes_with_op(&disc);
            let live: Vec<Id> = eg
                .classes()
                .filter(|c| c.iter().any(|n| n.discriminant() == disc))
                .map(|c| c.id)
                .collect();
            assert_eq!(bucket, live.as_slice(), "op {op}");
        }
        eg.union(apps[0], apps[1]);
        eg.rebuild();
        eg.check_invariants();
        // One class holds all `f` and all `g` nodes now; each bucket
        // must mention it exactly once.
        let f = SymbolLang::leaf("f").discriminant();
        assert_eq!(eg.classes_with_op(&f).len(), 1);
    }

    #[test]
    fn deep_chain_unions() {
        // Chain f^n(a); union a with b and ensure the whole chain merges
        // with f^n(b).
        let mut eg = EG::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        let mut fa = a;
        let mut fb = b;
        for _ in 0..50 {
            fa = eg.add(SymbolLang::new("f", vec![fa]));
            fb = eg.add(SymbolLang::new("f", vec![fb]));
        }
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(fa), eg.find(fb));
        eg.check_invariants();
    }
}
