//! Semi-naive e-matching: what changed in the e-graph since the last
//! search, which candidate roots those changes can reach, and what
//! each rule's last search found root by root.
//!
//! A search is a function of the e-graph, but only of the part a
//! pattern can see from each candidate root: its *cone*, the classes
//! within the pattern's e-node depth `D`, reached through e-nodes of
//! the pattern's operators `O`. Between two searches, the only changes
//! that reach a cone are unions, because [`EGraph::add`] puts each new
//! e-node into a new class, and a new e-node joins an old class only
//! through a union. [`Delta`] records, for every class that held a
//! class that existed at the last search, what its unions changed:
//!
//! * a *merge* of two such classes touches every operator: the class
//!   gets a new identity, which moves every match that binds it;
//! * a union with classes created since only *gains* their operators.
//!
//! A candidate root is *clean* for a rule if none of these holds:
//! its canonical id was created since the rule's last search; that
//! search's run on it was cut by the work budget or the match cap; a
//! merge lies within `D` e-node levels below it; a class that gained
//! an operator of `O` lies within `D - 1` levels below it. A clean
//! root's cone is the one the last search enumerated, so its match
//! set is the same, and the search replays the root's match count
//! from its [`SearchRecord`] instead of running the matcher on it.
//! A `Build` probe, which looks a subterm up in the hash-cons memo,
//! only contributes to a match when it lands in a cone class, so an
//! e-node it newly finds there arrived through one of those gains.
//!
//! [`Cone`] computes the distances in one pass up the parent lists
//! from the touched classes, for all of a ruleset's patterns at once.
//! It records, per reached class and per operator the patterns use,
//! the least level at which a touch of that operator lies below, where
//! a merge counts as a touch of every operator one level further down,
//! so one comparison with a pattern's depth answers both distance
//! conditions. Climbing to level `k`, it follows only
//! e-nodes of the operators of patterns deeper than `k`, not each
//! rule's own: that over-approximates every rule's cone and never
//! misses a change.

use crate::egraph::ops_mask;
use crate::hash::FxHashMap;
use crate::{EGraph, Id, Language};

/// What the unions since the last search did to one canonical class
/// that holds a class existing at that search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Touch {
    /// Two classes that both held an old class merged: every operator
    /// is touched.
    pub(crate) merged: bool,
    /// Operator bits ([`Language::operator_bit`]) of the e-nodes the
    /// class gained from classes created since the last search.
    pub(crate) gained: u64,
}

/// The changes since the last search, as [`EGraph::union`] records
/// them (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Delta {
    /// Classes that existed at the last search have ids below this.
    pub(crate) old: usize,
    /// Each touched canonical class that holds an old class. A class
    /// whose id is `old` or above holds one exactly when it is here.
    pub(crate) touched: FxHashMap<Id, Touch>,
}

impl Delta {
    /// Records the union of class `from` into class `to`, both
    /// canonical, before `from`'s e-nodes move into `to`.
    pub(crate) fn union<L: Language>(
        &mut self,
        to: Id,
        to_nodes: &[L],
        from: Id,
        from_nodes: &[L],
    ) {
        // A class holds an old class if its id is old or it is touched.
        let carried = self.touched.remove(&from);
        let from_old = from.index() < self.old || carried.is_some();
        let to_old = to.index() < self.old || self.touched.contains_key(&to);
        let carried = carried.unwrap_or_default();
        let touch = match (to_old, from_old) {
            (false, false) => return,
            (true, true) => Touch {
                merged: true,
                gained: 0,
            },
            // The old side gains the new side's operators; if the new
            // id won, the class it names now holds the old one.
            (true, false) => Touch {
                merged: false,
                gained: ops_mask(from_nodes),
            },
            (false, true) => Touch {
                merged: false,
                gained: ops_mask(to_nodes),
            },
        };
        let entry = self.touched.entry(to).or_default();
        entry.merged |= touch.merged | carried.merged;
        entry.gained |= touch.gained | carried.gained;
    }
}

/// Marks a class no change reaches.
const UNREACHED: u32 = u32::MAX;

/// Marks an operator no touch of which reaches a class.
const FAR: u8 = u8::MAX;

/// The candidate roots that the changes since the last search can
/// reach, for a ruleset's patterns (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Cone {
    /// Classes that existed at the last search have ids below this.
    old: usize,
    /// The operator bits tracked: those of every pattern searched with
    /// a record.
    ops: u64,
    /// Per operator bit, its position among the tracked bits.
    slot: [u8; 64],
    /// Per class id, its row of `seen` and `levels`, or [`UNREACHED`].
    row_of: Vec<u32>,
    /// Per reached class, the tracked operators whose touch reaches it.
    seen: Vec<u64>,
    /// Per reached class, one byte per tracked operator, in ascending
    /// bit order: the least level at which a touch of it lies below the
    /// class, or [`FAR`]. A gain `k` levels below lies at level `k`. A
    /// merge touches every operator one level further down, at level
    /// `k - 1` (0 for the merged class itself), so one comparison with
    /// a pattern's depth answers both distance conditions.
    levels: Vec<u8>,
}

impl Cone {
    /// The cone of the changes [`EGraph`] recorded since its last
    /// [`EGraph::start_delta`]. `levels[k]` holds the operator bits of
    /// the patterns deeper than `k`: a touch of operator `b` matters `k`
    /// levels below a root only for a pattern that holds `b` and
    /// reaches that far, so each bit climbs only as far as the deepest
    /// pattern that holds it. `None`, leaving nothing to replay, if the
    /// e-graph has no pending delta (none was started, or
    /// [`EGraph::retain_nodes`] ended it) or `levels` is empty.
    pub(crate) fn new<L: Language>(egraph: &EGraph<L>, levels: &[u64]) -> Option<Self> {
        let delta = egraph.delta()?;
        let &ops = levels.first()?;
        debug_assert!(egraph.is_clean(), "the cone is computed after a rebuild");
        assert!(
            levels.len() < usize::from(FAR),
            "pattern too deep for the cone"
        );
        let mut slot = [0; 64];
        for (k, bit) in set_bits(ops).enumerate() {
            slot[bit as usize] = k as u8;
        }
        let mut cone = Cone {
            old: delta.old,
            ops,
            slot,
            row_of: vec![UNREACHED; egraph.class_slots()],
            seen: Vec::new(),
            levels: Vec::new(),
        };
        let follows = |node: &L, ops: u64| ops & 1 << node.operator_bit() != 0;
        // Level 0: each touched class, and for a merge its parents too,
        // since a merge counts one level further down than a gain.
        let mut frontier = Vec::new();
        for (&id, touch) in &delta.touched {
            debug_assert_eq!(id, egraph.find(id), "touched classes are canonical");
            if touch.merged {
                cone.reach(id, 0, ops, &mut frontier);
                for (node, parent) in egraph.parents(id) {
                    if follows(node, ops) {
                        cone.reach(egraph.find(*parent), 0, ops, &mut frontier);
                    }
                }
            } else {
                cone.reach(id, 0, touch.gained & ops, &mut frontier);
            }
        }
        // Each further level, one e-node up, expanding each class once
        // with the operators that first reached it at the level below:
        // an operator reaches a class first at its least distance, so
        // later arrivals add nothing. A root `level` levels up sees the
        // change only through a pattern deeper than `level`, so the
        // e-node climbed belongs to such a pattern too.
        let mut next = Vec::new();
        for (level, &alive) in levels.iter().enumerate().skip(1) {
            for &id in &frontier {
                let bits = cone.arrived(id, level - 1) & alive;
                if bits == 0 {
                    continue;
                }
                // A parent class often lists several e-nodes in a row.
                let mut last = None;
                for (node, parent) in egraph.parents(id) {
                    if follows(node, alive) {
                        let parent = egraph.find(*parent);
                        if last != Some(parent) {
                            cone.reach(parent, level, bits, &mut next);
                            last = Some(parent);
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        Some(cone)
    }

    /// The bytes of `levels` a row spans: one per tracked operator.
    fn width(&self) -> usize {
        self.ops.count_ones() as usize
    }

    /// The row of class `id`'s bytes in `levels`, which must be reached.
    fn row(&self, id: Id) -> std::ops::Range<usize> {
        let start = self.row_of[id.index()] as usize * self.width();
        start..start + self.width()
    }

    /// The tracked operators whose touch first reached class `id` at
    /// `level`.
    fn arrived(&self, id: Id, level: usize) -> u64 {
        set_bits(self.ops)
            .zip(&self.levels[self.row(id)])
            .filter(|&(_, &at)| usize::from(at) == level)
            .fold(0, |arrived, (bit, _)| arrived | 1 << bit)
    }

    /// Records that touches of the operators `bits` lie `level` levels
    /// below class `id`, queueing the class for the next level the first
    /// time operators it did not hold yet arrive at this one.
    fn reach(&mut self, id: Id, level: usize, bits: u64, next: &mut Vec<Id>) {
        if bits == 0 {
            return;
        }
        let row = match self.row_of[id.index()] {
            UNREACHED => {
                let row = self.seen.len();
                self.seen.push(0);
                self.levels.resize(self.levels.len() + self.width(), FAR);
                self.row_of[id.index()] = u32::try_from(row).expect("row count fits u32");
                row
            }
            row => row as usize,
        };
        let fresh = bits & !self.seen[row];
        if fresh == 0 {
            return;
        }
        let queued = self.seen[row] != 0 && self.arrived(id, level) != 0;
        self.seen[row] |= fresh;
        let range = self.row(id);
        for (bit, at) in set_bits(self.ops).zip(&mut self.levels[range]) {
            if fresh & 1 << bit != 0 {
                *at = level as u8;
            }
        }
        if !queued {
            next.push(id);
        }
    }

    /// Whether a change reaches root `id` for a pattern over operators
    /// `ops` with e-node depth `depth`, or `id` was created since the
    /// last search.
    fn dirty(&self, id: Id, ops: u64, depth: usize) -> bool {
        if id.index() >= self.old {
            return true;
        }
        if self.row_of[id.index()] == UNREACHED {
            return false;
        }
        let levels = &self.levels[self.row(id)];
        set_bits(ops).any(|bit| usize::from(levels[usize::from(self.slot[bit as usize])]) < depth)
    }
}

/// The set bits of `mask`, ascending.
fn set_bits(mask: u64) -> impl Iterator<Item = u32> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            bit
        })
    })
}

/// What a rule's last complete search found, root by root: the match
/// count of every candidate root that matched, and the roots whose run
/// the work budget or the match cap cut short. Every other candidate
/// matched nothing. Ids ascend, as candidates do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SearchRecord {
    matched: Vec<(Id, u32)>,
    truncated: Vec<Id>,
}

impl SearchRecord {
    /// Records that candidate `id`, the largest so far, ran to the end
    /// with `count` matches.
    pub(crate) fn complete(&mut self, id: Id, count: usize) {
        if count > 0 {
            self.matched
                .push((id, u32::try_from(count).expect("a class's matches fit u32")));
        }
    }

    /// Records that candidate `id`'s run was cut short.
    pub(crate) fn truncate(&mut self, id: Id) {
        self.truncated.push(id);
    }
}

/// What a search needs to replay clean roots: the changes' [`Cone`]
/// and each rule's [`SearchRecord`] from the last search, in rule
/// order (`None` for a rule whose next search must be full).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Replay<'a> {
    pub(crate) cone: &'a Cone,
    pub(crate) records: &'a [Option<SearchRecord>],
}

/// Walks one rule's record alongside its ascending candidates and
/// answers, per candidate, whether its count can be replayed.
pub(crate) struct Replayer<'a> {
    cone: &'a Cone,
    record: &'a SearchRecord,
    ops: u64,
    depth: usize,
    matched: usize,
    truncated: usize,
}

impl<'a> Replayer<'a> {
    /// A replayer for a pattern over operators `ops` with e-node depth
    /// `depth`.
    pub(crate) fn new(cone: &'a Cone, record: &'a SearchRecord, ops: u64, depth: usize) -> Self {
        Replayer {
            cone,
            record,
            ops,
            depth,
            matched: 0,
            truncated: 0,
        }
    }

    /// The match count to replay for candidate root `id`, or `None` if
    /// it must be searched. Candidates must come in ascending order.
    pub(crate) fn count(&mut self, id: Id) -> Option<usize> {
        let truncated = &self.record.truncated;
        while truncated.get(self.truncated).is_some_and(|&t| t < id) {
            self.truncated += 1;
        }
        let matched = &self.record.matched;
        while matched.get(self.matched).is_some_and(|&(m, _)| m < id) {
            self.matched += 1;
        }
        if truncated.get(self.truncated) == Some(&id) || self.cone.dirty(id, self.ops, self.depth) {
            return None;
        }
        Some(match matched.get(self.matched) {
            Some(&(m, count)) if m == id => count as usize,
            _ => 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::RuleSearch;
    use crate::{CancelToken, Pattern, SymbolLang};

    type EG = EGraph<SymbolLang>;

    fn pat(s: &str) -> Pattern<SymbolLang> {
        s.parse().unwrap()
    }

    fn search(
        p: &Pattern<SymbolLang>,
        eg: &EG,
        since: Option<(&Cone, &SearchRecord)>,
    ) -> RuleSearch {
        p.search_since(eg, usize::MAX, &CancelToken::new(), since)
            .unwrap()
    }

    /// The cone of the changes since `eg`'s last `start_delta`, for `p`.
    fn cone(eg: &EG, p: &Pattern<SymbolLang>) -> Cone {
        Cone::new(eg, &vec![p.ops(); p.depth()]).unwrap()
    }

    fn add(eg: &mut EG, s: &str) -> Id {
        eg.add_expr(&s.parse().unwrap())
    }

    #[test]
    fn distances_bound_what_a_change_reaches() {
        // `(f (g ?x))` has depth 2: a merge reaches two levels up, an
        // operator gain of `f` or `g` one level.
        let p = pat("(f (g ?x))");
        assert_eq!(p.depth(), 2);
        let mut eg = EG::default();
        let roots: Vec<Id> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|leaf| add(&mut eg, &format!("(f (g {leaf}))")))
            .collect();
        let spare = add(&mut eg, "s");
        eg.rebuild();
        eg.start_delta();
        let class = |eg: &EG, s: &str| eg.lookup_expr(&s.parse().unwrap()).unwrap();
        // a, two levels down, gains `f` from a new class: too deep for
        // a gain.
        let fz = add(&mut eg, "(f z)");
        eg.union(class(&eg, "a"), fz);
        // (g b), one level down, gains an operator the pattern lacks
        // (`SymbolLang` hashes names to bits, so pick one apart).
        let other = ["h", "k", "p", "q"]
            .into_iter()
            .find(|op| p.ops() & 1 << SymbolLang::leaf(*op).operator_bit() == 0)
            .unwrap();
        let hz = add(&mut eg, &format!("({other} z)"));
        eg.union(class(&eg, "(g b)"), hz);
        // (g c), one level down, gains `g`.
        let gz = add(&mut eg, "(g z)");
        eg.union(class(&eg, "(g c)"), gz);
        // d, two levels down, merges with an old class.
        eg.union(class(&eg, "d"), spare);
        eg.rebuild();
        let cone = cone(&eg, &p);
        let dirty: Vec<bool> = roots
            .iter()
            .map(|&r| cone.dirty(eg.find(r), p.ops(), p.depth()))
            .collect();
        assert_eq!(dirty, [false, false, true, true, false]);
        // A new root is dirty, whatever reaches it.
        let fresh = add(&mut eg, "(f (g y))");
        eg.rebuild();
        assert!(cone.dirty(eg.find(fresh), p.ops(), p.depth()));
    }

    #[test]
    fn clean_roots_replay_their_counts_and_new_roots_are_searched() {
        let p = pat("(f ?x ?y)");
        let mut eg = EG::default();
        add(&mut eg, "(f a b)");
        add(&mut eg, "(f c d)");
        add(&mut eg, "(k a)");
        eg.rebuild();
        eg.start_delta();
        let first = search(&p, &eg, None);
        assert_eq!(first.stats.replayed, 0);
        let record = first.record.expect("a complete search leaves a record");
        let new = add(&mut eg, "(f e e)");
        eg.rebuild();
        let cone = cone(&eg, &p);
        let next = search(&p, &eg, Some((&cone, &record)));
        assert_eq!(next.stats.replayed, 2);
        assert_eq!(next.replayed_matches, 2);
        assert_eq!(next.total_matches(), 3);
        // Only the new root was searched and returns its substitution.
        assert_eq!(next.matches.len(), 1);
        assert_eq!(next.matches[0].eclass, eg.find(new));
        assert_eq!(next.record, search(&p, &eg, None).record);
    }

    #[test]
    fn truncated_roots_are_always_searched() {
        // Every root of the probe runs out of budget, and every root of
        // the open pattern stops at the match cap: nothing changes, yet
        // nothing is replayed.
        let (mut eg, probe) = crate::machine::tests::explosive_workload(3, 400);
        eg.start_delta();
        for p in [probe, pat("(g (f ?x) (f ?y) ?t)")] {
            let first = search(&p, &eg, None);
            let truncated = first.stats.budget_exhausted + first.stats.capped;
            assert_eq!(truncated, 3);
            let record = first.record.unwrap();
            let next = search(&p, &eg, Some((&cone(&eg, &p), &record)));
            assert_eq!(next.stats.replayed, 0);
            assert_eq!(next.stats, first.stats);
        }
    }

    #[test]
    fn a_search_cut_by_its_limit_or_a_missing_ground_probe_leaves_no_record() {
        let mut eg = EG::default();
        for i in 0..4 {
            add(&mut eg, &format!("(f a{i} b)"));
        }
        eg.rebuild();
        let p = pat("(f ?x ?y)");
        let cut = p.search_since(&eg, 1, &CancelToken::new(), None).unwrap();
        assert!(cut.record.is_none());
        assert!(search(&pat("(f ?x c)"), &eg, None).record.is_none());
        assert!(search(&p, &eg, None).record.is_some());
    }
}
