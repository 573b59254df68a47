//! Patterns over a [`Language`], compiled to e-matching VM programs.
//!
//! Searching is performed by the compiled abstract machine in
//! [`crate::machine`]; the legacy recursive backtracking matcher is
//! retained behind the `oracle` feature (and in unit tests) purely as
//! a differential-testing oracle.
//!
//! Each pattern also knows its cone's shape, its operators and its
//! e-node depth, which decide which candidate roots a semi-naive search
//! must visit and which it replays ([`Pattern::search_since`],
//! [`crate::delta`]): a root is searched if it is new, if its last run
//! was cut short, or if a merge lies within the depth below it or a
//! class that gained one of the operators lies one level closer.

use std::fmt;
use std::str::FromStr;

use crate::delta::{Cone, Replayer, SearchRecord};
use crate::machine::{Program, RuleSearch, RunOutcome, SearchStats, CANCEL_CHECK_QUANTUM};
use crate::recexpr::{parse_sexp, Sexp};
use crate::{CancelToken, EGraph, FromOp, Id, Language, ParseRecExprError, RecExpr, Symbol};

/// A pattern variable, written `?name` in pattern syntax.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Symbol);

impl Var {
    /// Creates a variable from its name (without the leading `?`).
    pub fn new(name: impl Into<Symbol>) -> Self {
        Var(name.into())
    }

    /// The variable's name (without the leading `?`).
    pub fn name(self) -> &'static str {
        self.0.as_str()
    }
}

impl FromStr for Var {
    type Err = ParseRecExprError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix('?') {
            Some(rest) if !rest.is_empty() => Ok(Var::new(rest)),
            _ => Err(ParseRecExprError::new(format!(
                "pattern variable must look like `?x`, got `{s}`"
            ))),
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A node in a pattern: either a concrete e-node or a variable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ENodeOrVar<L> {
    /// A concrete operator whose children are pattern nodes.
    ENode(L),
    /// A pattern variable.
    Var(Var),
}

impl<L: Language> Language for ENodeOrVar<L> {
    type Discriminant = Option<L::Discriminant>;

    fn discriminant(&self) -> Self::Discriminant {
        match self {
            ENodeOrVar::ENode(n) => Some(n.discriminant()),
            ENodeOrVar::Var(_) => None,
        }
    }

    /// A variable has no operator; patterns never enter an e-graph, so
    /// its bit is never read.
    fn operator_bit(&self) -> u32 {
        match self {
            ENodeOrVar::ENode(n) => n.operator_bit(),
            ENodeOrVar::Var(_) => 0,
        }
    }

    fn children(&self) -> &[Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children(),
            ENodeOrVar::Var(_) => &[],
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children_mut(),
            ENodeOrVar::Var(_) => &mut [],
        }
    }
}

impl<L: Language> fmt::Display for ENodeOrVar<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ENodeOrVar::ENode(n) => write!(f, "{n}"),
            ENodeOrVar::Var(v) => write!(f, "{v}"),
        }
    }
}

/// A substitution from pattern variables to e-class ids.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Subst {
    vec: Vec<(Var, Id)>,
}

impl Subst {
    /// Creates an empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a substitution from distinct `(var, id)` pairs (the VM's
    /// match materialization; callers guarantee distinctness).
    pub(crate) fn from_pairs(vec: Vec<(Var, Id)>) -> Self {
        debug_assert!(
            vec.iter()
                .enumerate()
                .all(|(i, (v, _))| vec[..i].iter().all(|(u, _)| u != v)),
            "from_pairs requires distinct variables"
        );
        Subst { vec }
    }

    /// Binds `var` to `id`, returning the previous binding if any.
    pub fn insert(&mut self, var: Var, id: Id) -> Option<Id> {
        for pair in &mut self.vec {
            if pair.0 == var {
                return Some(std::mem::replace(&mut pair.1, id));
            }
        }
        self.vec.push((var, id));
        None
    }

    /// Looks up the binding of `var`.
    pub fn get(&self, var: Var) -> Option<Id> {
        self.vec.iter().find(|(v, _)| *v == var).map(|(_, id)| *id)
    }

    /// Iterates over `(var, id)` bindings.
    pub fn iter(&self) -> std::slice::Iter<'_, (Var, Id)> {
        self.vec.iter()
    }

    pub(crate) fn canonicalize<L: Language>(&mut self, egraph: &EGraph<L>) {
        for (_, id) in &mut self.vec {
            *id = egraph.find(*id);
        }
        self.vec.sort_unstable();
    }
}

impl std::ops::Index<Var> for Subst {
    type Output = Id;
    fn index(&self, var: Var) -> &Id {
        self.vec
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, id)| id)
            .unwrap_or_else(|| panic!("var {var} not bound in subst"))
    }
}

/// The matches a pattern found in one e-class.
#[derive(Debug, Clone)]
pub struct SearchMatches {
    /// The matched e-class.
    pub eclass: Id,
    /// The distinct substitutions under which the pattern matches.
    pub substs: Vec<Subst>,
}

/// Error from parsing a [`Pattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError(ParseRecExprError);

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pattern: {}", self.0)
    }
}

impl std::error::Error for ParsePatternError {}

impl From<ParseRecExprError> for ParsePatternError {
    fn from(e: ParseRecExprError) -> Self {
        ParsePatternError(e)
    }
}

/// A pattern over language `L`: an expression with variables.
///
/// Patterns are parsed from s-expressions where atoms starting with `?`
/// are variables:
///
/// ```
/// use egraph::{Pattern, SymbolLang};
/// let p: Pattern<SymbolLang> = "(+ ?a (* ?b ?a))".parse().unwrap();
/// assert_eq!(p.vars().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Pattern<L> {
    /// The pattern expression; the root is the last node.
    pub ast: RecExpr<ENodeOrVar<L>>,
    vars: Vec<Var>,
    /// The e-matching VM program this pattern compiles to (built once,
    /// at construction).
    program: Program<L>,
    /// The operator bits of the pattern's e-nodes: the `O` of its cone
    /// (see [`crate::delta`]).
    ops: u64,
    /// The pattern's e-node depth, the `D` of its cone: 1 for a single
    /// operator over variables.
    depth: usize,
}

impl<L: Language> PartialEq for Pattern<L> {
    fn eq(&self, other: &Self) -> bool {
        self.ast == other.ast
    }
}

impl<L: Language> Eq for Pattern<L> {}

impl<L: Language> Pattern<L> {
    /// Creates a pattern from its AST, compiling it to a VM
    /// [`Program`].
    pub fn new(ast: RecExpr<ENodeOrVar<L>>) -> Self {
        let mut vars = Vec::new();
        for node in ast.iter() {
            if let ENodeOrVar::Var(v) = node {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        let program = Program::compile(&ast);
        let mut ops = 0;
        let mut depths: Vec<usize> = Vec::with_capacity(ast.len());
        for node in ast.iter() {
            let depth = match node {
                ENodeOrVar::Var(_) => 0,
                ENodeOrVar::ENode(n) => {
                    ops |= 1 << n.operator_bit();
                    1 + n
                        .children()
                        .iter()
                        .map(|c| depths[c.index()])
                        .max()
                        .unwrap_or(0)
                }
            };
            depths.push(depth);
        }
        let depth = depths[ast.root().index()];
        Self {
            ast,
            vars,
            program,
            ops,
            depth,
        }
    }

    /// The operator bits of the pattern's e-nodes.
    pub(crate) fn ops(&self) -> u64 {
        self.ops
    }

    /// The pattern's e-node depth.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// The distinct variables in this pattern, in first-occurrence order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The compiled e-matching program.
    pub fn program(&self) -> &Program<L> {
        &self.program
    }

    /// Searches the whole e-graph for matches: the same search the
    /// runner makes through [`search_rules`](crate::search_rules), with
    /// no match limit and no cancellation.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (see [`EGraph::rebuild`]), or
    /// if the pattern is a bare variable such as `?x`, which has no
    /// root operator to select candidate classes by.
    pub fn search(&self, egraph: &EGraph<L>) -> Vec<SearchMatches> {
        self.search_interruptible(egraph, usize::MAX, &CancelToken::new())
            .expect("a search with a fresh cancel token runs to completion")
            .0
    }

    /// [`Pattern::search_since`] with nothing to replay, as matches
    /// and stats.
    pub(crate) fn search_interruptible(
        &self,
        egraph: &EGraph<L>,
        limit: usize,
        cancel: &CancelToken,
    ) -> Option<(Vec<SearchMatches>, SearchStats)> {
        self.search_since(egraph, limit, cancel, None)
            .map(|found| (found.matches, found.stats))
    }

    /// Searches every class holding the root operator, stopping once
    /// more than `limit` substitutions have been counted (the boundary
    /// class is kept whole). The [`CancelToken`] is polled *inside*
    /// the matching VM (every [`crate::machine::CANCEL_CHECK_QUANTUM`]
    /// budget units) and, on the same quantum, between candidate
    /// classes: before the first one, then before the first class
    /// after each further quantum of units spent. So even a single
    /// explosive rule search, or a long run of small classes, stops
    /// promptly, whether the token's flag is set or its deadline
    /// passes, without a clock read per class. Returns `None` if the
    /// search was interrupted — a partial match set is never returned.
    ///
    /// With `since`, the [`Cone`] of the changes since this pattern's
    /// last search and that search's [`SearchRecord`], each clean
    /// candidate root (see [`crate::delta`]) is not searched: its
    /// match count from the record is added to the running total in
    /// candidate order, so the limit cuts exactly where a full search
    /// would, and its substitutions, which the last search's rule
    /// application already applied, are left out of the matches. The
    /// returned [`RuleSearch`] counts those roots in
    /// [`SearchStats::replayed`] and their matches in
    /// [`RuleSearch::replayed_matches`], and carries this search's own
    /// record unless the limit cut it short or a ground probe missed.
    ///
    /// The ground probes (the `Build`s of variable-free subterms, such
    /// as the `true` of `(& ?a true)`) run once, before any candidate,
    /// and are charged once to the search's visits, not to a class's
    /// budget; if one misses, the search ends with no matches.
    ///
    /// Each searched candidate class gets its own [`MATCH_WORK_BUDGET`]
    /// and at most [`MAX_SUBSTS_PER_CLASS`] matches, which contains the
    /// worst-case backtracking blow-up on very large e-classes;
    /// truncation is deterministic, and a root it cut is searched again
    /// next time, never replayed.
    ///
    /// # Panics
    ///
    /// As [`Pattern::search`].
    pub(crate) fn search_since(
        &self,
        egraph: &EGraph<L>,
        limit: usize,
        cancel: &CancelToken,
        since: Option<(&Cone, &SearchRecord)>,
    ) -> Option<RuleSearch> {
        assert!(
            egraph.is_clean(),
            "search requires a clean (rebuilt) e-graph"
        );
        let mut found = RuleSearch::default();
        let stats = &mut found.stats;
        // Ground probes do not depend on the candidate class: run them
        // once, and if one misses, no class can match.
        let mut regs = Vec::new();
        let (probes, ground) = self.program.probe_ground(egraph, &mut regs);
        stats.visits += probes;
        if !ground {
            return Some(found);
        }
        let mut replayer =
            since.map(|(cone, record)| Replayer::new(cone, record, self.ops, self.depth));
        let mut record = SearchRecord::default();
        let mut total = 0usize;
        // Only classes containing the root operator can match; use the
        // e-graph's operator index to skip the rest.
        // The in-VM poll only triggers on budget quanta *within* a
        // class; polling here too, once per quantum spent across
        // classes, keeps cancellation latency bounded over runs of
        // small classes. The first candidate is always polled, so a
        // token that is already cancelled or expired stops at once.
        let mut next_poll = 0;
        for &id in egraph.classes_with_op(&self.root_op()) {
            if stats.visits >= next_poll {
                if cancel.is_cancelled() {
                    return None;
                }
                next_poll = stats.visits + CANCEL_CHECK_QUANTUM;
            }
            if let Some(count) = replayer.as_mut().and_then(|r| r.count(id)) {
                stats.replayed += 1;
                found.replayed_matches += count;
                total += count;
                record.complete(id, count);
            } else {
                let mut budget = MATCH_WORK_BUDGET;
                let (m, outcome) = self.run_vm_on_class(egraph, id, &mut regs, &mut budget, cancel);
                stats.visits += MATCH_WORK_BUDGET - budget;
                let count = m.as_ref().map_or(0, |m| m.substs.len());
                match outcome {
                    RunOutcome::Complete => record.complete(id, count),
                    RunOutcome::BudgetExhausted => {
                        stats.budget_exhausted += 1;
                        record.truncate(id);
                    }
                    RunOutcome::SubstLimit => {
                        stats.capped += 1;
                        record.truncate(id);
                    }
                    RunOutcome::Cancelled => return None,
                }
                total += count;
                found.matches.extend(m);
            }
            if total > limit {
                return Some(found);
            }
        }
        found.record = Some(record);
        Some(found)
    }

    /// The operator at the pattern's root, which selects a search's
    /// candidate classes.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is a bare variable.
    fn root_op(&self) -> L::Discriminant {
        match &self.ast[self.ast.root()] {
            ENodeOrVar::ENode(n) => n.discriminant(),
            ENodeOrVar::Var(v) => panic!("the bare-variable pattern {v} cannot be searched"),
        }
    }

    /// Runs the compiled program on one candidate class, spending from
    /// `budget`, and packages surviving matches (canonicalized, sorted,
    /// deduplicated).
    fn run_vm_on_class(
        &self,
        egraph: &EGraph<L>,
        eclass: Id,
        regs: &mut Vec<Id>,
        budget: &mut usize,
        cancel: &CancelToken,
    ) -> (Option<SearchMatches>, RunOutcome) {
        let eclass = egraph.find(eclass);
        let mut substs = Vec::new();
        let outcome = self.program.run(
            egraph,
            eclass,
            regs,
            &mut substs,
            budget,
            MAX_SUBSTS_PER_CLASS,
            cancel,
        );
        for s in &mut substs {
            s.canonicalize(egraph);
        }
        substs.sort_unstable();
        substs.dedup();
        let matches = if substs.is_empty() {
            None
        } else {
            Some(SearchMatches { eclass, substs })
        };
        (matches, outcome)
    }

    /// Instantiates the pattern under `subst`, adding e-nodes to the
    /// e-graph; returns the root class.
    ///
    /// # Panics
    ///
    /// Panics if a pattern variable is unbound in `subst`.
    pub fn instantiate(&self, egraph: &mut EGraph<L>, subst: &Subst) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        for node in self.ast.iter() {
            let id = match node {
                ENodeOrVar::Var(v) => subst[*v],
                ENodeOrVar::ENode(n) => {
                    let n = n.map_children(|c| ids[c.index()]);
                    egraph.add(n)
                }
            };
            ids.push(id);
        }
        *ids.last().expect("patterns are non-empty")
    }
}

/// The deterministic cap on substitutions explored per e-class.
pub const MAX_SUBSTS_PER_CLASS: usize = 256;

/// The deterministic cap on matcher *work* per candidate e-class, in
/// budget units: one per e-node of the VM `Bind`'s operator (a
/// `Bind` walks only its operator's run of a class's sorted e-nodes)
/// and one per hash-cons probe a VM `Build` makes after the ground
/// probes, which run once per search (see [`crate::machine`]).
/// Backtracking over several wide e-classes multiplies, so output caps
/// alone do not bound the scan cost. The recursive oracle charges one unit per
/// e-node it visits, and visits the e-nodes of bound subterms the VM
/// probes instead, so the two agree only where neither runs out.
pub const MATCH_WORK_BUDGET: usize = 50_000;

#[cfg(any(test, feature = "oracle"))]
impl<L: Language> Pattern<L> {
    /// Searches the whole e-graph with the *legacy recursive
    /// backtracking matcher* — retained only as a differential-testing
    /// oracle for the compiled VM (enable the `oracle` feature to use
    /// it from other crates' tests). No limits beyond the per-class
    /// caps are applied.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (see [`EGraph::rebuild`]).
    pub fn search_oracle(&self, egraph: &EGraph<L>) -> Vec<SearchMatches> {
        self.search_oracle_with_limit(egraph, usize::MAX)
    }

    /// [`Pattern::search_oracle`] with the VM driver's limit semantics
    /// (see [`Pattern::search_interruptible`]): classes in the same order,
    /// stopping once more than `limit` substitutions were collected,
    /// the boundary class kept whole.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean (see [`EGraph::rebuild`]).
    pub(crate) fn search_oracle_with_limit(
        &self,
        egraph: &EGraph<L>,
        limit: usize,
    ) -> Vec<SearchMatches> {
        assert!(
            egraph.is_clean(),
            "search requires a clean (rebuilt) e-graph"
        );
        let mut out = Vec::new();
        let mut total = 0usize;
        for &id in egraph.classes_with_op(&self.root_op()) {
            if let Some(m) = self.search_eclass_oracle(egraph, id) {
                total += m.substs.len();
                out.push(m);
            }
            if total > limit {
                break;
            }
        }
        out
    }

    /// Searches one e-class with the legacy recursive matcher (see
    /// [`Pattern::search_oracle`]).
    fn search_eclass_oracle(&self, egraph: &EGraph<L>, eclass: Id) -> Option<SearchMatches> {
        let eclass = egraph.find(eclass);
        let mut substs = Vec::new();
        let mut budget = MATCH_WORK_BUDGET;
        match_pattern(
            egraph,
            &self.ast,
            self.ast.root(),
            eclass,
            &Subst::new(),
            &mut substs,
            &mut budget,
        );
        for s in &mut substs {
            s.canonicalize(egraph);
        }
        substs.sort_unstable();
        substs.dedup();
        if substs.is_empty() {
            None
        } else {
            Some(SearchMatches { eclass, substs })
        }
    }
}

/// Recursively matches pattern node `pat_id` against e-class `eclass`,
/// extending `subst`; pushes every complete substitution into `out`
/// (up to [`MAX_SUBSTS_PER_CLASS`], spending at most `budget` e-node
/// visits).
#[cfg(any(test, feature = "oracle"))]
#[allow(clippy::too_many_arguments)]
fn match_pattern<L: Language>(
    egraph: &EGraph<L>,
    ast: &RecExpr<ENodeOrVar<L>>,
    pat_id: Id,
    eclass: Id,
    subst: &Subst,
    out: &mut Vec<Subst>,
    budget: &mut usize,
) {
    if out.len() >= MAX_SUBSTS_PER_CLASS || *budget == 0 {
        return;
    }
    match &ast[pat_id] {
        ENodeOrVar::Var(v) => {
            let eclass = egraph.find(eclass);
            match subst.get(*v) {
                Some(bound) if egraph.find(bound) != eclass => {}
                Some(_) => out.push(subst.clone()),
                None => {
                    let mut s = subst.clone();
                    s.insert(*v, eclass);
                    out.push(s);
                }
            }
        }
        ENodeOrVar::ENode(pat_node) => {
            let class = egraph.eclass(eclass);
            for enode in class.iter() {
                if out.len() >= MAX_SUBSTS_PER_CLASS || *budget == 0 {
                    return;
                }
                *budget -= 1;
                if !pat_node.matches(enode) {
                    continue;
                }
                // Match children pairwise, threading substitutions.
                let mut partial = vec![subst.clone()];
                for (&pat_child, &eclass_child) in pat_node.children().iter().zip(enode.children())
                {
                    if partial.is_empty() {
                        break;
                    }
                    let mut next = Vec::new();
                    for s in &partial {
                        if next.len() >= MAX_SUBSTS_PER_CLASS || *budget == 0 {
                            break;
                        }
                        match_pattern(egraph, ast, pat_child, eclass_child, s, &mut next, budget);
                    }
                    partial = next;
                }
                out.extend(partial);
            }
        }
    }
}

fn sexp_into_pattern<L: FromOp>(
    sexp: &Sexp,
    expr: &mut RecExpr<ENodeOrVar<L>>,
) -> Result<Id, ParseRecExprError> {
    match sexp {
        Sexp::Atom(atom) if atom.starts_with('?') => {
            let var: Var = atom.parse()?;
            Ok(expr.add(ENodeOrVar::Var(var)))
        }
        Sexp::Atom(op) => {
            let node = L::from_op(op, vec![]).map_err(|e| ParseRecExprError::new(e.to_string()))?;
            Ok(expr.add(ENodeOrVar::ENode(node)))
        }
        Sexp::List(items) => {
            let op = match &items[0] {
                Sexp::Atom(op) if !op.starts_with('?') => op,
                _ => {
                    return Err(ParseRecExprError::new(
                        "operator position must be a non-variable atom",
                    ))
                }
            };
            let children = items[1..]
                .iter()
                .map(|s| sexp_into_pattern(s, expr))
                .collect::<Result<Vec<Id>, _>>()?;
            // Children of the L node refer to pattern-AST ids.
            let node =
                L::from_op(op, children).map_err(|e| ParseRecExprError::new(e.to_string()))?;
            Ok(expr.add(ENodeOrVar::ENode(node)))
        }
    }
}

impl<L: FromOp> FromStr for Pattern<L> {
    type Err = ParsePatternError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sexp = parse_sexp(s)?;
        let mut ast = RecExpr::default();
        sexp_into_pattern(&sexp, &mut ast)?;
        Ok(Pattern::new(ast))
    }
}

impl<L: Language> fmt::Display for Pattern<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ast)
    }
}

impl<L: Language> From<&RecExpr<L>> for Pattern<L> {
    /// Converts a concrete expression into a variable-free pattern.
    fn from(expr: &RecExpr<L>) -> Self {
        let mut ast = RecExpr::default();
        for node in expr.iter() {
            ast.add(ENodeOrVar::ENode(node.clone()));
        }
        Pattern::new(ast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    type EG = EGraph<SymbolLang>;

    fn pat(s: &str) -> Pattern<SymbolLang> {
        s.parse().unwrap()
    }

    #[test]
    fn parse_pattern_vars() {
        let p = pat("(+ ?a (* ?b ?a))");
        assert_eq!(p.vars(), &[Var::new("a"), Var::new("b")]);
        assert_eq!(p.to_string(), "(+ ?a (* ?b ?a))");
    }

    #[test]
    fn parse_pattern_errors() {
        assert!("(?f x)".parse::<Pattern<SymbolLang>>().is_err());
        assert!("?".parse::<Pattern<SymbolLang>>().is_err());
    }

    #[test]
    fn simple_search() {
        let mut eg = EG::default();
        let expr: RecExpr<SymbolLang> = "(+ x y)".parse().unwrap();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let p = pat("(+ ?a ?b)");
        let matches = p.search(&eg);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(root));
        assert_eq!(matches[0].substs.len(), 1);
        let s = &matches[0].substs[0];
        let x = eg.lookup(&SymbolLang::leaf("x")).unwrap();
        let y = eg.lookup(&SymbolLang::leaf("y")).unwrap();
        assert_eq!(s[Var::new("a")], x);
        assert_eq!(s[Var::new("b")], y);
    }

    #[test]
    fn nonlinear_pattern_requires_equality() {
        let mut eg = EG::default();
        let xy = eg.add_expr(&"(+ x y)".parse().unwrap());
        let xx = eg.add_expr(&"(+ x x)".parse().unwrap());
        eg.rebuild();
        let p = pat("(+ ?a ?a)");
        let matches = p.search(&eg);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(xx));
        assert_ne!(matches[0].eclass, eg.find(xy));
    }

    #[test]
    fn search_across_union_finds_all_shapes() {
        let mut eg = EG::default();
        let a = eg.add_expr(&"(+ x y)".parse().unwrap());
        let b = eg.add_expr(&"(* x y)".parse().unwrap());
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(pat("(+ ?a ?b)").search(&eg).len(), 1);
        assert_eq!(pat("(* ?a ?b)").search(&eg).len(), 1);
        // A pattern whose subterm matches via the union:
        let c = eg.add_expr(&"(f (* x y))".parse().unwrap());
        eg.rebuild();
        let m = pat("(f (+ ?a ?b))").search(&eg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].eclass, eg.find(c));
    }

    #[test]
    fn multiple_substs_in_one_class() {
        let mut eg = EG::default();
        let a = eg.add_expr(&"(+ x y)".parse().unwrap());
        let b = eg.add_expr(&"(+ y x)".parse().unwrap());
        eg.union(a, b);
        eg.rebuild();
        let m = pat("(+ ?a ?b)").search(&eg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].substs.len(), 2);
    }

    #[test]
    fn instantiate_adds_term() {
        let mut eg = EG::default();
        let root = eg.add_expr(&"(+ x y)".parse().unwrap());
        eg.rebuild();
        let search = pat("(+ ?a ?b)");
        let substs = search.search(&eg)[0].substs.clone();
        let apply = pat("(+ ?b ?a)");
        let new_id = apply.instantiate(&mut eg, &substs[0]);
        eg.rebuild();
        let swapped = eg.lookup_expr(&"(+ y x)".parse().unwrap());
        assert_eq!(swapped, Some(eg.find(new_id)));
        // Not yet unioned with the original.
        assert_ne!(eg.find(new_id), eg.find(root));
    }

    #[test]
    #[should_panic(expected = "the bare-variable pattern ?a cannot be searched")]
    fn var_pattern_search_panics() {
        let mut eg = EG::default();
        eg.add_expr(&"(+ x y)".parse().unwrap());
        eg.rebuild();
        pat("?a").search(&eg);
    }
}
