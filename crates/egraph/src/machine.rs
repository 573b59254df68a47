//! The compiled e-matching virtual machine.
//!
//! Following the abstract-machine design of egg (Willsey et al., POPL
//! 2021), every [`Pattern`] is compiled **once** (at
//! construction) into a linear [`Program`] of instructions executed
//! against a bank of registers holding e-class [`Id`]s:
//!
//! * [`Instruction::Bind`] — iterate the e-nodes of the class in
//!   register `i` that match a pattern operator, writing each node's
//!   children into fresh registers (the only backtracking point);
//! * [`Instruction::Compare`] — require two registers to name the same
//!   e-class (non-linear patterns, e.g. `(& ?a ?a)`);
//! * [`Instruction::Build`] — rebuild one e-node from registers and
//!   probe the e-graph's hash-cons `memo` for its class. A subpattern
//!   whose variables are all bound by earlier instructions compiles to
//!   a bottom-up chain of `Build`s followed by one `Compare`, instead
//!   of `Bind`s: in a clean e-graph a bound subterm names at most one
//!   canonical e-node, so one probe replaces a scan of every e-node of
//!   the subterm's classes. In `(| (& ?a ?b) (! (& ?a ?b)))`, once
//!   `(& ?a ?b)` has bound `?a` and `?b`, `(! (& ?a ?b))` is two
//!   probes, not two scans. A variable-free subterm, such as the
//!   `true` leaf of `(& ?a true)`, is the vacuous case: a chain whose
//!   leaves are childless `Build`s.
//!
//! Every searched program has one shape: its root is an operator, and
//! the search driver runs it on each class that holds that operator. A
//! bare-variable pattern `?x` has no operator to select classes by, so
//! searching it panics and rewrites reject it as a left-hand side (see
//! [`Rewrite::new`](crate::Rewrite::new)); it remains a valid
//! right-hand side, which is only instantiated.
//!
//! Unlike the classic backtracking matcher this replaces, the VM never
//! allocates or clones a substitution while searching: bindings live in
//! the register bank, and a [`Subst`] is materialized only for each
//! *surviving* match. The work budget
//! ([`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET)), the per-class
//! match cap ([`MAX_SUBSTS_PER_CLASS`](crate::MAX_SUBSTS_PER_CLASS)),
//! and a cooperative [`CancelToken`] are all enforced *inside* the VM
//! loop. One **budget unit** is one e-node a `Bind` visits or one
//! probe a `Build` makes; the token is polled every
//! [`CANCEL_CHECK_QUANTUM`] units, so cancellation latency is bounded
//! by that many units rather than by a whole rule search. The units a
//! search spends are reported as [`SearchStats::visits`].
//!
//! [`search_rules`] drives a whole ruleset: one program per rule, rules
//! spread over a work-stealing thread pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::pattern::ENodeOrVar;
use crate::{CancelToken, EGraph, Id, Language, Pattern, RecExpr, SearchMatches, Subst, Var};

/// A register index in the VM's register bank.
pub type Reg = u16;

/// One instruction of a compiled pattern program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction<L> {
    /// Iterate the e-nodes of class `regs[i]` whose operator and arity
    /// match `node`; for each, write the children into
    /// `regs[out..out + arity]` and continue (backtracking point).
    Bind {
        /// The pattern e-node to match (only its operator and arity
        /// are consulted; its child ids index the pattern AST).
        node: L,
        /// Register holding the class to scan.
        i: Reg,
        /// First output register for the matched node's children.
        out: Reg,
    },
    /// Continue only if `regs[i]` and `regs[j]` are the same class.
    Compare {
        /// First register.
        i: Reg,
        /// Second register.
        j: Reg,
    },
    /// Rebuild `node` with each child id `c` replaced by `regs[c]` and
    /// look it up in the hash-cons memo: continue with its class in
    /// `regs[out]`, or fail this branch if the e-graph has no such
    /// e-node. Never backtracks.
    Build {
        /// The pattern e-node whose child ids are register indices.
        node: L,
        /// Register receiving the e-node's class.
        out: Reg,
    },
}

/// How often (in budget units: `Bind` e-node visits and `Build`
/// probes) the VM polls its [`CancelToken`]: a cancellation request
/// stops the search within one such quantum.
pub const CANCEL_CHECK_QUANTUM: usize = 256;

/// What one rule search spent and where it was cut short.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Budget units spent (see the module docs): `Bind` e-node visits
    /// plus `Build` probes. Deterministic for a given e-graph and
    /// pattern, on any machine and at any thread count.
    pub visits: usize,
    /// Candidate classes whose run stopped on
    /// [`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET).
    pub budget_exhausted: usize,
    /// Candidate classes whose run stopped at
    /// [`MAX_SUBSTS_PER_CLASS`](crate::MAX_SUBSTS_PER_CLASS) matches.
    pub capped: usize,
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, other: Self) {
        self.visits += other.visits;
        self.budget_exhausted += other.budget_exhausted;
        self.capped += other.capped;
    }
}

/// Why a program run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The whole match space was enumerated.
    Complete,
    /// The per-class substitution cap was reached.
    SubstLimit,
    /// The work budget was exhausted.
    BudgetExhausted,
    /// The [`CancelToken`] was set; the driver should stop the whole
    /// search, not just this class.
    Cancelled,
}

/// A pattern compiled to VM instructions (see the module docs).
#[derive(Debug, Clone)]
pub struct Program<L> {
    instructions: Vec<Instruction<L>>,
    /// `(var, register)` pairs in first-occurrence order; materializing
    /// a match reads these registers into a [`Subst`].
    subst_template: Vec<(Var, Reg)>,
    n_regs: usize,
}

impl<L: Language> Program<L> {
    /// Compiles a pattern AST. Instructions follow the pattern's
    /// depth-first preorder (root first, children left to right), which
    /// keeps the VM's match enumeration order aligned with the
    /// classic recursive matcher. A bare variable compiles to no
    /// instructions at all; searches reject such patterns, since they
    /// have no root operator to select candidate classes by.
    pub fn compile(ast: &RecExpr<ENodeOrVar<L>>) -> Self {
        let mut prog = Program {
            instructions: Vec::new(),
            subst_template: Vec::new(),
            n_regs: 1,
        };
        prog.compile_node(ast, ast.root(), 0);
        prog
    }

    fn compile_node(&mut self, ast: &RecExpr<ENodeOrVar<L>>, pat: Id, reg: Reg) {
        match &ast[pat] {
            ENodeOrVar::Var(v) => {
                if let Some(first) = self.var_reg(*v) {
                    self.instructions
                        .push(Instruction::Compare { i: reg, j: first });
                } else {
                    self.subst_template.push((*v, reg));
                }
            }
            ENodeOrVar::ENode(_) if self.all_vars_bound(ast, pat) => {
                let built = self.compile_build(ast, pat);
                self.instructions
                    .push(Instruction::Compare { i: reg, j: built });
            }
            ENodeOrVar::ENode(node) => {
                let out = self.alloc_regs(node.children().len());
                self.instructions.push(Instruction::Bind {
                    node: node.clone(),
                    i: reg,
                    out,
                });
                for (k, &child) in node.children().iter().enumerate() {
                    self.compile_node(ast, child, out + k as Reg);
                }
            }
        }
    }

    /// Emits the bottom-up [`Instruction::Build`] chain that rebuilds
    /// the subterm at `pat` from bound registers (children left to
    /// right, then the node) and returns the register holding its
    /// class.
    fn compile_build(&mut self, ast: &RecExpr<ENodeOrVar<L>>, pat: Id) -> Reg {
        match &ast[pat] {
            ENodeOrVar::Var(v) => self
                .var_reg(*v)
                .expect("bound subterms bind every variable"),
            ENodeOrVar::ENode(node) => {
                let node =
                    node.map_children(|c| Id::from_index(usize::from(self.compile_build(ast, c))));
                let out = self.alloc_regs(1);
                self.instructions.push(Instruction::Build { node, out });
                out
            }
        }
    }

    /// The register holding `v`'s first occurrence, if an earlier
    /// instruction binds it.
    fn var_reg(&self, v: Var) -> Option<Reg> {
        self.subst_template
            .iter()
            .find(|(u, _)| *u == v)
            .map(|&(_, r)| r)
    }

    fn all_vars_bound(&self, ast: &RecExpr<ENodeOrVar<L>>, pat: Id) -> bool {
        match &ast[pat] {
            ENodeOrVar::Var(v) => self.var_reg(*v).is_some(),
            ENodeOrVar::ENode(node) => node.children().iter().all(|&c| self.all_vars_bound(ast, c)),
        }
    }

    /// Reserves `n` consecutive registers and returns the first.
    fn alloc_regs(&mut self, n: usize) -> Reg {
        // Guard the *last* register too, not just the base: `out + n -
        // 1` must stay within `Reg`.
        assert!(
            self.n_regs + n <= usize::from(Reg::MAX) + 1,
            "pattern too large for register file"
        );
        let out = self.n_regs as Reg;
        self.n_regs += n;
        out
    }

    /// Number of registers the VM needs.
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// The compiled instructions (for inspection and tests).
    pub fn instructions(&self) -> &[Instruction<L>] {
        &self.instructions
    }

    /// Runs the program against one candidate e-class of a clean
    /// e-graph, appending a [`Subst`] to `substs` for every match
    /// found. `regs` is the reusable register bank (resized here, so
    /// one allocation serves a whole multi-class search). `budget` is
    /// decremented once per budget unit (a `Bind` e-node visit or a
    /// `Build` probe); matching stops when it reaches zero, when
    /// `substs` has grown by `max_substs`, or within
    /// [`CANCEL_CHECK_QUANTUM`] units of `cancel` being set.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        egraph: &EGraph<L>,
        eclass: Id,
        regs: &mut Vec<Id>,
        substs: &mut Vec<Subst>,
        budget: &mut usize,
        max_substs: usize,
        cancel: &CancelToken,
    ) -> RunOutcome {
        regs.clear();
        regs.resize(self.n_regs, Id::from_index(0));
        regs[0] = egraph.find(eclass);
        let mut machine = Machine {
            regs,
            found: 0,
            max_substs,
            cancel,
        };
        machine.exec(egraph, self, 0, budget, substs)
    }
}

struct Machine<'a> {
    regs: &'a mut Vec<Id>,
    found: usize,
    max_substs: usize,
    cancel: &'a CancelToken,
}

impl Machine<'_> {
    /// Spends one budget unit; returns why the run must stop, if it
    /// must.
    fn charge(&self, budget: &mut usize) -> Option<RunOutcome> {
        if *budget == 0 {
            return Some(RunOutcome::BudgetExhausted);
        }
        *budget -= 1;
        if budget.is_multiple_of(CANCEL_CHECK_QUANTUM) && self.cancel.is_cancelled() {
            return Some(RunOutcome::Cancelled);
        }
        None
    }

    /// Executes instructions from `pc` on, backtracking over
    /// [`Instruction::Bind`] choices; complete register banks are
    /// materialized into `out`.
    fn exec<L: Language>(
        &mut self,
        egraph: &EGraph<L>,
        prog: &Program<L>,
        pc: usize,
        budget: &mut usize,
        out: &mut Vec<Subst>,
    ) -> RunOutcome {
        let Some(instruction) = prog.instructions.get(pc) else {
            out.push(Subst::from_pairs(
                prog.subst_template
                    .iter()
                    .map(|&(v, r)| (v, self.regs[r as usize]))
                    .collect(),
            ));
            self.found += 1;
            return if self.found >= self.max_substs {
                RunOutcome::SubstLimit
            } else {
                RunOutcome::Complete
            };
        };
        match instruction {
            Instruction::Bind {
                node,
                i,
                out: out_reg,
            } => {
                let class = egraph.eclass(self.regs[*i as usize]);
                for enode in class.iter() {
                    if let Some(stop) = self.charge(budget) {
                        return stop;
                    }
                    if !node.matches(enode) {
                        continue;
                    }
                    let base = *out_reg as usize;
                    for (k, &child) in enode.children().iter().enumerate() {
                        self.regs[base + k] = child;
                    }
                    match self.exec(egraph, prog, pc + 1, budget, out) {
                        RunOutcome::Complete => {}
                        stop => return stop,
                    }
                }
                RunOutcome::Complete
            }
            Instruction::Build { node, out: out_reg } => {
                if let Some(stop) = self.charge(budget) {
                    return stop;
                }
                let enode = node.map_children(|r| self.regs[r.index()]);
                match egraph.lookup(&enode) {
                    Some(class) => {
                        self.regs[*out_reg as usize] = class;
                        self.exec(egraph, prog, pc + 1, budget, out)
                    }
                    None => RunOutcome::Complete,
                }
            }
            Instruction::Compare { i, j } => {
                if egraph.find(self.regs[*i as usize]) == egraph.find(self.regs[*j as usize]) {
                    self.exec(egraph, prog, pc + 1, budget, out)
                } else {
                    RunOutcome::Complete
                }
            }
        }
    }
}

/// What a scheduler wants done with one rule during an iteration's
/// search (see [`search_rules`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleDirective {
    /// Do not search the rule at all this iteration (e.g. a backoff
    /// ban). The rule still gets a (empty) match slot, not a skip.
    Skip,
    /// Search the rule; stop visiting further classes for it once its
    /// total substitution count exceeds the limit (the boundary class
    /// is kept whole, so a limit never splits one class's matches).
    Limit(usize),
}

/// One rule's completed search, as [`search_rules`] reports it.
#[derive(Debug, Clone, Default)]
pub struct RuleSearch {
    /// The matches, one entry per matching e-class.
    pub matches: Vec<SearchMatches>,
    /// Budget units spent and truncations hit.
    pub stats: SearchStats,
    /// Wall-clock time the search took.
    pub elapsed: Duration,
}

/// Searches every pattern under its directive — each rule on its own
/// compiled [`Program`], rules fanned out over at most `threads`
/// work-stealing workers — and returns per-rule slots in rule-index
/// order: `Some(search)` for a searched rule (empty, zero-cost and
/// zero-time for [`RuleDirective::Skip`]), `None` for a rule whose
/// search the cancel token interrupted (a cancel request or its
/// deadline), or that no worker claimed after such a trip. Slots are
/// identical at any thread count, short of those interruptions and
/// the measured `elapsed` times.
pub fn search_rules<L>(
    patterns: &[&Pattern<L>],
    egraph: &EGraph<L>,
    directives: &[RuleDirective],
    cancel: &CancelToken,
    threads: usize,
) -> Vec<Option<RuleSearch>>
where
    L: Language + Sync,
    L::Discriminant: Sync,
{
    assert_eq!(directives.len(), patterns.len());
    search_rules_slots(patterns.len(), threads, cancel, |i| match directives[i] {
        RuleDirective::Skip => Some(RuleSearch::default()),
        RuleDirective::Limit(limit) => {
            let start = Instant::now();
            let (matches, stats) = patterns[i].search_interruptible(egraph, limit, cancel)?;
            Some(RuleSearch {
                matches,
                stats,
                elapsed: start.elapsed(),
            })
        }
    })
}

/// The work-stealing fan-out behind [`search_rules`]: workers claim
/// rule indices from an atomic counter, check the cancel token before
/// every claim, and results land in rule-index slots.
/// `search_one` returns `None` when its rule's search was cut short
/// (the slot stays `None` = skipped, and the worker stops claiming).
/// Panics from workers are re-raised exactly once, after *all* workers
/// joined.
pub(crate) fn search_rules_slots<T, F>(
    n_rules: usize,
    threads: usize,
    cancel: &CancelToken,
    search_one: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n_rules, || None);
    if threads <= 1 || n_rules <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            match search_one(i) {
                Some(result) => *slot = Some(result),
                None => break,
            }
        }
        return slots;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n_rules))
            .map(|_| {
                let (next, search_one) = (&next, &search_one);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_rules || cancel.is_cancelled() {
                            break;
                        }
                        match search_one(i) {
                            Some(result) => done.push((i, result)),
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        // Join *every* worker before reacting to any panic: unwinding
        // out of this loop on the first `Err` would hit the scope's
        // implicit join of the remaining workers, and a second panic
        // during that unwind aborts the process. Re-raise one payload
        // cleanly instead — the layer above (the service's per-job
        // `catch_unwind`) turns it into a typed outcome.
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    slots
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Pattern, SymbolLang};

    fn pat(s: &str) -> Pattern<SymbolLang> {
        s.parse().unwrap()
    }

    #[test]
    fn compiles_bind_and_compare() {
        let p = pat("(f ?x ?x)");
        let prog = p.program();
        assert_eq!(prog.instructions().len(), 2);
        assert!(matches!(prog.instructions()[0], Instruction::Bind { .. }));
        assert!(matches!(
            prog.instructions()[1],
            Instruction::Compare { .. }
        ));
    }

    /// How many instructions of each kind `(Bind, Build, Compare)` a
    /// pattern compiles to.
    fn shape(p: &Pattern<SymbolLang>) -> (usize, usize, usize) {
        let count = |f: fn(&Instruction<SymbolLang>) -> bool| {
            p.program().instructions().iter().filter(|&i| f(i)).count()
        };
        (
            count(|i| matches!(i, Instruction::Bind { .. })),
            count(|i| matches!(i, Instruction::Build { .. })),
            count(|i| matches!(i, Instruction::Compare { .. })),
        )
    }

    #[test]
    fn bound_subterm_compiles_to_build_chain() {
        // `(g ?x)` is fully bound once the root binds `?x`: one probe
        // and one Compare, no second Bind.
        assert_eq!(shape(&pat("(f ?x (g ?x))")), (1, 1, 1));
        // maj-37: after `(& ?a ?b)` binds both variables, the whole
        // `(& (! (& ?a ?b)) (| ?a ?b))` subterm is four probes.
        let maj37 = pat("(| (& ?a ?b) (& (& (! (& ?a ?b)) (| ?a ?b)) ?c))");
        assert_eq!(shape(&maj37), (3, 4, 1));
        // A variable first bound later in preorder does not count.
        assert_eq!(shape(&pat("(f (g ?x) ?x)")), (2, 0, 1));
    }

    #[test]
    fn build_chain_finds_exactly_what_bind_found() {
        // `(f ?x (g ?x))` closes only where `(g x)` exists and sits in
        // the second child's class; a ground leaf inside a bound
        // subterm is a childless Build.
        let mut eg = EG::default();
        let hit = eg.add_expr(&"(f x (g x))".parse().unwrap());
        eg.add_expr(&"(f y (g x))".parse().unwrap());
        eg.add_expr(&"(f z w)".parse().unwrap());
        eg.rebuild();
        let p = pat("(f ?x (g ?x))");
        let m = p.search(&eg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].eclass, eg.find(hit));
        assert_eq!(flat(&m), flat(&p.search_oracle(&eg)));
        let leaf = pat("(f ?x (g ?x a))");
        assert_eq!(shape(&leaf), (1, 2, 1));
        assert!(leaf.search(&eg).is_empty());
    }

    #[test]
    fn ground_subterm_compiles_to_build_chain() {
        // A variable-free subterm is bound vacuously: `a`, `b`, then
        // `(g a b)` are probed bottom-up and compared, no Bind beyond
        // the root's.
        let p = pat("(f ?x (g a b))");
        assert_eq!(shape(&p), (1, 3, 1));
        assert_eq!(shape(&pat("a")), (0, 1, 1));
        // A ground leaf the e-graph lacks fails every candidate's probe.
        let mut eg = EG::default();
        eg.add_expr(&"(f x (g a c))".parse().unwrap());
        eg.add_expr(&"(f y (g c c))".parse().unwrap());
        eg.rebuild();
        assert!(eg.lookup(&SymbolLang::leaf("b")).is_none());
        let (matches, stats) = p
            .search_interruptible(&eg, usize::MAX, &CancelToken::new())
            .unwrap();
        assert!(matches.is_empty());
        assert!(stats.visits > 0, "the root Bind still runs per candidate");
        assert!(p.search_oracle(&eg).is_empty());
        let present = pat("(f ?x (g a c))");
        let found = present.search(&eg);
        assert_eq!(found.len(), 1);
        assert_eq!(flat(&found), flat(&present.search_oracle(&eg)));
    }

    #[test]
    fn register_count_covers_children() {
        let p = pat("(f (g ?a ?b) ?c)");
        // root children (2) + g children (2) + root reg.
        assert_eq!(p.program().n_regs(), 5);
    }

    use crate::{CancelToken, EGraph, SearchMatches};

    type EG = EGraph<SymbolLang>;

    /// Builds a workload whose search does lots of *failing*
    /// backtracking (so the per-class match cap never stops it): two
    /// classes `A`/`B` each holding `width` f-nodes over disjoint
    /// leaves, `n_roots` classes `(g A B t_r)` told apart by a tag
    /// leaf, and the nonlinear probe `(g (f ?x) (f ?y) ?x)` that never
    /// closes: every `(?x, ?y)` pair is enumerated before the last
    /// `?x` fails against the tag. Each root costs ~`width²` e-node
    /// visits (up to the work budget) but adds only two e-nodes, so
    /// searching dwarfs every other cost of the e-graph.
    pub(crate) fn explosive_workload(n_roots: usize, width: usize) -> (EG, Pattern<SymbolLang>) {
        let mut eg = EG::default();
        let side = |tag: &str, eg: &mut EG| {
            let fs: Vec<_> = (0..width)
                .map(|i| {
                    let leaf = eg.add(SymbolLang::leaf(format!("{tag}{i}")));
                    eg.add(SymbolLang::new("f", vec![leaf]))
                })
                .collect();
            for w in fs.windows(2) {
                eg.union(w[0], w[1]);
            }
            fs[0]
        };
        let a = side("a", &mut eg);
        let b = side("b", &mut eg);
        for r in 0..n_roots {
            let tag = eg.add(SymbolLang::leaf(format!("t{r}")));
            eg.add(SymbolLang::new("g", vec![a, b, tag]));
        }
        eg.rebuild();
        (eg, pat("(g (f ?x) (f ?y) ?x)"))
    }

    #[test]
    fn cancelled_token_stops_within_one_quantum() {
        let (eg, p) = explosive_workload(1, 400);
        let class = *eg
            .classes_with_op(&SymbolLang::leaf("g").discriminant())
            .first()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut regs = Vec::new();
        let mut substs = Vec::new();
        let start_budget = 10_000usize;
        let mut budget = start_budget;
        let outcome = p.program().run(
            &eg,
            class,
            &mut regs,
            &mut substs,
            &mut budget,
            usize::MAX,
            &token,
        );
        assert_eq!(outcome, RunOutcome::Cancelled);
        let work_done = start_budget - budget;
        assert!(
            work_done <= CANCEL_CHECK_QUANTUM,
            "a set token must stop the VM within one quantum, did {work_done} visits"
        );
        // Sanity: the same class costs far more than a quantum when
        // the token stays clear.
        let mut budget = start_budget;
        let outcome = p.program().run(
            &eg,
            class,
            &mut regs,
            &mut substs,
            &mut budget,
            usize::MAX,
            &CancelToken::new(),
        );
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
    }

    #[test]
    fn search_stats_count_visits_and_truncations() {
        let (eg, probe) = explosive_workload(3, 400);
        let (matches, stats) = probe
            .search_interruptible(&eg, usize::MAX, &CancelToken::new())
            .unwrap();
        assert!(matches.is_empty());
        assert_eq!(
            stats,
            SearchStats {
                visits: 3 * crate::MATCH_WORK_BUDGET,
                budget_exhausted: 3,
                capped: 0,
            }
        );
        // The same shape without the failing `?x` closes on every
        // `(?x, ?y)` pair: each root stops at the match cap after one
        // g, one f of `A` and `MAX_SUBSTS_PER_CLASS` f's of `B`.
        let open = pat("(g (f ?x) (f ?y) ?t)");
        let (matches, stats) = open
            .search_interruptible(&eg, usize::MAX, &CancelToken::new())
            .unwrap();
        assert_eq!(matches.len(), 3);
        let cap = crate::MAX_SUBSTS_PER_CLASS;
        assert!(matches.iter().all(|m| m.substs.len() == cap));
        assert_eq!(
            stats,
            SearchStats {
                visits: 3 * (2 + cap),
                budget_exhausted: 0,
                capped: 3,
            }
        );
    }

    #[test]
    fn pre_cancelled_search_returns_no_matches() {
        let (eg, p) = explosive_workload(10, 60);
        let token = CancelToken::new();
        token.cancel();
        assert!(p.search_interruptible(&eg, usize::MAX, &token).is_none());
    }

    #[test]
    fn cancellation_checked_between_small_classes() {
        // Classes this small (2 visits each) never reach the in-VM
        // budget-quantum poll; the driver loop must still observe the
        // token between classes.
        let mut eg = EG::default();
        for i in 0..500 {
            let a = eg.add(SymbolLang::leaf(format!("p{i}")));
            let b = eg.add(SymbolLang::leaf(format!("q{i}")));
            eg.add(SymbolLang::new("g", vec![a, b]));
        }
        eg.rebuild();
        let p = pat("(g ?x ?y)");
        assert_eq!(p.search(&eg).len(), 500);
        let token = CancelToken::new();
        token.cancel();
        assert!(p.search_interruptible(&eg, usize::MAX, &token).is_none());
    }

    /// Per-rule `(eclass, substs)` view for equality assertions.
    fn flat(matches: &[SearchMatches]) -> Vec<(crate::Id, Vec<crate::Subst>)> {
        matches
            .iter()
            .map(|m| (m.eclass, m.substs.clone()))
            .collect()
    }

    #[test]
    fn skip_directive_prunes_but_keeps_other_rules_exact() {
        let (eg, explosive) = explosive_workload(2, 40);
        let cheap = pat("(g ?a ?b ?t)");
        let directives = [RuleDirective::Skip, RuleDirective::Limit(usize::MAX)];
        for threads in [1, 2] {
            let slots = search_rules(
                &[&explosive, &cheap],
                &eg,
                &directives,
                &CancelToken::new(),
                threads,
            );
            let skipped = slots[0].as_ref().unwrap();
            assert!(skipped.matches.is_empty(), "a Skip rule yields no matches");
            assert_eq!(skipped.stats, SearchStats::default());
            assert_eq!(skipped.elapsed, Duration::ZERO);
            let searched = slots[1].as_ref().unwrap();
            assert_eq!(flat(&searched.matches), flat(&cheap.search_oracle(&eg)));
        }
    }

    #[test]
    fn match_limit_directive_masks_at_class_boundary() {
        // Ten classes with one match each: a limit stops the search
        // once the total *exceeds* it, so the boundary class is kept.
        let mut eg = EG::default();
        for i in 0..10 {
            let a = eg.add(SymbolLang::leaf(format!("a{i}")));
            let b = eg.add(SymbolLang::leaf(format!("b{i}")));
            eg.add(SymbolLang::new("g", vec![a, b]));
        }
        eg.rebuild();
        let p = pat("(g ?x ?y)");
        for limit in [0usize, 3, 9, 100] {
            let slots = search_rules(
                &[&p],
                &eg,
                &[RuleDirective::Limit(limit)],
                &CancelToken::new(),
                1,
            );
            let matches = &slots[0].as_ref().unwrap().matches;
            assert_eq!(matches.len(), (limit + 1).min(10), "limit={limit}");
            assert_eq!(
                flat(matches),
                flat(&p.search_oracle_with_limit(&eg, limit)),
                "limit={limit}"
            );
        }
    }

    #[test]
    fn expired_deadline_skips_every_rule() {
        let (eg, explosive) = explosive_workload(4, 40);
        let cheap = pat("(g ?a ?b ?t)");
        // The deadline check is strictly-greater, so an already-elapsed
        // instant is an expired deadline by the next check.
        let token = CancelToken::new().with_deadline(Instant::now());
        std::thread::sleep(Duration::from_millis(1));
        let directives = [RuleDirective::Limit(usize::MAX); 2];
        for threads in [1, 2] {
            let slots = search_rules(&[&explosive, &cheap], &eg, &directives, &token, threads);
            assert!(slots.iter().all(Option::is_none), "threads={threads}");
        }
        // The driver checks the deadline per class too, not only
        // before a rule is claimed.
        assert!(explosive
            .search_interruptible(&eg, usize::MAX, &token)
            .is_none());
    }

    #[test]
    fn mid_search_cancellation_stops_promptly() {
        let (eg, p) = explosive_workload(80, 200);
        let start = Instant::now();
        let full = p.search(&eg);
        let full_time = start.elapsed();
        assert!(full.is_empty(), "the nonlinear probe must never close");

        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                token.cancel();
            })
        };
        let start = Instant::now();
        let cancelled = p.search_interruptible(&eg, usize::MAX, &token);
        let cancelled_time = start.elapsed();
        canceller.join().unwrap();
        assert!(cancelled.is_none_or(|(m, _)| m.is_empty()));
        // Only discriminating when the full search is slow enough for
        // the 5 ms cancel to land mid-flight.
        if full_time > Duration::from_millis(50) {
            assert!(
                cancelled_time < full_time / 2,
                "cancelled search took {cancelled_time:?} vs full {full_time:?}"
            );
        }
    }
}
