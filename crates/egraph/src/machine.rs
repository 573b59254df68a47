//! The compiled e-matching virtual machine.
//!
//! Following the abstract-machine design of egg (Willsey et al., POPL
//! 2021), every [`Pattern`] is compiled **once** (at
//! construction) into a linear [`Program`] of instructions executed
//! against a bank of registers holding e-class [`Id`]s:
//!
//! * `Bind` — iterate the e-nodes of the class in register `i` that
//!   match a pattern operator, writing each node's children into fresh
//!   registers (the only backtracking point). A clean class's e-nodes
//!   are sorted, and [`Language`]'s `Ord` puts each operator in one
//!   contiguous run, so a `Bind` finds the first e-node of its
//!   operator with an uncharged linear scan and walks only that run.
//!   An e-node whose child classes lack an operator the pattern needs
//!   there is skipped before any register is written (see below);
//! * `Compare` — require two registers to name the same e-class
//!   (non-linear patterns, e.g. `(& ?a ?a)`);
//! * `Build` — rebuild one e-node from registers and probe the
//!   e-graph's hash-cons `memo` for its class. A subpattern whose
//!   variables are all bound by earlier instructions compiles to a
//!   bottom-up chain of `Build`s followed by one `Compare`, instead of
//!   `Bind`s: in a clean e-graph a bound subterm names at most one
//!   canonical e-node, so one probe replaces a scan of every e-node of
//!   the subterm's classes. In `(| (& ?a ?b) (! (& ?a ?b)))`, once
//!   `(& ?a ?b)` has bound `?a` and `?b`, `(! (& ?a ?b))` is two
//!   probes, not two scans. A variable-free subterm, such as the
//!   `true` leaf of `(& ?a true)`, is the vacuous case: a chain whose
//!   leaves are childless `Build`s.
//!
//! `Bind`s run in the pattern's preorder, except for repeated
//! subterms. `Build` and `Compare` never branch; they are checks, and
//! each runs as soon as the registers it reads are bound (see
//! [`Program::compile`]). In maj-37,
//! `(| (& ?a ?b) (& (& (! (& ?a ?b)) (| ?a ?b)) ?c))`, the four probes
//! of `(& (! (& ?a ?b)) (| ?a ?b))` run once `(& ?a ?b)` binds `?b`,
//! before the `(& X ?c)` `Bind`, so they run once per binding of `?a`
//! and `?b` instead of once per e-node of the `(& X ?c)` class, and a
//! failed probe skips that scan.
//!
//! A repeated subterm whose variables occur nowhere else is matched
//! once, and its structure is enumerated last. In a NAND-ladder sum
//! such as `xor-00`, `(& (! (& (! X) ?c)) (! (& X (! ?c))))` with the
//! XOR2 `X` written out twice, the first `X` is only the class its
//! parent's `Bind` writes, the second branch becomes a probe of
//! `(! (& X (! ?c)))` against it, and `X`'s own `Bind`s run only for
//! roots where that probe passes. In a clean e-graph both occurrences
//! of `X` under one substitution are one class, so this is the same
//! conjunctive query in a cheaper join order ("Better Together",
//! Zhang et al., PLDI 2023).
//!
//! Neither reordering changes which matches a class has, and the
//! search sorts each class's substitutions, so the results are
//! unchanged. Only the raw enumeration order and the work spent
//! change, so results can move only where the work budget cuts a
//! class short.
//!
//! Every class carries an operator signature: one bit per operator
//! among its e-nodes ([`Language::operator_bit`]) and one per
//! (operator, child-operator) pair. Each `Bind` carries one required
//! signature per child whose subpattern is an e-node: that e-node's
//! operator bit, plus one pair bit per e-node grandchild. When a `Bind`
//! finds an e-node of the right operator, it checks each child class's
//! signature against the requirement, and skips the e-node if a bit is
//! missing: preorder would otherwise enumerate a whole deep first
//! child, such as the XNOR-NAND cone of `xor-00`, before it ever looked
//! at a sibling class that holds no `!` or `&` at all. Bits only
//! over-approximate, so no match is lost and match order is unchanged;
//! the skipped e-node is still charged its budget unit. Only where the
//! work budget binds can results move, because the search gets further
//! before it runs out.
//!
//! The ground probes, the `Build` chains of variable-free subterms,
//! come first in a program and do not depend on the candidate class.
//! They run once per search, before any candidate, and a failed one
//! ends the search: `(& ?a true)` on an e-graph without `true` costs
//! one probe, not one per `&` class.
//!
//! Search requires a clean e-graph, so every register holds a canonical
//! id and the VM never re-canonicalizes: a `Bind` reads the class's
//! node list directly, a `Build` probes the memo with the node as
//! built, and a `Compare` is a plain `==`.
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
//! *surviving* match; on a clean e-graph those are distinct, as
//! hash-consing fixes every e-node of a match once its variables are
//! bound. The rule's match limit ([`RuleDirective::Limit`], the only
//! bound on its matches, as in egg), the work budget
//! ([`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET)) and a cooperative
//! [`CancelToken`] are all enforced *inside* the VM loop: a search
//! stops as soon as the rule's count passes its limit, even in the
//! middle of a class, and returns no matches. One **budget unit** is
//! one e-node of the `Bind`'s operator, skipped or not, or one probe a
//! `Build` makes; the e-nodes of other
//! operators that a `Bind`'s scan passes on its way to its run cost
//! nothing, and the ground probes are charged to the search's visits
//! but to no class's budget. The token is polled every
//! [`CANCEL_CHECK_QUANTUM`] units, so cancellation latency is bounded
//! by that many units rather than by a whole rule search. The
//! search driver polls between candidate classes on the same rule,
//! once per quantum of units rather than once per class, since a token
//! with a deadline reads the clock on every poll. The units a search
//! spends are reported as [`SearchStats::visits`].
//!
//! [`search_rules`] drives a whole ruleset: one program per rule, rules
//! spread over a work-stealing thread pool.
//!
//! The runner's searches are semi-naive. After a run's first
//! iteration, a rule runs its program only on the candidate roots that
//! are new since its last search, that the budget cut short then, or
//! that a change since can reach: a merge of two old classes within
//! the pattern's e-node depth `D` below the root, or an old class
//! within `D - 1` levels that gained one of the pattern's operators by
//! a union with a new class. Every other root is clean:
//! its cone, the classes the program can visit from it, holds the same
//! e-nodes of the pattern's operators under the same class identities,
//! so it has the same matches. The search adds the root's match count,
//! as the rule's last search recorded it, to its running total, in
//! candidate order, and leaves the root's substitutions out: applying
//! them after the last search already added their right-hand sides
//! and unions. The running total, and with it the match limit's cut,
//! the backoff ban and every match count the runner reports, are what
//! a search of every root gives.
//!
//! The budget binds as before. Each searched root gets a fresh
//! [`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET), and a root the
//! budget cut is searched again, never replayed. A replayed root ran
//! to completion last time. A full search could spend more on it now
//! only through e-nodes outside its cone: a probe that newly finds an
//! e-node in some other class and goes on to fail, or a signature bit
//! a change elsewhere set. Only where that growth would
//! push a root from completion over the budget could a replayed count
//! differ from a search's. The canonical job JSON of every benchmark
//! configuration, the budget-bound ones included, is byte-identical to
//! searching every root.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::delta::{Replay, SearchRecord};
use crate::hash::FxHashMap;
use crate::pattern::ENodeOrVar;
use crate::signature::Signature;
use crate::{CancelToken, EGraph, Id, Language, Pattern, RecExpr, SearchMatches, Subst, Var};

/// A register index in the VM's register bank.
pub type Reg = u16;

/// One instruction of a compiled pattern program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Instruction<L> {
    /// Iterate the e-nodes of class `regs[i]` whose operator and arity
    /// match `node` and whose child classes cover `needs`; for each,
    /// write the children into `regs[out..out + arity]` and continue
    /// (backtracking point).
    Bind {
        /// The pattern e-node to match (only its operator and arity
        /// are consulted; its child ids index the pattern AST).
        node: L,
        /// Register holding the class to scan.
        i: Reg,
        /// First output register for the matched node's children.
        out: Reg,
        /// `(child position, required signature)` for each child whose
        /// subpattern is an e-node: the child class must cover the
        /// signature, or the e-node is skipped. Variable children need
        /// nothing and are not listed.
        needs: Vec<(usize, Signature)>,
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

impl<L: Language> Instruction<L> {
    /// The registers this instruction reads.
    fn reads(&self) -> Vec<Reg> {
        match self {
            Instruction::Bind { i, .. } => vec![*i],
            Instruction::Build { node, .. } => {
                node.children().iter().map(|c| c.index() as Reg).collect()
            }
            Instruction::Compare { i, j } => vec![*i, *j],
        }
    }

    /// Whether this instruction writes register `r`.
    fn writes(&self, r: Reg) -> bool {
        match self {
            Instruction::Bind { node, out, .. } => {
                (*out..*out + node.children().len() as Reg).contains(&r)
            }
            Instruction::Build { out, .. } => *out == r,
            Instruction::Compare { .. } => false,
        }
    }
}

/// How often (in budget units: e-nodes of a `Bind`'s operator and
/// `Build` probes) the VM polls its [`CancelToken`]: a cancellation
/// request stops the search within one such quantum.
pub const CANCEL_CHECK_QUANTUM: usize = 256;

/// What one rule search spent and where it was cut short.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Budget units spent (see the module docs): e-nodes of each
    /// `Bind`'s operator plus `Build` probes. Deterministic for a given
    /// e-graph and pattern, on any machine and at any thread count.
    pub visits: usize,
    /// Candidate classes whose run stopped on
    /// [`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET).
    pub budget_exhausted: usize,
    /// Candidate classes not searched because no change since the
    /// rule's last search reaches them: their match count was replayed
    /// from that search (see the module docs). Deterministic, like
    /// `visits`.
    pub replayed: usize,
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, other: Self) {
        self.visits += other.visits;
        self.budget_exhausted += other.budget_exhausted;
        self.replayed += other.replayed;
    }
}

/// Why a program run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The whole match space was enumerated.
    Complete,
    /// The run found `max_substs` matches: the rule's count passed its
    /// match limit.
    Overflow,
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
    /// How many leading instructions are ground probes: the `Build`s
    /// of variable-free subterms, whose classes do not depend on the
    /// candidate class, so [`Program::probe_ground`] runs them once per
    /// search and [`Program::run`] starts after them.
    ground: usize,
    /// `(var, register)` pairs sorted by variable; materializing a
    /// match reads these registers into a [`Subst`], so its pairs come
    /// out in the order [`Subst`]'s `Ord` compares them by.
    subst_template: Vec<(Var, Reg)>,
    n_regs: usize,
}

impl<L: Language> Program<L> {
    /// Compiles a pattern AST. The `Bind` instructions follow the
    /// pattern's depth-first preorder (root first, children left to
    /// right), with one exception, the repeated subterms below. Each
    /// check — a `Build` or `Compare`, neither of which branches —
    /// runs as soon as its inputs are bound: it sits just after the
    /// instruction that writes the last register it reads, behind the
    /// checks already placed there. A failing check then prunes the
    /// sibling `Bind`s the preorder would have run before it, and a
    /// passing one runs once per binding of its inputs rather than
    /// once per e-node of those siblings. A bare variable compiles to
    /// no instructions at all; searches reject such patterns, since
    /// they have no root operator to select candidate classes by.
    ///
    /// A repeated subterm is matched once (see the module docs). Take
    /// a maximal compound subterm that occurs at least twice and whose
    /// variables occur nowhere outside its occurrences. Its first
    /// occurrence compiles to nothing but the register its parent's
    /// `Bind` writes, and that `Bind` still checks the child's
    /// signature. Each later occurrence is checked against that
    /// register, by a `Compare` or as a register leaf of a `Build`
    /// chain. The subterm's own `Bind`s come right after its last
    /// occurrence has been compiled, and the same rule applies inside
    /// them. The variable condition keeps every other branch
    /// constrained: in maj-37 the repeated `(& ?a ?b)` shares `?a` and
    /// `?b` with `(| ?a ?b)`, and deferring it would leave them to be
    /// enumerated unconstrained, so maj-37 compiles in preorder.
    pub fn compile(ast: &RecExpr<ENodeOrVar<L>>) -> Self {
        let mut compiler = Compiler::new(ast);
        compiler.find_repeats(ast.root());
        compiler.finish()
    }

    /// Compiles with every `Bind` in preorder, repeated subterms
    /// included: the program [`Program::compile`] improves on.
    #[cfg(test)]
    fn compile_in_preorder(ast: &RecExpr<ENodeOrVar<L>>) -> Self {
        Compiler::new(ast).finish()
    }

    /// Places a check just after the last writer of the registers it
    /// reads (at the start if it reads none), behind the checks
    /// already there, so checks keep their compile order among
    /// themselves.
    fn push_check(&mut self, check: Instruction<L>) {
        let reads = check.reads();
        let mut at = self
            .instructions
            .iter()
            .rposition(|ins| reads.iter().any(|&r| ins.writes(r)))
            .map_or(0, |w| w + 1);
        while self
            .instructions
            .get(at)
            .is_some_and(|ins| !matches!(ins, Instruction::Bind { .. }))
        {
            at += 1;
        }
        self.instructions.insert(at, check);
    }

    /// The register holding `v`'s first occurrence, if an earlier
    /// instruction binds it.
    fn var_reg(&self, v: Var) -> Option<Reg> {
        self.subst_template
            .iter()
            .find(|(u, _)| *u == v)
            .map(|&(_, r)| r)
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

    #[cfg(test)]
    fn instructions(&self) -> &[Instruction<L>] {
        &self.instructions
    }

    /// Prepares the register bank `regs` for a search of a clean
    /// e-graph: sizes it for this program (one allocation serves the
    /// whole multi-class search) and runs the ground probes, in order,
    /// into their registers. Returns how many probes ran and whether
    /// every one found its e-node. If one did not, no class can match
    /// and the search ends; otherwise `regs` is ready for
    /// [`Program::run`] on every candidate class.
    pub(crate) fn probe_ground(&self, egraph: &EGraph<L>, regs: &mut Vec<Id>) -> (usize, bool) {
        debug_assert!(egraph.is_clean(), "the VM runs on a clean e-graph");
        regs.clear();
        regs.resize(self.n_regs, Id::from_index(0));
        for (k, probe) in self.instructions[..self.ground].iter().enumerate() {
            let Instruction::Build { node, out } = probe else {
                unreachable!("ground probes are Builds");
            };
            match egraph.lookup_canonical(&node.map_children(|r| regs[r.index()])) {
                Some(class) => regs[*out as usize] = class,
                None => return (k + 1, false),
            }
        }
        (self.ground, true)
    }

    /// Runs the program against one candidate e-class of a clean
    /// e-graph, pushing a [`Subst`] to the empty `substs` for every
    /// match found. `regs` is the register bank [`Program::probe_ground`]
    /// prepared, with every ground probe found. `budget` is decremented
    /// once per budget unit (one e-node of the `Bind`'s operator or one
    /// `Build` probe); matching stops when it reaches zero, as soon as
    /// `substs` holds `max_substs` (the rule's headroom under its match
    /// limit, see the module docs), or within
    /// [`CANCEL_CHECK_QUANTUM`] units of `cancel` being set.
    ///
    /// Every register holds a canonical id, so no instruction
    /// re-canonicalizes: the root is `find`-ed here, a `Bind` copies
    /// children out of a clean class's canonical node list, and a
    /// `Build` stores the `find` of the class the memo returns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        egraph: &EGraph<L>,
        eclass: Id,
        regs: &mut Vec<Id>,
        substs: &mut Vec<Subst>,
        budget: &mut usize,
        max_substs: usize,
        cancel: &CancelToken,
    ) -> RunOutcome {
        debug_assert!(egraph.is_clean(), "the VM runs on a clean e-graph");
        debug_assert_eq!(regs.len(), self.n_regs, "regs come from probe_ground");
        regs[0] = egraph.find(eclass);
        let mut machine = Machine {
            regs,
            max_substs,
            cancel,
        };
        machine.exec(egraph, self, self.ground, budget, substs)
    }
}

/// The pattern tree hash-consed: one number per distinct subterm, in
/// one pass over the pattern.
struct Subterms {
    /// The subterm each pattern node roots, by node index.
    of: Vec<usize>,
    /// Per subterm: the subterms of its distinct variables, sorted.
    vars: Vec<Vec<usize>>,
    /// Per subterm: how many variable leaves it has, repeats counted.
    var_leaves: Vec<usize>,
}

impl Subterms {
    fn new<L: Language>(ast: &RecExpr<ENodeOrVar<L>>) -> Self {
        let mut numbers: FxHashMap<ENodeOrVar<L>, usize> = FxHashMap::default();
        let mut subterms = Subterms {
            of: Vec::with_capacity(ast.len()),
            vars: Vec::new(),
            var_leaves: Vec::new(),
        };
        // Children come before their parents, so each key is built
        // from its children's numbers.
        for node in ast.iter() {
            let key = node.map_children(|c| Id::from_index(subterms.of[c.index()]));
            let fresh = numbers.len();
            let term = *numbers.entry(key).or_insert(fresh);
            if term == fresh {
                let children = node.children().iter().map(|c| subterms.of[c.index()]);
                let (vars, var_leaves) = match node {
                    ENodeOrVar::Var(_) => (vec![term], 1),
                    ENodeOrVar::ENode(_) => {
                        let mut vars: Vec<usize> = children
                            .clone()
                            .flat_map(|c| subterms.vars[c].iter().copied())
                            .collect();
                        vars.sort_unstable();
                        vars.dedup();
                        (vars, children.map(|c| subterms.var_leaves[c]).sum())
                    }
                };
                subterms.vars.push(vars);
                subterms.var_leaves.push(var_leaves);
            }
            subterms.of.push(term);
        }
        subterms
    }
}

/// A repeated subterm that [`Program::compile`] matches once.
struct Repeat {
    /// Occurrences not compiled yet.
    left: usize,
    /// The first compiled occurrence: its pattern node and the register
    /// its parent's `Bind` writes.
    first: Option<(Id, Reg)>,
}

/// [`Program::compile`]'s working state.
struct Compiler<'a, L> {
    ast: &'a RecExpr<ENodeOrVar<L>>,
    subterms: Subterms,
    /// The repeats, by subterm.
    repeats: FxHashMap<usize, Repeat>,
    /// Repeats whose last occurrence is compiled and whose own `Bind`s
    /// are due: their first occurrence's pattern node and register.
    due: Vec<(Id, Reg)>,
    prog: Program<L>,
}

impl<'a, L: Language> Compiler<'a, L> {
    fn new(ast: &'a RecExpr<ENodeOrVar<L>>) -> Self {
        Compiler {
            ast,
            subterms: Subterms::new(ast),
            repeats: FxHashMap::default(),
            due: Vec::new(),
            prog: Program {
                instructions: Vec::new(),
                ground: 0,
                subst_template: Vec::new(),
                n_regs: 1,
            },
        }
    }

    /// Finds the repeats strictly below pattern node `body`, in one
    /// occurrence of it, then the repeats inside each repeat found.
    /// Every subterm in `body` is counted once, top down: the first
    /// qualifying subterm on a path is a maximal one.
    fn find_repeats(&mut self, body: Id) {
        let ast = self.ast;
        let subterms = &self.subterms;
        let mut count: FxHashMap<usize, usize> = FxHashMap::default();
        let mut stack = ast[body].children().to_vec();
        while let Some(pat) = stack.pop() {
            *count.entry(subterms.of[pat.index()]).or_default() += 1;
            stack.extend_from_slice(ast[pat].children());
        }
        let mut found = Vec::new();
        stack.extend_from_slice(ast[body].children());
        while let Some(pat) = stack.pop() {
            let term = subterms.of[pat.index()];
            if self.repeats.contains_key(&term) {
                continue;
            }
            let (n, leaves) = (count[&term], subterms.var_leaves[term]);
            // The `n` occurrences are disjoint, so their variable
            // leaves number `n * leaves` and cover every leaf of these
            // variables exactly when the counts agree.
            let closed =
                || subterms.vars[term].iter().map(|v| count[v]).sum::<usize>() == n * leaves;
            if matches!(ast[pat], ENodeOrVar::ENode(_)) && leaves > 0 && n >= 2 && closed() {
                self.repeats.insert(
                    term,
                    Repeat {
                        left: n,
                        first: None,
                    },
                );
                found.push(pat);
            } else {
                stack.extend_from_slice(ast[pat].children());
            }
        }
        for pat in found {
            self.find_repeats(pat);
        }
    }

    fn finish(mut self) -> Program<L> {
        self.compile_node(self.ast.root(), 0);
        let mut prog = self.prog;
        prog.subst_template.sort_unstable();
        // Before the first `Bind` only ground probes' registers are
        // bound, so every leading `Build` is a ground probe.
        prog.ground = prog
            .instructions
            .iter()
            .take_while(|ins| matches!(ins, Instruction::Build { .. }))
            .count();
        prog
    }

    /// Compiles the subterm at `pat`, whose class is in `reg`, then the
    /// `Bind`s of every repeat whose last occurrence it compiled.
    fn compile_node(&mut self, pat: Id, reg: Reg) {
        let ast = self.ast;
        let term = self.subterms.of[pat.index()];
        match &ast[pat] {
            ENodeOrVar::Var(v) => {
                if let Some(first) = self.prog.var_reg(*v) {
                    self.prog
                        .push_check(Instruction::Compare { i: reg, j: first });
                } else {
                    self.prog.subst_template.push((*v, reg));
                }
            }
            ENodeOrVar::ENode(_) if self.repeats.contains_key(&term) => {
                if let Some(first) = self.repeat_occurrence(pat, reg) {
                    self.prog
                        .push_check(Instruction::Compare { i: reg, j: first });
                }
            }
            ENodeOrVar::ENode(_) if self.all_vars_bound(pat) => {
                let built = self.compile_build(pat);
                self.prog
                    .push_check(Instruction::Compare { i: reg, j: built });
            }
            ENodeOrVar::ENode(_) => self.compile_bind(pat, reg),
        }
        for (pat, reg) in std::mem::take(&mut self.due) {
            self.compile_bind(pat, reg);
        }
    }

    /// Emits the `Bind` of the e-node at `pat` on class `reg`, then
    /// compiles its children into the registers it writes.
    fn compile_bind(&mut self, pat: Id, reg: Reg) {
        let ast = self.ast;
        let ENodeOrVar::ENode(node) = &ast[pat] else {
            unreachable!("only e-nodes are bound");
        };
        let out = self.prog.alloc_regs(node.children().len());
        let needs = node
            .children()
            .iter()
            .map(|&child| required_signature(ast, child))
            .enumerate()
            .filter(|(_, need)| *need != Signature::default())
            .collect();
        self.prog.instructions.push(Instruction::Bind {
            node: node.clone(),
            i: reg,
            out,
            needs,
        });
        for (k, &child) in node.children().iter().enumerate() {
            self.compile_node(child, out + k as Reg);
        }
    }

    /// Emits the bottom-up [`Instruction::Build`] chain that rebuilds
    /// the subterm at `pat` from bound registers (children left to
    /// right, then the node) and returns the register holding its
    /// class. A repeat already seen is a leaf: its first occurrence's
    /// register.
    fn compile_build(&mut self, pat: Id) -> Reg {
        if let Some(first) = self.repeat_reg(pat) {
            self.repeat_occurrence(pat, first);
            return first;
        }
        match &self.ast[pat] {
            ENodeOrVar::Var(v) => self
                .prog
                .var_reg(*v)
                .expect("bound subterms bind every variable"),
            ENodeOrVar::ENode(node) => {
                let node =
                    node.map_children(|c| Id::from_index(usize::from(self.compile_build(c))));
                let out = self.prog.alloc_regs(1);
                self.prog.push_check(Instruction::Build { node, out });
                out
            }
        }
    }

    /// Whether every variable of the subterm at `pat` is bound, or a
    /// repeat already seen stands for it.
    fn all_vars_bound(&self, pat: Id) -> bool {
        self.repeat_reg(pat).is_some()
            || match &self.ast[pat] {
                ENodeOrVar::Var(v) => self.prog.var_reg(*v).is_some(),
                ENodeOrVar::ENode(node) => node.children().iter().all(|&c| self.all_vars_bound(c)),
            }
    }

    /// The register of the first occurrence of the repeat at `pat`, if
    /// `pat` is a repeat and that occurrence is compiled.
    fn repeat_reg(&self, pat: Id) -> Option<Reg> {
        let repeat = self.repeats.get(&self.subterms.of[pat.index()])?;
        repeat.first.map(|(_, reg)| reg)
    }

    /// Counts one compiled occurrence of the repeat at `pat`, whose
    /// class is in `reg`, and returns the register of the repeat's
    /// first occurrence, or `None` if this is it. After the last
    /// occurrence, the repeat's own `Bind`s are due.
    fn repeat_occurrence(&mut self, pat: Id, reg: Reg) -> Option<Reg> {
        let repeat = self
            .repeats
            .get_mut(&self.subterms.of[pat.index()])
            .expect("a repeat");
        let earlier = repeat.first.map(|(_, first)| first);
        let first = *repeat.first.get_or_insert((pat, reg));
        repeat.left -= 1;
        if repeat.left == 0 {
            self.due.push(first);
        }
        earlier
    }
}

/// The signature a class must cover to match pattern node `pat`:
/// nothing for a variable; for an e-node, its operator's bit plus one
/// pair bit per child that is itself an e-node.
fn required_signature<L: Language>(ast: &RecExpr<ENodeOrVar<L>>, pat: Id) -> Signature {
    let ENodeOrVar::ENode(node) = &ast[pat] else {
        return Signature::default();
    };
    let op = node.operator_bit();
    let pairs = node
        .children()
        .iter()
        .filter_map(|&child| match &ast[child] {
            ENodeOrVar::ENode(grandchild) => Some(grandchild.operator_bit()),
            ENodeOrVar::Var(_) => None,
        })
        .fold(0, |pairs, bit| pairs | Signature::pair_mask(op, 1 << bit));
    Signature {
        ops: 1 << op,
        pairs,
    }
}

struct Machine<'a> {
    regs: &'a mut Vec<Id>,
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
            return if out.len() >= self.max_substs {
                RunOutcome::Overflow
            } else {
                RunOutcome::Complete
            };
        };
        match instruction {
            Instruction::Bind {
                node,
                i,
                out: out_reg,
                needs,
            } => {
                // A clean class is sorted, and `Ord` puts each operator
                // in one run: find it uncharged, then walk only it.
                let op = node.discriminant();
                let nodes = egraph.canonical_class_nodes(self.regs[*i as usize]);
                let start = nodes
                    .iter()
                    .position(|n| n.discriminant() == op)
                    .unwrap_or(nodes.len());
                let run = nodes[start..].iter().take_while(|n| n.discriminant() == op);
                for enode in run {
                    if let Some(stop) = self.charge(budget) {
                        return stop;
                    }
                    if !node.matches(enode)
                        || !needs
                            .iter()
                            .all(|&(k, need)| egraph.signature(enode.children()[k]).covers(need))
                    {
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
                match egraph.lookup_canonical(&enode) {
                    Some(class) => {
                        self.regs[*out_reg as usize] = class;
                        self.exec(egraph, prog, pc + 1, budget, out)
                    }
                    None => RunOutcome::Complete,
                }
            }
            Instruction::Compare { i, j } => {
                if self.regs[*i as usize] == self.regs[*j as usize] {
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
    /// Search the rule, and stop as soon as its substitution count
    /// exceeds the limit, even in the middle of a class: the search
    /// then returns no matches and reports
    /// [`RuleSearch::overflowed`]. The limit is the only bound on a
    /// rule's matches.
    Limit(usize),
}

/// One rule's completed search, as [`search_rules`] reports it.
#[derive(Debug, Clone, Default)]
pub struct RuleSearch {
    /// The matches, one entry per matching e-class that was searched.
    pub matches: Vec<SearchMatches>,
    /// The matches counted at replayed roots, whose substitutions are
    /// not in `matches` (see the module docs).
    pub replayed_matches: usize,
    /// Budget units spent, truncations hit and roots replayed.
    pub stats: SearchStats,
    /// The rule's count passed its match limit: the search stopped
    /// there, and `matches` and `replayed_matches` are empty.
    pub overflowed: bool,
    /// Wall-clock time the search took.
    pub elapsed: Duration,
    /// Per-root counts for the rule's next search to replay from;
    /// `None` if the search was skipped, overflowed or a ground probe
    /// missed.
    pub(crate) record: Option<SearchRecord>,
}

impl RuleSearch {
    /// Substitutions counted: those in `matches` plus the replayed
    /// ones. This is what a full search would have found, unless the
    /// search overflowed.
    pub fn total_matches(&self) -> usize {
        self.matches.iter().map(|m| m.substs.len()).sum::<usize>() + self.replayed_matches
    }
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
///
/// Every candidate root is searched; the runner's own searches replay
/// the roots no change reached (see the module docs).
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
    search_rules_since(patterns, egraph, directives, None, cancel, threads)
}

/// [`search_rules`], where with a [`Replay`] each rule that has a
/// record replays its clean roots (see [`Pattern::search_since`]); for
/// a rule without a record, every candidate root is searched.
pub(crate) fn search_rules_since<L>(
    patterns: &[&Pattern<L>],
    egraph: &EGraph<L>,
    directives: &[RuleDirective],
    replay: Option<Replay<'_>>,
    cancel: &CancelToken,
    threads: usize,
) -> Vec<Option<RuleSearch>>
where
    L: Language + Sync,
    L::Discriminant: Sync,
{
    assert_eq!(directives.len(), patterns.len());
    if let Some(replay) = replay {
        assert_eq!(replay.records.len(), patterns.len());
    }
    search_rules_slots(patterns.len(), threads, cancel, |i| match directives[i] {
        RuleDirective::Skip => Some(RuleSearch::default()),
        RuleDirective::Limit(limit) => {
            let start = Instant::now();
            let since = replay.and_then(|r| r.records[i].as_ref().map(|record| (r.cone, record)));
            let mut found = patterns[i].search_since(egraph, limit, cancel, since)?;
            found.elapsed = start.elapsed();
            Some(found)
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
    use crate::{Pattern, Symbol, SymbolLang};

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
        // The ground probes run once per search, before any candidate:
        // `a` is found and `b` is not, so the search ends after two
        // probes, however many `f` classes there are.
        let mut eg = EG::default();
        eg.add_expr(&"(f x (g a c))".parse().unwrap());
        eg.add_expr(&"(f y (g c c))".parse().unwrap());
        eg.rebuild();
        assert!(eg.lookup(&SymbolLang::leaf("b")).is_none());
        let (matches, stats) = p
            .search_interruptible(&eg, usize::MAX, &CancelToken::new())
            .unwrap();
        assert!(matches.is_empty());
        assert_eq!(
            stats,
            SearchStats {
                visits: 2,
                budget_exhausted: 0,
                replayed: 0,
            }
        );
        assert!(p.search_oracle(&eg).is_empty());
        let present = pat("(f ?x (g a c))");
        let found = present.search(&eg);
        assert_eq!(found.len(), 1);
        assert_eq!(flat(&found), flat(&present.search_oracle(&eg)));
    }

    #[test]
    fn bind_skips_enodes_whose_child_classes_lack_needed_operators() {
        // `SymbolLang` hashes operator names, so these bits are fixed:
        // `f`, `h` and `k` are apart, and so are the pair bits of `f`
        // over `a` and of `f` over `h`.
        let bit = |name: &str| SymbolLang::leaf(name).operator_bit();
        let (f, h, k) = (bit("f"), bit("h"), bit("k"));
        assert!(f != h && k != f && k != h, "{f} {h} {k}");
        assert_ne!(
            Signature::pair_mask(f, 1 << bit("a")),
            Signature::pair_mask(f, 1 << h)
        );
        let mut eg = EG::default();
        let leaf = |eg: &mut EG, name: &str| eg.add(SymbolLang::leaf(name));
        let (la, lc) = (leaf(&mut eg, "a"), leaf(&mut eg, "c"));
        // P: ten `k` nodes and no `f`; Q: `(f a)`; W: `(f (h a))`.
        let ks: Vec<Id> = (0..10)
            .map(|i| {
                let l = leaf(&mut eg, &format!("l{i}"));
                eg.add(SymbolLang::new("k", vec![l]))
            })
            .collect();
        for w in ks.windows(2) {
            eg.union(w[0], w[1]);
        }
        let q = eg.add(SymbolLang::new("f", vec![la]));
        let ha = eg.add(SymbolLang::new("h", vec![la]));
        let w = eg.add(SymbolLang::new("f", vec![ha]));
        // One root class holding `(g P c)`, `(g Q c)` and `(g W c)`.
        let roots: Vec<Id> = [ks[0], q, w]
            .iter()
            .map(|&child| eg.add(SymbolLang::new("g", vec![child, lc])))
            .collect();
        eg.union(roots[0], roots[1]);
        eg.union(roots[0], roots[2]);
        eg.rebuild();
        eg.check_invariants();
        let search = |p: &Pattern<SymbolLang>| {
            p.search_interruptible(&eg, usize::MAX, &CancelToken::new())
                .unwrap()
        };
        let visits = |n| SearchStats {
            visits: n,
            budget_exhausted: 0,
            replayed: 0,
        };
        // P holds no `f`, so `(g P c)` costs its own unit and P's ten
        // nodes are never scanned: three root nodes, then Q's and W's
        // `f`, not 3 + 10 + 1 + 1.
        let shallow = pat("(g (f ?x) ?y)");
        let (matches, stats) = search(&shallow);
        assert_eq!(stats, visits(3 + 1 + 1));
        assert_eq!(matches[0].substs.len(), 2);
        assert_eq!(flat(&matches), flat(&shallow.search_oracle(&eg)));
        // Q holds an `f`, but none over an `h`: its pair bit is missing,
        // so only `(g W c)` goes on, to W's `f` and then H's `h`.
        let deep = pat("(g (f (h ?x)) ?y)");
        let (matches, stats) = search(&deep);
        assert_eq!(stats, visits(3 + 1 + 1));
        assert_eq!(matches[0].substs.len(), 1);
        assert_eq!(flat(&matches), flat(&deep.search_oracle(&eg)));
    }

    #[test]
    fn bind_walks_only_its_operators_run() {
        // Operators interned here, in this order, sort `+` < `g` < `f`
        // < `h` (a `Symbol` orders by interning order); the names are
        // this test's own, so no other test interns them first.
        let [plus, g, f, h] = ["+", "g", "f", "h"].map(|op| Symbol::new(format!("run{op}")));
        let mut eg = EG::default();
        let leaf = |eg: &mut EG, name: &str| eg.add(SymbolLang::leaf(name));
        let (x, y, u, v) = (
            leaf(&mut eg, "x"),
            leaf(&mut eg, "y"),
            leaf(&mut eg, "u"),
            leaf(&mut eg, "v"),
        );
        let class = |eg: &mut EG, nodes: Vec<SymbolLang>| {
            let ids: Vec<Id> = nodes.into_iter().map(|n| eg.add(n)).collect();
            for w in ids.windows(2) {
                eg.union(w[0], w[1]);
            }
            ids[0]
        };
        // M, the mixed child class: two `f`s among a `+`, a `g` and an
        // `h`.
        let m = class(
            &mut eg,
            vec![
                SymbolLang::new(plus, vec![x, y]),
                SymbolLang::new(f, vec![u]),
                SymbolLang::new(g, vec![y, x]),
                SymbolLang::new(f, vec![v]),
                SymbolLang::new(h, vec![x]),
            ],
        );
        // R, the root class: three `f`s, one over M, between a `+`, a
        // `g` and two `h`s.
        let r = class(
            &mut eg,
            vec![
                SymbolLang::new(h, vec![y]),
                SymbolLang::new(f, vec![m]),
                SymbolLang::new(plus, vec![x, x]),
                SymbolLang::new(f, vec![x]),
                SymbolLang::new(g, vec![x, y]),
                SymbolLang::new(f, vec![y]),
                SymbolLang::new(h, vec![u]),
            ],
        );
        eg.rebuild();
        eg.check_invariants();
        let ops = |id: Id| -> Vec<Symbol> { eg.eclass(id).nodes.iter().map(|n| n.op).collect() };
        assert_eq!(ops(r), [plus, g, f, f, f, h, h]);
        assert_eq!(ops(m), [plus, g, f, f, h]);
        let p = pat("(runf (runf ?z))");
        let matches = p.search(&eg);
        assert_eq!(flat(&matches), flat(&p.search_oracle(&eg)));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(r));
        assert_eq!(matches[0].substs.len(), 2);
        // R costs its three `f`s, and its `(f M)` descends into M's two;
        // M costs its own two, whose leaf children hold no `f`. Scanning
        // whole classes would cost 7 + 5 + 5.
        assert_eq!(visits_of(p.program(), &eg, "runf"), (3 + 2) + 2);
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
    /// backtracking (so it finds no match at all): two
    /// classes `A`/`B` each holding `width` f-nodes over disjoint
    /// leaves, `n_roots` classes `(g A B T_r)` whose tag class `T_r`
    /// holds a leaf `t_r` and an `h` node over a leaf `u_r` of its own,
    /// and the probe `(g (f ?x) (f ?y) (h ?x ?y))` that never closes.
    /// The tag's `h` node gives every root the signature the probe
    /// needs, so the VM cannot skip it; its failing check, the
    /// `(h ?x ?y)` probe, needs both variables, so every `(?x, ?y)`
    /// pair is enumerated and probed. Each root costs ~`width²` budget
    /// units (up to the work budget) but adds only five e-nodes, so
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
            let u = eg.add(SymbolLang::leaf(format!("u{r}")));
            let h = eg.add(SymbolLang::new("h", vec![u, u]));
            eg.union(tag, h);
            eg.add(SymbolLang::new("g", vec![a, b, tag]));
        }
        eg.rebuild();
        (eg, pat("(g (f ?x) (f ?y) (h ?x ?y))"))
    }

    /// A program's instructions as `bind r<i>`, `build r<out>` and
    /// `compare r<i> r<j>`, for pinning their order.
    fn layout(p: &Pattern<SymbolLang>) -> Vec<String> {
        p.program()
            .instructions()
            .iter()
            .map(|ins| match ins {
                Instruction::Bind { i, .. } => format!("bind r{i}"),
                Instruction::Build { out, .. } => format!("build r{out}"),
                Instruction::Compare { i, j } => format!("compare r{i} r{j}"),
            })
            .collect()
    }

    #[test]
    fn checks_run_as_soon_as_their_registers_are_bound() {
        // maj-37: the four probes of `(& (! (& ?a ?b)) (| ?a ?b))` read
        // only `?a` (r3) and `?b` (r4), so they follow the Bind of
        // `(& ?a ?b)`, before the `(& X ?c)` Bind of r2; their Compare
        // reads r5, which that Bind writes.
        let maj37 = pat("(| (& ?a ?b) (& (& (! (& ?a ?b)) (| ?a ?b)) ?c))");
        assert_eq!(
            layout(&maj37),
            [
                "bind r0",
                "bind r1",
                "build r7",
                "build r8",
                "build r9",
                "build r10",
                "bind r2",
                "compare r5 r10",
            ]
        );
        // Its repeated `(& ?a ?b)` shares `?a` and `?b` with `(| ?a ?b)`,
        // so it is not matched once: maj-37 compiles in preorder.
        assert_eq!(
            maj37.program().instructions(),
            Program::compile_in_preorder(&maj37.ast).instructions()
        );
        // The repeated `?x` is checked once the first `f` binds it,
        // before the second `f` is scanned.
        let early = pat("(g (f ?x) (f ?y) ?x)");
        assert_eq!(
            layout(&early),
            ["bind r0", "bind r1", "compare r3 r4", "bind r2"]
        );
        // On the explosive e-graph that probe fails after the first
        // `f`: each root costs its g and the `width` f's of `A`, not
        // the work budget.
        let width = 400;
        let (eg, _) = explosive_workload(3, width);
        let (matches, stats) = early
            .search_interruptible(&eg, usize::MAX, &CancelToken::new())
            .unwrap();
        assert_eq!(
            stats,
            SearchStats {
                visits: 3 * (1 + width),
                budget_exhausted: 0,
                replayed: 0,
            }
        );
        assert_eq!(flat(&matches), flat(&early.search_oracle(&eg)));
        // Where `?x` does close, the early check keeps every match.
        let (mut eg, _) = explosive_workload(2, 30);
        let class = |eg: &EG, s: &str| eg.lookup_expr(&s.parse().unwrap()).unwrap();
        let (a, b, x) = (class(&eg, "(f a0)"), class(&eg, "(f b0)"), class(&eg, "a7"));
        eg.add(SymbolLang::new("g", vec![a, b, x]));
        eg.rebuild();
        let found = early.search(&eg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].substs.len(), 30);
        assert_eq!(flat(&found), flat(&early.search_oracle(&eg)));
    }

    /// The budget units `prog` spends searching every class that holds
    /// `op`, as [`Pattern::search`] runs it, with no limit.
    fn visits_of(prog: &Program<SymbolLang>, eg: &EG, op: &str) -> usize {
        let mut regs = Vec::new();
        let (mut visits, found) = prog.probe_ground(eg, &mut regs);
        assert!(found);
        for &class in eg.classes_with_op(&SymbolLang::leaf(op).discriminant()) {
            let mut budget = usize::MAX;
            let token = CancelToken::new();
            let outcome = prog.run(
                eg,
                class,
                &mut regs,
                &mut Vec::new(),
                &mut budget,
                usize::MAX,
                &token,
            );
            assert_eq!(outcome, RunOutcome::Complete);
            visits += usize::MAX - budget;
        }
        visits
    }

    #[test]
    fn repeated_subterm_is_bound_once_and_enumerated_last() {
        // The shape of xor-00: `(f ?x ?y)` occurs twice, and `?x` and
        // `?y` occur nowhere else. Its first occurrence is just the r3
        // that `(k X ?z)`'s Bind writes; the second is the r3 leaf of
        // the `(k ?z X)` probe; the `f` Bind comes last.
        let p = pat("(g (k (f ?x ?y) ?z) (k ?z (f ?x ?y)))");
        assert_eq!(
            layout(&p),
            ["bind r0", "bind r1", "build r5", "compare r2 r5", "bind r3"]
        );
        let Instruction::Build { node, .. } = &p.program().instructions()[2] else {
            panic!("a Build");
        };
        assert_eq!(node.children(), [Id::from_index(4), Id::from_index(3)]);
        // A repeat inside a repeat is matched once per match of the
        // outer one.
        assert_eq!(
            layout(&pat("(h (g (f ?x) (f ?x)) (g (f ?x) (f ?x)))")),
            [
                "bind r0",
                "compare r2 r1",
                "bind r1",
                "compare r4 r3",
                "bind r3"
            ]
        );
        // A repeat whose variable occurs outside it, and a ground one,
        // compile in preorder.
        for unchanged in ["(m (f ?x) (f ?x) ?x)", "(g (f a) (f a))"] {
            let p = pat(unchanged);
            assert_eq!(
                p.program().instructions(),
                Program::compile_in_preorder(&p.ast).instructions(),
                "{unchanged}"
            );
        }
        // F holds `n` f-nodes. The root `(g (k F z) (k z F))` matches
        // once per f-node; each of `m` roots `(g (k F z) (k z G_j))`,
        // where G_j holds one other f-node, does not match.
        let (n, m) = (6, 4);
        let mut eg = EG::default();
        let leaf = |eg: &mut EG, name: String| eg.add(SymbolLang::leaf(name));
        let fs: Vec<Id> = (0..n)
            .map(|i| {
                let (x, y) = (
                    leaf(&mut eg, format!("x{i}")),
                    leaf(&mut eg, format!("y{i}")),
                );
                eg.add(SymbolLang::new("f", vec![x, y]))
            })
            .collect();
        for w in fs.windows(2) {
            eg.union(w[0], w[1]);
        }
        let z = leaf(&mut eg, "z".into());
        let left = eg.add(SymbolLang::new("k", vec![fs[0], z]));
        let right = eg.add(SymbolLang::new("k", vec![z, fs[0]]));
        eg.add(SymbolLang::new("g", vec![left, right]));
        for j in 0..m {
            let (p, q) = (
                leaf(&mut eg, format!("p{j}")),
                leaf(&mut eg, format!("q{j}")),
            );
            let other = eg.add(SymbolLang::new("f", vec![p, q]));
            let miss = eg.add(SymbolLang::new("k", vec![z, other]));
            eg.add(SymbolLang::new("g", vec![left, miss]));
        }
        eg.rebuild();
        let matches = p.search(&eg);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].substs.len(), n);
        assert_eq!(flat(&matches), flat(&p.search_oracle(&eg)));
        // Each root costs its g, the `(k F z)` k and the `(k z F)` probe;
        // the matching root then scans F's `n` f-nodes.
        assert_eq!(visits_of(p.program(), &eg, "g"), (m + 1) * 3 + n);
        // In preorder every root scans F, and each f-node costs its
        // visit and two probes, `(f x_i y_i)` and `(k z F)`.
        let preorder = Program::compile_in_preorder(&p.ast);
        assert_eq!(visits_of(&preorder, &eg, "g"), (m + 1) * (2 + 3 * n));
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
        assert_eq!(p.program().probe_ground(&eg, &mut regs), (0, true));
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
                replayed: 0,
            }
        );
        // The same shape without the failing `?x` closes on every
        // `(?x, ?y)` pair, so each root runs into the budget too: every
        // unit after the g is a match, except one per f of `A`.
        let open = pat("(g (f ?x) (f ?y) ?t)");
        let (matches, open_stats) = open
            .search_interruptible(&eg, usize::MAX, &CancelToken::new())
            .unwrap();
        assert_eq!(open_stats, stats);
        let units = crate::MATCH_WORK_BUDGET - 1;
        let per_root = units - units.div_ceil(1 + 400);
        assert!(matches.iter().all(|m| m.substs.len() == per_root));
        assert_eq!(matches.len(), 3);
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
    fn match_limit_directive_stops_mid_class_and_returns_no_matches() {
        // One explosive root with ~50,000 matches: under `Limit(k)` the
        // search stops inside it at match `k + 1`, after one g, one f
        // of `A` and `k + 1` f's of `B`.
        let (eg, _) = explosive_workload(1, 400);
        let open = pat("(g (f ?x) (f ?y) ?t)");
        let k = 10;
        let directives = [RuleDirective::Limit(k), RuleDirective::Limit(usize::MAX)];
        let slots = search_rules(&[&open, &open], &eg, &directives, &CancelToken::new(), 1);
        let (limited, unlimited) = (slots[0].as_ref().unwrap(), slots[1].as_ref().unwrap());
        assert!(limited.overflowed && limited.matches.is_empty() && limited.record.is_none());
        assert_eq!(limited.stats.visits, 1 + 1 + (k + 1));
        assert!(!unlimited.overflowed);
        assert_eq!(unlimited.stats.visits, crate::MATCH_WORK_BUDGET);
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
        assert!(full.is_empty(), "the probe must never close");

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
