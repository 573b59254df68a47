//! A from-scratch equality saturation engine in the spirit of `egg`
//! (Willsey et al., POPL 2021), built as the substrate for the BoolE
//! reproduction.
//!
//! The crate provides:
//!
//! * [`EGraph`] — an e-graph with hash-consing, a union-find over
//!   e-classes, and deferred congruence-closure rebuilding. Beside
//!   each class's operator signature, which rebuilding refreshes for
//!   the matcher, it keeps no per-class analysis data: the BoolE
//!   passes that need per-class facts (FA pairing, DAG extraction)
//!   compute them in their own passes over a finished e-graph.
//! * [`Language`] — the trait describing the operators of a term
//!   language, plus [`RecExpr`] for concrete terms.
//! * [`Pattern`] — s-expression patterns with variables (`?x`), each
//!   compiled once into an e-matching VM program ([`machine`]) of
//!   three instructions: `Bind` walks its operator's run of a class's
//!   sorted e-nodes, skipping those whose child classes' operator
//!   signatures rule them out, `Build` probes the hash-cons memo for
//!   a subterm whose variables are all bound (variable-free subterms
//!   included, probed once per search), and `Compare` checks two
//!   registers name one class.
//! * [`Rewrite`] / [`Runner`] — rewrite rules and a saturation driver
//!   with iteration, node, and time limits plus backoff scheduling. A
//!   rule has one shape: a left-hand-side pattern rooted at an
//!   operator, and a right-hand-side pattern instantiated and unioned
//!   with each match. Each iteration searches every rule on its own
//!   program, rules spread over a work-stealing thread pool
//!   ([`search_rules`]).
//!
//! Picking a term out of a saturated e-graph is left to the caller:
//! BoolE has its own FA-maximizing DAG extraction.
//!
//! # Example
//!
//! ```
//! use egraph::{RecExpr, Rewrite, Runner, SymbolLang};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rules: Vec<Rewrite<SymbolLang>> = vec![
//!     Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)")?,
//!     Rewrite::parse("add-zero", "(+ ?a 0)", "?a")?,
//! ];
//! let expr: RecExpr<SymbolLang> = "(+ 0 (+ x 0))".parse()?;
//! let runner = Runner::default().with_expr(&expr).run(&rules);
//! let x = runner.egraph.lookup_expr(&"x".parse()?).unwrap();
//! assert_eq!(runner.egraph.find(runner.roots[0]), x);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cancel;
mod delta;
#[cfg(test)]
mod differential;
mod egraph;
pub mod hash;
mod language;
pub mod machine;
mod pattern;
mod recexpr;
mod rewrite;
mod runner;
mod signature;
mod symbol;
mod unionfind;

pub use crate::cancel::CancelToken;
pub use crate::egraph::{EClass, EGraph};
pub use crate::language::{FromOp, FromOpError, Language, SymbolLang};
pub use crate::machine::{search_rules, RuleDirective, RuleSearch, SearchStats};
pub use crate::pattern::{
    ENodeOrVar, ParsePatternError, Pattern, SearchMatches, Subst, Var, MATCH_WORK_BUDGET,
    MAX_SUBSTS_PER_CLASS,
};
pub use crate::recexpr::{ParseRecExprError, RecExpr};
pub use crate::rewrite::Rewrite;
pub use crate::runner::{
    BackoffScheduler, Iteration, IterationHook, RuleProfile, Runner, RunnerLimits, StopReason,
};
pub use crate::symbol::Symbol;
pub use crate::unionfind::UnionFind;

use std::fmt;

/// An identifier for an e-class (or a node index inside a [`RecExpr`]).
///
/// `Id`s are small copyable handles; they are only meaningful relative to
/// the [`EGraph`] or [`RecExpr`] that produced them.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(u32);

impl Id {
    /// Creates an id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in 32 bits.
    pub fn from_index(i: usize) -> Self {
        assert!(i <= u32::MAX as usize, "e-graph id overflow");
        Id(i as u32)
    }

    /// Returns the raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for Id {
    fn from(i: usize) -> Self {
        Id::from_index(i)
    }
}

impl From<Id> for usize {
    fn from(id: Id) -> usize {
        id.index()
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
