//! Rewrite rules: a searcher [`Pattern`] and an applier [`Pattern`].

use std::fmt;
use std::marker::PhantomData;

use crate::{
    Analysis, EGraph, ENodeOrVar, FromOp, Language, ParsePatternError, ParseRecExprError, Pattern,
    SearchMatches, Symbol,
};

/// A named rewrite rule `lhs => rhs`: searching matches `lhs` (see
/// [`search_rules`](crate::search_rules)), applying instantiates `rhs`
/// under each match and unions it with the matched class. `N` is the
/// analysis of the e-graphs the rule rewrites.
///
/// ```
/// use egraph::{Rewrite, SymbolLang};
/// let rw: Rewrite<SymbolLang, ()> =
///     Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap();
/// assert_eq!(rw.name().as_str(), "comm-add");
/// ```
pub struct Rewrite<L, N> {
    name: Symbol,
    searcher: Pattern<L>,
    applier: Pattern<L>,
    analysis: PhantomData<fn() -> N>,
}

impl<L: Language, N> Clone for Rewrite<L, N> {
    fn clone(&self) -> Self {
        Self {
            name: self.name,
            searcher: self.searcher.clone(),
            applier: self.applier.clone(),
            analysis: PhantomData,
        }
    }
}

impl<L: Language, N> fmt::Debug for Rewrite<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rewrite {{ {}: {} => {} }}",
            self.name, self.searcher, self.applier
        )
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Parses a rewrite from pattern strings (see [`Rewrite::new`]).
    ///
    /// # Errors
    ///
    /// Returns an error if either side fails to parse, or if
    /// [`Rewrite::new`] rejects the rule.
    pub fn parse(name: &str, lhs: &str, rhs: &str) -> Result<Self, ParsePatternError>
    where
        L: FromOp,
    {
        Self::new(name, lhs.parse()?, rhs.parse()?)
    }

    /// Creates the rewrite `searcher => applier`.
    ///
    /// # Errors
    ///
    /// Returns an error if the searcher is a bare variable such as
    /// `?x` (it has no root operator to search by), or if the applier
    /// uses a variable the searcher does not bind. The applier itself
    /// may be a bare variable.
    pub fn new(
        name: &str,
        searcher: Pattern<L>,
        applier: Pattern<L>,
    ) -> Result<Self, ParsePatternError> {
        let reject = |why: String| {
            Err(ParsePatternError::from(ParseRecExprError::new(format!(
                "rewrite {name}: {why}"
            ))))
        };
        if let ENodeOrVar::Var(v) = &searcher.ast[searcher.ast.root()] {
            return reject(format!("lhs is the bare variable {v}"));
        }
        if let Some(v) = applier.vars().iter().find(|v| !searcher.vars().contains(v)) {
            return reject(format!("rhs variable {v} is unbound in lhs"));
        }
        Ok(Self {
            name: Symbol::new(name),
            searcher,
            applier,
            analysis: PhantomData,
        })
    }

    /// The rule name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The left-hand-side pattern.
    pub fn searcher(&self) -> &Pattern<L> {
        &self.searcher
    }

    /// Applies the rule to previously found matches, returning the
    /// number of applications that changed the e-graph.
    pub fn apply(&self, egraph: &mut EGraph<L, N>, matches: &[SearchMatches]) -> usize {
        let mut applied = 0;
        for m in matches {
            for subst in &m.substs {
                let new_id = self.applier.instantiate(egraph, subst);
                applied += usize::from(egraph.union(m.eclass, new_id).1);
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecExpr, SymbolLang};

    type EG = EGraph<SymbolLang, ()>;
    type RW = Rewrite<SymbolLang, ()>;

    fn pat(s: &str) -> Pattern<SymbolLang> {
        s.parse().unwrap()
    }

    #[test]
    fn parse_checks_unbound_vars() {
        assert!(RW::parse("bad", "(+ ?a ?b)", "(+ ?a ?c)").is_err());
        assert!(RW::parse("ok", "(+ ?a ?b)", "?a").is_ok());
    }

    #[test]
    fn new_rejects_unbound_rhs_vars() {
        let err = RW::new("bad", pat("(f ?x)"), pat("(g ?y)")).unwrap_err();
        assert_eq!(err, RW::parse("bad", "(f ?x)", "(g ?y)").unwrap_err());
        assert!(
            err.to_string().contains("rhs variable ?y is unbound"),
            "{err}"
        );
    }

    #[test]
    fn new_rejects_bare_variable_lhs() {
        let err = RW::new("bare", pat("?x"), pat("(f ?x)")).unwrap_err();
        assert_eq!(err, RW::parse("bare", "?x", "(f ?x)").unwrap_err());
        assert!(
            err.to_string().contains("lhs is the bare variable ?x"),
            "{err}"
        );
    }

    #[test]
    fn apply_unions_lhs_and_rhs() {
        let mut eg = EG::default();
        let expr: RecExpr<SymbolLang> = "(+ x 0)".parse().unwrap();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let rw = RW::parse("add-zero", "(+ ?a 0)", "?a").unwrap();
        let matches = rw.searcher().search(&eg);
        let n = rw.apply(&mut eg, &matches);
        eg.rebuild();
        assert_eq!(n, 1);
        let x = eg.lookup(&SymbolLang::leaf("x")).unwrap();
        assert_eq!(eg.find(root), eg.find(x));
        // A second application finds the classes already merged.
        assert_eq!(rw.apply(&mut eg, &matches), 0);
    }
}
