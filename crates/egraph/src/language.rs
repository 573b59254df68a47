//! The [`Language`] trait describing term operators, and
//! [`SymbolLang`], a generic language useful for tests and prototyping.

use std::fmt;
use std::hash::Hash;

use crate::{Id, Symbol};

/// An operator in a term language.
///
/// A value of a `Language` type is an *e-node*: an operator applied to
/// child e-class [`Id`]s. Equality and hashing must take both the
/// operator and the children into account (derive them), while
/// [`Language::matches`] compares operators only.
///
/// The `Display` implementation must print the operator *without*
/// children (it is used to render s-expressions).
pub trait Language: fmt::Debug + fmt::Display + Clone + Eq + Ord + Hash {
    /// A cheap identifier of the operator, ignoring children.
    type Discriminant: PartialEq + Eq + Hash + Clone;

    /// Returns the operator discriminant of this e-node.
    fn discriminant(&self) -> Self::Discriminant;

    /// Returns `true` if `self` and `other` have the same operator and
    /// arity (children ids are ignored).
    fn matches(&self, other: &Self) -> bool {
        self.discriminant() == other.discriminant()
            && self.children().len() == other.children().len()
    }

    /// The children e-class ids of this e-node.
    fn children(&self) -> &[Id];

    /// Mutable access to the children e-class ids.
    fn children_mut(&mut self) -> &mut [Id];

    /// Replaces each child `c` with `f(c)` in place.
    fn update_children<F: FnMut(Id) -> Id>(&mut self, mut f: F) {
        for c in self.children_mut() {
            *c = f(*c);
        }
    }

    /// Returns a copy with each child `c` replaced by `f(c)`.
    fn map_children<F: FnMut(Id) -> Id>(&self, f: F) -> Self {
        let mut new = self.clone();
        new.update_children(f);
        new
    }

    /// Returns `true` if this e-node has no children.
    fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }
}

/// Languages that can be parsed from an operator string and children.
///
/// This powers [`RecExpr`](crate::RecExpr) and
/// [`Pattern`](crate::Pattern) parsing from s-expressions.
pub trait FromOp: Language + Sized {
    /// Parses `op` applied to `children`.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is unknown or applied at the wrong arity.
    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, FromOpError>;
}

/// Error returned by [`FromOp::from_op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromOpError {
    op: String,
    arity: usize,
}

impl FromOpError {
    /// Creates a new error for operator `op` applied to `arity` children.
    pub fn new(op: &str, arity: usize) -> Self {
        Self {
            op: op.to_owned(),
            arity,
        }
    }
}

impl fmt::Display for FromOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown operator `{}` with {} children",
            self.op, self.arity
        )
    }
}

impl std::error::Error for FromOpError {}

/// A generic language whose operators are arbitrary symbols with
/// arbitrary arity — handy for tests and quick prototypes.
///
/// ```
/// use egraph::{EGraph, SymbolLang};
/// let mut eg: EGraph<SymbolLang> = EGraph::default();
/// let x = eg.add(SymbolLang::leaf("x"));
/// let y = eg.add(SymbolLang::leaf("y"));
/// let f = eg.add(SymbolLang::new("f", vec![x, y]));
/// assert_ne!(f, x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolLang {
    /// The operator symbol.
    pub op: Symbol,
    /// The children e-class ids.
    pub children: Vec<Id>,
}

impl SymbolLang {
    /// Creates an e-node with the given operator and children.
    pub fn new(op: impl Into<Symbol>, children: Vec<Id>) -> Self {
        Self {
            op: op.into(),
            children,
        }
    }

    /// Creates a childless e-node.
    pub fn leaf(op: impl Into<Symbol>) -> Self {
        Self::new(op, vec![])
    }
}

impl Language for SymbolLang {
    type Discriminant = Symbol;

    fn discriminant(&self) -> Symbol {
        self.op
    }

    fn children(&self) -> &[Id] {
        &self.children
    }

    fn children_mut(&mut self) -> &mut [Id] {
        &mut self.children
    }
}

impl fmt::Display for SymbolLang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)
    }
}

impl FromOp for SymbolLang {
    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, FromOpError> {
        Ok(Self::new(op, children))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_lang_matches_ignores_children() {
        let a = SymbolLang::new("f", vec![Id::from_index(0)]);
        let b = SymbolLang::new("f", vec![Id::from_index(1)]);
        let c = SymbolLang::new("g", vec![Id::from_index(0)]);
        assert!(a.matches(&b));
        assert!(!a.matches(&c));
        assert_ne!(a, b);
    }

    #[test]
    fn map_children() {
        let a = SymbolLang::new("f", vec![Id::from_index(0), Id::from_index(1)]);
        let b = a.map_children(|c| Id::from_index(c.index() + 10));
        assert_eq!(b.children(), &[Id::from_index(10), Id::from_index(11)]);
    }
}
