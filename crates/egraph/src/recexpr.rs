//! [`RecExpr`]: a flattened recursive expression (term DAG).

use std::fmt;
use std::str::FromStr;

use crate::{FromOp, Id, Language};

/// A recursive expression stored as a post-order array of e-nodes.
///
/// Node children always refer to *earlier* indices, so index `len - 1`
/// is the root. `RecExpr` is the concrete-term counterpart of an
/// e-class: [`crate::EGraph::add_expr`] inserts one, and
/// [`crate::EGraph::lookup_expr`] finds the class that holds one.
///
/// ```
/// use egraph::{RecExpr, SymbolLang};
/// let expr: RecExpr<SymbolLang> = "(f (g x) y)".parse().unwrap();
/// assert_eq!(expr.to_string(), "(f (g x) y)");
/// assert_eq!(expr.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecExpr<L> {
    nodes: Vec<L>,
}

impl<L> Default for RecExpr<L> {
    fn default() -> Self {
        Self { nodes: vec![] }
    }
}

impl<L: Language> RecExpr<L> {
    /// Creates an empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `node` (whose children must already be in the expression)
    /// and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a child id is out of bounds.
    pub fn add(&mut self, node: L) -> Id {
        for &child in node.children() {
            assert!(
                child.index() < self.nodes.len(),
                "RecExpr::add: child {child} out of bounds"
            );
        }
        self.nodes.push(node);
        Id::from_index(self.nodes.len() - 1)
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the expression has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root id (last node).
    ///
    /// # Panics
    ///
    /// Panics if the expression is empty.
    pub fn root(&self) -> Id {
        assert!(!self.nodes.is_empty(), "RecExpr::root on empty expression");
        Id::from_index(self.nodes.len() - 1)
    }

    /// Iterates over the nodes in post-order.
    pub fn iter(&self) -> std::slice::Iter<'_, L> {
        self.nodes.iter()
    }

    /// The nodes as a slice, children-before-parents.
    pub fn as_slice(&self) -> &[L] {
        &self.nodes
    }
}

impl<L> std::ops::Index<Id> for RecExpr<L> {
    type Output = L;
    fn index(&self, id: Id) -> &L {
        &self.nodes[id.index()]
    }
}

impl<L: Language> fmt::Display for RecExpr<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nodes.is_empty() {
            return write!(f, "()");
        }
        fn fmt_node<L: Language>(
            expr: &RecExpr<L>,
            id: Id,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let node = &expr[id];
            if node.is_leaf() {
                write!(f, "{node}")
            } else {
                write!(f, "({node}")?;
                for &c in node.children() {
                    write!(f, " ")?;
                    fmt_node(expr, c, f)?;
                }
                write!(f, ")")
            }
        }
        fmt_node(self, self.root(), f)
    }
}

/// Error from parsing a [`RecExpr`] from an s-expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRecExprError {
    message: String,
}

impl ParseRecExprError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseRecExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseRecExprError {}

/// A parsed s-expression tree, shared by [`RecExpr`] and
/// [`crate::Pattern`] parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Sexp {
    Atom(String),
    List(Vec<Sexp>),
}

pub(crate) fn parse_sexp(s: &str) -> Result<Sexp, ParseRecExprError> {
    let mut tokens = tokenize(s);
    let sexp = parse_tokens(&mut tokens)?;
    if let Some(extra) = tokens.next() {
        return Err(ParseRecExprError::new(format!(
            "trailing input starting at `{extra}`"
        )));
    }
    Ok(sexp)
}

fn tokenize(s: &str) -> std::vec::IntoIter<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens.into_iter()
}

fn parse_tokens(tokens: &mut std::vec::IntoIter<String>) -> Result<Sexp, ParseRecExprError> {
    match tokens.next() {
        None => Err(ParseRecExprError::new("unexpected end of input")),
        Some(tok) if tok == "(" => {
            let mut items = Vec::new();
            loop {
                match tokens.as_slice().first() {
                    None => return Err(ParseRecExprError::new("unclosed `(`")),
                    Some(t) if t == ")" => {
                        tokens.next();
                        break;
                    }
                    Some(_) => items.push(parse_tokens(tokens)?),
                }
            }
            if items.is_empty() {
                return Err(ParseRecExprError::new("empty list `()`"));
            }
            Ok(Sexp::List(items))
        }
        Some(tok) if tok == ")" => Err(ParseRecExprError::new("unexpected `)`")),
        Some(atom) => Ok(Sexp::Atom(atom)),
    }
}

pub(crate) fn sexp_into_recexpr<L: FromOp>(
    sexp: &Sexp,
    expr: &mut RecExpr<L>,
) -> Result<Id, ParseRecExprError> {
    match sexp {
        Sexp::Atom(op) => {
            let node = L::from_op(op, vec![]).map_err(|e| ParseRecExprError::new(e.to_string()))?;
            Ok(expr.add(node))
        }
        Sexp::List(items) => {
            let op = match &items[0] {
                Sexp::Atom(op) => op,
                Sexp::List(_) => {
                    return Err(ParseRecExprError::new("operator position must be an atom"))
                }
            };
            let children = items[1..]
                .iter()
                .map(|s| sexp_into_recexpr(s, expr))
                .collect::<Result<Vec<Id>, _>>()?;
            let node =
                L::from_op(op, children).map_err(|e| ParseRecExprError::new(e.to_string()))?;
            Ok(expr.add(node))
        }
    }
}

impl<L: FromOp> FromStr for RecExpr<L> {
    type Err = ParseRecExprError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sexp = parse_sexp(s)?;
        let mut expr = RecExpr::default();
        sexp_into_recexpr(&sexp, &mut expr)?;
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["x", "(f x)", "(f (g x y) (h z))", "(+ 0 (+ x 0))"] {
            let expr: RecExpr<SymbolLang> = s.parse().unwrap();
            assert_eq!(expr.to_string(), s);
        }
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<RecExpr<SymbolLang>>().is_err());
        assert!("(".parse::<RecExpr<SymbolLang>>().is_err());
        assert!(")".parse::<RecExpr<SymbolLang>>().is_err());
        assert!("()".parse::<RecExpr<SymbolLang>>().is_err());
        assert!("(f x) y".parse::<RecExpr<SymbolLang>>().is_err());
        assert!("((f) x)".parse::<RecExpr<SymbolLang>>().is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_validates_children() {
        let mut expr: RecExpr<SymbolLang> = RecExpr::default();
        expr.add(SymbolLang::new("f", vec![Id::from_index(3)]));
    }
}
