//! Structural-Verilog reading and writing (gate-primitive subset).
//!
//! Supported: one `module` with a port list (plain or ANSI-style
//! `input`/`output` annotations), `input`/`output`/`wire` declarations,
//! the gate primitives `and`, `nand`, `or`, `nor`, `xor`, `xnor`
//! (n-ary), `not`, `buf` (two-port), simple alias assignments
//! (`assign y = x;`), and the constant literals `1'b0`/`1'b1` as
//! operands. Instances may appear in any order: they are built in
//! dependency order by the shared resolver in [`crate::netlist`], which
//! also reports multiple drivers, undriven nets and combinational
//! cycles ([`NetlistErrorKind::Cycle`]).
//!
//! Outside the subset — vectors (`[3:0]`), `always`/`initial` blocks,
//! `reg` declarations, module instantiation, expression assigns — the
//! parser reports a typed [`NetlistErrorKind::Unsupported`] error
//! rather than guessing.
//!
//! [`write_verilog`] emits one `and` per AIG node plus `not` gates for
//! complemented fanins and `buf`/`not` drivers for outputs. Inverters
//! and buffers lower to literal complement/aliasing (no AIG nodes), so
//! `parse_verilog(write_verilog(aig))` rebuilds a node-for-node
//! identical AIG; the conformance suite asserts this.

use std::collections::HashSet;

use crate::netlist::{
    build_definitions, sanitize_name, Definition, NetlistError, NetlistErrorKind,
};
use crate::{Aig, Lit};

const FORMAT: &str = "verilog";

fn err(kind: NetlistErrorKind, line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::at(FORMAT, kind, line, message)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// `1'b0` / `1'b1` (payload is the bit value).
    Const(bool),
    /// A bare number (only legal inside constructs the parser then
    /// rejects as unsupported, e.g. vector ranges).
    Number(&'a str),
    /// Single punctuation character: `( ) , ; = [ ] .` etc.
    Punct(char),
}

struct Token<'a> {
    tok: Tok<'a>,
    line: usize,
}

fn tokenize(text: &str) -> Result<Vec<Token<'_>>, NetlistError> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = line;
                i += 2;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(err(
                                NetlistErrorKind::Truncated,
                                start,
                                "unterminated /* comment",
                            ));
                        }
                        Some(b'\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some(b'*') if bytes.get(i + 1) == Some(&b'/') => {
                            i += 2;
                            break;
                        }
                        Some(_) => i += 1,
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'$')
                {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(&text[start..i]),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                // Sized literal: width ' base digits.
                if bytes.get(i) == Some(&b'\'') {
                    let base = bytes.get(i + 1).copied().map(|b| b.to_ascii_lowercase());
                    if base != Some(b'b') {
                        return Err(err(
                            NetlistErrorKind::Unsupported,
                            line,
                            "only 1'b0 / 1'b1 literals are supported",
                        ));
                    }
                    i += 2;
                    let dstart = i;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_alphanumeric() {
                        i += 1;
                    }
                    let literal = &text[start..i];
                    let value = match (&text[start..dstart - 2], &text[dstart..i]) {
                        ("1", "0") => false,
                        ("1", "1") => true,
                        _ => {
                            return Err(err(
                                NetlistErrorKind::Unsupported,
                                line,
                                format!("literal {literal:?} (only 1'b0 / 1'b1 are supported)"),
                            ));
                        }
                    };
                    out.push(Token {
                        tok: Tok::Const(value),
                        line,
                    });
                } else {
                    out.push(Token {
                        tok: Tok::Number(&text[start..i]),
                        line,
                    });
                }
            }
            // Punctuation beyond the supported subset (`@`, `<`, …) is
            // tokenized anyway so the *parser* can name the offending
            // construct (`always`, an expression assign) instead of
            // failing on a bare character.
            '(' | ')' | ',' | ';' | '=' | '[' | ']' | ':' | '.' | '@' | '<' | '>' | '~' | '&'
            | '|' | '^' | '!' | '?' | '+' | '-' | '*' | '%' | '{' | '}' | '#' => {
                out.push(Token {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
            other => {
                return Err(err(
                    NetlistErrorKind::Syntax,
                    line,
                    format!("unexpected character {other:?}"),
                ));
            }
        }
    }
    Ok(out)
}

/// The constant literals as operands: `1'b0` and `1'b1` are signals
/// bound before anything else (no identifier can spell them).
const CONSTANTS: [(&str, Lit); 2] = [("1'b0", Lit::FALSE), ("1'b1", Lit::TRUE)];

/// The operand signal for a constant literal.
fn constant(value: bool) -> &'static str {
    CONSTANTS[usize::from(value)].0
}

fn is_constant(signal: &str) -> bool {
    CONSTANTS.iter().any(|&(c, _)| c == signal)
}

/// One primitive instance (or alias assign), pre-resolution.
type Instance<'a> = Definition<&'a str, GateKind>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateKind {
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
}

impl GateKind {
    fn from_keyword(kw: &str) -> Option<GateKind> {
        Some(match kw {
            "and" => GateKind::And,
            "nand" => GateKind::Nand,
            "or" => GateKind::Or,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "not" => GateKind::Not,
            "buf" => GateKind::Buf,
            _ => return None,
        })
    }
}

/// Token-stream cursor with one-token lookahead.
struct Cursor<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&Tok<'a>> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<&Token<'a>> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), NetlistError> {
        let line = self.line();
        match self.next() {
            Some(Token {
                tok: Tok::Punct(p), ..
            }) if *p == c => Ok(()),
            Some(t) => Err(err(
                NetlistErrorKind::Syntax,
                t.line,
                format!("expected {c:?}, found {:?}", t.tok),
            )),
            None => Err(err(
                NetlistErrorKind::Truncated,
                line,
                format!("expected {c:?}, found end of file"),
            )),
        }
    }

    fn expect_ident(&mut self) -> Result<(&'a str, usize), NetlistError> {
        let line = self.line();
        match self.next() {
            Some(Token {
                tok: Tok::Ident(name),
                line,
            }) => Ok((*name, *line)),
            Some(t) => Err(err(
                NetlistErrorKind::Syntax,
                t.line,
                format!("expected an identifier, found {:?}", t.tok),
            )),
            None => Err(err(
                NetlistErrorKind::Truncated,
                line,
                "expected an identifier, found end of file",
            )),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetClass {
    Input,
    Output,
    Wire,
}

/// Parses a structural-Verilog module into an [`Aig`].
///
/// # Errors
///
/// Typed [`NetlistError`]s: [`NetlistErrorKind::Undeclared`] for
/// operands that are never declared (or outputs/wires never driven),
/// [`NetlistErrorKind::Arity`] for wrong port counts on primitives,
/// [`NetlistErrorKind::Truncated`] for files ending before
/// `endmodule`, [`NetlistErrorKind::Cycle`] for combinational loops,
/// [`NetlistErrorKind::Unsupported`] for constructs outside the
/// subset (vectors, `always`, `reg`, module instances, expression
/// assigns), and [`NetlistErrorKind::Syntax`] for the rest.
pub fn parse_verilog(text: &str) -> Result<Aig, NetlistError> {
    let tokens = tokenize(text)?;
    if tokens.is_empty() {
        return Err(err(NetlistErrorKind::Truncated, 0, "empty file"));
    }
    let mut cur = Cursor { tokens, pos: 0 };

    // module <name> [ ( ports ) ] ;
    let (kw, line) = cur.expect_ident()?;
    if kw != "module" {
        return Err(err(
            NetlistErrorKind::Syntax,
            line,
            format!("expected `module`, found {kw:?}"),
        ));
    }
    let _module_name = cur.expect_ident()?;

    // Declarations, in declaration order, with their lines.
    let mut declared: HashSet<&str> = HashSet::new();
    let mut inputs: Vec<(usize, &str)> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    let mut port_names: Vec<&str> = Vec::new();
    let mut declare = |name, class, line| -> Result<(), NetlistError> {
        if !declared.insert(name) {
            return Err(err(
                NetlistErrorKind::Syntax,
                line,
                format!("net {name:?} declared twice"),
            ));
        }
        match class {
            NetClass::Input => inputs.push((line, name)),
            NetClass::Output => outputs.push((line, name)),
            NetClass::Wire => {}
        }
        Ok(())
    };

    if cur.peek() == Some(&Tok::Punct('(')) {
        cur.next();
        if cur.peek() != Some(&Tok::Punct(')')) {
            // Optional ANSI class annotation. Per Verilog-2001, a
            // direction keyword applies to every following port until
            // the next keyword: `(input a, b, output y)` makes `b` an
            // input too, so the running class persists across commas.
            let mut class: Option<NetClass> = None;
            loop {
                while let Some(Tok::Ident(word)) = cur.peek() {
                    match *word {
                        "input" => class = Some(NetClass::Input),
                        "output" => class = Some(NetClass::Output),
                        "wire" => {}
                        "inout" => {
                            return Err(err(
                                NetlistErrorKind::Unsupported,
                                cur.line(),
                                "inout ports are not supported",
                            ));
                        }
                        _ => break,
                    }
                    cur.next();
                }
                if cur.peek() == Some(&Tok::Punct('[')) {
                    return Err(err(
                        NetlistErrorKind::Unsupported,
                        cur.line(),
                        "vector ports are not supported (bit-blast first)",
                    ));
                }
                let (name, line) = cur.expect_ident()?;
                if let Some(class) = class {
                    declare(name, class, line)?;
                }
                port_names.push(name);
                match cur.peek() {
                    Some(Tok::Punct(',')) => {
                        cur.next();
                    }
                    _ => break,
                }
            }
        }
        cur.expect_punct(')')?;
    }
    cur.expect_punct(';')?;

    // Body statements.
    let mut instances: Vec<Instance> = Vec::new();
    let mut saw_endmodule = false;
    while let Some(tok) = cur.peek() {
        let line = cur.line();
        let word = match tok {
            Tok::Ident(word) => *word,
            other => {
                return Err(err(
                    NetlistErrorKind::Syntax,
                    line,
                    format!("expected a statement, found {other:?}"),
                ));
            }
        };
        match word {
            "endmodule" => {
                cur.next();
                saw_endmodule = true;
                // Anything after `endmodule` means this is not the
                // single flat module we support; dropping it silently
                // would analyze (and cache!) the wrong circuit.
                match cur.peek() {
                    None => {}
                    Some(Tok::Ident("module")) => {
                        return Err(err(
                            NetlistErrorKind::Unsupported,
                            cur.line(),
                            "multiple modules in one file are not supported (flatten first)",
                        ));
                    }
                    Some(tok) => {
                        return Err(err(
                            NetlistErrorKind::Syntax,
                            cur.line(),
                            format!("content after endmodule: {tok:?}"),
                        ));
                    }
                }
                break;
            }
            "input" | "output" | "wire" => {
                cur.next();
                let class = match word {
                    "input" => NetClass::Input,
                    "output" => NetClass::Output,
                    _ => NetClass::Wire,
                };
                if cur.peek() == Some(&Tok::Punct('[')) {
                    return Err(err(
                        NetlistErrorKind::Unsupported,
                        cur.line(),
                        "vector declarations are not supported (bit-blast first)",
                    ));
                }
                loop {
                    let (name, line) = cur.expect_ident()?;
                    declare(name, class, line)?;
                    match cur.peek() {
                        Some(Tok::Punct(',')) => {
                            cur.next();
                        }
                        _ => break,
                    }
                }
                cur.expect_punct(';')?;
            }
            "assign" => {
                cur.next();
                let (lhs, line) = cur.expect_ident()?;
                cur.expect_punct('=')?;
                let rhs = match cur.next() {
                    Some(Token {
                        tok: Tok::Ident(name),
                        ..
                    }) => *name,
                    Some(Token {
                        tok: Tok::Const(v), ..
                    }) => constant(*v),
                    other => {
                        return Err(err(
                            NetlistErrorKind::Unsupported,
                            line,
                            format!(
                                "only alias assigns (`assign y = x;`) are supported, found {:?}",
                                other.map(|t| &t.tok)
                            ),
                        ));
                    }
                };
                if cur.peek() == Some(&Tok::Punct(';')) {
                    cur.next();
                } else {
                    return Err(err(
                        NetlistErrorKind::Unsupported,
                        cur.line(),
                        "expression assigns are not supported (structural gates only)",
                    ));
                }
                instances.push(Instance {
                    line,
                    output: lhs,
                    inputs: vec![rhs],
                    gate: GateKind::Buf,
                });
            }
            "always" | "initial" | "reg" => {
                return Err(err(
                    NetlistErrorKind::Unsupported,
                    line,
                    format!("`{word}` is not supported (combinational structural subset only)"),
                ));
            }
            _ => {
                let Some(kind) = GateKind::from_keyword(word) else {
                    return Err(err(
                        NetlistErrorKind::Unsupported,
                        line,
                        format!(
                            "unknown construct {word:?} (module instantiation is not supported)"
                        ),
                    ));
                };
                cur.next();
                // Optional instance name.
                if matches!(cur.peek(), Some(Tok::Ident(_))) {
                    cur.next();
                }
                cur.expect_punct('(')?;
                let mut operands: Vec<&str> = Vec::new();
                loop {
                    let opline = cur.line();
                    let op = match cur.next() {
                        Some(Token {
                            tok: Tok::Ident(name),
                            ..
                        }) => *name,
                        Some(Token {
                            tok: Tok::Const(v), ..
                        }) => constant(*v),
                        Some(Token {
                            tok: Tok::Punct('.'),
                            line,
                        }) => {
                            return Err(err(
                                NetlistErrorKind::Unsupported,
                                *line,
                                "named port connections are not supported",
                            ));
                        }
                        other => {
                            return Err(err(
                                NetlistErrorKind::Syntax,
                                opline,
                                format!("expected an operand, found {:?}", other.map(|t| &t.tok)),
                            ));
                        }
                    };
                    operands.push(op);
                    match cur.peek() {
                        Some(Tok::Punct(',')) => {
                            cur.next();
                        }
                        _ => break,
                    }
                }
                cur.expect_punct(')')?;
                cur.expect_punct(';')?;
                let needed = match kind {
                    GateKind::Not | GateKind::Buf => operands.len() == 2,
                    _ => operands.len() >= 3,
                };
                if !needed {
                    return Err(err(
                        NetlistErrorKind::Arity,
                        line,
                        format!(
                            "{word} takes {} ports, got {}",
                            match kind {
                                GateKind::Not | GateKind::Buf => "exactly 2".to_owned(),
                                _ => "at least 3".to_owned(),
                            },
                            operands.len()
                        ),
                    ));
                }
                let output = operands[0];
                if is_constant(output) {
                    return Err(err(
                        NetlistErrorKind::Syntax,
                        line,
                        "a gate output must be a net, not a constant",
                    ));
                }
                instances.push(Instance {
                    line,
                    output,
                    inputs: operands[1..].to_vec(),
                    gate: kind,
                });
            }
        }
    }
    if !saw_endmodule {
        return Err(err(
            NetlistErrorKind::Truncated,
            cur.line(),
            "file ends before `endmodule`",
        ));
    }

    // Every header port must be classed; non-ANSI headers rely on body
    // declarations for this.
    for name in &port_names {
        if !declared.contains(name) {
            return Err(err(
                NetlistErrorKind::Undeclared,
                0,
                format!("port {name:?} is never declared input or output"),
            ));
        }
    }
    // Every net a gate touches must be declared; redefinitions, undriven
    // nets and cycles are the resolver's to report.
    for inst in &instances {
        if !declared.contains(inst.output) {
            return Err(err(
                NetlistErrorKind::Undeclared,
                inst.line,
                format!("undeclared net {:?} driven by a gate", inst.output),
            ));
        }
        let known = |name: &&str| declared.contains(name) || is_constant(name);
        if let Some(name) = inst.inputs.iter().find(|name| !known(name)) {
            return Err(err(
                NetlistErrorKind::Undeclared,
                inst.line,
                format!("undeclared net {name:?} used as a gate input"),
            ));
        }
    }

    let (mut aig, lits) = build_definitions(
        FORMAT,
        &CONSTANTS,
        &inputs,
        &instances,
        &outputs,
        |aig, &kind, fanins| build_gate(aig, kind, fanins),
    )?;
    for (&(_, name), lit) in outputs.iter().zip(lits) {
        aig.add_output(name, lit);
    }
    Ok(aig)
}

/// Lowers one resolved primitive into the AIG.
fn build_gate(aig: &mut Aig, kind: GateKind, fanins: &[Lit]) -> Lit {
    match kind {
        GateKind::And => aig.and_all(fanins.iter().copied()),
        GateKind::Nand => !aig.and_all(fanins.iter().copied()),
        GateKind::Or => aig.or_all(fanins.iter().copied()),
        GateKind::Nor => !aig.or_all(fanins.iter().copied()),
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = Lit::FALSE;
            for &lit in fanins {
                acc = aig.xor(acc, lit);
            }
            if kind == GateKind::Xnor {
                !acc
            } else {
                acc
            }
        }
        GateKind::Not => !fanins[0],
        GateKind::Buf => fanins[0],
    }
}

/// Serializes an AIG as a structural-Verilog module.
///
/// Inputs are named `i0, i1, …` in ordinal order; each AND gate
/// becomes `and g<var> (n<var>, …)` with `not` gates materializing
/// complemented fanins on demand; outputs are driven by `buf`/`not`.
/// Gates unreachable from the outputs are still emitted, so the round
/// trip preserves the node table exactly.
pub fn write_verilog(aig: &Aig) -> String {
    let mut used: HashSet<String> = HashSet::new();
    let mut net: Vec<String> = vec![String::new(); aig.num_nodes()];
    for (ordinal, var) in aig.inputs().iter().enumerate() {
        net[var.index()] = sanitize_name(&format!("i{ordinal}"), &mut used);
    }
    for var in aig.and_vars() {
        net[var.index()] = sanitize_name(&format!("n{}", var.0), &mut used);
    }
    let out_names: Vec<String> = aig
        .outputs()
        .iter()
        .map(|(name, _)| sanitize_name(name, &mut used))
        .collect();
    // Inverted-net names, created on demand.
    let mut inv: Vec<Option<String>> = vec![None; aig.num_nodes()];

    let mut wires: Vec<String> = Vec::new();
    let mut body = String::new();
    let operand = |lit: Lit,
                   inv: &mut Vec<Option<String>>,
                   wires: &mut Vec<String>,
                   body: &mut String,
                   used: &mut HashSet<String>|
     -> String {
        if lit == Lit::FALSE {
            return "1'b0".to_owned();
        }
        if lit == Lit::TRUE {
            return "1'b1".to_owned();
        }
        let base = net[lit.var().index()].clone();
        if !lit.is_complemented() {
            return base;
        }
        if inv[lit.var().index()].is_none() {
            let name = sanitize_name(&format!("{base}_b"), used);
            // Instance names share the identifier namespace with nets
            // in strict tools, so they go through `used` too.
            let gate = sanitize_name(&format!("gi_{base}"), used);
            body.push_str(&format!("  not {gate} ({name}, {base});\n"));
            wires.push(name.clone());
            inv[lit.var().index()] = Some(name);
        }
        inv[lit.var().index()].clone().unwrap()
    };

    for var in aig.and_vars() {
        if let crate::Node::And(a, b) = aig.node(var) {
            let fa = operand(a, &mut inv, &mut wires, &mut body, &mut used);
            let fb = operand(b, &mut inv, &mut wires, &mut body, &mut used);
            let name = net[var.index()].clone();
            let gate = sanitize_name(&format!("g{}", var.0), &mut used);
            body.push_str(&format!("  and {gate} ({name}, {fa}, {fb});\n"));
            wires.push(name);
        }
    }
    for (idx, ((_, lit), name)) in aig.outputs().iter().zip(&out_names).enumerate() {
        let gate = sanitize_name(&format!("go{idx}"), &mut used);
        if lit.is_const() {
            let value = if lit.is_complemented() {
                "1'b1"
            } else {
                "1'b0"
            };
            body.push_str(&format!("  buf {gate} ({name}, {value});\n"));
        } else if lit.is_complemented() {
            body.push_str(&format!(
                "  not {gate} ({name}, {});\n",
                net[lit.var().index()]
            ));
        } else {
            body.push_str(&format!(
                "  buf {gate} ({name}, {});\n",
                net[lit.var().index()]
            ));
        }
    }

    let input_names: Vec<String> = aig
        .inputs()
        .iter()
        .map(|v| net[v.index()].clone())
        .collect();
    let ports: Vec<String> = input_names
        .iter()
        .chain(out_names.iter())
        .cloned()
        .collect();
    let mut s = String::from("// generated by boole-aig\nmodule netlist (");
    s.push_str(&ports.join(", "));
    s.push_str(");\n");
    if !input_names.is_empty() {
        s.push_str(&format!("  input {};\n", input_names.join(", ")));
    }
    if !out_names.is_empty() {
        s.push_str(&format!("  output {};\n", out_names.join(", ")));
    }
    // One declaration per chunk keeps machine-written files diffable.
    for chunk in wires.chunks(8) {
        s.push_str(&format!("  wire {};\n", chunk.join(", ")));
    }
    s.push_str(&body);
    s.push_str("endmodule\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::exhaustive_equiv_check;

    fn full_adder_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let (s, co) = crate::gen::full_adder(&mut aig, a, b, c);
        aig.add_output("sum", s);
        aig.add_output("carry", co);
        aig
    }

    #[test]
    fn roundtrip_preserves_structure_exactly() {
        let aig = full_adder_aig();
        let text = write_verilog(&aig);
        let parsed = parse_verilog(&text).unwrap();
        assert_eq!(parsed.nodes(), aig.nodes());
        assert_eq!(
            parsed.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            aig.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>()
        );
        assert!(exhaustive_equiv_check(&aig, &parsed));
    }

    #[test]
    fn parses_gate_primitives() {
        let text = "\
// a full adder from discrete gates
module fa (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire ab, ac, bc, t;
  xor s1 (sum, a, b, cin);   /* 3-input xor */
  and g1 (ab, a, b);
  and g2 (ac, a, cin);
  and g3 (bc, b, cin);
  or  c1 (cout, ab, ac, bc);
  buf unused (t, ab);
endmodule
";
        let parsed = parse_verilog(text).unwrap();
        let expect = full_adder_aig();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), 2);
        assert!(exhaustive_equiv_check(&expect, &parsed));
        assert_eq!(parsed.outputs()[0].0, "sum");
        assert_eq!(parsed.outputs()[1].0, "cout");
    }

    #[test]
    fn ansi_ports_and_constants() {
        let text = "\
module m (input a, input b, output y, output k);
  wire t;
  nand (t, a, b, 1'b1);
  not (y, t);
  assign k = 1'b0;
endmodule
";
        let parsed = parse_verilog(text).unwrap();
        let mut expect = Aig::new();
        let a = expect.add_input();
        let b = expect.add_input();
        let y = expect.and(a, b);
        expect.add_output("y", y);
        expect.add_output("k", Lit::FALSE);
        assert!(exhaustive_equiv_check(&expect, &parsed));
    }

    #[test]
    fn out_of_order_instances_resolve() {
        let text = "\
module m (a, b, c, y);
  input a, b, c;
  output y;
  wire t;
  and g2 (y, t, c);
  and g1 (t, a, b);
endmodule
";
        let parsed = parse_verilog(text).unwrap();
        assert_eq!(parsed.num_ands(), 2);
    }

    #[test]
    fn ansi_direction_keyword_carries_over_following_ports() {
        // Verilog-2001: `input a, b` in the header classes both ports.
        let text = "\
module m (input a, b, output y);
  and g (y, a, b);
endmodule
";
        let parsed = parse_verilog(text).unwrap();
        assert_eq!(parsed.num_inputs(), 2);
        assert_eq!(parsed.num_outputs(), 1);
        let mut expect = Aig::new();
        let a = expect.add_input();
        let b = expect.add_input();
        let y = expect.and(a, b);
        expect.add_output("y", y);
        assert!(exhaustive_equiv_check(&expect, &parsed));
    }

    #[test]
    fn instance_names_never_collide_with_net_names() {
        // Verilog identifiers share one namespace in strict tools; an
        // output deliberately named like a default instance name must
        // not produce a duplicate identifier.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a, b); // var 3: net n3, default instance g3
        aig.add_output("g3", x);
        aig.add_output("go1", !x);
        let text = write_verilog(&aig);

        let mut nets: Vec<String> = Vec::new();
        let mut instances: Vec<String> = Vec::new();
        for line in text.lines() {
            let t = line.trim();
            for decl in ["input ", "output ", "wire "] {
                if let Some(rest) = t.strip_prefix(decl) {
                    nets.extend(
                        rest.trim_end_matches(';')
                            .split(',')
                            .map(|n| n.trim().to_owned()),
                    );
                }
            }
            for gate in ["and ", "not ", "buf "] {
                if let Some(rest) = t.strip_prefix(gate) {
                    instances.push(rest.split('(').next().unwrap().trim().to_owned());
                }
            }
        }
        let mut seen: std::collections::HashSet<&str> = nets.iter().map(String::as_str).collect();
        assert_eq!(seen.len(), nets.len(), "duplicate net name in:\n{text}");
        for inst in &instances {
            assert!(
                seen.insert(inst),
                "identifier {inst:?} used twice in:\n{text}"
            );
        }
        // And the file still round-trips.
        let parsed = parse_verilog(&text).unwrap();
        assert!(exhaustive_equiv_check(&aig, &parsed));
    }

    #[test]
    fn multiple_modules_are_rejected_not_silently_dropped() {
        // Gate-level dumps often put helper modules first; parsing
        // only the first module would analyze the wrong circuit.
        let text = "\
module helper (a, y);
  input a;
  output y;
  buf g (y, a);
endmodule
module top (a, b, y);
  input a, b;
  output y;
  and g (y, a, b);
endmodule
";
        let e = parse_verilog(text).unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Unsupported, "{e}");
        let trailing =
            "module m (a, y);\n input a;\n output y;\n buf g (y, a);\nendmodule\ngarbage\n";
        let e = parse_verilog(trailing).unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Syntax, "{e}");
    }

    #[test]
    fn acyclic_netlist_with_undriven_upstream_wire_is_not_a_cycle() {
        // g2 is stuck only because g1 is stuck on the undriven `w`;
        // the diagnosis must scan past g2 and name the real cause.
        let text = "\
module m (a, y);
  input a;
  output y;
  wire w, x;
  and g2 (y, x, a);
  and g1 (x, w, a);
endmodule
";
        let e = parse_verilog(text).unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Undeclared, "{e}");
        assert!(e.message.contains("\"w\""), "{e}");
    }

    #[test]
    fn typed_negative_paths() {
        // Truncated: no endmodule.
        let e = parse_verilog("module m (a);\n  input a;\n").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Truncated);
        // Truncated: unterminated comment.
        let e = parse_verilog("module m (); /* never closed").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Truncated);
        // Empty file.
        let e = parse_verilog("").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Truncated);
        // Undeclared gate input.
        let e = parse_verilog(
            "module m (a, y);\n input a;\n output y;\n and g (y, a, ghost);\nendmodule\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Undeclared);
        // Undriven wire.
        let e = parse_verilog(
            "module m (a, y);\n input a;\n output y;\n wire w;\n and g (y, a, w);\nendmodule\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Undeclared);
        // Undriven output.
        let e = parse_verilog("module m (a, y);\n input a;\n output y;\nendmodule\n").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Undeclared);
        // Arity: not with three ports.
        let e = parse_verilog(
            "module m (a, b, y);\n input a, b;\n output y;\n not g (y, a, b);\nendmodule\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Arity);
        // Arity: and with a single input.
        let e =
            parse_verilog("module m (a, y);\n input a;\n output y;\n and g (y, a);\nendmodule\n")
                .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Arity);
        // Sequential constructs.
        let e = parse_verilog("module m (a, y);\n input a;\n output y;\n reg r;\nendmodule\n")
            .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Unsupported);
        // Vectors.
        let e = parse_verilog("module m (a);\n input [3:0] a;\nendmodule\n").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Unsupported);
        // Multiple drivers.
        let e = parse_verilog(
            "module m (a, y);\n input a;\n output y;\n buf g1 (y, a);\n not g2 (y, a);\nendmodule\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Syntax);
        // Cycle.
        let e = parse_verilog(
            "module m (a, y);\n input a;\n output y;\n wire w;\n and g1 (w, y, a);\n and g2 (y, w, a);\nendmodule\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Cycle);
    }
}
