//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! The combinational subset is supported: `.model`, `.inputs`,
//! `.outputs`, `.names` with SOP covers (lowered to AND/INV networks
//! through [`Aig::and`], so structural hashing applies), and `.end`.
//! `.latch` lines are rejected with a typed
//! [`NetlistErrorKind::Latch`] error; hierarchy (`.subckt`, `.gate`)
//! and don't-care networks (`.exdc`) report
//! [`NetlistErrorKind::Unsupported`].
//!
//! `.names` blocks may appear in any order (a cover may reference a
//! signal defined later): they are built in dependency order by the
//! shared resolver in [`crate::netlist`], which also reports
//! redefinitions, undefined signals and combinational cycles
//! ([`NetlistErrorKind::Cycle`]).
//!
//! [`write_blif`] emits one two-input `.names` per AND gate (cover
//! columns carry the fanin polarities) plus one buffer `.names` per
//! output, in topological order — so `parse_blif(write_blif(aig))`
//! rebuilds a node-for-node identical AIG, which the conformance suite
//! asserts.

use std::collections::HashSet;

use crate::netlist::{
    build_definitions, sanitize_name, Definition, NetlistError, NetlistErrorKind,
};
use crate::{Aig, Lit};

const FORMAT: &str = "blif";

fn err(kind: NetlistErrorKind, line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::at(FORMAT, kind, line, message)
}

/// One logical line: first physical line number + whitespace tokens
/// (comments stripped, `\` continuations joined).
struct LogicalLine<'a> {
    line: usize,
    tokens: Vec<&'a str>,
}

fn logical_lines(text: &str) -> Result<Vec<LogicalLine<'_>>, NetlistError> {
    let mut out: Vec<LogicalLine<'_>> = Vec::new();
    let mut pending: Option<LogicalLine<'_>> = None;
    let mut last_line = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        last_line = idx + 1;
        let uncommented = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = uncommented.trim_end();
        let (body, continues) = match trimmed.strip_suffix('\\') {
            Some(rest) => (rest, true),
            None => (trimmed, false),
        };
        let tokens = body.split_whitespace();
        match &mut pending {
            Some(line) => line.tokens.extend(tokens),
            None => {
                pending = Some(LogicalLine {
                    line: idx + 1,
                    tokens: tokens.collect(),
                })
            }
        }
        if !continues {
            if let Some(line) = pending.take() {
                if !line.tokens.is_empty() {
                    out.push(line);
                }
            }
        }
    }
    if pending.is_some() {
        return Err(err(
            NetlistErrorKind::Truncated,
            last_line,
            "file ends inside a `\\` continuation",
        ));
    }
    Ok(out)
}

/// A `.names` block: its cover rows as (input plane, output value).
/// All rows of one block share the output value (checked during
/// parsing).
type NamesDef<'a> = Definition<&'a str, Vec<(&'a str, bool)>>;

/// Parses a combinational BLIF model into an [`Aig`].
///
/// # Errors
///
/// Typed [`NetlistError`]s: [`NetlistErrorKind::Latch`] for `.latch`,
/// [`NetlistErrorKind::Truncated`] for files ending before `.end`,
/// [`NetlistErrorKind::Undeclared`] for covers or outputs over signals
/// that are never defined, [`NetlistErrorKind::Arity`] for cover rows
/// whose width disagrees with the `.names` header,
/// [`NetlistErrorKind::Cycle`] for combinational loops, and
/// [`NetlistErrorKind::Syntax`]/[`NetlistErrorKind::Unsupported`] for
/// the rest.
pub fn parse_blif(text: &str) -> Result<Aig, NetlistError> {
    let lines = logical_lines(text)?;
    if lines.is_empty() {
        return Err(err(NetlistErrorKind::Truncated, 0, "empty file"));
    }

    let mut model_seen = false;
    let mut end_seen = false;
    let mut inputs: Vec<(usize, &str)> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    let mut defs: Vec<NamesDef<'_>> = Vec::new();

    let mut i = 0usize;
    while i < lines.len() {
        let line = &lines[i];
        let head = line.tokens[0];
        if !head.starts_with('.') {
            return Err(err(
                NetlistErrorKind::Syntax,
                line.line,
                format!("cover row {head:?} outside a .names block"),
            ));
        }
        match head {
            ".model" => {
                if model_seen {
                    return Err(err(
                        NetlistErrorKind::Unsupported,
                        line.line,
                        "multiple .model sections (hierarchy is not supported)",
                    ));
                }
                model_seen = true;
                i += 1;
            }
            ".inputs" => {
                inputs.extend(line.tokens[1..].iter().map(|t| (line.line, *t)));
                i += 1;
            }
            ".outputs" => {
                outputs.extend(line.tokens[1..].iter().map(|t| (line.line, *t)));
                i += 1;
            }
            ".latch" => {
                return Err(err(
                    NetlistErrorKind::Latch,
                    line.line,
                    "latches are not supported (combinational subset only)",
                ));
            }
            ".subckt" | ".gate" | ".mlatch" | ".exdc" | ".clock" => {
                return Err(err(
                    NetlistErrorKind::Unsupported,
                    line.line,
                    format!("{head} is not supported (flat combinational subset only)"),
                ));
            }
            ".names" => {
                if line.tokens.len() < 2 {
                    return Err(err(
                        NetlistErrorKind::Arity,
                        line.line,
                        ".names needs at least an output signal",
                    ));
                }
                let sigs = &line.tokens[1..];
                let (cover_inputs, output) = sigs.split_at(sigs.len() - 1);
                let mut def = NamesDef {
                    line: line.line,
                    output: output[0],
                    inputs: cover_inputs.to_vec(),
                    gate: Vec::new(),
                };
                i += 1;
                let mut output_value: Option<bool> = None;
                while i < lines.len() && !lines[i].tokens[0].starts_with('.') {
                    let row = &lines[i];
                    let (plane, out_tok) = match (row.tokens.len(), def.inputs.is_empty()) {
                        (1, true) => ("", row.tokens[0]),
                        (2, false) => (row.tokens[0], row.tokens[1]),
                        _ => {
                            return Err(err(
                                NetlistErrorKind::Arity,
                                row.line,
                                format!(
                                    "cover row has {} fields for {} cover inputs",
                                    row.tokens.len(),
                                    def.inputs.len()
                                ),
                            ));
                        }
                    };
                    if plane.len() != def.inputs.len() {
                        return Err(err(
                            NetlistErrorKind::Arity,
                            row.line,
                            format!(
                                "cover row {plane:?} has {} columns for {} cover inputs",
                                plane.len(),
                                def.inputs.len()
                            ),
                        ));
                    }
                    if let Some(bad) = plane.chars().find(|c| !matches!(c, '0' | '1' | '-')) {
                        return Err(err(
                            NetlistErrorKind::Syntax,
                            row.line,
                            format!("invalid cover character {bad:?} (want 0, 1, or -)"),
                        ));
                    }
                    let value = match out_tok {
                        "1" => true,
                        "0" => false,
                        other => {
                            return Err(err(
                                NetlistErrorKind::Syntax,
                                row.line,
                                format!("cover output must be 0 or 1, got {other:?}"),
                            ));
                        }
                    };
                    if *output_value.get_or_insert(value) != value {
                        return Err(err(
                            NetlistErrorKind::Syntax,
                            row.line,
                            "cover mixes ON-set and OFF-set rows",
                        ));
                    }
                    def.gate.push((plane, value));
                    i += 1;
                }
                defs.push(def);
            }
            ".end" => {
                end_seen = true;
                // Anything after `.end` means this is not the single
                // flat model we support; dropping it silently would
                // analyze (and cache!) the wrong circuit.
                if let Some(extra) = lines.get(i + 1) {
                    let (kind, what) = if extra.tokens[0] == ".model" {
                        (
                            NetlistErrorKind::Unsupported,
                            "a second .model follows .end (hierarchy is not supported)".to_owned(),
                        )
                    } else {
                        (
                            NetlistErrorKind::Syntax,
                            format!("content after .end: {:?}", extra.tokens[0]),
                        )
                    };
                    return Err(err(kind, extra.line, what));
                }
                break;
            }
            other => {
                return Err(err(
                    NetlistErrorKind::Unsupported,
                    line.line,
                    format!("unknown directive {other}"),
                ));
            }
        }
    }
    if !end_seen {
        return Err(err(
            NetlistErrorKind::Truncated,
            lines.last().map(|l| l.line).unwrap_or(0),
            "file ends before .end",
        ));
    }

    let (mut aig, lits) =
        build_definitions(FORMAT, &[], &inputs, &defs, &outputs, |aig, rows, ins| {
            build_sop(aig, rows, ins)
        })?;
    for (&(_, name), lit) in outputs.iter().zip(lits) {
        aig.add_output(name, lit);
    }
    Ok(aig)
}

/// Lowers one SOP cover over the input literals `ins` into the AIG.
fn build_sop(aig: &mut Aig, rows: &[(&str, bool)], ins: &[Lit]) -> Lit {
    let mut terms = Vec::with_capacity(rows.len());
    let mut on_set = true;
    for (plane, value) in rows {
        on_set = *value;
        let mut product = Lit::TRUE;
        for (ch, &lit) in plane.chars().zip(ins) {
            match ch {
                '1' => product = aig.and(product, lit),
                '0' => product = aig.and(product, !lit),
                _ => {}
            }
        }
        terms.push(product);
    }
    let sum = aig.or_all(terms);
    // An empty cover is constant 0; an OFF-set cover complements.
    if on_set {
        sum
    } else {
        !sum
    }
}

/// Serializes an AIG as a flat combinational BLIF model.
///
/// Inputs are named `i0, i1, …` in ordinal order; AND gates become
/// two-input `.names` covers named `n<var>` in topological order;
/// outputs become buffer covers carrying their (sanitized, deduplicated)
/// names. Gates unreachable from the outputs are still emitted, so the
/// round trip preserves the node table exactly.
pub fn write_blif(aig: &Aig) -> String {
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

    let mut s = String::from(".model boole\n.inputs");
    for var in aig.inputs() {
        s.push(' ');
        s.push_str(&net[var.index()]);
    }
    s.push_str("\n.outputs");
    for name in &out_names {
        s.push(' ');
        s.push_str(name);
    }
    s.push('\n');
    for var in aig.and_vars() {
        if let crate::Node::And(a, b) = aig.node(var) {
            s.push_str(&format!(
                ".names {} {} {}\n{}{} 1\n",
                net[a.var().index()],
                net[b.var().index()],
                net[var.index()],
                if a.is_complemented() { '0' } else { '1' },
                if b.is_complemented() { '0' } else { '1' },
            ));
        }
    }
    for ((_, lit), name) in aig.outputs().iter().zip(&out_names) {
        if lit.is_const() {
            // `.names x` with a bare `1` row is constant one; with no
            // rows, constant zero.
            s.push_str(&format!(".names {name}\n"));
            if lit.is_complemented() {
                s.push_str("1\n");
            }
        } else {
            s.push_str(&format!(
                ".names {} {name}\n{} 1\n",
                net[lit.var().index()],
                if lit.is_complemented() { '0' } else { '1' },
            ));
        }
    }
    s.push_str(".end\n");
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
        let text = write_blif(&aig);
        let parsed = parse_blif(&text).unwrap();
        assert_eq!(parsed.nodes(), aig.nodes());
        assert_eq!(parsed.inputs(), aig.inputs());
        assert_eq!(
            parsed.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            aig.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>()
        );
        assert!(exhaustive_equiv_check(&aig, &parsed));
    }

    #[test]
    fn parses_sop_with_dont_cares() {
        // y = a XOR b via ON-set minterms; z = NOT(a OR b) via OFF-set.
        let text = "\
.model t
.inputs a b
.outputs y z
.names a b y
10 1
01 1
.names a b z
1- 0
-1 0
.end
";
        let aig = parse_blif(text).unwrap();
        let mut expect = Aig::new();
        let a = expect.add_input();
        let b = expect.add_input();
        let y = expect.xor(a, b);
        let z = expect.or(a, b);
        expect.add_output("y", y);
        expect.add_output("z", !z);
        assert!(exhaustive_equiv_check(&aig, &expect));
    }

    #[test]
    fn constants_and_passthrough() {
        let text = "\
.model t
.inputs a
.outputs one zero pass inv
.names one
1
.names zero
.names a pass
1 1
.names a inv
0 1
.end
";
        let aig = parse_blif(text).unwrap();
        let vals = crate::sim::simulate_values(&aig, &[true]);
        assert_eq!(vals, vec![true, false, true, false]);
        let vals = crate::sim::simulate_values(&aig, &[false]);
        assert_eq!(vals, vec![true, false, false, true]);
    }

    #[test]
    fn out_of_order_definitions_resolve() {
        let text = "\
.model t
.inputs a b c
.outputs y
.names t1 c y
11 1
.names a b t1
11 1
.end
";
        let aig = parse_blif(text).unwrap();
        let mut expect = Aig::new();
        let ins = expect.add_inputs(3);
        let t = expect.and(ins[0], ins[1]);
        let y = expect.and(t, ins[2]);
        expect.add_output("y", y);
        assert!(exhaustive_equiv_check(&aig, &expect));
    }

    #[test]
    fn continuations_and_comments() {
        let text = "\
# a comment
.model t
.inputs a \\
        b
.outputs y   # trailing comment
.names a b y
11 1
.end
";
        let aig = parse_blif(text).unwrap();
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn latch_is_a_typed_error() {
        let text = ".model t\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n";
        let e = parse_blif(text).unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Latch);
    }

    #[test]
    fn truncation_undeclared_arity_cycle_are_typed() {
        // Missing .end
        let e = parse_blif(".model t\n.inputs a\n.outputs a\n").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Truncated);
        // Continuation at EOF
        let e = parse_blif(".model t\n.inputs a \\").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Truncated);
        // Undeclared cover input
        let e = parse_blif(".model t\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n")
            .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Undeclared);
        // Undeclared output
        let e = parse_blif(".model t\n.inputs a\n.outputs ghost\n.end\n").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Undeclared);
        // Arity mismatch in a cover row
        let e = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n")
            .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Arity);
        // Combinational cycle
        let e = parse_blif(
            ".model t\n.inputs a\n.outputs y\n.names y a x\n11 1\n.names x a y\n11 1\n.end\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Cycle);
        // Hierarchy is unsupported, not a panic
        let e = parse_blif(".model t\n.subckt child a=b\n.end\n").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Unsupported);
    }

    #[test]
    fn acyclic_netlist_with_undeclared_upstream_signal_is_not_a_cycle() {
        // `y`'s cover is stuck only because `x`'s cover is stuck on the
        // undefined `ghost`; the diagnosis must scan past `y` and name
        // the real cause.
        let text = "\
.model t
.inputs a
.outputs y
.names x a y
11 1
.names ghost a x
11 1
.end
";
        let e = parse_blif(text).unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Undeclared, "{e}");
        assert!(e.message.contains("\"ghost\""), "{e}");
    }

    #[test]
    fn deep_reverse_ordered_chain_parses_quickly() {
        // A 4k-deep dependency chain written bottom-up: the worklist
        // resolver handles this linearly where a retain-until-fixpoint
        // loop would go quadratic.
        let n = 4000;
        let mut text = String::from(".model chain\n.inputs a\n.outputs y\n");
        text.push_str(&format!(".names t{n} y\n1 1\n"));
        for i in (1..=n).rev() {
            let prev = if i == 1 {
                "a".to_owned()
            } else {
                format!("t{}", i - 1)
            };
            text.push_str(&format!(".names {prev} a t{i}\n11 1\n"));
        }
        text.push_str(".end\n");
        let aig = parse_blif(&text).unwrap();
        assert_eq!(aig.num_inputs(), 1);
        assert_eq!(aig.num_outputs(), 1);
    }

    #[test]
    fn content_after_end_is_rejected_not_silently_dropped() {
        // Hierarchical layout with the sub-model first: must be a
        // typed error, not a parse of the wrong (first) model.
        let two_models =
            ".model a\n.inputs x\n.outputs x\n.end\n.model b\n.inputs y\n.outputs y\n.end\n";
        let e = parse_blif(two_models).unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Unsupported, "{e}");
        let trailing = ".model a\n.inputs x\n.outputs x\n.end\n.inputs z\n";
        let e = parse_blif(trailing).unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Syntax, "{e}");
    }

    #[test]
    fn redefinition_is_rejected() {
        let e = parse_blif(
            ".model t\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Syntax);
        let e = parse_blif(".model t\n.inputs a\n.outputs a\n.names a a\n1 1\n.end\n").unwrap_err();
        assert_eq!(e.kind, NetlistErrorKind::Syntax);
    }
}
