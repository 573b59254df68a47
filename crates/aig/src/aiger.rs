//! AIGER reading and writing for combinational AIGs: the ASCII `.aag`
//! format ([`to_aag`]/[`from_aag`]) and the binary `.aig` format
//! ([`to_aig_binary`]/[`from_aig_binary`]).
//!
//! Only the combinational subset is supported (no latches), which is
//! all the BoolE benchmarks need. The ASCII reader accepts AND gates in
//! any order, as the format allows: like the BLIF and Verilog readers,
//! it builds them through the shared resolver in [`crate::netlist`].
//! Both readers report typed [`NetlistError`]s, with the line wherever
//! the format has lines.

use std::collections::HashMap;

use crate::netlist::{build_definitions, Definition, NetlistError, NetlistErrorKind};
use crate::{Aig, Lit, Node};

const FORMAT: &str = "aiger";

fn err(kind: NetlistErrorKind, line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::at(FORMAT, kind, line, message)
}

fn parse_num(s: &str, line: usize) -> Result<u32, NetlistError> {
    s.parse().map_err(|_| {
        err(
            NetlistErrorKind::Syntax,
            line,
            format!("invalid number `{s}`"),
        )
    })
}

/// Parses the five header counts `M I L O A` after the `magic` word,
/// rejecting latches.
fn parse_header(header: &str, magic: &str) -> Result<[u32; 5], NetlistError> {
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != magic {
        return Err(err(
            NetlistErrorKind::Syntax,
            1,
            format!("header must be `{magic} M I L O A`"),
        ));
    }
    let mut counts = [0u32; 5];
    for (count, field) in counts.iter_mut().zip(&fields[1..]) {
        *count = parse_num(field, 1)?;
    }
    if counts[2] != 0 {
        return Err(err(
            NetlistErrorKind::Latch,
            1,
            "latches are not supported (combinational only)",
        ));
    }
    Ok(counts)
}

/// Serializes an AIG to AIGER ASCII format (`.aag`), including output
/// symbol names.
pub fn to_aag(aig: &Aig) -> String {
    let m = aig.num_nodes() - 1;
    let i = aig.num_inputs();
    let o = aig.num_outputs();
    let a = aig.num_ands();
    let mut s = format!("aag {m} {i} 0 {o} {a}\n");
    for input in aig.inputs() {
        s.push_str(&format!("{}\n", input.lit().raw()));
    }
    for (_, lit) in aig.outputs() {
        s.push_str(&format!("{}\n", lit.raw()));
    }
    for var in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(var) {
            // AIGER wants lhs > rhs0 >= rhs1.
            let (hi, lo) = if f0.raw() >= f1.raw() {
                (f0, f1)
            } else {
                (f1, f0)
            };
            s.push_str(&format!("{} {} {}\n", var.lit().raw(), hi.raw(), lo.raw()));
        }
    }
    for (idx, (name, _)) in aig.outputs().iter().enumerate() {
        s.push_str(&format!("o{idx} {name}\n"));
    }
    s
}

/// Parses an AIGER ASCII (`.aag`) combinational file.
///
/// AND gates may be listed in any order; a file in topological order,
/// as [`to_aag`] writes it, is rebuilt node for node.
///
/// # Errors
///
/// Typed [`NetlistError`]s with the offending line:
/// [`NetlistErrorKind::Truncated`] for a file that ends before its
/// header counts are met, [`NetlistErrorKind::Latch`] for latches,
/// [`NetlistErrorKind::Arity`] for an AND line without three literals,
/// [`NetlistErrorKind::Undeclared`] for a literal nothing defines,
/// [`NetlistErrorKind::Cycle`] for a combinational loop, and
/// [`NetlistErrorKind::Syntax`] for the rest (malformed header or
/// number, an odd or constant defining literal, a literal defined
/// twice).
pub fn from_aag(text: &str) -> Result<Aig, NetlistError> {
    let mut lines = text.lines().enumerate().map(|(idx, line)| (idx + 1, line));
    let mut next_line = |section: &str| {
        lines.next().ok_or_else(|| {
            err(
                NetlistErrorKind::Truncated,
                text.lines().count(),
                format!("file ends in the {section}"),
            )
        })
    };
    let (_, header) = next_line("header")?;
    let [m, i, _, o, a] = parse_header(header, "aag")?;
    if i.checked_add(a).is_none_or(|ia| m < ia) {
        return Err(err(NetlistErrorKind::Syntax, 1, "M < I + A"));
    }

    let even_var = |raw: u32, line: usize, what: &str| {
        if raw < 2 || raw & 1 == 1 {
            Err(err(
                NetlistErrorKind::Syntax,
                line,
                format!("{what} must be a positive even literal"),
            ))
        } else {
            Ok(raw)
        }
    };
    let mut inputs: Vec<(usize, u32)> = Vec::new();
    for _ in 0..i {
        let (line, text) = next_line("inputs")?;
        inputs.push((
            line,
            even_var(parse_num(text.trim(), line)?, line, "input literal")?,
        ));
    }
    let mut outputs: Vec<(usize, u32)> = Vec::new();
    for _ in 0..o {
        let (line, text) = next_line("outputs")?;
        outputs.push((line, parse_num(text.trim(), line)?));
    }
    // Each AND reads its fanins' variables; the gate is their polarities.
    let mut ands: Vec<Definition<u32, [bool; 2]>> = Vec::new();
    for _ in 0..a {
        let (line, text) = next_line("AND gates")?;
        let nums: Vec<&str> = text.split_whitespace().collect();
        if nums.len() != 3 {
            return Err(err(
                NetlistErrorKind::Arity,
                line,
                "AND line must be `lhs rhs0 rhs1`",
            ));
        }
        let lhs = even_var(parse_num(nums[0], line)?, line, "AND lhs")?;
        let rhs = [parse_num(nums[1], line)?, parse_num(nums[2], line)?];
        ands.push(Definition {
            line,
            output: lhs,
            inputs: rhs.iter().map(|raw| raw & !1).collect(),
            gate: rhs.map(|raw| raw & 1 == 1),
        });
    }

    // Optional symbol table: oN name
    let mut out_names: HashMap<usize, String> = HashMap::new();
    for (line, text) in lines {
        let text = text.trim();
        if text == "c" || text.starts_with("c ") {
            break;
        }
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('o') {
            let mut parts = rest.splitn(2, ' ');
            let idx: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(NetlistErrorKind::Syntax, line, "bad symbol line"))?;
            let name = parts.next().unwrap_or("").to_owned();
            out_names.insert(idx, name);
        }
        // input symbols (iN) are accepted and ignored
    }

    let output_vars: Vec<(usize, u32)> = outputs
        .iter()
        .map(|&(line, raw)| (line, raw & !1))
        .collect();
    let (mut aig, lits) = build_definitions(
        FORMAT,
        &[(0, Lit::FALSE)],
        &inputs,
        &ands,
        &output_vars,
        |aig, &[c0, c1], fanins| aig.and(fanins[0] ^ c0, fanins[1] ^ c1),
    )?;
    for (idx, (&(_, raw), lit)) in outputs.iter().zip(lits).enumerate() {
        let name = out_names.remove(&idx).unwrap_or_else(|| format!("o{idx}"));
        aig.add_output(name, lit ^ (raw & 1 == 1));
    }
    Ok(aig)
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
        let s = aig.xor3(a, b, c);
        let co = aig.maj(a, b, c);
        aig.add_output("sum", s);
        aig.add_output("carry", co);
        aig
    }

    #[test]
    fn roundtrip_preserves_function() {
        let aig = full_adder_aig();
        let text = to_aag(&aig);
        let parsed = from_aag(&text).unwrap();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), 2);
        assert!(exhaustive_equiv_check(&aig, &parsed));
        assert_eq!(parsed.outputs()[0].0, "sum");
        assert_eq!(parsed.outputs()[1].0, "carry");
    }

    #[test]
    fn parses_canonical_example() {
        // AND of two inputs.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n";
        let aig = from_aag(text).unwrap();
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_ands(), 1);
        let mut expect = Aig::new();
        let a = expect.add_input();
        let b = expect.add_input();
        let y = expect.and(a, b);
        expect.add_output("y", y);
        assert!(exhaustive_equiv_check(&aig, &expect));
    }

    #[test]
    fn rejects_malformed() {
        let fails = |text: &str| from_aag(text).unwrap_err();
        let e = fails("");
        assert_eq!((e.kind, e.line), (NetlistErrorKind::Truncated, 0), "{e}");
        let e = fails("aig 1 1 0 0 0\n2\n");
        assert_eq!((e.kind, e.line), (NetlistErrorKind::Syntax, 1), "{e}");
        let e = fails("aag 1 0 1 0 0\n");
        assert_eq!((e.kind, e.line), (NetlistErrorKind::Latch, 1), "{e}");
        // Missing output line.
        let e = fails("aag 1 1 0 1 0\n2\n");
        assert_eq!((e.kind, e.line), (NetlistErrorKind::Truncated, 2), "{e}");
        // Literal 8 is read but never defined.
        let e = fails("aag 3 2 0 0 1\n2\n4\n6 8 2\n");
        assert_eq!((e.kind, e.line), (NetlistErrorKind::Undeclared, 4), "{e}");
        // An AND line redefining an input literal.
        let e = fails("aag 2 1 0 1 1\n2\n2\n2 0 0\n");
        assert_eq!((e.kind, e.line), (NetlistErrorKind::Syntax, 4), "{e}");
    }

    #[test]
    fn and_lines_resolve_in_any_order() {
        // y = (a & b) & c with the outer AND listed first.
        let text = "aag 5 3 0 1 2\n2\n4\n6\n10\n10 8 6\n8 4 2\n";
        let aig = from_aag(text).unwrap();
        let mut expect = Aig::new();
        let ins = expect.add_inputs(3);
        let t = expect.and(ins[0], ins[1]);
        let y = expect.and(t, ins[2]);
        expect.add_output("y", y);
        assert_eq!(aig.num_ands(), 2);
        assert!(exhaustive_equiv_check(&aig, &expect));
    }

    #[test]
    fn complemented_outputs_roundtrip() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a, b);
        aig.add_output("nand", !x);
        let parsed = from_aag(&to_aag(&aig)).unwrap();
        assert!(exhaustive_equiv_check(&aig, &parsed));
    }
}

/// Serializes an AIG to the binary AIGER format (`.aig`).
///
/// In the binary format, inputs are implicitly numbered `2, 4, …, 2I`
/// and AND gates `2(I+1), …, 2M`; each AND is stored as two
/// LEB128-style deltas. Because our in-memory variable order already
/// is inputs-then-ANDs in topological order, the mapping is direct.
pub fn to_aig_binary(aig: &Aig) -> Vec<u8> {
    // Map our variables to the contiguous binary numbering: inputs
    // first (they already are, by construction, interleaved with
    // nothing — but re-map defensively).
    let mut var_code: Vec<u32> = vec![0; aig.num_nodes()];
    let mut next = 1u32;
    for input in aig.inputs() {
        var_code[input.index()] = next;
        next += 1;
    }
    for var in aig.and_vars() {
        var_code[var.index()] = next;
        next += 1;
    }
    let code_of =
        |lit: Lit| -> u32 { var_code[lit.var().index()] * 2 + u32::from(lit.is_complemented()) };

    let m = aig.num_nodes() - 1;
    let i = aig.num_inputs();
    let o = aig.num_outputs();
    let a = aig.num_ands();
    let mut out = format!("aig {m} {i} 0 {o} {a}\n").into_bytes();
    for (_, lit) in aig.outputs() {
        out.extend_from_slice(format!("{}\n", code_of(*lit)).as_bytes());
    }
    for var in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(var) {
            let lhs = var_code[var.index()] * 2;
            let (hi, lo) = {
                let c0 = code_of(f0);
                let c1 = code_of(f1);
                if c0 >= c1 {
                    (c0, c1)
                } else {
                    (c1, c0)
                }
            };
            debug_assert!(lhs > hi, "AND operands must precede the gate");
            push_delta(&mut out, lhs - hi);
            push_delta(&mut out, hi - lo);
        }
    }
    for (idx, (name, _)) in aig.outputs().iter().enumerate() {
        out.extend_from_slice(format!("o{idx} {name}\n").as_bytes());
    }
    out
}

fn push_delta(out: &mut Vec<u8>, mut delta: u32) {
    loop {
        let byte = (delta & 0x7F) as u8;
        delta >>= 7;
        if delta == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The most inputs a binary AIGER header may declare. Binary inputs
/// are implicit, so nothing in the file bounds the count: a 26-byte
/// header could otherwise ask for billions of inputs before any byte
/// of the body is read. 2^20 is far above any multiplier (an n-bit one
/// has 2n inputs).
const MAX_BINARY_INPUTS: u32 = 1 << 20;

/// Parses a binary AIGER (`.aig`) combinational file.
///
/// # Errors
///
/// Typed [`NetlistError`]s: [`NetlistErrorKind::Truncated`] for a file
/// that ends inside its header, output lines or delta stream,
/// [`NetlistErrorKind::Unsupported`] for a header declaring more than
/// 2^20 inputs (checked before anything is allocated),
/// [`NetlistErrorKind::Latch`] for latches,
/// [`NetlistErrorKind::Undeclared`] for an output literal beyond the
/// last variable, and [`NetlistErrorKind::Syntax`] for the rest
/// (malformed header or number, `M ≠ I + A`, a delta that does not
/// point below its gate). Errors in the header and output lines carry
/// their line; the delta stream has none.
pub fn from_aig_binary(bytes: &[u8]) -> Result<Aig, NetlistError> {
    // Header line.
    let newline = bytes.iter().position(|&b| b == b'\n').ok_or_else(|| {
        err(
            NetlistErrorKind::Truncated,
            1,
            "file ends before the header line does",
        )
    })?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| err(NetlistErrorKind::Syntax, 1, "header is not UTF-8"))?;
    let [m, i, _, o, a] = parse_header(header, "aig")?;
    if i.checked_add(a) != Some(m) {
        return Err(err(
            NetlistErrorKind::Syntax,
            1,
            "binary aiger requires M = I + A",
        ));
    }
    if i > MAX_BINARY_INPUTS {
        return Err(err(
            NetlistErrorKind::Unsupported,
            1,
            format!("{i} inputs exceed the supported {MAX_BINARY_INPUTS}"),
        ));
    }
    let mut pos = newline + 1;

    // Output literal lines (ASCII decimal), from line 2 on.
    let mut output_codes: Vec<(usize, u32)> = Vec::new();
    for line in (2..).take(o as usize) {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| {
                err(
                    NetlistErrorKind::Truncated,
                    line,
                    "file ends in the outputs",
                )
            })?
            + pos;
        let text = std::str::from_utf8(&bytes[pos..end])
            .map_err(|_| err(NetlistErrorKind::Syntax, line, "output line is not UTF-8"))?;
        output_codes.push((line, parse_num(text.trim(), line)?));
        pos = end + 1;
    }

    // AND gate delta stream.
    let mut aig = Aig::new();
    // code (variable number in the binary ordering) -> literal.
    let mut lits: Vec<Lit> = vec![Lit::FALSE];
    for _ in 0..i {
        lits.push(aig.add_input());
    }
    let read_delta = |pos: &mut usize| -> Result<u32, NetlistError> {
        let mut value: u32 = 0;
        let mut shift = 0;
        loop {
            let &byte = bytes
                .get(*pos)
                .ok_or_else(|| err(NetlistErrorKind::Truncated, 0, "truncated delta stream"))?;
            *pos += 1;
            value |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 28 {
                return Err(err(NetlistErrorKind::Syntax, 0, "delta overflow"));
            }
        }
    };
    for gate in 0..a {
        let lhs = (i + 1 + gate) * 2;
        let d0 = read_delta(&mut pos)?;
        let d1 = read_delta(&mut pos)?;
        let rhs0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| err(NetlistErrorKind::Syntax, 0, "delta exceeds lhs"))?;
        let rhs1 = rhs0
            .checked_sub(d1)
            .ok_or_else(|| err(NetlistErrorKind::Syntax, 0, "second delta exceeds rhs0"))?;
        let resolve = |code: u32| -> Result<Lit, NetlistError> {
            let lit = lits.get((code / 2) as usize).copied().ok_or_else(|| {
                err(
                    NetlistErrorKind::Syntax,
                    0,
                    format!("literal {code} does not precede its gate {lhs}"),
                )
            })?;
            Ok(lit ^ (code & 1 == 1))
        };
        let f0 = resolve(rhs0)?;
        let f1 = resolve(rhs1)?;
        lits.push(aig.and(f0, f1));
    }

    // Optional symbol table.
    let mut out_names: HashMap<usize, String> = HashMap::new();
    if pos < bytes.len() {
        if let Ok(rest) = std::str::from_utf8(&bytes[pos..]) {
            for line in rest.lines() {
                if line == "c" || line.starts_with("c ") {
                    break;
                }
                if let Some(spec) = line.strip_prefix('o') {
                    let mut parts = spec.splitn(2, ' ');
                    if let Some(idx) = parts.next().and_then(|s| s.parse::<usize>().ok()) {
                        out_names.insert(idx, parts.next().unwrap_or("").to_owned());
                    }
                }
            }
        }
    }
    for (idx, &(line, code)) in output_codes.iter().enumerate() {
        let lit = lits.get((code / 2) as usize).copied().ok_or_else(|| {
            err(
                NetlistErrorKind::Undeclared,
                line,
                format!("output literal {code} is beyond the last variable"),
            )
        })? ^ (code & 1 == 1);
        let name = out_names
            .get(&idx)
            .cloned()
            .unwrap_or_else(|| format!("o{idx}"));
        aig.add_output(name, lit);
    }
    Ok(aig)
}

#[cfg(test)]
mod binary_tests {
    use super::*;
    use crate::sim::{exhaustive_equiv_check, random_equiv_check};

    #[test]
    fn binary_roundtrip_small() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let s = aig.xor3(a, b, c);
        let co = aig.maj(a, b, c);
        aig.add_output("sum", s);
        aig.add_output("carry", !co);
        let bytes = to_aig_binary(&aig);
        let parsed = from_aig_binary(&bytes).unwrap();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), 2);
        assert!(exhaustive_equiv_check(&aig, &parsed));
        assert_eq!(parsed.outputs()[0].0, "sum");
    }

    #[test]
    fn binary_roundtrip_multiplier() {
        let aig = crate::gen::csa_multiplier(6);
        let bytes = to_aig_binary(&aig);
        let parsed = from_aig_binary(&bytes).unwrap();
        assert!(random_equiv_check(&aig, &parsed, 8, 0xB1A));
        // Binary format is more compact than ASCII.
        assert!(bytes.len() < to_aag(&aig).len());
    }

    #[test]
    fn binary_rejects_malformed() {
        let kind = |bytes: &[u8]| from_aig_binary(bytes).unwrap_err().kind;
        assert_eq!(kind(b""), NetlistErrorKind::Truncated);
        assert_eq!(kind(b"aig 1 1 1 0 0\n"), NetlistErrorKind::Latch);
        assert_eq!(kind(b"aig 2 1 0 0 2\n"), NetlistErrorKind::Syntax); // M != I+A
        assert_eq!(kind(b"aig 2 1 0 0 1\n"), NetlistErrorKind::Truncated); // no deltas
        let e = from_aig_binary(b"aig 1 1 0 1 0\n4\n").unwrap_err();
        assert_eq!((e.kind, e.line), (NetlistErrorKind::Undeclared, 2), "{e}");
    }

    #[test]
    fn binary_and_ascii_agree() {
        let aig = crate::gen::booth_multiplier(4);
        let from_bin = from_aig_binary(&to_aig_binary(&aig)).unwrap();
        let from_text = from_aag(&to_aag(&aig)).unwrap();
        assert!(exhaustive_equiv_check(&from_bin, &from_text));
    }
}
