//! Format-agnostic netlist ingestion: the [`Netlist`] frontend trait,
//! the shared [`NetlistError`] type, the [`read_netlist`] dispatcher
//! that picks a frontend from a file extension, and the one definition
//! resolver the text frontends (BLIF, Verilog, ASCII AIGER) build
//! through.
//!
//! Four frontends are registered ([`FRONTENDS`]):
//!
//! | extension | format | read | write |
//! |---|---|---|---|
//! | `.aag` | ASCII AIGER | ✓ | ✓ |
//! | `.aig` | binary AIGER | ✓ | ✓ |
//! | `.blif` | Berkeley Logic Interchange Format (combinational subset) | ✓ | ✓ |
//! | `.v` | structural Verilog (gate-primitive subset) | ✓ | ✓ |
//!
//! All frontends parse into the same [`Aig`], so everything downstream
//! (simulation, saturation, fingerprinting) is source-format agnostic:
//! isomorphic netlists produce identical structures no matter which
//! format delivered them.
//!
//! The text frontends only tokenize and check what is specific to their
//! format; turning the gate definitions into AIG nodes is one shared
//! step, so definition order, redefinitions, undefined signals and
//! cycles are handled — and reported with the same
//! [`NetlistErrorKind`]s — identically for every text format.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::path::Path;

use crate::{Aig, Lit};

/// What went wrong while reading or writing a netlist file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetlistErrorKind {
    /// The file could not be read or written.
    Io,
    /// No frontend claims the file's extension.
    UnknownFormat,
    /// Malformed syntax (bad token, bad directive, redefinition).
    Syntax,
    /// The file ends before the netlist is complete.
    Truncated,
    /// A referenced signal is never declared or never driven.
    Undeclared,
    /// The netlist contains latches (only combinational logic is
    /// supported).
    Latch,
    /// A gate or cover row has the wrong number of operands.
    Arity,
    /// The combinational logic contains a cycle.
    Cycle,
    /// A construct outside the supported subset.
    Unsupported,
}

impl NetlistErrorKind {
    /// Stable lowercase name for displays and JSON.
    pub fn name(self) -> &'static str {
        match self {
            NetlistErrorKind::Io => "io",
            NetlistErrorKind::UnknownFormat => "unknown-format",
            NetlistErrorKind::Syntax => "syntax",
            NetlistErrorKind::Truncated => "truncated",
            NetlistErrorKind::Undeclared => "undeclared",
            NetlistErrorKind::Latch => "latch",
            NetlistErrorKind::Arity => "arity",
            NetlistErrorKind::Cycle => "cycle",
            NetlistErrorKind::Unsupported => "unsupported",
        }
    }
}

/// A typed parse/IO error shared by every netlist frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistError {
    /// Which frontend produced the error (`"blif"`, `"verilog"`, …).
    pub format: &'static str,
    /// The error category (stable across message rewording).
    pub kind: NetlistErrorKind,
    /// 1-based source line, or 0 when no line applies.
    pub line: usize,
    /// Human-readable detail.
    pub message: String,
}

impl NetlistError {
    /// Creates an error with a source line.
    pub fn at(
        format: &'static str,
        kind: NetlistErrorKind,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        NetlistError {
            format,
            kind,
            line,
            message: message.into(),
        }
    }

    /// Creates an error with no meaningful source line.
    pub fn new(format: &'static str, kind: NetlistErrorKind, message: impl Into<String>) -> Self {
        Self::at(format, kind, 0, message)
    }
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{} error ({}) on line {}: {}",
                self.format,
                self.kind.name(),
                self.line,
                self.message
            )
        } else {
            write!(
                f,
                "{} error ({}): {}",
                self.format,
                self.kind.name(),
                self.message
            )
        }
    }
}

impl std::error::Error for NetlistError {}

/// A netlist file-format frontend: parse bytes into an [`Aig`] and
/// serialize an [`Aig`] back out.
///
/// Implementations are stateless unit structs registered in
/// [`FRONTENDS`]; dispatch is by file extension via
/// [`frontend_for_path`].
pub trait Netlist {
    /// Short lowercase format name (`"blif"`, `"verilog"`, …).
    fn format_name(&self) -> &'static str;

    /// File extensions (without the dot) this frontend claims.
    fn extensions(&self) -> &'static [&'static str];

    /// Parses file contents into an AIG.
    fn parse(&self, bytes: &[u8]) -> Result<Aig, NetlistError>;

    /// Serializes an AIG into this format.
    fn write(&self, aig: &Aig) -> Vec<u8>;
}

/// The ASCII AIGER (`.aag`) frontend.
pub struct AagFormat;

impl Netlist for AagFormat {
    fn format_name(&self) -> &'static str {
        "aag"
    }
    fn extensions(&self) -> &'static [&'static str] {
        &["aag"]
    }
    fn parse(&self, bytes: &[u8]) -> Result<Aig, NetlistError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| NetlistError::new("aag", NetlistErrorKind::Syntax, "file is not UTF-8"))?;
        crate::aiger::from_aag(text)
    }
    fn write(&self, aig: &Aig) -> Vec<u8> {
        crate::aiger::to_aag(aig).into_bytes()
    }
}

/// The binary AIGER (`.aig`) frontend.
pub struct AigerBinaryFormat;

impl Netlist for AigerBinaryFormat {
    fn format_name(&self) -> &'static str {
        "aig"
    }
    fn extensions(&self) -> &'static [&'static str] {
        &["aig"]
    }
    fn parse(&self, bytes: &[u8]) -> Result<Aig, NetlistError> {
        crate::aiger::from_aig_binary(bytes)
    }
    fn write(&self, aig: &Aig) -> Vec<u8> {
        crate::aiger::to_aig_binary(aig)
    }
}

/// The BLIF (`.blif`) frontend; see [`crate::blif`].
pub struct BlifFormat;

impl Netlist for BlifFormat {
    fn format_name(&self) -> &'static str {
        "blif"
    }
    fn extensions(&self) -> &'static [&'static str] {
        &["blif"]
    }
    fn parse(&self, bytes: &[u8]) -> Result<Aig, NetlistError> {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            NetlistError::new("blif", NetlistErrorKind::Syntax, "file is not UTF-8")
        })?;
        crate::blif::parse_blif(text)
    }
    fn write(&self, aig: &Aig) -> Vec<u8> {
        crate::blif::write_blif(aig).into_bytes()
    }
}

/// The structural-Verilog (`.v`) frontend; see [`crate::verilog`].
pub struct VerilogFormat;

impl Netlist for VerilogFormat {
    fn format_name(&self) -> &'static str {
        "verilog"
    }
    fn extensions(&self) -> &'static [&'static str] {
        &["v"]
    }
    fn parse(&self, bytes: &[u8]) -> Result<Aig, NetlistError> {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            NetlistError::new("verilog", NetlistErrorKind::Syntax, "file is not UTF-8")
        })?;
        crate::verilog::parse_verilog(text)
    }
    fn write(&self, aig: &Aig) -> Vec<u8> {
        crate::verilog::write_verilog(aig).into_bytes()
    }
}

/// Every registered frontend, in dispatch order.
pub static FRONTENDS: [&(dyn Netlist + Sync); 4] =
    [&AagFormat, &AigerBinaryFormat, &BlifFormat, &VerilogFormat];

/// The frontend claiming `ext` (without the dot, case-insensitive).
pub fn frontend_for_extension(ext: &str) -> Option<&'static (dyn Netlist + Sync)> {
    let ext = ext.to_ascii_lowercase();
    FRONTENDS
        .iter()
        .copied()
        .find(|f| f.extensions().contains(&ext.as_str()))
}

/// Whether some frontend claims `ext` (without the dot).
pub fn is_supported_extension(ext: &str) -> bool {
    frontend_for_extension(ext).is_some()
}

/// The frontend for `path`, chosen by extension.
///
/// # Errors
///
/// Returns [`NetlistErrorKind::UnknownFormat`] when no frontend claims
/// the extension (or the path has none).
pub fn frontend_for_path(path: &Path) -> Result<&'static (dyn Netlist + Sync), NetlistError> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or_default();
    frontend_for_extension(ext).ok_or_else(|| {
        let known: Vec<&str> = FRONTENDS
            .iter()
            .flat_map(|f| f.extensions())
            .copied()
            .collect();
        NetlistError::new(
            "netlist",
            NetlistErrorKind::UnknownFormat,
            format!(
                "no frontend for {:?} (supported extensions: {})",
                path.display().to_string(),
                known.join(", ")
            ),
        )
    })
}

/// Reads a netlist file, dispatching on its extension.
///
/// # Errors
///
/// Propagates frontend parse errors; IO failures map to
/// [`NetlistErrorKind::Io`]; unclaimed extensions to
/// [`NetlistErrorKind::UnknownFormat`].
pub fn read_netlist(path: impl AsRef<Path>) -> Result<Aig, NetlistError> {
    let path = path.as_ref();
    let frontend = frontend_for_path(path)?;
    let bytes = std::fs::read(path).map_err(|e| {
        NetlistError::new(
            frontend.format_name(),
            NetlistErrorKind::Io,
            format!("cannot read {}: {e}", path.display()),
        )
    })?;
    frontend.parse(&bytes)
}

/// Writes a netlist file, dispatching on its extension.
///
/// # Errors
///
/// Returns [`NetlistErrorKind::UnknownFormat`] for unclaimed
/// extensions and [`NetlistErrorKind::Io`] for filesystem failures.
pub fn write_netlist(path: impl AsRef<Path>, aig: &Aig) -> Result<(), NetlistError> {
    let path = path.as_ref();
    let frontend = frontend_for_path(path)?;
    let bytes = frontend.write(aig);
    std::fs::write(path, bytes).map_err(|e| {
        NetlistError::new(
            frontend.format_name(),
            NetlistErrorKind::Io,
            format!("cannot write {}: {e}", path.display()),
        )
    })
}

/// One gate definition of a text netlist, as a frontend hands it to
/// [`build_definitions`].
pub(crate) struct Definition<K, G> {
    /// 1-based source line.
    pub(crate) line: usize,
    /// The signal the definition drives.
    pub(crate) output: K,
    /// The signals it reads, in operand order.
    pub(crate) inputs: Vec<K>,
    /// What it computes, in the frontend's terms (a BLIF cover, a
    /// Verilog primitive, an AIGER AND's fanin polarities).
    pub(crate) gate: G,
}

/// Builds a text netlist into an [`Aig`]: binds `constants`, adds
/// `inputs` as primary inputs in order, lowers every definition through
/// `lower` (which receives the gate and its fanin literals in operand
/// order) and looks up `outputs`, returning their literals in order.
/// The caller names the outputs.
///
/// Definitions are built in dependency order by a Kahn worklist whose
/// ready queue is a min-heap on the definition index, so their order in
/// the file does not matter, and a topologically ordered file — in
/// particular anything this crate's writers produce — is rebuilt in
/// file order, node for node.
///
/// # Errors
///
/// Typed [`NetlistError`]s tagged with `format` and the offending line:
/// [`NetlistErrorKind::Syntax`] for an input declared twice or a signal
/// defined twice or redefining an input, [`NetlistErrorKind::Undeclared`]
/// for a definition or output reading a signal nothing defines, and
/// [`NetlistErrorKind::Cycle`] for a combinational loop.
pub(crate) fn build_definitions<K, G>(
    format: &'static str,
    constants: &[(K, Lit)],
    inputs: &[(usize, K)],
    defs: &[Definition<K, G>],
    outputs: &[(usize, K)],
    mut lower: impl FnMut(&mut Aig, &G, &[Lit]) -> Lit,
) -> Result<(Aig, Vec<Lit>), NetlistError>
where
    K: Copy + Eq + Hash + fmt::Debug,
{
    let err = |kind, line, message: String| NetlistError::at(format, kind, line, message);
    let mut aig = Aig::new();
    let mut signals: HashMap<K, Lit> = constants.iter().copied().collect();
    for &(line, key) in inputs {
        let lit = aig.add_input();
        if signals.insert(key, lit).is_some() {
            return Err(err(
                NetlistErrorKind::Syntax,
                line,
                format!("input {key:?} declared twice"),
            ));
        }
    }
    let mut defined: HashSet<K> = signals.keys().copied().collect();
    for def in defs {
        if !defined.insert(def.output) {
            let what = if signals.contains_key(&def.output) {
                "redefines input"
            } else {
                "is defined twice"
            };
            return Err(err(
                NetlistErrorKind::Syntax,
                def.line,
                format!("signal {:?} {what}", def.output),
            ));
        }
    }

    let mut waiters: HashMap<K, Vec<usize>> = HashMap::new();
    let mut missing: Vec<usize> = vec![0; defs.len()];
    let mut ready: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    for (i, def) in defs.iter().enumerate() {
        for key in &def.inputs {
            if !signals.contains_key(key) {
                missing[i] += 1;
                waiters.entry(*key).or_default().push(i);
            }
        }
        if missing[i] == 0 {
            ready.push(Reverse(i));
        }
    }
    let mut fanins: Vec<Lit> = Vec::new();
    let mut built = 0usize;
    while let Some(Reverse(i)) = ready.pop() {
        let def = &defs[i];
        fanins.clear();
        fanins.extend(def.inputs.iter().map(|key| signals[key]));
        let lit = lower(&mut aig, &def.gate, &fanins);
        signals.insert(def.output, lit);
        built += 1;
        for w in waiters.remove(&def.output).unwrap_or_default() {
            missing[w] -= 1;
            if missing[w] == 0 {
                ready.push(Reverse(w));
            }
        }
    }
    if built < defs.len() {
        // Diagnose across the whole stuck frontier: a signal defined
        // nowhere means an undeclared reference; if every reference has
        // a definition, the blockage is a cycle.
        let stuck = || defs.iter().filter(|def| !signals.contains_key(&def.output));
        for def in stuck() {
            if let Some(ghost) = def.inputs.iter().find(|key| !defined.contains(*key)) {
                return Err(err(
                    NetlistErrorKind::Undeclared,
                    def.line,
                    format!("signal {ghost:?} used by {:?} is never defined", def.output),
                ));
            }
        }
        let def = stuck().next().expect("built < defs.len()");
        return Err(err(
            NetlistErrorKind::Cycle,
            def.line,
            format!("combinational cycle through {:?}", def.output),
        ));
    }

    let outputs = outputs
        .iter()
        .map(|&(line, key)| {
            signals.get(&key).copied().ok_or_else(|| {
                err(
                    NetlistErrorKind::Undeclared,
                    line,
                    format!("output {key:?} is never defined"),
                )
            })
        })
        .collect::<Result<Vec<Lit>, NetlistError>>()?;
    Ok((aig, outputs))
}

/// Sanitizes `raw` into an identifier (letters, digits, `_`) that is
/// unique within `used`, registering the result. Writers use this so
/// arbitrary output names survive round trips through formats with
/// stricter identifier rules.
pub(crate) fn sanitize_name(raw: &str, used: &mut HashSet<String>) -> String {
    let mut name: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.is_empty() {
        name.push('s');
    }
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        name.insert(0, '_');
    }
    if used.contains(&name) {
        let mut i = 2usize;
        while used.contains(&format!("{name}_{i}")) {
            i += 1;
        }
        name = format!("{name}_{i}");
    }
    used.insert(name.clone());
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_dispatch() {
        assert!(is_supported_extension("blif"));
        assert!(is_supported_extension("BLIF"));
        assert!(is_supported_extension("v"));
        assert!(is_supported_extension("aag"));
        assert!(is_supported_extension("aig"));
        assert!(!is_supported_extension("vhdl"));
        assert!(!is_supported_extension(""));
        assert_eq!(
            frontend_for_extension("v").unwrap().format_name(),
            "verilog"
        );
    }

    #[test]
    fn unknown_extension_is_typed() {
        for path in ["design.vhdl", "no_extension"] {
            match frontend_for_path(Path::new(path)) {
                Err(e) => assert_eq!(e.kind, NetlistErrorKind::UnknownFormat),
                Ok(f) => panic!("{path}: unexpectedly matched frontend {}", f.format_name()),
            }
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_netlist("/nonexistent/never.blif").unwrap_err();
        assert_eq!(err.kind, NetlistErrorKind::Io);
    }

    #[test]
    fn sanitize_dedupes_and_cleans() {
        let mut used = HashSet::new();
        assert_eq!(sanitize_name("sum[0]", &mut used), "sum_0_");
        assert_eq!(sanitize_name("sum[0]", &mut used), "sum_0__2");
        assert_eq!(sanitize_name("3x", &mut used), "_3x");
        assert_eq!(sanitize_name("", &mut used), "s");
    }
}
