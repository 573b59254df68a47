//! **BoolE** — exact Boolean symbolic reasoning via equality
//! saturation (reproduction of Yin et al., DAC 2025).
//!
//! BoolE takes a gate-level netlist ([`aig::Aig`]), converts it into an
//! e-graph ([`convert`]), saturates it with a domain-specific Boolean
//! ruleset ([`rules`]: `R1` basic algebra, `R2` XOR/MAJ
//! identification), pairs XOR3/MAJ e-nodes sharing the same inputs into
//! multi-output full-adder (`fa`) nodes with `fst`/`snd` projections
//! ([`pair`]), and runs a DAG-cost extraction that maximizes the number
//! of exact FAs ([`extract`]). The result is reconstructed as an AIG
//! whose adder tree is explicit again ([`reconstruct`]).
//!
//! # Quickstart
//!
//! ```
//! use boole::{BoolE, BooleParams};
//!
//! // A 3-bit CSA multiplier, technology-mapped (the paper's Fig. 1).
//! let aig = aig::gen::csa_multiplier(3);
//! let mapped = aig::map::map_round_trip(&aig);
//! let result = BoolE::new(BooleParams::default()).run(&mapped);
//! assert!(result.exact_fa_count() >= 1);
//! ```

#![warn(missing_docs)]

pub mod convert;
pub mod extract;
pub mod json;
mod lang;
pub mod pair;
pub mod pipeline;
pub mod reconstruct;
pub mod rules;
pub mod saturate;
pub mod telemetry;

pub use convert::{aig_to_egraph, NetlistEGraph};
pub use egraph::CancelToken;
pub use extract::{extract_dag, DagChoice, DagExtraction};
pub use json::{Json, JsonError, ToJson};
pub use lang::{BoolLang, BoolOp};
pub use pair::{pair_full_adders, PairStats};
pub use pipeline::{BoolE, BooleParams, BooleResult, Cancelled, Phase, RecoveredFa};
pub use reconstruct::reconstruct_aig;
pub use saturate::{
    saturate, saturate_observed, IterationObserver, RuleSummary, SaturateParams, SaturationStats,
};
pub use telemetry::{EventBus, EventKind, TelemetryEvent, TelemetrySink};
