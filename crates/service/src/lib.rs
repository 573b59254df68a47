//! **boole-service** — a concurrent batch-reasoning server over the
//! BoolE pipeline.
//!
//! The one-shot pipeline in the `boole` crate becomes a cacheable,
//! cancellable, concurrently schedulable unit of work:
//!
//! * [`Service`] — a std-only worker pool (threads + mpsc) with a
//!   bounded job queue. [`Service::submit`] returns a [`JobHandle`]
//!   for status polling, cooperative cancellation, and blocking waits.
//! * [`fingerprint_aig`] — a canonical topological hash over an AIG's
//!   gates and outputs; the in-memory LRU result cache
//!   ([`ResultCache`]) keyed on it answers resubmitted/isomorphic
//!   netlists without a saturation run. Concurrent identical
//!   submissions are single-flighted: one pipeline runs, the rest
//!   coalesce onto its result.
//! * Per-job deadlines: a job's [`CancelToken`](boole::CancelToken)
//!   carries its deadline and reads as cancelled once it passes; the
//!   queue, the pipeline and the runner (down to the matching VM)
//!   observe it, so runaway jobs die without poisoning the pool.
//! * Robustness: panicking pipelines are isolated per job (the worker
//!   survives, the handle resolves as [`JobStatus::Panicked`]),
//!   transient failures retry with exponential backoff, overload can
//!   shed instead of block ([`ShedPolicy`]), and every cache and
//!   scheduling edge carries a named failpoint ([`FaultRegistry`]) so
//!   chaos tests can drive rare error paths deterministically.
//!
//! Netlists arrive in any registered frontend format — ASCII/binary
//! AIGER, BLIF, or structural Verilog ([`JobSpec::file`] dispatches by
//! extension via [`aig::read_netlist`]). Because every frontend parses
//! into the same structurally hashed [`Aig`](aig::Aig), the
//! fingerprint — and therefore the result cache — is format-agnostic:
//! the same circuit submitted as `.aag` and `.blif` is one cache entry.
//!
//! The `boole` binary exposes this as a CLI: `boole run <netlist>`,
//! `boole batch <dir>` (formats freely mixed), `boole gen csa:16`, all
//! with JSON results.

#![warn(missing_docs)]

mod cache;
pub mod faults;
mod fingerprint;
mod job;
mod service;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use faults::{FaultAction, FaultPolicy, FaultRegistry, InjectedFault, Trigger};
pub use fingerprint::{fingerprint_aig, fingerprint_params, Fingerprint};
pub use job::{
    GenFamily, GenPrep, GenSpec, JobOutcome, JobSource, JobSpec, JobStatus, JobVerdict,
    RejectReason, ResultSummary,
};
pub use service::{JobHandle, Service, ServiceConfig, ServiceStats, ShedPolicy};
