//! Job specifications, statuses, and outcomes.

use std::path::PathBuf;
use std::time::Duration;

use aig::Aig;
use boole::json::{Json, ToJson};
use boole::{BooleParams, BooleResult, PairStats, Phase, RecoveredFa, SaturationStats};

/// Where a job's netlist comes from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// An in-memory netlist.
    Netlist(Aig),
    /// A netlist file on disk in any registered format
    /// (`.aag`/`.aig`/`.blif`/`.v`); the frontend is chosen by
    /// extension via [`aig::read_netlist`]. Whatever the format, the
    /// parsed structure feeds the same structural fingerprint, so
    /// isomorphic netlists share a cache entry across formats.
    File(PathBuf),
    /// A generated arithmetic benchmark.
    Generate(GenSpec),
}

/// Which multiplier generator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenFamily {
    /// Unsigned carry-save array multiplier.
    Csa,
    /// Signed radix-4 Booth multiplier.
    Booth,
    /// Unsigned Wallace-tree multiplier.
    Wallace,
}

/// How a generated netlist is prepared before reasoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GenPrep {
    /// Raw generator output.
    #[default]
    None,
    /// Technology-mapping round trip (structure destroyed).
    Mapped,
    /// `dch`-style logic optimization.
    Dch,
}

/// A generated-benchmark spec, parseable from `family:bits[:prep]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSpec {
    /// Multiplier family.
    pub family: GenFamily,
    /// Operand bit-width.
    pub bits: usize,
    /// Netlist preparation.
    pub prep: GenPrep,
}

impl GenSpec {
    /// Parses `csa:16`, `booth:8:mapped`, `wallace:4:dch`, …
    pub fn parse(text: &str) -> Result<GenSpec, String> {
        let mut parts = text.split(':');
        let family = match parts.next().unwrap_or("") {
            "csa" => GenFamily::Csa,
            "booth" => GenFamily::Booth,
            "wallace" => GenFamily::Wallace,
            other => return Err(format!("unknown family {other:?} (csa|booth|wallace)")),
        };
        let bits: usize = parts
            .next()
            .ok_or_else(|| format!("missing bit-width in {text:?}"))?
            .parse()
            .map_err(|e| format!("bad bit-width in {text:?}: {e}"))?;
        if bits < 2 {
            return Err(format!("bit-width must be >= 2, got {bits}"));
        }
        if family == GenFamily::Booth && !bits.is_multiple_of(2) {
            return Err(format!("booth width must be even, got {bits}"));
        }
        let prep = match parts.next() {
            None => GenPrep::None,
            Some("mapped") => GenPrep::Mapped,
            Some("dch") => GenPrep::Dch,
            Some(other) => return Err(format!("unknown prep {other:?} (mapped|dch)")),
        };
        if let Some(extra) = parts.next() {
            return Err(format!("trailing component {extra:?} in {text:?}"));
        }
        Ok(GenSpec { family, bits, prep })
    }

    /// Generates the netlist.
    pub fn build(&self) -> Aig {
        let raw = match self.family {
            GenFamily::Csa => aig::gen::csa_multiplier(self.bits),
            GenFamily::Booth => aig::gen::booth_multiplier(self.bits),
            GenFamily::Wallace => aig::gen::wallace_multiplier(self.bits),
        };
        match self.prep {
            GenPrep::None => raw,
            GenPrep::Mapped => aig::map::map_round_trip(&raw),
            GenPrep::Dch => aig::opt::dch(&raw),
        }
    }

    /// The canonical `family:bits[:prep]` spelling.
    pub fn display_name(&self) -> String {
        let family = match self.family {
            GenFamily::Csa => "csa",
            GenFamily::Booth => "booth",
            GenFamily::Wallace => "wallace",
        };
        match self.prep {
            GenPrep::None => format!("{family}:{}", self.bits),
            GenPrep::Mapped => format!("{family}:{}:mapped", self.bits),
            GenPrep::Dch => format!("{family}:{}:dch", self.bits),
        }
    }
}

/// A unit of work for the service.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label, echoed in results (defaults to the source
    /// description).
    pub label: String,
    /// The netlist source.
    pub source: JobSource,
    /// Pipeline parameters. The service installs a per-job cancel
    /// token; any token already present is replaced.
    pub params: BooleParams,
    /// Relative deadline, measured from submission. When it expires the
    /// job's token is cancelled cooperatively.
    pub deadline: Option<Duration>,
    /// Consult/populate the structural-hash result cache (default on).
    pub use_cache: bool,
}

impl JobSpec {
    /// A job over an in-memory netlist.
    pub fn netlist(label: impl Into<String>, aig: Aig) -> Self {
        JobSpec {
            label: label.into(),
            source: JobSource::Netlist(aig),
            params: BooleParams::default(),
            deadline: None,
            use_cache: true,
        }
    }

    /// A job over a netlist file in any registered format
    /// (`.aag`, `.aig`, `.blif`, `.v`), dispatched by extension.
    pub fn file(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        JobSpec {
            label: path.display().to_string(),
            source: JobSource::File(path),
            params: BooleParams::default(),
            deadline: None,
            use_cache: true,
        }
    }

    /// A job over a generated benchmark.
    pub fn generated(spec: GenSpec) -> Self {
        JobSpec {
            label: spec.display_name(),
            source: JobSource::Generate(spec),
            params: BooleParams::default(),
            deadline: None,
            use_cache: true,
        }
    }

    /// Replaces the pipeline parameters.
    pub fn with_params(mut self, params: BooleParams) -> Self {
        self.params = params;
        self
    }

    /// Sets a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Disables the result cache for this job.
    pub fn without_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }
}

/// Observable lifecycle state of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the bounded queue.
    Queued,
    /// Picked up by a worker.
    Running,
    /// Finished with a result (fresh or cached).
    Completed,
    /// Cancelled (explicitly or by deadline) before completing.
    Cancelled,
    /// Failed to load/parse/generate its netlist, or exhausted its
    /// retry budget on transient failures.
    Failed,
    /// The pipeline panicked; the panic was isolated to this job (the
    /// worker thread survived).
    Panicked,
    /// Shed at admission: the service refused to queue the job (full
    /// queue under a shedding policy, admission timeout, shutdown).
    Rejected,
}

impl JobStatus {
    /// Stable lowercase name for displays and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::Rejected => "rejected",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// A cacheable, JSON-serializable summary of a completed
/// [`BooleResult`] (no e-graph, no reconstructed netlist body).
#[derive(Debug, Clone)]
pub struct ResultSummary {
    /// Exact full adders recovered.
    pub exact_fa_count: usize,
    /// Inputs of the reconstructed netlist.
    pub inputs: usize,
    /// Outputs of the reconstructed netlist.
    pub outputs: usize,
    /// AND gates in the reconstructed netlist.
    pub ands: usize,
    /// Recovered FAs in reconstructed-netlist literals.
    pub fas: Vec<RecoveredFa>,
    /// Recovered FAs in original-netlist literals.
    pub original_fas: Vec<RecoveredFa>,
    /// Saturation statistics without the per-rule profiles: `rules` is
    /// empty. Neither JSON document carries them and nothing in the
    /// service reads them, while a batch keeps every summary; callers
    /// that want them run the pipeline and read [`BooleResult`].
    pub saturation: SaturationStats,
    /// Pairing statistics.
    pub pairing: PairStats,
    /// Pipeline wall-clock time (not part of the canonical JSON).
    pub pipeline_runtime: Duration,
}

impl From<&BooleResult> for ResultSummary {
    fn from(result: &BooleResult) -> Self {
        ResultSummary {
            exact_fa_count: result.exact_fa_count(),
            inputs: result.reconstructed.num_inputs(),
            outputs: result.reconstructed.num_outputs(),
            ands: result.reconstructed.num_ands(),
            fas: result.fas.clone(),
            original_fas: result.original_fas.clone(),
            saturation: SaturationStats {
                rules: Vec::new(),
                ..result.saturation.clone()
            },
            pairing: result.pairing,
            pipeline_runtime: result.runtime,
        }
    }
}

/// Canonical (deterministic) JSON: every field is a pure function of
/// the netlist and parameters, so a batch serializes byte-identically
/// at any worker count. Wall-clock timings are exposed separately via
/// [`JobOutcome::timing_json`].
impl ToJson for ResultSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("exact_fa_count", Json::from(self.exact_fa_count)),
            (
                "reconstructed",
                Json::obj([
                    ("inputs", Json::from(self.inputs)),
                    ("outputs", Json::from(self.outputs)),
                    ("ands", Json::from(self.ands)),
                ]),
            ),
            ("fas", Json::arr(self.fas.iter().map(ToJson::to_json))),
            (
                "original_fas",
                Json::arr(self.original_fas.iter().map(ToJson::to_json)),
            ),
            ("saturation", self.saturation.to_json()),
            ("pairing", self.pairing.to_json()),
        ])
    }
}

/// Why the service refused to queue a job (see
/// [`JobVerdict::Rejected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was at capacity under a shedding policy.
    QueueFull,
    /// The worker pool is shutting down; the job can never run.
    ShuttingDown,
    /// The `queue.accept` failpoint fired (chaos testing).
    Injected,
}

impl RejectReason {
    /// Stable lowercase name for displays and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::ShuttingDown => "shutting_down",
            RejectReason::Injected => "injected",
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone)]
pub enum JobVerdict {
    /// The pipeline produced a result (possibly served from cache).
    Completed(std::sync::Arc<ResultSummary>),
    /// The job's token fired first; `phase` is where the pipeline
    /// observed it (absent when cancelled while still queued).
    Cancelled {
        /// Pipeline phase at cancellation, if it had started.
        phase: Option<Phase>,
    },
    /// The netlist could not be loaded/parsed/generated, or transient
    /// failures outlived the retry budget.
    Failed(String),
    /// The pipeline panicked. The panic was contained: the stream
    /// closed, waiters woke, and the worker thread took the next job.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// Shed at admission instead of queued — the typed fail-fast
    /// outcome of [`ShedPolicy`](crate::ShedPolicy) admission control.
    Rejected {
        /// Why admission refused the job.
        reason: RejectReason,
    },
}

/// The terminal record of a job, retrievable via `JobHandle::wait`.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Service-assigned id (submission order, starting at 1).
    pub job_id: u64,
    /// The spec's label.
    pub label: String,
    /// How the job ended.
    pub verdict: JobVerdict,
    /// Whether the result was served from the structural-hash cache.
    pub from_cache: bool,
    /// Queue-to-terminal wall-clock time (not part of canonical JSON).
    pub service_time: Duration,
    /// Transient-failure retries this job consumed (not part of
    /// canonical JSON; reported in the timing block).
    pub retries: u32,
}

impl JobOutcome {
    /// The result summary, if the job completed.
    pub fn summary(&self) -> Option<&ResultSummary> {
        match &self.verdict {
            JobVerdict::Completed(summary) => Some(summary),
            _ => None,
        }
    }

    /// The terminal status corresponding to the verdict.
    pub fn status(&self) -> JobStatus {
        match &self.verdict {
            JobVerdict::Completed(_) => JobStatus::Completed,
            JobVerdict::Cancelled { .. } => JobStatus::Cancelled,
            JobVerdict::Failed(_) => JobStatus::Failed,
            JobVerdict::Panicked { .. } => JobStatus::Panicked,
            JobVerdict::Rejected { .. } => JobStatus::Rejected,
        }
    }

    /// Non-canonical execution metadata (varies run to run): wall
    /// clocks, and whether the cache answered. `from_cache` lives here
    /// rather than in the canonical JSON because it depends on what
    /// ran earlier — two jobs over isomorphic netlists race for the
    /// one cache miss, so including it canonically would break the
    /// byte-identical-at-any-worker-count contract.
    pub fn timing_json(&self) -> Json {
        let mut pairs = vec![
            ("from_cache".to_owned(), Json::from(self.from_cache)),
            (
                "service_ms".to_owned(),
                Json::duration_ms(self.service_time),
            ),
            ("retries".to_owned(), Json::from(self.retries as usize)),
        ];
        if let Some(summary) = self.summary() {
            pairs.push((
                "pipeline_ms".to_owned(),
                Json::duration_ms(summary.pipeline_runtime),
            ));
            // Saturation phase breakdown (struct-only fields: they are
            // wall clocks, so they live here, not in the canonical
            // document). A cache-served summary reports zeros.
            let sat = &summary.saturation;
            pairs.push(("search_ms".to_owned(), Json::duration_ms(sat.search_time)));
            pairs.push(("merge_ms".to_owned(), Json::duration_ms(sat.merge_time)));
            pairs.push(("apply_ms".to_owned(), Json::duration_ms(sat.apply_time)));
            pairs.push(("rebuild_ms".to_owned(), Json::duration_ms(sat.rebuild_time)));
            pairs.push(("total_matches".to_owned(), Json::from(sat.total_matches)));
        }
        Json::Obj(pairs)
    }
}

/// Canonical (deterministic) JSON; see [`ResultSummary`]'s impl for
/// the determinism contract.
impl ToJson for JobOutcome {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("label".to_owned(), Json::str(&self.label)),
            ("status".to_owned(), Json::str(self.status().name())),
        ];
        match &self.verdict {
            JobVerdict::Completed(summary) => {
                pairs.push(("result".to_owned(), summary.to_json()));
            }
            JobVerdict::Cancelled { phase } => {
                pairs.push((
                    "cancelled_in".to_owned(),
                    match phase {
                        Some(p) => Json::str(p.name()),
                        None => Json::Null,
                    },
                ));
            }
            JobVerdict::Failed(err) => {
                pairs.push(("error".to_owned(), Json::str(err.clone())));
            }
            JobVerdict::Panicked { message } => {
                pairs.push(("panic".to_owned(), Json::str(message.clone())));
            }
            JobVerdict::Rejected { reason } => {
                pairs.push(("rejected".to_owned(), Json::str(reason.name())));
            }
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_spec_parses_and_round_trips() {
        for text in ["csa:4", "booth:4:mapped", "wallace:3:dch"] {
            let spec = GenSpec::parse(text).unwrap();
            assert_eq!(spec.display_name(), text);
            let aig = spec.build();
            assert!(aig.num_inputs() > 0);
        }
    }

    #[test]
    fn gen_spec_rejects_garbage() {
        assert!(GenSpec::parse("karatsuba:8").is_err());
        assert!(GenSpec::parse("csa").is_err());
        assert!(GenSpec::parse("csa:x").is_err());
        assert!(GenSpec::parse("csa:1").is_err());
        assert!(GenSpec::parse("csa:4:optimized").is_err());
        assert!(GenSpec::parse("csa:4:mapped:extra").is_err());
        assert!(GenSpec::parse("booth:5").is_err());
    }

    fn arb_summary() -> impl proptest::Strategy<Value = ResultSummary> {
        use egraph::StopReason;
        use proptest::Strategy as _;
        let fa = ((0u32..4096, 0u32..4096, 0u32..4096), 0u32..4096, 0u32..4096).prop_map(
            |((a, b, c), sum, carry)| RecoveredFa {
                inputs: [aig::Lit(a), aig::Lit(b), aig::Lit(c)],
                sum: aig::Lit(sum),
                carry: aig::Lit(carry),
            },
        );
        let stop = || {
            proptest::prop_oneof![
                proptest::Just(StopReason::Saturated),
                proptest::Just(StopReason::Cancelled),
                (0usize..500).prop_map(StopReason::IterLimit),
                (0usize..500_000).prop_map(StopReason::NodeLimit),
            ]
        };
        (
            (0usize..64, 0usize..64, 0usize..64, 0usize..4096),
            proptest::collection::vec(fa, 0..5),
            (stop(), stop()),
            (0usize..10_000, 0usize..10_000, 0usize..100),
            (0usize..1000, 0usize..1000, 0usize..1000),
        )
            .prop_map(
                |((fa_count, inputs, outputs, ands), fas, (r1, r2), (n1, n2, iters), pair)| {
                    ResultSummary {
                        exact_fa_count: fa_count,
                        inputs,
                        outputs,
                        ands,
                        original_fas: fas.clone(),
                        fas,
                        saturation: SaturationStats {
                            nodes_after_r1: n1,
                            nodes_after_r2: n2,
                            classes: n2 / 2,
                            r1_stop: r1,
                            r2_stop: r2,
                            r1_iterations: iters,
                            r2_iterations: iters,
                            pruned: n1 / 3,
                            search_time: Duration::ZERO,
                            merge_time: Duration::ZERO,
                            apply_time: Duration::ZERO,
                            rebuild_time: Duration::ZERO,
                            total_matches: n1 + n2,
                            search: Default::default(),
                            rules: Vec::new(),
                        },
                        pairing: PairStats {
                            fa_inserted: pair.0,
                            xor3_triples: pair.1,
                            maj_triples: pair.2,
                        },
                        pipeline_runtime: Duration::ZERO,
                    }
                },
            )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// parse ∘ print = id on generated `ResultSummary` documents:
        /// the canonical JSON survives a trip through `Json::parse`
        /// byte-for-byte.
        #[test]
        fn summary_canonical_json_round_trips(summary in arb_summary()) {
            let doc = summary.to_json();
            let text = doc.to_string();
            let reparsed = Json::parse(&text).expect("canonical JSON must parse");
            proptest::prop_assert_eq!(&reparsed, &doc);
            proptest::prop_assert_eq!(reparsed.to_string(), text);
        }
    }

    #[test]
    fn summary_drops_the_per_rule_profiles() {
        let aig = GenSpec::parse("csa:3").unwrap().build();
        let result = boole::BoolE::new(BooleParams::small()).run(&aig);
        assert!(!result.saturation.rules.is_empty());
        let summary = ResultSummary::from(&result);
        assert!(summary.saturation.rules.is_empty());
        assert_eq!(
            summary.saturation.to_json(),
            result.saturation.to_json(),
            "the canonical document never carried them"
        );
    }

    #[test]
    fn job_spec_builder_defaults() {
        let spec = JobSpec::generated(GenSpec::parse("csa:3").unwrap());
        assert_eq!(spec.label, "csa:3");
        assert!(spec.use_cache);
        assert!(spec.deadline.is_none());
        let spec = spec.without_cache().with_deadline(Duration::from_millis(5));
        assert!(!spec.use_cache);
        assert_eq!(spec.deadline, Some(Duration::from_millis(5)));
    }
}
