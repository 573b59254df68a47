//! The end-to-end BoolE pipeline (Figure 2): parse → e-graph →
//! two-phase saturation → FA pairing → DAG extraction → AIG
//! reconstruction.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aig::Aig;
use egraph::CancelToken;

use crate::convert::aig_to_egraph;
use crate::extract::extract_dag;
use crate::pair::{pair_full_adders, PairStats};
use crate::reconstruct::reconstruct_aig;
pub use crate::reconstruct::RecoveredFa;
use crate::saturate::{IterationObserver, SaturateParams, SaturationStats};
use crate::telemetry::{EventKind, TelemetrySink};

/// A stage of the BoolE pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Netlist → e-graph conversion.
    Convert,
    /// Two-phase equality saturation (`R1` then `R2`).
    Saturate,
    /// XOR3/MAJ pairing into `fa` nodes.
    Pair,
    /// DAG-cost extraction.
    Extract,
    /// AIG reconstruction.
    Reconstruct,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 5] = [
        Phase::Convert,
        Phase::Saturate,
        Phase::Pair,
        Phase::Extract,
        Phase::Reconstruct,
    ];

    /// Stable lowercase name (used in JSON and job status displays).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Convert => "convert",
            Phase::Saturate => "saturate",
            Phase::Pair => "pair",
            Phase::Extract => "extract",
            Phase::Reconstruct => "reconstruct",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`BoolE::try_run`] when the run's [`CancelToken`]
/// fired before the pipeline completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cancelled {
    /// The phase during (or before) which cancellation was observed.
    pub phase: Phase,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BoolE run cancelled during {} phase", self.phase)
    }
}

impl std::error::Error for Cancelled {}

/// Configuration of a [`BoolE`] run.
#[derive(Debug, Clone, Default)]
pub struct BooleParams {
    /// Saturation configuration (iterations, limits, pruning).
    pub saturate: SaturateParams,
}

impl BooleParams {
    /// Parameters tuned for large benchmarks: lightweight `R1` and a
    /// tighter node budget (the paper's scalability configuration).
    pub fn lightweight() -> Self {
        BooleParams {
            saturate: SaturateParams {
                lightweight: true,
                ..SaturateParams::default()
            },
        }
    }

    /// A small configuration for unit tests and tiny netlists.
    pub fn small() -> Self {
        BooleParams {
            saturate: SaturateParams::small(),
        }
    }

    /// Disables saturation's wall-clock limit (see
    /// [`SaturateParams::without_time_limit`] for why deterministic
    /// deployments want this).
    pub fn without_time_limit(mut self) -> Self {
        self.saturate = self.saturate.without_time_limit();
        self
    }

    /// Sets how many threads saturation's rule search fans out across
    /// (see [`SaturateParams::search_threads`]; `1` = serial, `0` =
    /// one per available CPU). Results are byte-identical at any
    /// thread count.
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.saturate.search_threads = threads;
        self
    }

    /// Attaches a [`CancelToken`], plumbed through to both saturation
    /// phases and checked between pipeline phases.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.saturate.cancel = token;
        self
    }

    /// The cancellation token this run will observe.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.saturate.cancel
    }
}

/// The result of a BoolE run.
#[derive(Debug)]
pub struct BooleResult {
    /// The reconstructed netlist with explicit adder-tree structure.
    pub reconstructed: Aig,
    /// The recovered full adders (exact by construction: each pairs an
    /// XOR3 and MAJ over the same e-class signals), as literals of the
    /// *reconstructed* netlist.
    pub fas: Vec<RecoveredFa>,
    /// Recovered full adders whose five signals all exist in the
    /// *input* netlist, expressed as its literals — the form
    /// verification backends consume (they rewrite the original
    /// netlist, with BoolE's blocks eliminating the vanishing
    /// monomials).
    pub original_fas: Vec<RecoveredFa>,
    /// Saturation statistics.
    pub saturation: SaturationStats,
    /// FA pairing statistics.
    pub pairing: PairStats,
    /// End-to-end wall-clock time.
    pub runtime: Duration,
}

impl BooleResult {
    /// Number of exact FAs recovered (distinct `fa` nodes extracted).
    pub fn exact_fa_count(&self) -> usize {
        self.fas.len()
    }
}

/// The BoolE exact symbolic reasoning engine.
///
/// ```
/// use boole::{BoolE, BooleParams};
/// let aig = aig::gen::csa_multiplier(3);
/// let result = BoolE::new(BooleParams::default()).run(&aig);
/// // Pre-mapping, the full adder tree is recovered completely.
/// assert_eq!(result.exact_fa_count(), aig::gen::csa_fa_upper_bound(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BoolE {
    params: BooleParams,
    /// Where progress events go, and the job id they are tagged with.
    telemetry: Option<(TelemetrySink, u64)>,
}

impl BoolE {
    /// Creates an engine with the given parameters.
    pub fn new(params: BooleParams) -> Self {
        Self {
            params,
            telemetry: None,
        }
    }

    /// Publishes the run's progress on `sink`, tagged with `job`:
    /// `phase_started`/`phase_finished` around every pipeline phase and
    /// one `iteration` event per saturation iteration. Events are
    /// published from the thread running the pipeline; telemetry is
    /// passive, so attaching it never changes the result.
    pub fn with_telemetry(mut self, sink: TelemetrySink, job: u64) -> Self {
        self.telemetry = Some((sink, job));
        self
    }

    /// Runs one phase with progress events, bailing out first if the
    /// token already fired — the hook that makes a whole pipeline run
    /// cooperatively killable between its coarse-grained stages.
    fn phase<T>(
        &self,
        phase: Phase,
        cancel: &CancelToken,
        f: impl FnOnce() -> T,
    ) -> Result<T, Cancelled> {
        if cancel.is_cancelled() {
            return Err(Cancelled { phase });
        }
        if let Some((sink, job)) = &self.telemetry {
            sink.publish(EventKind::PhaseStarted {
                job: *job,
                phase: phase.name(),
            });
        }
        let start = Instant::now();
        let out = f();
        if let Some((sink, job)) = &self.telemetry {
            sink.publish(EventKind::PhaseFinished {
                job: *job,
                phase: phase.name(),
                elapsed: start.elapsed(),
            });
        }
        Ok(out)
    }

    /// Runs the full pipeline on a netlist.
    ///
    /// Ignores cancellation outcomes: if the run's token fires
    /// mid-saturation the result is still produced from whatever the
    /// e-graph held at that point. Use [`BoolE::try_run`] to abort
    /// instead.
    pub fn run(&self, netlist: &Aig) -> BooleResult {
        match self.run_pipeline(netlist, &CancelToken::new()) {
            Ok(result) => result,
            Err(c) => unreachable!("fresh token cannot cancel: {c}"),
        }
    }

    /// Runs the full pipeline, aborting promptly with [`Cancelled`] if
    /// the parameters' [`CancelToken`] fires: saturation stops at its
    /// next internal check point, and later phases are skipped
    /// entirely.
    pub fn try_run(&self, netlist: &Aig) -> Result<BooleResult, Cancelled> {
        self.run_pipeline(netlist, &self.params.saturate.cancel)
    }

    /// Shared pipeline body. `cancel` governs the phase-boundary
    /// checks: [`BoolE::run`] passes a fresh token so the pipeline
    /// always completes (even if the params token stopped saturation
    /// early), while [`BoolE::try_run`] passes the params token so the
    /// whole run aborts.
    fn run_pipeline(&self, netlist: &Aig, cancel: &CancelToken) -> Result<BooleResult, Cancelled> {
        let start = Instant::now();
        let net = self.phase(Phase::Convert, cancel, || aig_to_egraph(netlist))?;
        // Publish per-iteration progress, so observers see saturation
        // advance inside its phase_started/phase_finished bracket.
        let observer = self.telemetry.clone().map(|(sink, job)| {
            Arc::new(move |ruleset, index, it: &egraph::Iteration| {
                sink.publish(EventKind::Iteration {
                    job,
                    ruleset,
                    index,
                    nodes: it.egraph_nodes,
                    classes: it.egraph_classes,
                    matches: it.total_matches,
                    search_time: it.search_time,
                    merge_time: it.merge_time,
                    apply_time: it.apply_time,
                    rebuild_time: it.rebuild_time,
                    visits: it.search.visits,
                    budget_exhausted: it.search.budget_exhausted,
                    capped: it.search.capped,
                    replayed: it.search.replayed,
                });
            }) as IterationObserver
        });
        let (mut net, saturation) = self.phase(Phase::Saturate, cancel, || {
            crate::saturate::saturate_observed(net, &self.params.saturate, observer)
        })?;
        // Saturation checks the params token internally; a strict run
        // that was cancelled mid-phase must not proceed to extraction.
        if cancel.is_cancelled() && saturation.was_cancelled() {
            return Err(Cancelled {
                phase: Phase::Saturate,
            });
        }
        let pairing = self.phase(Phase::Pair, cancel, || pair_full_adders(&mut net.egraph))?;
        let extraction = self.phase(Phase::Extract, cancel, || extract_dag(&net.egraph))?;
        let (original_fas, (reconstructed, fas)) =
            self.phase(Phase::Reconstruct, cancel, || {
                (
                    map_fas_to_original(&net),
                    reconstruct_aig(&net.egraph, &extraction, netlist.num_inputs(), &net.outputs),
                )
            })?;
        Ok(BooleResult {
            reconstructed,
            fas,
            original_fas,
            saturation,
            pairing,
            runtime: start.elapsed(),
        })
    }
}

/// Maps every paired FA whose input/sum/carry e-classes correspond to
/// signals of the original netlist back onto original literals.
///
/// Soundness: e-class membership proves the original literal computes
/// exactly the FA signal, so each returned block satisfies
/// `sum = a⊕b⊕c`, `carry = maj(a,b,c)` over real netlist wires.
fn map_fas_to_original(net: &crate::convert::NetlistEGraph) -> Vec<RecoveredFa> {
    use crate::BoolLang;
    use std::collections::HashMap;

    let egraph = &net.egraph;
    // Reverse map: canonical e-class -> original literal (first /
    // topologically earliest wins; complements via explicit Not
    // lookups).
    let mut rm: HashMap<egraph::Id, aig::Lit> = HashMap::new();
    for (var_idx, &class) in net.vmap.iter().enumerate() {
        let lit = aig::Var(var_idx as u32).lit();
        let canon = egraph.find(class);
        rm.entry(canon).or_insert(lit);
        if let Some(neg) = egraph.lookup(&BoolLang::Not(canon)) {
            rm.entry(egraph.find(neg)).or_insert(!lit);
        }
    }

    let mut out = Vec::new();
    for fa_class in crate::pair::fa_classes(egraph) {
        let Some(BoolLang::Fa([a, b, c])) = egraph
            .eclass(fa_class)
            .iter()
            .find(|n| matches!(n, BoolLang::Fa(_)))
            .cloned()
        else {
            continue;
        };
        let sum_class = egraph.lookup(&BoolLang::Snd(fa_class));
        let carry_class = egraph.lookup(&BoolLang::Fst(fa_class));
        let signals = [
            rm.get(&egraph.find(a)).copied(),
            rm.get(&egraph.find(b)).copied(),
            rm.get(&egraph.find(c)).copied(),
            sum_class.and_then(|s| rm.get(&egraph.find(s)).copied()),
            carry_class.and_then(|s| rm.get(&egraph.find(s)).copied()),
        ];
        if let [Some(la), Some(lb), Some(lc), Some(sum), Some(carry)] = signals {
            out.push(RecoveredFa {
                inputs: [la, lb, lc],
                sum,
                carry,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::gen::{csa_fa_upper_bound, csa_multiplier};
    use aig::sim::random_equiv_check;

    #[test]
    fn recovers_all_fas_pre_mapping() {
        for n in [3usize, 4] {
            let aig = csa_multiplier(n);
            let result = BoolE::new(BooleParams::small()).run(&aig);
            assert_eq!(
                result.exact_fa_count(),
                csa_fa_upper_bound(n),
                "pre-mapping exact FAs for n={n}"
            );
            assert!(
                random_equiv_check(&aig, &result.reconstructed, 8, 0xE9),
                "reconstruction must preserve function (n={n})"
            );
        }
    }

    #[test]
    fn recovers_fas_post_mapping() {
        let aig = csa_multiplier(3);
        let mapped = aig::map::map_round_trip(&aig);
        let result = BoolE::new(BooleParams::small()).run(&mapped);
        assert!(
            result.exact_fa_count() >= 1,
            "post-mapping recovery, got {}",
            result.exact_fa_count()
        );
        assert!(random_equiv_check(&mapped, &result.reconstructed, 8, 0xEA));
    }

    /// Runs `csa:3` with telemetry attached and tags every published
    /// event as `start:<phase>`, `end:<phase>` or `iter:<ruleset>:<index>`.
    fn event_tags() -> Vec<String> {
        let sink = Arc::new(crate::telemetry::EventBus::default());
        let engine = BoolE::new(BooleParams::small()).with_telemetry(Arc::clone(&sink), 7);
        let result = engine.try_run(&csa_multiplier(3)).unwrap();
        assert!(result.exact_fa_count() >= 1);
        sink.drain()
            .into_iter()
            .map(|e| match e.kind {
                EventKind::PhaseStarted { job: 7, phase } => format!("start:{phase}"),
                EventKind::PhaseFinished { job: 7, phase, .. } => format!("end:{phase}"),
                EventKind::Iteration {
                    job: 7,
                    ruleset,
                    index,
                    ..
                } => format!("iter:{ruleset}:{index}"),
                kind => panic!("unexpected pipeline event {kind:?}"),
            })
            .collect()
    }

    #[test]
    fn phase_events_cover_all_phases_in_order() {
        // Iteration events interleave inside the saturate bracket; this
        // test checks the coarse structure only.
        let seen: Vec<String> = event_tags()
            .into_iter()
            .filter(|t| !t.starts_with("iter:"))
            .collect();
        let expected: Vec<String> = Phase::ALL
            .iter()
            .flat_map(|p| [format!("start:{p}"), format!("end:{p}")])
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn iteration_events_arrive_inside_the_saturate_bracket() {
        let seen = event_tags();
        let start = seen.iter().position(|t| t == "start:saturate").unwrap();
        let end = seen.iter().position(|t| t == "end:saturate").unwrap();
        let iters: Vec<usize> = seen
            .iter()
            .enumerate()
            .filter(|(_, t)| t.starts_with("iter:"))
            .map(|(i, _)| i)
            .collect();
        assert!(!iters.is_empty(), "saturation must report iterations");
        assert!(
            iters.iter().all(|&i| start < i && i < end),
            "iteration events must nest inside the saturate bracket: {seen:?}"
        );
        assert!(
            seen.iter().any(|t| t.starts_with("iter:r1:")),
            "r1 iterations expected: {seen:?}"
        );
    }

    #[test]
    fn try_run_aborts_on_pre_cancelled_token() {
        let params = BooleParams::small();
        params.cancel_token().cancel();
        let err = BoolE::new(params)
            .try_run(&csa_multiplier(3))
            .expect_err("must cancel");
        assert_eq!(err.phase, Phase::Convert);
    }

    #[test]
    fn run_completes_despite_cancelled_params_token() {
        // `run` ignores cancellation: saturation stops early but the
        // pipeline still yields a (possibly weaker) valid result.
        let params = BooleParams::small();
        params.cancel_token().cancel();
        let aig = csa_multiplier(3);
        let result = BoolE::new(params).run(&aig);
        assert!(result.saturation.was_cancelled());
        assert!(random_equiv_check(&aig, &result.reconstructed, 8, 0xEB));
    }

    #[test]
    fn lightweight_params_work() {
        let aig = csa_multiplier(3);
        let params = BooleParams {
            saturate: SaturateParams {
                lightweight: true,
                ..SaturateParams::small()
            },
        };
        let result = BoolE::new(params).run(&aig);
        assert_eq!(result.exact_fa_count(), csa_fa_upper_bound(3));
    }
}
