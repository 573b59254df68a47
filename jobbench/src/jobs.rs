//! Job inputs, the two ways a job runs (`BoolE::try_run` directly, or
//! through a `Service`), and the output checks every result passes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aig::{Aig, Lit};
use boole::{BoolE, BooleParams, BooleResult, RecoveredFa, ToJson};
use boole_service::{
    GenFamily, GenPrep, GenSpec, JobOutcome, JobSpec, JobVerdict, ResultSummary, Service,
    ServiceConfig, ServiceStats,
};

/// Rounds of 64 random patterns per simulation check.
const SIM_ROUNDS: usize = 16;

/// One generated netlist a workload runs.
pub struct Config {
    /// `family:bits[:prep]`.
    pub name: String,
    /// The prepared netlist.
    pub aig: Aig,
    /// FAs the generator instantiated (csa and booth only): the
    /// exactness bound.
    pub bound: Option<usize>,
}

impl Config {
    /// Generates and prepares `spec` (`csa:8`, `booth:8:mapped`, …).
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec (the workload tables are constants).
    pub fn build(spec: &str) -> Config {
        let gen = GenSpec::parse(spec).expect("workload specs are well formed");
        let (raw, bound) = match gen.family {
            GenFamily::Csa => {
                let m = aig::gen::csa_multiplier_with_stats(gen.bits);
                (m.aig, Some(m.stats.full_adders))
            }
            GenFamily::Booth => {
                let m = aig::gen::booth_multiplier_with_stats(gen.bits);
                (m.aig, Some(m.stats.full_adders))
            }
            GenFamily::Wallace => (aig::gen::wallace_multiplier(gen.bits), None),
        };
        let aig = match gen.prep {
            GenPrep::None => raw,
            GenPrep::Mapped => aig::map::map_round_trip(&raw),
            GenPrep::Dch => aig::opt::dch(&raw),
        };
        Config {
            name: gen.display_name(),
            aig,
            bound,
        }
    }
}

/// Pipeline parameters of every job: defaults without the wall-clock
/// limit, as the service runs them, so results are deterministic.
pub fn params(search_threads: usize) -> BooleParams {
    BooleParams::default()
        .without_time_limit()
        .with_search_threads(search_threads)
}

/// What a checked job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Exact FAs recovered.
    pub exact: usize,
    /// The canonical `ResultSummary` JSON: node counts, iterations,
    /// stop reasons, match totals and every recovered FA.
    pub canonical: String,
    /// Why R1 stopped.
    pub r1_stop: String,
    /// Why R2 stopped.
    pub r2_stop: String,
}

impl Outcome {
    fn of(summary: &ResultSummary) -> Outcome {
        Outcome {
            exact: summary.exact_fa_count,
            canonical: summary.to_json().to_string(),
            r1_stop: summary.saturation.r1_stop.to_string(),
            r2_stop: summary.saturation.r2_stop.to_string(),
        }
    }
}

/// One finished job: which config, its latency and its checked result.
pub struct JobRecord {
    /// Index into the workload's configs.
    pub config: usize,
    /// Submit (or call) to result.
    pub latency: Duration,
    /// The checked outcome, or why the job failed.
    pub verdict: Result<Outcome, String>,
}

/// Runs one job through `BoolE::try_run`, returning its latency and
/// raw result; checking is left to [`check_direct`] so it stays out of
/// the timed region.
pub fn run_direct(
    config: &Config,
    params: &BooleParams,
) -> (Duration, Result<BooleResult, String>) {
    let start = Instant::now();
    let result = BoolE::new(params.clone()).try_run(&config.aig);
    (start.elapsed(), result.map_err(|c| c.to_string()))
}

/// The correctness gate for a direct job: the reconstruction must
/// simulate equal to the input, and every recovered FA must compute
/// XOR3/MAJ of its inputs in both the input and the reconstruction.
pub fn check_direct(
    config: &Config,
    result: &Result<BooleResult, String>,
    seed: u64,
) -> Result<Outcome, String> {
    let result = result.as_ref().map_err(|e| format!("no result: {e}"))?;
    if !aig::sim::random_equiv_check(&config.aig, &result.reconstructed, SIM_ROUNDS, seed) {
        return Err("reconstruction is not equivalent to the input".into());
    }
    check_fas(&config.aig, &result.original_fas, seed).map_err(|e| format!("input {e}"))?;
    check_fas(&result.reconstructed, &result.fas, seed)
        .map_err(|e| format!("reconstruction {e}"))?;
    Ok(Outcome::of(&ResultSummary::from(result)))
}

/// The correctness gate for a service job. Service results carry no
/// netlist body, so the FA check against the input is the only one.
pub fn check_service(config: &Config, outcome: &JobOutcome, seed: u64) -> Result<Outcome, String> {
    let summary = match &outcome.verdict {
        JobVerdict::Completed(summary) => summary,
        other => return Err(format!("no result: {other:?}")),
    };
    if summary.inputs != config.aig.num_inputs() || summary.outputs != config.aig.num_outputs() {
        return Err("result interface differs from the input".into());
    }
    if summary.exact_fa_count != summary.fas.len() {
        return Err("exact_fa_count disagrees with the FA list".into());
    }
    check_fas(&config.aig, &summary.original_fas, seed).map_err(|e| format!("input {e}"))?;
    Ok(Outcome::of(summary))
}

/// Simulates `aig` on random patterns and checks that each FA's sum is
/// the XOR3 and its carry the majority of its inputs.
pub fn check_fas(aig: &Aig, fas: &[RecoveredFa], seed: u64) -> Result<(), String> {
    let mut state = seed | 1;
    for _ in 0..SIM_ROUNDS {
        let inputs: Vec<u64> = (0..aig.num_inputs())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let values = aig::sim::simulate_node_words(aig, &inputs);
        let value = |lit: Lit| -> Option<u64> {
            let word = *values.get(lit.var().index())?;
            Some(if lit.is_complemented() { !word } else { word })
        };
        for fa in fas {
            let [a, b, c] = fa.inputs.map(value);
            let (Some(a), Some(b), Some(c), Some(sum), Some(carry)) =
                (a, b, c, value(fa.sum), value(fa.carry))
            else {
                return Err(format!("FA {fa:?} names a missing signal"));
            };
            if sum != a ^ b ^ c || carry != (a & b) | (a & c) | (b & c) {
                return Err(format!("FA {fa:?} is not a full adder"));
            }
        }
    }
    Ok(())
}

/// How a service-batch job hands its netlist to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The in-memory netlist.
    Memory,
    /// A file written at set-up, with this extension.
    File(&'static str),
}

/// One submission of a service batch.
#[derive(Debug, Clone, Copy)]
pub struct Submission {
    /// Index into the workload's configs.
    pub config: usize,
    /// How the netlist travels.
    pub source: Source,
}

/// Path of the file a [`Source::File`] submission reads.
pub fn netlist_path(dir: &Path, config: &Config, ext: &str) -> PathBuf {
    dir.join(format!("{}.{ext}", config.name.replace(':', "_")))
}

fn job_spec(configs: &[Config], dir: &Path, sub: Submission) -> JobSpec {
    let config = &configs[sub.config];
    let spec = match sub.source {
        Source::Memory => JobSpec::netlist(config.name.clone(), config.aig.clone()),
        Source::File(ext) => JobSpec::file(netlist_path(dir, config, ext)),
    };
    spec.with_params(params(1))
}

/// A job as the service batch saw it.
pub struct ServiceJob {
    /// The submission.
    pub submission: Submission,
    /// Submit time, relative to the batch start.
    pub submitted: Duration,
    /// Submit to result.
    pub latency: Duration,
    /// The service's record.
    pub outcome: Arc<JobOutcome>,
}

/// Service workers, each searching on one thread.
pub const SERVICE_WORKERS: usize = 2;

/// Runs one batch through a fresh `Service` (in-memory cache, default
/// blocking queue) with one closed-loop submitter that keeps one job
/// outstanding per worker. Returns the jobs in completion order and the
/// service's final counters.
pub fn run_service_batch(
    configs: &[Config],
    dir: &Path,
    order: &[Submission],
) -> (Vec<ServiceJob>, ServiceStats) {
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(SERVICE_WORKERS)
            .with_search_threads(1),
    );
    let start = Instant::now();
    let mut pending = order.iter().copied();
    let mut outstanding = Vec::new();
    let mut done = Vec::with_capacity(order.len());
    loop {
        while outstanding.len() < SERVICE_WORKERS {
            let Some(sub) = pending.next() else { break };
            let spec = job_spec(configs, dir, sub);
            let submitted = start.elapsed();
            outstanding.push((sub, submitted, service.submit(spec)));
        }
        if outstanding.is_empty() {
            break;
        }
        // Poll so each job's latency ends when it completes, not when
        // an older job the submitter happened to wait on does.
        match outstanding
            .iter()
            .position(|(_, _, handle)| handle.status().is_terminal())
        {
            Some(i) => {
                let (submission, submitted, handle) = outstanding.swap_remove(i);
                let latency = start.elapsed() - submitted;
                done.push(ServiceJob {
                    submission,
                    submitted,
                    latency,
                    outcome: handle.wait(),
                });
            }
            None => std::thread::sleep(Duration::from_micros(200)),
        }
    }
    (done, service.shutdown())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    #[test]
    fn direct_job_passes_the_gate() {
        let config = Config::build("csa:3");
        assert_eq!(config.bound, Some(aig::gen::csa_fa_upper_bound(3)));
        let (_, result) = run_direct(&config, &params(1));
        let outcome = check_direct(&config, &result, 7).expect("csa:3 is exact");
        assert_eq!(Some(outcome.exact), config.bound);
    }

    #[test]
    fn forced_failures_count_in_failed_ratio() {
        let config = Config::build("csa:3");
        let mut tally = Tally::default();

        // A cancelled job returns no result.
        let cancelled = params(1);
        cancelled.cancel_token().cancel();
        let (_, result) = run_direct(&config, &cancelled);
        tally.record(&check_direct(&config, &result, 1));

        // A wrong answer: an FA whose "sum" is really its first input.
        let (_, result) = run_direct(&config, &params(1));
        let mut broken = result.expect("uncancelled run completes");
        let fa = broken.original_fas[0];
        broken.original_fas[0].sum = fa.inputs[0];
        tally.record(&check_direct(&config, &Ok(broken), 1));

        // A service job whose netlist file does not exist.
        let dir = Path::new("no-such-dir");
        let order = [Submission {
            config: 0,
            source: Source::File("aag"),
        }];
        let (jobs, _) = run_service_batch(std::slice::from_ref(&config), dir, &order);
        tally.record(&check_service(&config, &jobs[0].outcome, 1));

        // And one good service job.
        let order = [Submission {
            config: 0,
            source: Source::Memory,
        }];
        let (jobs, stats) = run_service_batch(std::slice::from_ref(&config), dir, &order);
        tally.record(&check_service(&config, &jobs[0].outcome, 1));
        assert_eq!(stats.pipelines_run, 1);

        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        assert_eq!(tally.failed_ratio(), 0.75);
    }
}
