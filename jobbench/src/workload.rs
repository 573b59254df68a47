//! The workloads: their inputs, set-up, measured passes and the checks
//! on what the passes returned.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use boole::Json;
use boole_service::{fingerprint_aig, ServiceStats};

use crate::jobs::{self, Config, JobRecord, Source, Submission};
use crate::stats::{self, Layers, Tally};
use crate::trace::{self, RuleNames, Tracer};

/// A named set of jobs and how they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unmapped CSA multipliers at 8, 10 and 12 bits, serial search.
    /// Not in `BENCHMARK.json`: one pass is one sample of 25 s or more,
    /// and on a shared 2-CPU machine its spread from run to run was
    /// wider than the largest bound (25%) the benchmark may declare.
    CsaSweep,
    /// csa:8 and booth:8 after mapping and after dch, 2 search threads.
    MappedMix,
    /// 30 small jobs, a third of them resubmissions, through a Service.
    ServiceBatch,
    /// csa:4 alone: a few-second check that the benchmark works.
    Smoke,
}

const CSA_SWEEP: &[&str] = &["csa:8", "csa:10", "csa:12"];
const MAPPED_MIX: &[&str] = &["csa:8:mapped", "booth:8:mapped", "csa:8:dch", "booth:8:dch"];
const SERVICE_BATCH: &[&str] = &[
    "csa:4",
    "csa:5",
    "csa:5:mapped",
    "csa:5:dch",
    "csa:6",
    "csa:6:mapped",
    "csa:6:dch",
    "booth:4",
    "booth:4:mapped",
    "booth:4:dch",
    "booth:6",
    "booth:6:mapped",
    "booth:6:dch",
    "wallace:4",
    "wallace:5",
    "wallace:5:mapped",
    "wallace:5:dch",
    "wallace:6",
    "wallace:6:mapped",
    "wallace:6:dch",
];
/// Resubmissions of isomorphic netlists: `(index into SERVICE_BATCH,
/// how it travels)`. Files are written at set-up.
const RESUBMISSIONS: &[(usize, Source)] = &[
    (1, Source::File("aag")),
    (3, Source::File("blif")),
    (4, Source::File("v")),
    (6, Source::Memory),
    (8, Source::File("aag")),
    (10, Source::File("blif")),
    (12, Source::File("v")),
    (14, Source::Memory),
    (16, Source::File("aag")),
    (19, Source::File("blif")),
];
const SMOKE: &[&str] = &["csa:4"];

/// The mapped-mix config rerun at one search thread to check that the
/// thread count never changes a result.
const THREAD_CHECK_CONFIG: usize = 1;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const WORKLOADS: [(&str, Workload); 4] = [
    ("csa_sweep", Workload::CsaSweep),
    ("mapped_mix", Workload::MappedMix),
    ("service_batch", Workload::ServiceBatch),
    ("smoke", Workload::Smoke),
];

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The workload's name, as [`Workload::parse`] takes it.
    pub fn name(self) -> &'static str {
        WORKLOADS.iter().find(|(_, w)| *w == self).map_or("", |(n, _)| n)
    }

    fn specs(self) -> &'static [&'static str] {
        match self {
            Workload::CsaSweep => CSA_SWEEP,
            Workload::MappedMix => MAPPED_MIX,
            Workload::ServiceBatch => SERVICE_BATCH,
            Workload::Smoke => SMOKE,
        }
    }

    fn search_threads(self) -> usize {
        match self {
            Workload::MappedMix => 2,
            _ => 1,
        }
    }

    fn uses_service(self) -> bool {
        self == Workload::ServiceBatch
    }
}

/// A run's request.
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed for the job order and the simulation patterns.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of an end-to-end one.
    pub trace: bool,
    /// Scratch directory for netlist files and the trace.
    pub work_dir: PathBuf,
}

/// What a run reports.
pub struct Report {
    /// Every output passed every check.
    pub correct: bool,
    /// Jobs attempted and failed.
    pub tally: Tally,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-config outcomes and run facts, printed before the result.
    pub context: Json,
}

/// Everything set-up produced.
struct Setup {
    configs: Vec<Config>,
    /// The service batch's submissions, before shuffling.
    submissions: Vec<Submission>,
    /// Distinct netlists by structural fingerprint.
    distinct: usize,
    prep_ms: f64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates and prepares the netlists, writes the resubmission files
/// and warms up the pipeline.
fn set_up(workload: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let start = Instant::now();
    let configs: Vec<Config> = workload.specs().iter().map(|s| Config::build(s)).collect();
    let prep_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut submissions: Vec<Submission> = (0..configs.len())
        .map(|config| Submission {
            config,
            source: Source::Memory,
        })
        .collect();
    if workload.uses_service() {
        for &(config, source) in RESUBMISSIONS {
            if let Source::File(ext) = source {
                let path = jobs::netlist_path(dir, &configs[config], ext);
                aig::write_netlist(&path, &configs[config].aig).map_err(|e| e.to_string())?;
            }
            submissions.push(Submission { config, source });
        }
    }
    let mut fingerprints: Vec<_> = configs.iter().map(|c| fingerprint_aig(&c.aig).0).collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    let warm = Config::build("csa:4");
    let (_, result) = jobs::run_direct(&warm, &jobs::params(workload.search_threads()));
    jobs::check_direct(&warm, &result, seed).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Setup {
        configs,
        submissions,
        distinct: fingerprints.len(),
        prep_ms,
    })
}

/// One measured pass over the workload's jobs.
struct Pass {
    wall: Duration,
    jobs: Vec<JobRecord>,
    /// Per job, the time spent computing a fresh result (absent for
    /// answers served from the service cache).
    compute: Vec<Option<Duration>>,
    service: Option<ServiceStats>,
    /// Raw service jobs, kept for tracing.
    service_jobs: Vec<jobs::ServiceJob>,
    start: Instant,
}

/// The service batch's submission order for one pass, drawn from the
/// seed and the pass number, so that a run's medians cover several
/// orders.
fn submission_order(setup: &Setup, seed: u64, pass: u64) -> Vec<Submission> {
    let mut order = setup.submissions.clone();
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn run_pass(workload: Workload, setup: &Setup, dir: &Path, seed: u64, pass: u64) -> Pass {
    let start = Instant::now();
    if workload.uses_service() {
        let order = submission_order(setup, seed, pass);
        let (done, stats) = jobs::run_service_batch(&setup.configs, dir, &order);
        let wall = start.elapsed();
        let records = done
            .iter()
            .map(|job| {
                let config = job.submission.config;
                JobRecord {
                    config,
                    latency: job.latency,
                    verdict: jobs::check_service(&setup.configs[config], &job.outcome, seed),
                }
            })
            .collect();
        let compute = done
            .iter()
            .map(|job| match (&job.outcome.from_cache, job.outcome.summary()) {
                (false, Some(summary)) => Some(summary.pipeline_runtime),
                _ => None,
            })
            .collect();
        return Pass {
            wall,
            jobs: records,
            compute,
            service: Some(stats),
            service_jobs: done,
            start,
        };
    }
    let params = jobs::params(workload.search_threads());
    let raw: Vec<_> = setup
        .configs
        .iter()
        .map(|config| jobs::run_direct(config, &params))
        .collect();
    let wall = start.elapsed();
    // Checks run after the timed region.
    let records: Vec<JobRecord> = raw
        .iter()
        .enumerate()
        .map(|(i, (latency, result))| JobRecord {
            config: i,
            latency: *latency,
            verdict: jobs::check_direct(&setup.configs[i], result, seed ^ i as u64),
        })
        .collect();
    Pass {
        wall,
        compute: records.iter().map(|r| Some(r.latency)).collect(),
        jobs: records,
        service: None,
        service_jobs: Vec::new(),
        start,
    }
}

/// CPU seconds this process has used (all threads, live and exited).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command: state is 0, utime 11,
    // stime 12, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per config: the first outcome seen, and what every run of it must
/// repeat.
#[derive(Default)]
struct Ledger {
    first: HashMap<usize, jobs::Outcome>,
    errors: Vec<String>,
    tally: Tally,
}

impl Ledger {
    /// Records a pass's jobs; a service pass must also have run one
    /// pipeline per distinct netlist.
    fn record_pass(&mut self, setup: &Setup, pass: &Pass) {
        for job in &pass.jobs {
            self.record(&setup.configs, job);
        }
        if let Some(service) = &pass.service {
            if service.pipelines_run != setup.distinct as u64 {
                self.errors.push(format!(
                    "service ran {} pipelines for {} distinct netlists",
                    service.pipelines_run, setup.distinct
                ));
            }
        }
    }

    fn record(&mut self, configs: &[Config], job: &JobRecord) {
        self.tally.record(&job.verdict);
        let name = &configs[job.config].name;
        match &job.verdict {
            Err(e) => self.errors.push(format!("{name}: {e}")),
            Ok(outcome) => match self.first.get(&job.config) {
                None => {
                    self.first.insert(job.config, outcome.clone());
                }
                Some(first) if first != outcome => {
                    self.errors.push(format!("{name}: outcome differs between runs"));
                }
                Some(_) => {}
            },
        }
    }

    /// Checks each config's exact FAs and bound against the pins.
    fn check_pins(&mut self, configs: &[Config]) {
        let pins = Json::parse(include_str!("../pins.json")).expect("pins.json parses");
        for (i, config) in configs.iter().enumerate() {
            let Some(outcome) = self.first.get(&i) else { continue };
            let pin = pins.field("configs").and_then(|c| c.field(&config.name));
            let floor = pin.and_then(|p| p.field("exact_fa")).and_then(Json::as_usize);
            let bound = pin.and_then(|p| p.field("bound")).and_then(Json::as_usize);
            match floor {
                None => self.errors.push(format!("{}: no exactness pin", config.name)),
                Some(floor) if outcome.exact < floor => self.errors.push(format!(
                    "{}: {} exact FAs, pinned at least {floor}",
                    config.name, outcome.exact
                )),
                Some(_) => {}
            }
            if bound != config.bound {
                self.errors
                    .push(format!("{}: bound {:?} is not the pinned {bound:?}", config.name, config.bound));
            }
        }
    }

    /// Checks each config's outcome against the one that earlier runs
    /// of this same executable recorded in `dir`, and records the new
    /// ones. An outcome must so repeat exactly across a set of runs,
    /// not only across the passes of one.
    fn check_across_runs(&mut self, configs: &[Config], dir: &Path) {
        let exe = match std::env::current_exe().and_then(std::fs::read) {
            Ok(bytes) => fnv1a(&bytes),
            Err(e) => {
                self.errors.push(format!("reading the benchmark executable: {e}"));
                return;
            }
        };
        let path = dir.join(format!("outcomes-{exe:016x}.json"));
        let mut recorded = match std::fs::read_to_string(&path).map(|t| Json::parse(&t)) {
            Ok(Ok(Json::Obj(fields))) => fields,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            _ => {
                self.errors.push(format!("{} is unreadable", path.display()));
                return;
            }
        };
        for (i, config) in configs.iter().enumerate() {
            let Some(outcome) = self.first.get(&i) else { continue };
            let hash = format!("{:016x}", fnv1a(outcome.canonical.as_bytes()));
            match recorded.iter().find(|(name, _)| *name == config.name) {
                None => recorded.push((config.name.clone(), Json::str(hash))),
                Some((_, earlier)) if earlier.as_str() != Some(&hash) => self
                    .errors
                    .push(format!("{}: outcome differs from an earlier run's", config.name)),
                Some(_) => {}
            }
        }
        let tmp = path.with_extension("tmp");
        let written = std::fs::write(&tmp, Json::Obj(recorded).pretty())
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            self.errors.push(format!("writing {}: {e}", path.display()));
        }
    }
}

/// 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs set-up [`SETUP_REPS`] times; returns the last set-up and the
/// median set-up time.
fn set_up_repeatedly(args: &RunArgs) -> Result<(Setup, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        last = Some(set_up(args.workload, args.seed, &args.work_dir)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// Runs the workload as `args` asks and reports.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let (setup, setup_s) = set_up_repeatedly(args)?;
    if args.trace {
        return run_traced(args, &setup);
    }
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        let pass = run_pass(args.workload, &setup, &args.work_dir, args.seed, passes.len() as u64);
        let last = pass.wall;
        passes.push(pass);
        if start.elapsed() + last > Duration::from_secs_f64(args.seconds) {
            break;
        }
    }

    let mut ledger = Ledger::default();
    for pass in &passes {
        ledger.record_pass(&setup, pass);
    }
    if args.workload == Workload::MappedMix {
        // The search thread count must never change a result.
        let config = &setup.configs[THREAD_CHECK_CONFIG];
        let (latency, result) = jobs::run_direct(config, &jobs::params(1));
        let verdict = jobs::check_direct(config, &result, args.seed);
        ledger.record(
            &setup.configs,
            &JobRecord {
                config: THREAD_CHECK_CONFIG,
                latency,
                verdict,
            },
        );
    }
    ledger.check_pins(&setup.configs);

    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.jobs.iter().map(|j| j.latency.as_secs_f64() * 1e3))
        .collect();
    let (tail_ms, tail_label) = stats::tail(&latencies);
    // One outcome per config; a config that never passed adds nothing.
    let exact: usize = ledger.first.values().map(|o| o.exact).sum();
    let (bounded_exact, bound) = (0..setup.configs.len())
        .filter_map(|i| Some((ledger.first.get(&i)?.exact, setup.configs[i].bound?)))
        .fold((0, 0), |(e, b), (je, jb)| (e + je, b + jb));
    ledger.check_across_runs(&setup.configs, &args.work_dir);
    let context = context_json(args, &setup, &passes, &ledger, tail_label, latencies.len());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let value = |name: &str| match name {
        "wall_s" => stats::median(&walls),
        "job_p50_ms" => stats::median(&latencies),
        "job_tail_ms" => tail_ms,
        "exact_fa" => exact as f64,
        "exact_fa_ratio" => bounded_exact as f64 / bound.max(1) as f64,
        "ok_ratio" => ledger.tally.ok_ratio(),
        "peak_rss_mb" => peak_rss_mb(),
        "setup_s" => setup_s,
        other => unreachable!("no value for end-to-end metric {other}"),
    };
    let metrics = stats::END_TO_END
        .iter()
        .map(|&(name, unit)| (name, value(name), unit))
        .collect();
    Ok(Report {
        correct: ledger.errors.is_empty(),
        tally: ledger.tally,
        metrics,
        context,
    })
}

/// `(input ANDs, median compute seconds)` per config that computed at
/// least once.
fn compute_points(configs: &[Config], passes: &[Pass]) -> Vec<(f64, f64)> {
    let mut times: HashMap<usize, Vec<f64>> = HashMap::new();
    for pass in passes {
        for (job, compute) in pass.jobs.iter().zip(&pass.compute) {
            if let Some(d) = compute {
                times.entry(job.config).or_default().push(d.as_secs_f64());
            }
        }
    }
    let mut points: Vec<(f64, f64)> = times
        .into_iter()
        .map(|(c, t)| (configs[c].aig.num_ands() as f64, stats::median(&t)))
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    points
}

fn context_json(
    args: &RunArgs,
    setup: &Setup,
    passes: &[Pass],
    ledger: &Ledger,
    tail_label: &str,
    samples: usize,
) -> Json {
    let configs = setup.configs.iter().enumerate().map(|(i, config)| {
        let outcome = ledger.first.get(&i);
        let job_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.jobs.iter())
            .filter(|j| j.config == i)
            .map(|j| j.latency.as_secs_f64() * 1e3)
            .collect();
        Json::obj([
            ("name", Json::str(config.name.clone())),
            ("input_ands", Json::from(config.aig.num_ands())),
            ("exact_fa", outcome.map_or(Json::Null, |o| Json::from(o.exact))),
            ("bound", config.bound.map_or(Json::Null, Json::from)),
            ("r1_stop", outcome.map_or(Json::Null, |o| Json::str(o.r1_stop.clone()))),
            ("r2_stop", outcome.map_or(Json::Null, |o| Json::str(o.r2_stop.clone()))),
            (
                "job_ms_median",
                if job_ms.is_empty() { Json::Null } else { Json::from(stats::median(&job_ms)) },
            ),
        ])
    });
    Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::from(args.seed as usize)),
        ("nproc", Json::from(nproc())),
        ("commit", Json::str(commit())),
        ("passes", Json::from(passes.len())),
        ("pass_wall_s", Json::arr(passes.iter().map(|p| Json::from(p.wall.as_secs_f64())))),
        ("job_samples", Json::from(samples)),
        ("tail_percentile", Json::str(tail_label)),
        ("distinct_netlists", Json::from(setup.distinct)),
        ("configs", Json::arr(configs)),
        ("errors", Json::arr(ledger.errors.iter().map(|e| Json::str(e.clone())))),
    ])
}

/// Available CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => read(reference)
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// The traced run: one untraced pass, then every config once more with
/// spans around each layer call. End-to-end metrics never come from
/// here.
fn run_traced(args: &RunArgs, setup: &Setup) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let cpu_before = cpu_seconds();
    let untraced = run_pass(args.workload, setup, &args.work_dir, args.seed, 0);
    let cpu = cpu_seconds() - cpu_before;
    let mut ledger = Ledger::default();
    ledger.record_pass(setup, &untraced);

    let mut layers = Layers::default();
    let rules = RuleNames::new();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    layers.add("aig.prep_ms", setup.prep_ms);
    layers.add("process.cpu_s", cpu);
    layers.add("process.wall_s", untraced.wall.as_secs_f64());
    let points = compute_points(&setup.configs, std::slice::from_ref(&untraced));
    layers.add("width_exponent", stats::growth_exponent(&points).unwrap_or(0.0));

    if let Some(stats) = &untraced.service {
        trace::record_service_jobs(
            &mut tracer,
            untraced.start,
            1,
            &setup.configs,
            &untraced.service_jobs,
        );
        let lookups = stats.cache.hits + stats.cache.misses;
        let waits: Duration = untraced
            .service_jobs
            .iter()
            .filter(|j| !j.outcome.from_cache)
            .filter_map(|j| {
                let s = j.outcome.summary()?;
                Some(j.outcome.service_time.saturating_sub(s.pipeline_runtime))
            })
            .sum();
        layers.add("service.queue_wait_ms", ms(waits));
        layers.add("service.cache_hit_ratio", stats.cache.hits as f64 / lookups.max(1) as f64);
        layers.add("service.coalesced", stats.coalesced as f64);
        layers.add("service.pipelines_run", stats.pipelines_run as f64);
        for config in &setup.configs {
            let start = Instant::now();
            std::hint::black_box(fingerprint_aig(&config.aig));
            layers.add("service.fingerprint_ms", ms(start.elapsed()));
        }
        for &(config, source) in RESUBMISSIONS {
            if let Source::File(ext) = source {
                let path = jobs::netlist_path(&args.work_dir, &setup.configs[config], ext);
                let start = Instant::now();
                let parsed = aig::read_netlist(&path).map_err(|e| e.to_string())?;
                layers.add("aig.parse_ms", ms(start.elapsed()));
                if fingerprint_aig(&parsed) != fingerprint_aig(&setup.configs[config].aig) {
                    ledger.errors.push(format!("{}: file round trip changed the netlist", path.display()));
                }
            }
        }
    }
    // The traced run computes each config once; the untraced pass's
    // median compute time per config is its like.
    let untraced_s: f64 = points.iter().map(|&(_, secs)| secs).sum();

    let params = jobs::params(args.workload.search_threads());
    let first_job = untraced.service_jobs.len() as u64 + 1;
    traced_layered(args, setup, &params, &rules, &mut tracer, &mut layers, &mut ledger, first_job);
    trace::finish_layers(&tracer, &mut layers);
    // The untraced timings leave the output checks out, so the traced
    // time does too.
    let traced_s = tracer
        .total_of("job")
        .saturating_sub(tracer.total_of("verify"))
        .as_secs_f64();
    layers.set("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0);
    ledger.check_pins(&setup.configs);
    ledger.check_across_runs(&setup.configs, &args.work_dir);

    let trace_path = args.work_dir.join(format!("trace-seed{}.json", args.seed));
    tracer.write(&trace_path).map_err(|e| format!("writing the trace: {e}"))?;
    let metrics = stats::PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name), unit))
        .collect();
    let context = context_json(args, setup, std::slice::from_ref(&untraced), &ledger, "-", untraced.jobs.len());
    Ok(Report {
        correct: ledger.errors.is_empty(),
        tally: ledger.tally,
        metrics,
        context,
    })
}

/// Runs every config layer by layer, checking each result against the
/// untraced run's.
#[allow(clippy::too_many_arguments)]
fn traced_layered(
    args: &RunArgs,
    setup: &Setup,
    params: &boole::BooleParams,
    rules: &RuleNames,
    tracer: &mut Tracer,
    layers: &mut Layers,
    ledger: &mut Ledger,
    first_job: u64,
) {
    for (i, config) in setup.configs.iter().enumerate() {
        let traced = trace::run_traced(
            tracer,
            first_job + i as u64,
            config,
            params,
            rules,
            args.seed ^ i as u64,
            layers,
        );
        ledger.tally.record(&traced);
        let untraced = ledger.first.get(&i);
        match traced {
            Err(e) => ledger.errors.push(format!("{} (traced): {e}", config.name)),
            Ok(t) => {
                let same = untraced.is_some_and(|u| {
                    u.exact == t.exact && u.canonical.contains(&t.saturation)
                });
                if !same {
                    ledger
                        .errors
                        .push(format!("{}: traced outcome differs from untraced", config.name));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome that differs from one an earlier run recorded fails
    /// the run.
    #[test]
    fn outcome_must_repeat_across_runs() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_work"))
            .join(format!("test-repeat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let configs = [Config::build("csa:3")];
        let run = |canonical: &str| {
            let mut ledger = Ledger::default();
            let outcome = jobs::Outcome {
                exact: 1,
                canonical: canonical.to_owned(),
                r1_stop: String::new(),
                r2_stop: String::new(),
            };
            ledger.first.insert(0, outcome);
            ledger.check_across_runs(&configs, &dir);
            ledger.errors
        };
        assert!(run("a").is_empty());
        assert!(run("a").is_empty());
        assert_eq!(run("b").len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
