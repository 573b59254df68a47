//! The `boole` CLI: batch symbolic reasoning with JSON output.
//!
//! ```text
//! boole run <netlist> [options]           one job from a netlist file
//!                                         (.aag, .aig, .blif, .v)
//! boole batch <dir> [options]             every supported netlist under
//!                                         <dir>, formats freely mixed
//! boole gen <spec> [<spec> ...] [options] generated benchmarks (csa:16,
//!                                         booth:8:mapped, wallace:4:dch)
//!
//! options (interleave freely with positional arguments):
//!   --workers N        worker threads (default: min(cpus, 4); results are
//!                      byte-identical at any value)
//!   --search-threads N threads for each job's in-saturation rule search
//!                      (default 1 = serial; 0 = one per CPU; results are
//!                      byte-identical at any value)
//!   --deadline-ms N    per-job deadline; expired jobs are cancelled
//!   --params P         default | small | lightweight
//!   --no-cache         skip the in-memory structural-hash result cache
//!   --max-retries N    retry budget for transient failures, with
//!                      exponential backoff (default 2)
//!   --shed             reject jobs (terminal "rejected" outcome) instead of
//!                      blocking when the queue is full
//!   --no-timing        omit wall-clock fields (canonical, reproducible JSON)
//!   --compact          one-line JSON instead of pretty-printed
//!   --events SINK      stream job/phase/cache events as NDJSON to `-`
//!                      (stdout; requires --compact) or a file, as jobs run
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use boole::json::{Json, ToJson};
use boole::telemetry::{EventBus, TelemetrySink};
use boole::BooleParams;
use boole_service::{GenSpec, JobSpec, Service, ServiceConfig, ShedPolicy};

/// Where the telemetry event stream goes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TelemetrySinkArg {
    /// `-`: interleave with the result document on stdout.
    Stdout,
    /// A file path, created/truncated at startup.
    File(PathBuf),
}

impl TelemetrySinkArg {
    fn parse(value: &str) -> TelemetrySinkArg {
        if value == "-" {
            TelemetrySinkArg::Stdout
        } else {
            TelemetrySinkArg::File(PathBuf::from(value))
        }
    }
}

struct Options {
    workers: Option<usize>,
    search_threads: Option<usize>,
    deadline: Option<Duration>,
    params: BooleParams,
    use_cache: bool,
    timing: bool,
    pretty: bool,
    events: Option<TelemetrySinkArg>,
    max_retries: Option<u32>,
    shed: bool,
}

/// Parses a command's arguments into options plus the positional
/// (non-`--`) arguments, which may be freely interleaved with options:
/// `boole gen csa:4 --workers 2 booth:4` sees specs `[csa:4, booth:4]`.
fn parse_args(args: &[String]) -> Result<(Options, Vec<String>), String> {
    let mut opts = Options {
        workers: None,
        search_threads: None,
        deadline: None,
        params: BooleParams::default(),
        use_cache: true,
        timing: true,
        pretty: true,
        events: None,
        max_retries: None,
        shed: false,
    };
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                let v = args.get(i + 1).ok_or("--workers needs a value")?;
                opts.workers = Some(v.parse().map_err(|e| format!("bad --workers: {e}"))?);
                i += 2;
            }
            "--search-threads" => {
                let v = args.get(i + 1).ok_or("--search-threads needs a value")?;
                opts.search_threads = Some(
                    v.parse()
                        .map_err(|e| format!("bad --search-threads: {e}"))?,
                );
                i += 2;
            }
            "--deadline-ms" => {
                let v = args.get(i + 1).ok_or("--deadline-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?;
                opts.deadline = Some(Duration::from_millis(ms));
                i += 2;
            }
            "--params" => {
                let v = args.get(i + 1).ok_or("--params needs a value")?;
                opts.params = match v.as_str() {
                    "default" => BooleParams::default(),
                    "small" => BooleParams::small(),
                    "lightweight" => BooleParams::lightweight(),
                    other => return Err(format!("unknown --params {other:?}")),
                };
                i += 2;
            }
            "--max-retries" => {
                let v = args.get(i + 1).ok_or("--max-retries needs a value")?;
                opts.max_retries = Some(v.parse().map_err(|e| format!("bad --max-retries: {e}"))?);
                i += 2;
            }
            "--shed" => {
                opts.shed = true;
                i += 1;
            }
            "--no-cache" => {
                opts.use_cache = false;
                i += 1;
            }
            "--no-timing" => {
                opts.timing = false;
                i += 1;
            }
            "--compact" => {
                opts.pretty = false;
                i += 1;
            }
            "--events" => {
                let v = args
                    .get(i + 1)
                    .ok_or("--events needs a sink: - for stdout, or a file path")?;
                opts.events = Some(TelemetrySinkArg::parse(v));
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other:?}"));
            }
            _ => {
                positional.push(args[i].clone());
                i += 1;
            }
        }
    }
    // With a `-` sink, telemetry shares stdout with the result document;
    // requiring --compact keeps stdout line-oriented (every line is one
    // strict-parseable JSON value), so NDJSON consumers never see a
    // fragment of a pretty-printed document.
    if opts.events == Some(TelemetrySinkArg::Stdout) && opts.pretty {
        return Err("--events - streams NDJSON on stdout; add --compact so every stdout line is one JSON value".to_owned());
    }
    Ok((opts, positional))
}

fn make_spec(source_spec: JobSpec, opts: &Options) -> JobSpec {
    // Service mode bounds runtime with per-job deadlines, not the
    // pipeline's wall-clock limit: wall-clock stops vary with machine
    // load, which would make results non-reproducible and cache-hostile.
    let mut params = opts.params.clone().without_time_limit();
    if let Some(threads) = opts.search_threads {
        params = params.with_search_threads(threads);
    }
    let mut spec = source_spec.with_params(params);
    if let Some(deadline) = opts.deadline {
        spec = spec.with_deadline(deadline);
    }
    if !opts.use_cache {
        spec = spec.without_cache();
    }
    spec
}

/// Opens the writer behind a telemetry sink argument. `-` is stdout, so
/// event lines and the final result document share one stream.
fn open_sink(sink: &TelemetrySinkArg) -> Result<Box<dyn std::io::Write + Send>, String> {
    match sink {
        TelemetrySinkArg::Stdout => Ok(Box::new(std::io::stdout())),
        TelemetrySinkArg::File(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Ok(Box::new(std::io::BufWriter::new(file)))
        }
    }
}

fn execute(specs: Vec<JobSpec>, opts: &Options) -> Result<(Json, bool), String> {
    // The streamer drains the bounded event bus while jobs run, so a
    // worker never blocks on a slow sink (under backpressure the bus
    // drops events and accounts for them with a `dropped` marker).
    // Closing the bus after the batch makes `wait` return an empty
    // batch, which stops the thread.
    let streamer = match &opts.events {
        Some(sink) => {
            let mut writer = open_sink(sink)?;
            let telemetry: TelemetrySink = Arc::new(EventBus::default());
            let bus = Arc::clone(&telemetry);
            let handle = std::thread::spawn(move || loop {
                let events = bus.wait();
                if events.is_empty() {
                    break;
                }
                for event in events {
                    let _ = writeln!(writer, "{}", event.to_json());
                }
                let _ = writer.flush();
            });
            Some((telemetry, handle))
        }
        None => None,
    };

    let mut config = ServiceConfig::default();
    if let Some(workers) = opts.workers {
        config = config.with_workers(workers);
    }
    if let Some((telemetry, _)) = &streamer {
        config = config.with_telemetry(Arc::clone(telemetry));
    }
    if let Some(retries) = opts.max_retries {
        config = config.with_max_retries(retries);
    }
    if opts.shed {
        config = config.with_shed_policy(ShedPolicy::Shed);
    }
    let service = Service::new(config);
    let outcomes = service.run_batch(specs);
    let stats = service.shutdown();

    if let Some((telemetry, handle)) = streamer {
        telemetry.close();
        let _ = handle.join();
    }

    let any_failed = outcomes.iter().any(|o| {
        matches!(
            o.status(),
            boole_service::JobStatus::Failed
                | boole_service::JobStatus::Panicked
                | boole_service::JobStatus::Rejected
        )
    });
    let jobs = Json::arr(outcomes.iter().map(|outcome| {
        let mut doc = outcome.to_json();
        if opts.timing {
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("timing".to_owned(), outcome.timing_json()));
            }
        }
        doc
    }));
    let mut pairs = vec![("jobs".to_owned(), jobs)];
    if opts.timing {
        pairs.push(("service".to_owned(), stats.to_json()));
    }
    Ok((Json::Obj(pairs), any_failed))
}

fn usage() -> String {
    "usage: boole <run <netlist> | batch <dir> | gen <spec>...> [options]\n\
     netlists: .aag (ASCII AIGER), .aig (binary AIGER), .blif, .v (structural Verilog);\n\
     \x20         batch mixes formats freely\n\
     options: --workers N --search-threads N --deadline-ms N\n\
     \x20        --params default|small|lightweight\n\
     \x20        --no-cache --no-timing --compact\n\
     \x20        --max-retries N (transient-failure retry budget)\n\
     \x20        --shed (reject instead of block when the queue is full)\n\
     \x20        --events -|FILE (NDJSON event stream; a - sink shares stdout\n\
     \x20        with the result document and needs --compact)\n\
     \x20        (options and positional arguments may be interleaved)\n\
     gen specs: csa:N | booth:N | wallace:N, optional suffix :mapped or :dch"
        .to_owned()
}

/// Collects every supported netlist under `dir`, recursively: real
/// benchmark suites (e.g. the EPFL checkout) nest circuits in
/// subdirectories. The listing is sorted for reproducible job order.
///
/// Directories are deduplicated by canonical path, so a symlink cycle
/// (`sub/loop -> ..`) terminates and a symlink aliasing a directory
/// already in the tree does not double-count its circuits. Unreadable
/// directories and entries are hard errors, not silent omissions: a
/// batch that would skip netlists it was asked to process must fail
/// loudly instead of reporting a clean partial run.
fn collect_netlist_files(dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
    let canonical = |path: &std::path::Path| {
        std::fs::canonicalize(path)
            .map_err(|e| format!("cannot resolve directory {}: {e}", path.display()))
    };
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    let mut visited = std::collections::HashSet::new();
    visited.insert(canonical(dir)?);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let entries = std::fs::read_dir(&current)
            .map_err(|e| format!("cannot read directory {}: {e}", current.display()))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| format!("cannot read an entry of {}: {e}", current.display()))?;
            let path = entry.path();
            if path.is_dir() {
                if visited.insert(canonical(&path)?) {
                    stack.push(path);
                }
            } else if path
                .extension()
                .and_then(|ext| ext.to_str())
                .is_some_and(aig::netlist::is_supported_extension)
            {
                files.push(path);
            }
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no netlist files (.aag/.aig/.blif/.v) under {}",
            dir.display()
        ));
    }
    Ok(files)
}

struct RunPlan {
    doc: Json,
    pretty: bool,
    any_failed: bool,
}

fn run() -> Result<RunPlan, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args.split_first().ok_or_else(usage)?;
    let (specs, opts) = match command.as_str() {
        "run" => {
            let (opts, positional) = parse_args(rest)?;
            let [file] = positional.as_slice() else {
                return Err(format!(
                    "run: expected exactly one <netlist file>, got {}",
                    positional.len()
                ));
            };
            (vec![make_spec(JobSpec::file(file), &opts)], opts)
        }
        "batch" => {
            let (opts, positional) = parse_args(rest)?;
            let [dir] = positional.as_slice() else {
                return Err(format!(
                    "batch: expected exactly one <dir>, got {}",
                    positional.len()
                ));
            };
            let specs = collect_netlist_files(std::path::Path::new(dir))?
                .into_iter()
                .map(|p| make_spec(JobSpec::file(p), &opts))
                .collect();
            (specs, opts)
        }
        "gen" => {
            let (opts, spec_args) = parse_args(rest)?;
            if spec_args.is_empty() {
                return Err("gen: missing at least one <family:bits[:prep]> spec".to_owned());
            }
            let specs = spec_args
                .iter()
                .map(|text| Ok(make_spec(JobSpec::generated(GenSpec::parse(text)?), &opts)))
                .collect::<Result<Vec<_>, String>>()?;
            (specs, opts)
        }
        "--help" | "-h" | "help" => return Err(usage()),
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    };
    let (doc, any_failed) = execute(specs, &opts)?;
    Ok(RunPlan {
        doc,
        pretty: opts.pretty,
        any_failed,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(plan) => {
            if plan.pretty {
                println!("{}", plan.doc.pretty());
            } else {
                println!("{}", plan.doc);
            }
            // Failed jobs (unreadable/unparseable netlists) still print
            // their JSON error record, but the exit code must reflect
            // them so scripts and CI notice.
            if plan.any_failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn specs_and_options_interleave() {
        // Regression: `boole gen csa:4 --workers 2 booth:4` used to
        // reject `booth:4` as an unknown option because everything
        // after the first `--` token was fed to the option parser.
        let (opts, positional) =
            parse_args(&strings(&["csa:4", "--workers", "2", "booth:4"])).unwrap();
        assert_eq!(opts.workers, Some(2));
        assert_eq!(positional, strings(&["csa:4", "booth:4"]));

        let (opts, positional) = parse_args(&strings(&[
            "--compact",
            "wallace:3",
            "--no-cache",
            "--no-timing",
        ]))
        .unwrap();
        assert!(!opts.pretty);
        assert!(!opts.timing);
        assert!(!opts.use_cache);
        assert_eq!(positional, strings(&["wallace:3"]));
    }

    #[test]
    fn option_errors_are_targeted() {
        assert!(parse_args(&strings(&["--frobnicate"]))
            .err()
            .unwrap()
            .contains("unknown option"));
        assert!(parse_args(&strings(&["--workers"]))
            .err()
            .unwrap()
            .contains("needs a value"));
        assert!(parse_args(&strings(&["--workers", "x"]))
            .err()
            .unwrap()
            .contains("bad --workers"));
    }

    #[test]
    fn search_threads_flag_parses_and_composes_with_workers() {
        let (opts, positional) = parse_args(&strings(&["csa:4", "--search-threads", "4"])).unwrap();
        assert_eq!(opts.search_threads, Some(4));
        assert_eq!(positional, strings(&["csa:4"]));

        // `0` is meaningful (one thread per CPU), not an error.
        let (opts, _) = parse_args(&strings(&["--search-threads", "0"])).unwrap();
        assert_eq!(opts.search_threads, Some(0));

        // One worker runs one job at a time; in-saturation search
        // parallelism is orthogonal and stays available.
        let (opts, _) = parse_args(&strings(&["--workers", "1", "--search-threads", "2"])).unwrap();
        assert_eq!(opts.workers, Some(1));
        assert_eq!(opts.search_threads, Some(2));

        assert!(parse_args(&strings(&["--search-threads"]))
            .err()
            .unwrap()
            .contains("needs a value"));
        assert!(parse_args(&strings(&["--search-threads", "x"]))
            .err()
            .unwrap()
            .contains("bad --search-threads"));
    }

    #[test]
    fn old_cli_invocations_parse_byte_identically() {
        // Options interleave with positionals, and the spec carries
        // the parsed search-thread count.
        let (opts, positional) = parse_args(&strings(&[
            "csa:4",
            "--workers",
            "2",
            "--search-threads",
            "4",
            "booth:4",
        ]))
        .unwrap();
        assert_eq!(opts.workers, Some(2));
        assert_eq!(opts.search_threads, Some(4));
        assert_eq!(positional, strings(&["csa:4", "booth:4"]));
        let spec = make_spec(JobSpec::generated(GenSpec::parse("csa:4").unwrap()), &opts);
        assert_eq!(spec.params.saturate.search_threads, 4);
    }

    #[test]
    fn robustness_flags_parse() {
        let (opts, positional) =
            parse_args(&strings(&["csa:4", "--max-retries", "5", "--shed"])).unwrap();
        assert_eq!(opts.max_retries, Some(5));
        assert!(opts.shed);
        assert_eq!(positional, strings(&["csa:4"]));

        // `0` disables retries explicitly — meaningful, not an error.
        let (opts, _) = parse_args(&strings(&["--max-retries", "0"])).unwrap();
        assert_eq!(opts.max_retries, Some(0));

        assert!(parse_args(&strings(&["--max-retries"]))
            .err()
            .unwrap()
            .contains("needs a value"));
        assert!(parse_args(&strings(&["--max-retries", "x"]))
            .err()
            .unwrap()
            .contains("bad --max-retries"));
    }

    #[test]
    fn telemetry_flags_parse_and_interleave_with_positionals() {
        let (opts, positional) =
            parse_args(&strings(&["csa:4", "--events", "/tmp/e.ndjson", "booth:4"])).unwrap();
        assert_eq!(
            opts.events,
            Some(TelemetrySinkArg::File(PathBuf::from("/tmp/e.ndjson")))
        );
        assert_eq!(positional, strings(&["csa:4", "booth:4"]));

        // `-` sinks are fine once stdout is line-oriented.
        let (opts, _) = parse_args(&strings(&["--events", "-", "--compact"])).unwrap();
        assert_eq!(opts.events, Some(TelemetrySinkArg::Stdout));
    }

    #[test]
    fn telemetry_flag_errors_are_targeted() {
        assert!(parse_args(&strings(&["--events"]))
            .err()
            .unwrap()
            .contains("--events needs a sink"));
        // The event stream is the only telemetry output.
        assert!(parse_args(&strings(&["--metrics", "-", "--compact"]))
            .err()
            .unwrap()
            .contains("unknown option"));
        // Streaming to stdout without --compact would interleave NDJSON
        // with a pretty-printed (multi-line) result document.
        let err = parse_args(&strings(&["--events", "-"])).err().unwrap();
        assert!(err.contains("--compact"), "got: {err}");
        // A file sink never touches stdout, so pretty output stays legal.
        assert!(parse_args(&strings(&["--events", "/tmp/e.ndjson"])).is_ok());
        // Telemetry is orthogonal to scheduling: one worker streams too.
        assert!(parse_args(&strings(&["--workers", "1", "--events", "-", "--compact"])).is_ok());
    }

    #[test]
    fn collector_survives_symlink_cycles_and_does_not_double_count() {
        let dir = std::env::temp_dir().join(format!("boole-collect-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let circuit = aig::gen::csa_multiplier(3);
        aig::write_netlist(dir.join("top.aag"), &circuit).unwrap();
        aig::write_netlist(dir.join("sub/nested.aag"), &circuit).unwrap();
        // A cycle back to the root and an alias of a sibling: pre-fix,
        // the first looped forever and the second double-counted
        // sub/nested.aag.
        std::os::unix::fs::symlink("..", dir.join("sub/loop")).unwrap();
        std::os::unix::fs::symlink(dir.join("sub"), dir.join("alias")).unwrap();
        let files = collect_netlist_files(&dir).unwrap();
        assert_eq!(
            files.len(),
            2,
            "each netlist must be listed exactly once: {files:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collector_reports_missing_directories() {
        let err = collect_netlist_files(std::path::Path::new("/nonexistent/never")).unwrap_err();
        assert!(err.contains("cannot resolve"), "got: {err}");
    }
}
