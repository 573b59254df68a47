//! Whole-job benchmark of BoolE: multiplier netlists in, exact full
//! adders out, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path jobbench/Cargo.toml -- \
//!     --workload csa_sweep|mapped_mix|service_batch|smoke \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer ones with
//! `--trace 1`). The line before it holds per-config outcomes, the CPU
//! count and the commit. A failed check prints `"correct": false` and
//! exits with status 1; bad arguments exit with status 2. See
//! `jobbench/README.md`.

mod jobs;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use boole::Json;
use workload::{RunArgs, Workload};

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
        work_dir: PathBuf::from(".bench_work").join(workload.name()),
    })
}

fn result_line(report: &workload::Report) -> String {
    let metrics = report.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::from(report.correct)),
        ("attempted", Json::from(report.tally.attempted)),
        ("failed", Json::from(report.tally.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("jobbench: creating {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let report = match workload::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", Json::obj([("context", report.context.clone())]));
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&args("--workload mapped_mix --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::MappedMix);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload smoke --trace 2")).is_err());
        assert!(parse_args(&args("--workload smoke --seconds -1")).is_err());
    }

    /// The metric tables in the code are the ones `BENCHMARK.json`
    /// declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside jobbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let get = |k| m.field(k).and_then(Json::as_str).unwrap().to_owned();
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let ours = |table: &[stats::MetricDef]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(stats::END_TO_END));
        assert_eq!(declared("per_layer"), ours(stats::PER_LAYER));
        let workloads: Vec<&str> = doc
            .field("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.field("name").and_then(Json::as_str).unwrap())
            .collect();
        for name in workloads {
            assert!(Workload::parse(name).is_some(), "{name}");
        }
    }

    /// The smoke workload runs end to end and passes every check.
    #[test]
    fn smoke_run_is_correct() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_work"))
            .join(format!("test-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for trace in [false, true] {
            let report = workload::run(&RunArgs {
                workload: Workload::Smoke,
                seed: 3,
                seconds: 0.1,
                trace,
                work_dir: dir.clone(),
            })
            .unwrap();
            assert!(report.correct, "{}", report.context);
            let line = result_line(&report);
            let doc = Json::parse(&line).unwrap();
            let metrics = doc.field("metrics").unwrap();
            let table = if trace { stats::PER_LAYER } else { stats::END_TO_END };
            for (name, unit) in table {
                let m = metrics.field(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.field("unit").and_then(Json::as_str), Some(*unit));
            }
            if !trace {
                assert_eq!(metrics.field("exact_fa").unwrap().field("value").unwrap().as_f64(), Some(8.0));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
