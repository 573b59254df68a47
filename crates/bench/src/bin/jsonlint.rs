//! `jsonlint` — strict NDJSON gate for CI.
//!
//! Reads stdin line by line and runs every non-empty line through the
//! repo's own strict parser (`boole::json::Json::parse`). Exits
//! non-zero naming the first offending line. Used by the CI
//! `events-smoke` step to prove that an `--events - --compact` run
//! keeps stdout fully line-parseable: telemetry events and the result
//! document alike.

use std::io::BufRead;

fn main() -> std::process::ExitCode {
    let stdin = std::io::stdin();
    let mut lines = 0u64;
    for (index, line) in stdin.lock().lines().enumerate() {
        let line = line.expect("read stdin");
        if line.is_empty() {
            continue;
        }
        if let Err(e) = boole::json::Json::parse(&line) {
            eprintln!("line {} is not strict JSON: {e:?}\n{line}", index + 1);
            return std::process::ExitCode::FAILURE;
        }
        lines += 1;
    }
    eprintln!("jsonlint: {lines} strict JSON lines");
    std::process::ExitCode::SUCCESS
}
