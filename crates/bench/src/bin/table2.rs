//! Regenerates **Table II**: RevSCA-2.0-style verification of
//! `dch`-optimized CSA multipliers, with and without BoolE.
//!
//! ```text
//! cargo run --release -p boole-bench --bin table2 -- [--max-bits 12] [--to-terms 300000] [--json]
//! ```
//!
//! Rows: bitwidth, exact-FA upper bound, exact FAs for BoolE /
//! baseline, max polynomial size, end-to-end runtime; `TO` marks runs
//! that exceeded the term budget (the stand-in for the paper's 72 h
//! timeout).

use std::time::Instant;

use boole::json::{Json, ToJson};
use boole::{BoolE, BooleParams};
use boole_bench::{baseline_blocks, prepare, verifier_blocks, Family, Prep};
use sca::{verify_multiplier, MulSpec, VerifyParams};

fn main() {
    let max_bits = boole_bench::arg_usize("--max-bits", 12);
    let to_terms = boole_bench::arg_usize("--to-terms", 300_000);
    let as_json = boole_bench::arg_flag("--json");
    let params = VerifyParams {
        max_terms: to_terms,
        ..VerifyParams::default()
    };

    if !as_json {
        println!("== Table II — verification of dch-optimized CSA multipliers ==");
        println!(
            "{:>5} {:>7} | {:>11} {:>13} | {:>10} {:>13} | {:>11} {:>14}",
            "bits",
            "UB",
            "ExactFA-Be",
            "ExactFA-Base",
            "MaxPoly-Be",
            "MaxPoly-Base",
            "Time-Be(s)",
            "Time-Base(s)"
        );
    }
    let mut rows: Vec<Json> = Vec::new();

    let mut n = 4;
    while n <= max_bits {
        let opt = prepare(Family::Csa, n, Prep::Dch);
        let upper = aig::gen::csa_fa_upper_bound(n);

        // Baseline: RevSCA's own cut-enumeration detector on the
        // optimized netlist.
        let base_start = Instant::now();
        let base_report = baselines::detect_blocks_atree(&opt);
        let base_blocks = baseline_blocks(&base_report);
        let base_exact = base_blocks.fas.len();
        let base = verify_multiplier(&opt, MulSpec::unsigned(n), &base_blocks, &params);
        let base_time = base_start.elapsed();
        assert!(base.verified || base.timed_out, "baseline must not refute");

        // BoolE-assisted: reason about the netlist, then verify the
        // *original* optimized netlist with the recovered blocks
        // mapped back to its signals.
        let be_start = Instant::now();
        let result = BoolE::new(BooleParams::default().without_time_limit()).run(&opt);
        let blocks = verifier_blocks(&result, &opt);
        let be = verify_multiplier(&opt, MulSpec::unsigned(n), &blocks, &params);
        let be_time = be_start.elapsed();

        if as_json {
            let side = |exact: usize, outcome: &sca::VerifyOutcome, time: std::time::Duration| {
                Json::obj([
                    ("exact_fas", Json::from(exact)),
                    ("verified", Json::from(outcome.verified)),
                    ("timed_out", Json::from(outcome.timed_out)),
                    ("max_poly_size", Json::from(outcome.max_poly_size)),
                    ("time_ms", Json::duration_ms(time)),
                ])
            };
            rows.push(Json::obj([
                ("bits", Json::from(n)),
                ("upper_bound", Json::from(upper)),
                ("boole", side(blocks.fas.len(), &be, be_time)),
                ("baseline", side(base_exact, &base, base_time)),
                ("boole_stats", result.saturation.to_json()),
            ]));
        } else {
            let fmt_time = |t: std::time::Duration, timed_out: bool| {
                if timed_out {
                    "TO".to_owned()
                } else {
                    format!("{:.3}", t.as_secs_f64())
                }
            };
            let fmt_size = |size: usize, timed_out: bool| {
                if timed_out {
                    format!(">{size}")
                } else {
                    size.to_string()
                }
            };
            println!(
                "{n:>5} {upper:>7} | {:>11} {base_exact:>13} | {:>10} {:>13} | {:>11} {:>14}",
                blocks.fas.len(),
                fmt_size(be.max_poly_size, be.timed_out),
                fmt_size(base.max_poly_size, base.timed_out),
                fmt_time(be_time, be.timed_out),
                fmt_time(base_time, base.timed_out),
            );
        }
        n += 4;
    }
    if as_json {
        println!(
            "{}",
            Json::obj([
                ("experiment", Json::str("table2")),
                ("rows", Json::arr(rows))
            ])
            .pretty()
        );
    }
}
