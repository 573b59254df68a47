//! Regenerates **RQ1** (Section V-A): pre-mapping FA identification —
//! both ABC-style cut enumeration and BoolE must reach the theoretical
//! upper bound, demonstrating that ruleset `R2` alone dominates
//! pre-mapping reasoning.
//!
//! ```text
//! cargo run --release -p boole-bench --bin rq1 -- [--max-bits 16] [--step 4] [--json]
//! ```
//!
//! With `--json`, a machine-readable document (one object per row plus
//! the full per-run statistics) is printed to stdout instead of the
//! table.

use boole::json::{Json, ToJson};
use boole::{BoolE, BooleParams};
use boole_bench::{abc_counts, prepare, Family, Prep};

fn main() {
    let max_bits = boole_bench::arg_usize("--max-bits", 16);
    let step = boole_bench::arg_usize("--step", 4);
    let as_json = boole_bench::arg_flag("--json");

    if !as_json {
        println!("== RQ1 — pre-mapping FA identification ==");
        println!(
            "{:>7} {:>5} {:>11} {:>9} {:>11} {:>8}",
            "family", "bits", "UpperBound", "NPN-ABC", "Exact-BoolE", "optimal"
        );
    }
    let mut rows: Vec<Json> = Vec::new();
    for family in [Family::Csa, Family::Booth] {
        let mut n = 4;
        while n <= max_bits {
            if family == Family::Booth && n % 2 != 0 {
                n += step;
                continue;
            }
            let pre = prepare(family, n, Prep::None);
            let upper = abc_counts(&pre).npn;
            let result = BoolE::new(BooleParams::default().without_time_limit()).run(&pre);
            let optimal = result.exact_fa_count() >= upper;
            if as_json {
                rows.push(Json::obj([
                    ("family", Json::str(family.name())),
                    ("bits", Json::from(n)),
                    ("upper_bound", Json::from(upper)),
                    ("exact_fa_count", Json::from(result.exact_fa_count())),
                    ("optimal", Json::from(optimal)),
                    ("saturation", result.saturation.to_json()),
                    ("pairing", result.pairing.to_json()),
                    ("runtime_ms", Json::duration_ms(result.runtime)),
                ]));
            } else {
                println!(
                    "{:>7} {n:>5} {upper:>11} {:>9} {:>11} {:>8}",
                    family.name(),
                    upper,
                    result.exact_fa_count(),
                    if optimal { "yes" } else { "NO" }
                );
            }
            n += step;
        }
    }
    if as_json {
        println!(
            "{}",
            Json::obj([("experiment", Json::str("rq1")), ("rows", Json::arr(rows))]).pretty()
        );
    }
}
