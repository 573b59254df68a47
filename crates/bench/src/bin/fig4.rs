//! Regenerates **Figure 4**: FA reconstruction on technology-mapped
//! CSA (left) and Booth (right) multipliers — BoolE vs ABC vs Gamora,
//! exact and NPN counts against the theoretical upper bound.
//!
//! ```text
//! cargo run --release -p boole-bench --bin fig4 -- [--max-bits 16] [--step 4]
//! ```
//!
//! The paper sweeps 4..=128 bit on a 48-core Xeon; the laptop-scale
//! default sweeps 4..=16 (override with `--max-bits`).

use boole::{BoolE, BooleParams};
use boole_bench::{abc_counts, boole_counts, gamora_counts, prepare, Family, Prep};

fn main() {
    let max_bits = boole_bench::arg_usize("--max-bits", 16);
    let step = boole_bench::arg_usize("--step", 4);
    let model = baselines::GamoraModel::default_trained();

    for family in [Family::Csa, Family::Booth] {
        println!(
            "== Figure 4 ({}) — post-mapping (ASAP7-like) ==",
            family.name()
        );
        println!(
            "{:>5} {:>11} {:>9} {:>12} {:>11} {:>11} {:>13}",
            "bits", "UpperBound", "NPN-ABC", "NPN-Gamora", "NPN-BoolE", "Exact-ABC", "Exact-BoolE"
        );
        let mut n = 4;
        while n <= max_bits {
            if family == Family::Booth && n % 2 != 0 {
                n += step;
                continue;
            }
            // The upper bound is the number of NPN FAs cut enumeration
            // finds pre-mapping (the paper's protocol for Booth; for
            // CSA it equals (n−1)²−1).
            let pre = prepare(family, n, Prep::None);
            let upper = abc_counts(&pre).npn;
            if family == Family::Csa {
                assert_eq!(upper, aig::gen::csa_fa_upper_bound(n));
            }
            let mapped = prepare(family, n, Prep::Mapped);
            let abc = abc_counts(&mapped);
            let gam = gamora_counts(&mapped, &model);
            let result = BoolE::new(BooleParams::default().without_time_limit()).run(&mapped);
            let boole = boole_counts(&result);
            println!(
                "{n:>5} {upper:>11} {:>9} {:>12} {:>11} {:>11} {:>13}",
                abc.npn, gam.npn, boole.npn, abc.exact, boole.exact
            );
            n += step;
        }
        println!();
    }
}
