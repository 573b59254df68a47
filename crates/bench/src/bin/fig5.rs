//! Regenerates **Figure 5**: BoolE end-to-end runtime versus input
//! netlist size (AIG node count) on post-mapping CSA and Booth
//! multipliers.
//!
//! ```text
//! cargo run --release -p boole-bench --bin fig5 -- [--max-bits 16] [--step 4]
//! ```

use boole::{BoolE, BooleParams};
use boole_bench::{prepare, Family, Prep};

fn main() {
    let max_bits = boole_bench::arg_usize("--max-bits", 16);
    let step = boole_bench::arg_usize("--step", 4);

    println!("== Figure 5 — BoolE runtime vs AIG node count ==");
    println!(
        "{:>7} {:>5} {:>11} {:>12} {:>12} {:>10}",
        "family", "bits", "aig-nodes", "egraph-nodes", "exact-FAs", "runtime-s"
    );
    for family in [Family::Csa, Family::Booth] {
        let mut n = 4;
        while n <= max_bits {
            if family == Family::Booth && n % 2 != 0 {
                n += step;
                continue;
            }
            let mapped = prepare(family, n, Prep::Mapped);
            let nodes = mapped.num_ands();
            let result = BoolE::new(BooleParams::default().without_time_limit()).run(&mapped);
            println!(
                "{:>7} {n:>5} {nodes:>11} {:>12} {:>12} {:>10.3}",
                family.name(),
                result.saturation.nodes_after_r2,
                result.exact_fa_count(),
                result.runtime.as_secs_f64()
            );
            n += step;
        }
    }
}
