//! `satbench` — the tracked saturation benchmark.
//!
//! Runs the generator corpus (CSA / Booth / Wallace multipliers at two
//! sizes, mapped and unmapped) through BoolE's two-phase `saturate`
//! and writes a machine-readable `BENCH_satbench.json` with wall-clock
//! time per phase (search / apply / rebuild), final e-graph sizes, and
//! matcher throughput. The committed copy of that file is the perf
//! baseline: re-run the binary after an engine change and compare the
//! `search_ms` totals to track the saturation-speed trajectory.
//!
//! ```text
//! cargo run --release -p boole-bench --bin satbench            # full corpus -> BENCH_satbench.json
//! cargo run --release -p boole-bench --bin satbench -- --smoke # smallest config, stdout only (CI)
//! ```
//!
//! Flags: `--sizes A,B` (default `4,6`), `--out PATH` (default
//! `BENCH_satbench.json`; `--smoke` defaults to stdout only),
//! `--label NAME` (recorded in the JSON), `--search-threads N`
//! (parallel rule search inside each saturation; default 1 = serial,
//! 0 = one thread per CPU; recorded in the JSON so baselines at
//! different thread counts are never compared by accident),
//! `--compare-threads N` (after the main corpus pass, rerun the whole
//! corpus at `N` search threads and record the second pass's totals
//! under `"comparison"`, so one file holds both the serial baseline
//! and a threaded data point), and `--verify-serial` (after each
//! parallel run, rerun the config at one thread and assert the
//! saturation outcome — sizes, iteration counts, stop reasons, match
//! totals — is identical; the benchmark doubles as the determinism
//! oracle), and `--repeat N` (run the corpus `N` times and report, per
//! config, the run with the least search time; default 1).
//!
//! Timing semantics: `search_ms` counts only the e-matching fan-out;
//! the serial merge/bookkeeping of per-rule match sets is reported
//! separately as `merge_ms`. Each rule's `search_ms` in `top_rules` is
//! the measured time of that rule's own searches.
//!
//! `visits` (per run, in `totals` and per `top_rules` entry) counts the
//! matcher's budget units: e-nodes of each VM `Bind`'s operator that
//! it walked, plus hash-cons probes its `Build`s made. It is a work
//! count, identical on every run, machine and thread count, not a
//! time; `--repeat` asserts that it is identical across repeats.
//! `replayed` (in the same three places) counts the candidate roots
//! whose match count a search replayed from the rule's previous search
//! instead of searching them, because no change since reached them:
//! equally deterministic, it shows where semi-naive search saved
//! visits.
//!
//! Under `--repeat N`, each run's `search_ms` is the least of its `N`
//! repeats and `search_spread` is `(max - min) / min` over them;
//! `totals.search_ms` sums those minima and `totals.search_spread` is
//! the same ratio over the `N` passes' search totals. The JSON also
//! records `repeat` and `nproc` (the CPUs available to the process),
//! so timings from different machines are never compared by accident.

use std::time::Instant;

use boole::convert::aig_to_egraph;
use boole::json::{Json, ToJson};
use boole::{SaturateParams, SaturationStats};

/// One corpus entry: a generator family at a bit width, optionally
/// put through the technology-mapping round trip.
#[derive(Debug, Clone, Copy)]
struct Config {
    family: &'static str,
    bits: usize,
    mapped: bool,
}

fn generate(cfg: &Config) -> aig::Aig {
    let aig = match cfg.family {
        "csa" => aig::gen::csa_multiplier(cfg.bits),
        "booth" => aig::gen::booth_multiplier(cfg.bits),
        "wallace" => aig::gen::wallace_multiplier(cfg.bits),
        other => panic!("unknown family {other}"),
    };
    if cfg.mapped {
        aig::map::map_round_trip(&aig)
    } else {
        aig
    }
}

/// Deterministic saturation parameters: no wall-clock stop, so the
/// same corpus always produces the same e-graph and the timings are
/// comparable across machines and runs.
fn params() -> SaturateParams {
    SaturateParams {
        node_limit: 50_000,
        ..SaturateParams::default()
    }
    .without_time_limit()
}

struct RunRecord {
    cfg: Config,
    nodes_before: usize,
    stats: SaturationStats,
    wall_ms: f64,
    /// The largest search time over this config's repeats, in ms.
    search_ms_max: f64,
}

fn run_one(cfg: Config, p: &SaturateParams) -> RunRecord {
    let aig = generate(&cfg);
    let net = aig_to_egraph(&aig);
    let nodes_before = net.egraph.total_number_of_nodes();
    let start = Instant::now();
    let (_, stats) = boole::saturate(net, p);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    RunRecord {
        cfg,
        nodes_before,
        search_ms_max: ms(stats.search_time),
        stats,
        wall_ms,
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `(max - min) / min`, or 0 when `min` is 0.
fn spread(min: f64, max: f64) -> f64 {
    if min > 0.0 {
        (max - min) / min
    } else {
        0.0
    }
}

fn record_json(r: &RunRecord) -> Json {
    let search_s = r.stats.search_time.as_secs_f64();
    let matches_per_sec = if search_s > 0.0 {
        r.stats.total_matches as f64 / search_s
    } else {
        0.0
    };
    Json::obj([
        ("family", Json::str(r.cfg.family)),
        ("bits", Json::from(r.cfg.bits)),
        ("mapped", Json::from(r.cfg.mapped)),
        ("nodes_before", Json::from(r.nodes_before)),
        ("nodes_after_r1", Json::from(r.stats.nodes_after_r1)),
        ("nodes_after_r2", Json::from(r.stats.nodes_after_r2)),
        ("classes", Json::from(r.stats.classes)),
        (
            "iterations",
            Json::from(r.stats.r1_iterations + r.stats.r2_iterations),
        ),
        ("r1_stop", r.stats.r1_stop.to_json()),
        ("r2_stop", r.stats.r2_stop.to_json()),
        ("search_ms", Json::from(ms(r.stats.search_time))),
        (
            "search_spread",
            Json::from(spread(ms(r.stats.search_time), r.search_ms_max)),
        ),
        ("merge_ms", Json::from(ms(r.stats.merge_time))),
        ("apply_ms", Json::from(ms(r.stats.apply_time))),
        ("rebuild_ms", Json::from(ms(r.stats.rebuild_time))),
        ("saturate_ms", Json::from(r.wall_ms)),
        ("matches", Json::from(r.stats.total_matches)),
        ("matches_per_sec", Json::from(matches_per_sec)),
        ("visits", Json::from(r.stats.search.visits)),
        ("replayed", Json::from(r.stats.search.replayed)),
    ])
}

/// Aggregates per-rule saturation profiles across the whole corpus and
/// returns the top rules by total search time: the ranking answers
/// "which rewrite is the engine spending its matcher budget on", which
/// is where a scheduler or rule-set change shows up first.
fn top_rules_json(records: &[RunRecord], top_k: usize) -> Json {
    /// One rule's totals over the corpus.
    #[derive(Default)]
    struct RuleTotals {
        search: std::time::Duration,
        matches: usize,
        applications: usize,
        visits: usize,
        replayed: usize,
    }
    let mut agg: std::collections::BTreeMap<&str, RuleTotals> = std::collections::BTreeMap::new();
    for record in records {
        for rule in &record.stats.rules {
            let entry = agg.entry(rule.name.as_str()).or_default();
            entry.search += rule.search_time;
            entry.matches += rule.matches;
            entry.applications += rule.applications;
            entry.visits += rule.search.visits;
            entry.replayed += rule.search.replayed;
        }
    }
    let mut rows: Vec<_> = agg.into_iter().collect();
    // Sort by search time descending, name-tiebroken for stable output.
    rows.sort_by(|a, b| b.1.search.cmp(&a.1.search).then(a.0.cmp(b.0)));
    Json::arr(rows.into_iter().take(top_k).map(|(name, totals)| {
        Json::obj([
            ("rule", Json::str(name)),
            ("search_ms", Json::from(ms(totals.search))),
            ("matches", Json::from(totals.matches)),
            ("applications", Json::from(totals.applications)),
            ("visits", Json::from(totals.visits)),
            ("replayed", Json::from(totals.replayed)),
        ])
    }))
}

/// Panics unless the two runs of the same config reached the same
/// saturation outcome. Wall-clock fields are deliberately ignored;
/// everything the canonical result is derived from must match.
fn assert_outcome_identical(parallel: &RunRecord, serial: &RunRecord) {
    let (p, s) = (&parallel.stats, &serial.stats);
    let outcome = |st: &SaturationStats| {
        (
            st.nodes_after_r1,
            st.nodes_after_r2,
            st.classes,
            st.r1_stop.clone(),
            st.r2_stop.clone(),
            st.r1_iterations,
            st.r2_iterations,
            st.pruned,
            st.total_matches,
            st.search,
        )
    };
    assert_eq!(
        outcome(p),
        outcome(s),
        "parallel search diverged from the serial oracle on {:?}",
        parallel.cfg
    );
    let per_rule = |st: &SaturationStats| -> Vec<(String, usize, usize, usize)> {
        st.rules
            .iter()
            .map(|r| (r.name.clone(), r.matches, r.applications, r.search.visits))
            .collect()
    };
    assert_eq!(
        per_rule(p),
        per_rule(s),
        "per-rule match/application counts diverged on {:?}",
        parallel.cfg
    );
}

/// Per-phase wall-clock totals over one corpus pass, in milliseconds,
/// and the pass's matcher budget units.
#[derive(Default)]
struct Totals {
    search: f64,
    /// `(max - min) / min` over the repeated passes' search totals.
    search_spread: f64,
    merge: f64,
    apply: f64,
    rebuild: f64,
    visits: usize,
    replayed: usize,
}

impl Totals {
    fn json(&self) -> Json {
        Json::obj([
            ("search_ms", Json::from(self.search)),
            ("search_spread", Json::from(self.search_spread)),
            ("merge_ms", Json::from(self.merge)),
            ("apply_ms", Json::from(self.apply)),
            ("rebuild_ms", Json::from(self.rebuild)),
            ("visits", Json::from(self.visits)),
            ("replayed", Json::from(self.replayed)),
        ])
    }

    fn add(&mut self, r: &RunRecord) {
        self.search += ms(r.stats.search_time);
        self.merge += ms(r.stats.merge_time);
        self.apply += ms(r.stats.apply_time);
        self.rebuild += ms(r.stats.rebuild_time);
        self.visits += r.stats.search.visits;
        self.replayed += r.stats.search.replayed;
    }
}

fn print_header() {
    eprintln!(
        "{:>8} {:>5} {:>7} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10} {:>12}",
        "family",
        "bits",
        "mapped",
        "search",
        "merge",
        "apply",
        "rebuild",
        "total",
        "matches",
        "matches/s"
    );
}

fn print_row(r: &RunRecord) {
    let search_s = r.stats.search_time.as_secs_f64();
    eprintln!(
        "{:>8} {:>5} {:>7} | {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.1}ms | {:>10} {:>12.0}",
        r.cfg.family,
        r.cfg.bits,
        r.cfg.mapped,
        ms(r.stats.search_time),
        ms(r.stats.merge_time),
        ms(r.stats.apply_time),
        ms(r.stats.rebuild_time),
        r.wall_ms,
        r.stats.total_matches,
        if search_s > 0.0 {
            r.stats.total_matches as f64 / search_s
        } else {
            0.0
        },
    );
}

fn print_totals(totals: &Totals) {
    eprintln!(
        "totals: search {:.1}ms  merge {:.1}ms  apply {:.1}ms  rebuild {:.1}ms  visits {}  \
         replayed {}",
        totals.search, totals.merge, totals.apply, totals.rebuild, totals.visits, totals.replayed
    );
}

/// Runs the whole corpus once under `p`, printing a per-config row,
/// and returns the records plus phase totals.
fn run_corpus(
    configs: &[Config],
    p: &SaturateParams,
    verify_serial: bool,
) -> (Vec<RunRecord>, Totals) {
    print_header();
    let mut records = Vec::new();
    let mut totals = Totals::default();
    for &cfg in configs {
        let r = run_one(cfg, p);
        if verify_serial {
            let serial = run_one(cfg, &p.clone().with_search_threads(1));
            assert_outcome_identical(&r, &serial);
        }
        totals.add(&r);
        print_row(&r);
        records.push(r);
    }
    print_totals(&totals);
    (records, totals)
}

/// Runs the corpus `repeat` times and keeps, per config, the run with
/// the least search time (see the module docs for the spreads).
/// Panics if a config's visits differ between repeats: the work count
/// is deterministic, so a difference is a bug, not noise.
fn run_repeated(
    configs: &[Config],
    p: &SaturateParams,
    verify_serial: bool,
    repeat: usize,
) -> (Vec<RunRecord>, Totals) {
    let (mut best, first) = run_corpus(configs, p, verify_serial);
    let (mut min_pass, mut max_pass) = (first.search, first.search);
    for _ in 1..repeat {
        let (records, totals) = run_corpus(configs, p, verify_serial);
        min_pass = min_pass.min(totals.search);
        max_pass = max_pass.max(totals.search);
        for (b, r) in best.iter_mut().zip(records) {
            assert_eq!(
                r.stats.search.visits, b.stats.search.visits,
                "visits differ between repeats on {:?}",
                r.cfg
            );
            let search_ms_max = b.search_ms_max.max(r.search_ms_max);
            if r.stats.search_time < b.stats.search_time {
                *b = r;
            }
            b.search_ms_max = search_ms_max;
        }
    }
    let mut totals = Totals::default();
    for r in &best {
        totals.add(r);
    }
    totals.search_spread = spread(min_pass, max_pass);
    (best, totals)
}

fn main() {
    let smoke = boole_bench::arg_flag("--smoke");
    let args: Vec<String> = std::env::args().collect();
    let arg_str = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let label = arg_str("--label").unwrap_or_else(|| "satbench".to_owned());
    let sizes: Vec<usize> = arg_str("--sizes")
        .unwrap_or_else(|| "4,6".to_owned())
        .split(',')
        .map(|s| s.trim().parse().expect("--sizes takes integers like 4,6"))
        .collect();
    let out = arg_str("--out");
    let search_threads: usize = arg_str("--search-threads")
        .map(|s| s.parse().expect("--search-threads takes an integer"))
        .unwrap_or(1);
    let compare_threads: Option<usize> = arg_str("--compare-threads")
        .map(|s| s.parse().expect("--compare-threads takes an integer"));
    let verify_serial = boole_bench::arg_flag("--verify-serial");
    let repeat: usize = arg_str("--repeat")
        .map(|s| s.parse().expect("--repeat takes an integer"))
        .unwrap_or(1);
    assert!(repeat >= 1, "--repeat takes a count of at least 1");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut p = params();
    let configs: Vec<Config> = if smoke {
        p = SaturateParams {
            node_limit: 20_000,
            ..SaturateParams::small()
        }
        .without_time_limit();
        vec![Config {
            family: "csa",
            bits: 4,
            mapped: false,
        }]
    } else {
        let mut v = Vec::new();
        for &family in &["csa", "booth", "wallace"] {
            for &bits in &sizes {
                for &mapped in &[false, true] {
                    v.push(Config {
                        family,
                        bits,
                        mapped,
                    });
                }
            }
        }
        v
    };
    p = p.with_search_threads(search_threads);
    let (records, totals) = run_repeated(&configs, &p, verify_serial, repeat);

    let mut fields = vec![
        ("bench", Json::str("satbench")),
        ("label", Json::str(label)),
        ("smoke", Json::from(smoke)),
        ("node_limit", Json::from(p.node_limit)),
        ("match_limit", Json::from(p.match_limit)),
        ("search_threads", Json::from(p.search_threads)),
        ("repeat", Json::from(repeat)),
        ("nproc", Json::from(nproc)),
        (
            "notes",
            Json::str(
                "search_ms is the e-matching fan-out only; the serial merge is \
                 reported separately as merge_ms. top_rules search_ms is each \
                 rule's own measured search time. Compare like with like: the \
                 main pass vs comparison (same corpus, different threads), or \
                 runs from the same machine (nproc). search_ms is the least \
                 of repeat runs and search_spread is (max - min) / min over \
                 them. visits counts matcher budget units (e-nodes of each \
                 Bind's operator plus Build hash-cons probes): a \
                 deterministic work count, not a time. replayed counts \
                 candidate roots whose match count was replayed from \
                 the rule's previous search instead of searched.",
            ),
        ),
        ("totals", totals.json()),
        ("top_rules", top_rules_json(&records, 10)),
        ("runs", Json::arr(records.iter().map(record_json))),
    ];
    if let Some(threads) = compare_threads {
        eprintln!("--- comparison pass at {threads} search threads ---");
        let cp = p.clone().with_search_threads(threads);
        let (cmp_records, cmp_totals) = run_repeated(&configs, &cp, verify_serial, repeat);
        fields.push((
            "comparison",
            Json::obj([
                ("search_threads", Json::from(threads)),
                ("totals", cmp_totals.json()),
                ("runs", Json::arr(cmp_records.iter().map(record_json))),
            ]),
        ));
    }
    let text = Json::obj(fields).pretty();
    match (out.as_deref(), smoke) {
        (None, true) => println!("{text}"),
        (path, _) => {
            let path = path.unwrap_or("BENCH_satbench.json");
            std::fs::write(path, format!("{text}\n")).expect("write benchmark file");
            eprintln!("wrote {path}");
        }
    }
}
