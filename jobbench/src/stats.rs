//! Summary statistics and metric bookkeeping shared by every workload.

use std::collections::HashMap;

/// A metric the benchmark reports: its name and unit.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("exact_fa", "count"),
    ("exact_fa_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, printed by every traced run. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("aig.prep_ms", "ms"),
    ("aig.parse_ms", "ms"),
    ("convert.ms", "ms"),
    ("convert.classes", "count"),
    ("saturate.ms", "ms"),
    ("saturate.other_ms", "ms"),
    ("saturate.pruned", "count"),
    ("saturate.r1.search_ms", "ms"),
    ("saturate.r1.merge_ms", "ms"),
    ("saturate.r1.apply_ms", "ms"),
    ("saturate.r1.rebuild_ms", "ms"),
    ("saturate.r1.iterations", "count"),
    ("saturate.r1.nodes", "count"),
    ("saturate.r1.matches", "count"),
    ("saturate.r1.applications", "count"),
    ("saturate.r1.apply_ratio", "ratio"),
    ("saturate.r1.limit_stops", "count"),
    ("saturate.r1.idle_rule_matches", "count"),
    ("saturate.r2.search_ms", "ms"),
    ("saturate.r2.merge_ms", "ms"),
    ("saturate.r2.apply_ms", "ms"),
    ("saturate.r2.rebuild_ms", "ms"),
    ("saturate.r2.iterations", "count"),
    ("saturate.r2.nodes", "count"),
    ("saturate.r2.matches", "count"),
    ("saturate.r2.applications", "count"),
    ("saturate.r2.apply_ratio", "ratio"),
    ("saturate.r2.limit_stops", "count"),
    ("saturate.r2.idle_rule_matches", "count"),
    ("pair.ms", "ms"),
    ("pair.xor3_triples", "count"),
    ("pair.maj_triples", "count"),
    ("pair.fa_inserted", "count"),
    ("extract.ms", "ms"),
    ("extract.classes", "count"),
    ("reconstruct.ms", "ms"),
    ("reconstruct.ands", "count"),
    ("verify.ms", "ms"),
    ("job.self_ms", "ms"),
    ("process.cpu_s", "s"),
    ("process.wall_s", "s"),
    ("width_exponent", "slope"),
    ("service.queue_wait_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.pipelines_run", "count"),
    ("service.fingerprint_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of `values`: the highest percentile of p99.9, p99, p95,
/// p90, p75 and p50 (nearest rank) with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or the maximum when even p50 has fewer. Returns
/// the value and the percentile's label.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    const LADDER: [(f64, &str); 6] = [
        (0.999, "p99.9"),
        (0.99, "p99"),
        (0.95, "p95"),
        (0.90, "p90"),
        (0.75, "p75"),
        (0.50, "p50"),
    ];
    for (p, label) in LADDER {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        if n - 1 - rank >= TAIL_MIN_BEYOND {
            return (sorted[rank], label);
        }
    }
    (sorted[n - 1], "max")
}

/// Least-squares slope of `ln(seconds)` against `ln(size)` over
/// `(size, seconds)` points: the exponent `k` in `time ∝ size^k`.
/// `None` without two distinct positive sizes.
pub fn growth_exponent(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    (logs.len() >= 2 && sxx > 1e-12).then(|| sxy / sxx)
}

/// Jobs attempted and failed over a run. A job fails when the system
/// returns no result or the result fails the output check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed.
    pub failed: usize,
}

impl Tally {
    /// Counts one job.
    pub fn record<T, E>(&mut self, verdict: &Result<T, E>) {
        self.attempted += 1;
        if verdict.is_err() {
            self.failed += 1;
        }
    }

    /// Share of attempted jobs that failed.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Share of attempted jobs that passed (the reported end-to-end
    /// form, which is never 0 on a working system).
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed_ratio()
    }
}

/// Accumulates named per-layer values (summed over a traced pass).
#[derive(Debug, Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared per-layer metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        *self.0.entry(name).or_default() += value;
    }

    /// Overwrites metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.remove(name);
        self.add(name, value);
    }

    /// The value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        assert!(!valid_metric_name("saturate.r2 search"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(&"x".repeat(65)));
        assert!(valid_metric_name("saturate.r2.search_ms"));
    }

    #[test]
    fn median_picks_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Too few samples for any percentile: the maximum.
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few), (12.0, "max"));
        // 20 samples: p50 is rank 10 (value 10) with 10 beyond.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (10.0, "p50"));
        // 60 samples: p75 is rank 45 with 15 beyond; p90 has only 6.
        let sixty: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(tail(&sixty), (45.0, "p75"));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), (990.0, "p99"));
    }

    #[test]
    fn growth_exponent_recovers_power_law() {
        let cubic: Vec<(f64, f64)> = [500.0, 900.0, 1400.0]
            .iter()
            .map(|&x: &f64| (x, 2e-9 * x.powi(3)))
            .collect();
        let k = growth_exponent(&cubic).unwrap();
        assert!((k - 3.0).abs() < 1e-9, "{k}");
        assert_eq!(growth_exponent(&[(100.0, 1.0)]), None);
        assert_eq!(growth_exponent(&[(100.0, 1.0), (100.0, 2.0)]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        tally.record::<(), &str>(&Ok(()));
        tally.record::<(), &str>(&Err("wrong"));
        tally.record::<(), &str>(&Ok(()));
        tally.record::<(), &str>(&Ok(()));
        assert_eq!(tally, Tally { attempted: 4, failed: 1 });
        assert_eq!(tally.failed_ratio(), 0.25);
        assert_eq!(tally.ok_ratio(), 0.75);
    }
}
