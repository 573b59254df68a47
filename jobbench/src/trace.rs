//! In-memory spans and the traced job: the pipeline run one public
//! layer call at a time, each call timed from here.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use boole::{
    aig_to_egraph, extract_dag, pair_full_adders, reconstruct_aig, saturate_observed,
    BooleParams, IterationObserver, Json, SaturationStats, ToJson,
};
use egraph::StopReason;

use crate::jobs::{check_fas, Config, ServiceJob};
use crate::stats::Layers;

/// One timed interval. Times are offsets from the tracer's origin.
pub struct Span {
    /// What ran (`job`, `convert`, `r2.iter`, `search`, …).
    pub name: String,
    /// The job the span belongs to.
    pub job: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Extra facts (config, counts, cache hits).
    pub attrs: Vec<(&'static str, Json)>,
}

/// Records spans in memory; [`Tracer::write`] stores them at the end.
pub struct Tracer {
    origin: Instant,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Offset of `at` from the origin.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        job: u64,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            job,
            parent,
            start,
            end,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a new span.
    pub fn time<T>(
        &mut self,
        name: &str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(name, job, parent, self.offset(start), self.offset(end));
        (id, out)
    }

    /// Duration of span `id`.
    pub fn duration(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        span.end.saturating_sub(span.start)
    }

    /// Summed duration of every span called `name`.
    pub fn total_of(&self, name: &str) -> Duration {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i))
            .sum()
    }

    /// Each span's self time: its duration minus its children's (the
    /// children of a span never overlap).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(self.duration(i));
            }
        }
        own
    }

    /// Sum of the self times of every span called `name`.
    pub fn self_time_of(&self, name: &str) -> Duration {
        self.self_times()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, span)| span.name == name)
            .map(|(d, _)| d)
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let micros = |d: Duration| Json::from(d.as_secs_f64() * 1e6);
        let spans = self.spans.iter().enumerate().map(|(id, span)| {
            let mut fields = vec![
                ("id", Json::from(id)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, Json::from),
                ),
                ("job", Json::from(span.job as usize)),
                ("name", Json::str(span.name.clone())),
                ("start_us", micros(span.start)),
                ("end_us", micros(span.end)),
            ];
            fields.extend(span.attrs.iter().cloned());
            Json::obj(fields)
        });
        std::fs::write(path, Json::obj([("spans", Json::arr(spans))]).pretty())
    }
}

/// Rule names of each ruleset, to split per-rule counts by phase.
pub struct RuleNames {
    r1: HashSet<&'static str>,
    r2: HashSet<&'static str>,
}

impl RuleNames {
    /// The names of the default (full) R1 and R2 rulesets.
    pub fn new() -> Self {
        let names = |rules: Vec<egraph::Rewrite<boole::BoolLang, ()>>| {
            rules.iter().map(|r| r.name().as_str()).collect()
        };
        RuleNames {
            r1: names(boole::rules::r1_rules()),
            r2: names(boole::rules::r2_rules()),
        }
    }
}

/// What the observer saw at the end of one saturation iteration.
struct IterRecord {
    ruleset: &'static str,
    index: usize,
    at: Instant,
    it: [Duration; 4],
    nodes: usize,
    matches: usize,
    applications: usize,
}

const ITER_PHASES: [&str; 4] = ["search", "merge", "apply", "rebuild"];

/// A traced job's result: exact FAs and the canonical saturation
/// statistics (to compare with the untraced run of the same config).
pub struct Traced {
    /// Exact FAs recovered.
    pub exact: usize,
    /// Canonical `SaturationStats` JSON.
    pub saturation: String,
}

/// Runs `config` layer by layer — convert, saturate (with R1/R2
/// iteration spans), pair, extract, reconstruct, verify — recording a
/// span around each call and adding its counts to `layers`.
pub fn run_traced(
    tracer: &mut Tracer,
    job: u64,
    config: &Config,
    params: &BooleParams,
    rules: &RuleNames,
    seed: u64,
    layers: &mut Layers,
) -> Result<Traced, String> {
    let job_start = tracer.offset(Instant::now());
    let job_span = tracer.push("job", job, None, job_start, job_start);
    tracer.spans[job_span]
        .attrs
        .push(("config", Json::str(config.name.clone())));
    let parent = Some(job_span);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    let (id, net) = tracer.time("convert", job, parent, || aig_to_egraph(&config.aig));
    layers.add("convert.ms", ms(tracer.duration(id)));
    layers.add("convert.classes", net.egraph.num_classes() as f64);

    let records: Arc<Mutex<Vec<IterRecord>>> = Arc::default();
    let sink = Arc::clone(&records);
    let observer: IterationObserver = Arc::new(move |ruleset, index, it| {
        let record = IterRecord {
            ruleset,
            index,
            at: Instant::now(),
            it: [it.search_time, it.merge_time, it.apply_time, it.rebuild_time],
            nodes: it.egraph_nodes,
            matches: it.total_matches,
            applications: it.applied.values().sum(),
        };
        sink.lock().expect("observer never panics").push(record);
    });
    let (sat, (mut net, stats)) = tracer.time("saturate", job, parent, || {
        saturate_observed(net, &params.saturate, Some(observer))
    });
    layers.add("saturate.ms", ms(tracer.duration(sat)));
    let records = std::mem::take(&mut *records.lock().expect("observer never panics"));
    record_saturation(tracer, job, sat, &records, &stats, rules, layers);

    let (id, pairing) = tracer.time("pair", job, parent, || pair_full_adders(&mut net.egraph));
    layers.add("pair.ms", ms(tracer.duration(id)));
    layers.add("pair.xor3_triples", pairing.xor3_triples as f64);
    layers.add("pair.maj_triples", pairing.maj_triples as f64);
    layers.add("pair.fa_inserted", pairing.fa_inserted as f64);

    let (id, extraction) = tracer.time("extract", job, parent, || extract_dag(&net.egraph));
    layers.add("extract.ms", ms(tracer.duration(id)));
    layers.add("extract.classes", extraction.len() as f64);

    let (id, (rebuilt, fas)) = tracer.time("reconstruct", job, parent, || {
        reconstruct_aig(
            &net.egraph,
            &extraction,
            config.aig.num_inputs(),
            &net.outputs,
        )
    });
    layers.add("reconstruct.ms", ms(tracer.duration(id)));
    layers.add("reconstruct.ands", rebuilt.num_ands() as f64);

    let (id, verdict) = tracer.time("verify", job, parent, || {
        if !aig::sim::random_equiv_check(&config.aig, &rebuilt, 16, seed) {
            return Err("reconstruction is not equivalent to the input".to_owned());
        }
        check_fas(&rebuilt, &fas, seed).map_err(|e| format!("reconstruction {e}"))
    });
    layers.add("verify.ms", ms(tracer.duration(id)));

    tracer.spans[job_span].end = tracer.offset(Instant::now());
    verdict.map(|()| Traced {
        exact: fas.len(),
        saturation: stats.to_json().to_string(),
    })
}

fn is_limit(stop: &StopReason) -> bool {
    matches!(
        stop,
        StopReason::IterLimit(_) | StopReason::NodeLimit(_) | StopReason::TimeLimit(_)
    )
}

/// Turns observed iterations into `r1.iter`/`r2.iter` spans, each with
/// back-to-back search/merge/apply/rebuild children ending when the
/// observer ran, and adds the per-ruleset counts.
fn record_saturation(
    tracer: &mut Tracer,
    job: u64,
    sat: usize,
    records: &[IterRecord],
    stats: &SaturationStats,
    rules: &RuleNames,
    layers: &mut Layers,
) {
    let sat_start = tracer.spans[sat].start;
    for rec in records {
        let end = tracer.offset(rec.at);
        let total: Duration = rec.it.iter().sum();
        let start = end.saturating_sub(total).max(sat_start);
        let iter = tracer.push(format!("{}.iter", rec.ruleset), job, Some(sat), start, end);
        tracer.spans[iter].attrs.extend([
            ("index", Json::from(rec.index)),
            ("nodes", Json::from(rec.nodes)),
            ("matches", Json::from(rec.matches)),
            ("applications", Json::from(rec.applications)),
        ]);
        let mut at = start;
        for (phase, d) in ITER_PHASES.iter().zip(rec.it) {
            let stop = (at + d).min(end);
            tracer.push(*phase, job, Some(iter), at, stop);
            at = stop;
        }
        let (phase_ms, counts) = if rec.ruleset == "r1" {
            (
                [
                    "saturate.r1.search_ms",
                    "saturate.r1.merge_ms",
                    "saturate.r1.apply_ms",
                    "saturate.r1.rebuild_ms",
                ],
                ["saturate.r1.matches", "saturate.r1.applications"],
            )
        } else {
            (
                [
                    "saturate.r2.search_ms",
                    "saturate.r2.merge_ms",
                    "saturate.r2.apply_ms",
                    "saturate.r2.rebuild_ms",
                ],
                ["saturate.r2.matches", "saturate.r2.applications"],
            )
        };
        for (name, d) in phase_ms.iter().zip(rec.it) {
            layers.add(name, d.as_secs_f64() * 1e3);
        }
        layers.add(counts[0], rec.matches as f64);
        layers.add(counts[1], rec.applications as f64);
    }
    layers.add("saturate.pruned", stats.pruned as f64);
    layers.add("saturate.r1.iterations", stats.r1_iterations as f64);
    layers.add("saturate.r2.iterations", stats.r2_iterations as f64);
    layers.add("saturate.r1.nodes", stats.nodes_after_r1 as f64);
    layers.add("saturate.r2.nodes", stats.nodes_after_r2 as f64);
    layers.add("saturate.r1.limit_stops", is_limit(&stats.r1_stop) as u8 as f64);
    layers.add("saturate.r2.limit_stops", is_limit(&stats.r2_stop) as u8 as f64);
    for rule in stats.rules.iter().filter(|r| r.applications == 0) {
        if rules.r1.contains(rule.name.as_str()) {
            layers.add("saturate.r1.idle_rule_matches", rule.matches as f64);
        } else if rules.r2.contains(rule.name.as_str()) {
            layers.add("saturate.r2.idle_rule_matches", rule.matches as f64);
        }
    }
}

/// Sets the ratios and self times that need the whole traced pass.
pub fn finish_layers(tracer: &Tracer, layers: &mut Layers) {
    for rs in ["r1", "r2"] {
        let (ratio, matches, applications) = match rs {
            "r1" => (
                "saturate.r1.apply_ratio",
                "saturate.r1.matches",
                "saturate.r1.applications",
            ),
            _ => (
                "saturate.r2.apply_ratio",
                "saturate.r2.matches",
                "saturate.r2.applications",
            ),
        };
        let m = layers.get(matches);
        layers.set(ratio, if m > 0.0 { layers.get(applications) / m } else { 0.0 });
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    layers.set("saturate.other_ms", ms(tracer.self_time_of("saturate")));
    layers.set("job.self_ms", ms(tracer.self_time_of("job")));
    layers.set("trace.spans", tracer.spans.len() as f64);
}

/// Records one `service.job` span (submit → result) per batch job,
/// offset by the batch's start.
pub fn record_service_jobs(
    tracer: &mut Tracer,
    batch_start: Instant,
    first_job: u64,
    configs: &[Config],
    jobs: &[ServiceJob],
) {
    let base = tracer.offset(batch_start);
    for (i, job) in jobs.iter().enumerate() {
        let start = base + job.submitted;
        let id = tracer.push(
            "service.job",
            first_job + i as u64,
            None,
            start,
            start + job.latency,
        );
        let pipeline = job
            .outcome
            .summary()
            .map_or(Json::Null, |s| Json::duration_ms(s.pipeline_runtime));
        tracer.spans[id].attrs.extend([
            ("config", Json::str(configs[job.submission.config].name.clone())),
            ("from_cache", Json::from(job.outcome.from_cache)),
            ("pipeline_runtime_ms", pipeline),
            ("service_ms", Json::duration_ms(job.outcome.service_time)),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let ms = Duration::from_millis;
        let job = t.push("job", 1, None, ms(0), ms(100));
        let sat = t.push("saturate", 1, Some(job), ms(10), ms(90));
        t.push("search", 1, Some(sat), ms(10), ms(60));
        t.push("apply", 1, Some(sat), ms(60), ms(70));
        let own = t.self_times();
        assert_eq!(own, vec![ms(20), ms(20), ms(50), ms(10)]);
        assert_eq!(t.self_time_of("saturate"), ms(20));
    }

    #[test]
    fn traced_job_covers_every_layer() {
        let config = Config::build("csa:3");
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        let params = crate::jobs::params(1);
        let traced = run_traced(
            &mut tracer,
            1,
            &config,
            &params,
            &RuleNames::new(),
            3,
            &mut layers,
        )
        .expect("csa:3 passes the gate");
        assert_eq!(Some(traced.exact), config.bound);
        finish_layers(&tracer, &mut layers);
        let names: Vec<&str> = tracer.spans.iter().map(|s| s.name.as_str()).collect();
        for layer in ["job", "convert", "saturate", "r1.iter", "r2.iter", "search", "pair"] {
            assert!(names.contains(&layer), "missing span {layer}");
        }
        for layer in ["extract", "reconstruct", "verify"] {
            assert!(names.contains(&layer), "missing span {layer}");
        }
        assert!(layers.get("saturate.r2.matches") > 0.0);
        assert!(layers.get("saturate.r1.iterations") > 0.0);
        assert!(layers.get("convert.classes") > 0.0);
        // Every iteration's phases fit inside the saturate span.
        let sat = tracer.spans.iter().position(|s| s.name == "saturate").unwrap();
        let sat_ms = tracer.duration(sat).as_secs_f64() * 1e3;
        let phases: f64 = ["search_ms", "merge_ms", "apply_ms", "rebuild_ms"]
            .iter()
            .flat_map(|p| ["r1", "r2"].map(|rs| format!("saturate.{rs}.{p}")))
            .map(|name| layers.get(&name))
            .sum();
        assert!(phases <= sat_ms + 1e-6, "{phases} > {sat_ms}");
        assert!((layers.get("saturate.other_ms") - (sat_ms - phases)).abs() < 0.5);
    }
}
