//! Ablation benchmarks for two design decisions: two-phase vs merged
//! saturation, and redundant-e-node pruning.

use criterion::{criterion_group, criterion_main, Criterion};

use boole::{aig_to_egraph, extract_dag, pair_full_adders, rules, saturate, SaturateParams};
use egraph::{BackoffScheduler, Runner};

fn small_params() -> SaturateParams {
    SaturateParams {
        node_limit: 5_000,
        time_limit: std::time::Duration::from_secs(2),
        match_limit: 300,
        ..SaturateParams::default()
    }
}

/// Two-phase (R1 then R2) vs a single merged ruleset run.
fn ablation_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_phases");
    group.sample_size(10);
    let aig = aig::gen::csa_multiplier(3);
    group.bench_function("two_phase", |b| {
        b.iter(|| {
            let net = aig_to_egraph(&aig);
            let (net, _) = saturate(net, &small_params());
            net.egraph.total_number_of_nodes()
        })
    });
    group.bench_function("merged_single_phase", |b| {
        b.iter(|| {
            let net = aig_to_egraph(&aig);
            let mut all = rules::r1_rules();
            all.extend(rules::r2_rules());
            let runner = Runner::default()
                .with_egraph(net.egraph)
                .with_iter_limit(13)
                .with_node_limit(5_000)
                .with_time_limit(std::time::Duration::from_secs(2))
                .with_scheduler(BackoffScheduler::new(300, 2))
                .run(&all);
            runner.egraph.total_number_of_nodes()
        })
    });
    group.finish();
}

/// With vs without redundant e-node pruning.
fn ablation_prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_prune");
    group.sample_size(10);
    let aig = aig::gen::csa_multiplier(3);
    for (label, prune) in [("prune", true), ("no_prune", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let net = aig_to_egraph(&aig);
                let params = SaturateParams {
                    prune,
                    ..small_params()
                };
                let (mut net, _) = saturate(net, &params);
                pair_full_adders(&mut net.egraph);
                extract_dag(&net.egraph).len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_phases, ablation_prune);
criterion_main!(benches);
