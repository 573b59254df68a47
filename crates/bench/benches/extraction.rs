//! Criterion microbenchmarks for DAG extraction (Algorithm 2) and AIG
//! reconstruction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use boole::{
    aig_to_egraph, extract_dag, pair_full_adders, reconstruct_aig, saturate, SaturateParams,
};

fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("extraction");
    group.sample_size(10);
    for n in [3usize, 4] {
        let aig = aig::gen::csa_multiplier(n);
        let net = aig_to_egraph(&aig);
        let (mut net, _) = saturate(
            net,
            &SaturateParams {
                node_limit: 6_000,
                time_limit: std::time::Duration::from_secs(3),
                match_limit: 300,
                ..SaturateParams::default()
            },
        );
        pair_full_adders(&mut net.egraph);
        group.bench_with_input(BenchmarkId::new("dag_extract_csa", n), &net, |b, net| {
            b.iter(|| extract_dag(&net.egraph).len())
        });
        let extraction = extract_dag(&net.egraph);
        group.bench_with_input(
            BenchmarkId::new("reconstruct_csa", n),
            &(&net, &extraction),
            |b, (net, extraction)| {
                b.iter(|| {
                    let (aig, fas) = reconstruct_aig(&net.egraph, extraction, n * 2, &net.outputs);
                    (aig.num_ands(), fas.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_extraction);
criterion_main!(benches);
