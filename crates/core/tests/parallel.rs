//! Parallel-search determinism: BoolE saturation at any
//! `search_threads` value must be byte-identical to the serial oracle.
//!
//! The runner's parallel path only fans the *search* phase out —
//! workers run the compiled VM over disjoint rule chunks against the
//! shared immutable e-graph, and match sets are merged in rule-index
//! order before the apply phase — so everything downstream (iteration
//! counts, stop reasons, final e-graph, extraction, reconstruction)
//! must be indistinguishable from a one-thread run. These tests pin
//! that contract across generator families, bit widths, and the
//! technology-mapping round trip.

use std::time::{Duration, Instant};

use boole::convert::aig_to_egraph;
use boole::{saturate, BoolE, BooleParams, CancelToken, SaturateParams, SaturationStats, ToJson};
use proptest::prelude::*;

fn netlist(family: usize, bits: usize, mapped: bool) -> aig::Aig {
    let aig = match family {
        0 => aig::gen::csa_multiplier(bits),
        // Booth recoding needs an even width; round up instead of
        // shrinking the strategy's range.
        1 => aig::gen::booth_multiplier(bits + (bits & 1)),
        _ => aig::gen::wallace_multiplier(bits),
    };
    if mapped {
        aig::map::map_round_trip(&aig)
    } else {
        aig
    }
}

/// Tight-but-real saturation budget: small enough to keep the proptest
/// cases fast, large enough that both phases run several iterations
/// and the backoff scheduler actually bans rules (ban bookkeeping is
/// the part of the schedule most likely to diverge under reordering).
fn params(threads: usize) -> SaturateParams {
    SaturateParams {
        node_limit: 6_000,
        ..SaturateParams::small()
    }
    .without_time_limit()
    .with_search_threads(threads)
}

/// The struct-only fields the canonical JSON deliberately omits,
/// normalized to be machine-independent (no wall-clock durations).
fn struct_outcome(stats: &SaturationStats) -> Vec<(String, usize, usize)> {
    stats
        .rules
        .iter()
        .map(|r| (r.name.clone(), r.matches, r.applications))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn saturation_is_identical_at_any_thread_count(
        family in 0usize..3,
        bits in 3usize..5,
        mapped: bool,
        extra_threads in 3usize..8,
    ) {
        let aig = netlist(family, bits, mapped);
        let run = |threads: usize| {
            let net = aig_to_egraph(&aig);
            saturate(net, &params(threads))
        };
        let (serial_net, serial) = run(1);
        let serial_json = serial.to_json().to_string();
        let serial_nodes = serial_net.egraph.total_number_of_nodes();
        for threads in [2, extra_threads] {
            let (net, stats) = run(threads);
            // The canonical JSON document — what job results and
            // the cache are built from — must be byte-identical to
            // the serial oracle's.
            prop_assert_eq!(
                stats.to_json().to_string(),
                serial_json.clone(),
                "canonical stats diverged at {} threads",
                threads
            );
            // And so must the fields the canonical JSON omits: the
            // final e-graph and the per-rule match/application ledger.
            prop_assert_eq!(net.egraph.total_number_of_nodes(), serial_nodes);
            prop_assert_eq!(
                struct_outcome(&stats),
                struct_outcome(&serial),
                "per-rule accounting diverged at {} threads",
                threads
            );
        }
    }

    #[test]
    fn full_pipeline_output_is_identical_at_any_thread_count(
        family in 0usize..3,
        threads in 2usize..6,
    ) {
        // End to end: extraction and reconstruction consume the final
        // e-graph, so comparing the reconstructed netlist text catches
        // any divergence the stats summary could mask.
        let aig = netlist(family, 3, false);
        let run = |threads: usize| {
            let params = BooleParams {
                saturate: params(threads),
            };
            BoolE::new(params).run(&aig)
        };
        let serial = run(1);
        let parallel = run(threads);
        prop_assert_eq!(
            aig::aiger::to_aag(&parallel.reconstructed),
            aig::aiger::to_aag(&serial.reconstructed)
        );
        prop_assert_eq!(&parallel.fas, &serial.fas);
        prop_assert_eq!(&parallel.original_fas, &serial.original_fas);
        prop_assert_eq!(
            parallel.pairing.to_json().to_string(),
            serial.pairing.to_json().to_string()
        );
    }
}

#[test]
fn parallel_saturation_cancels_mid_search() {
    // A budget that would otherwise run for a very long time: the only
    // way this test finishes promptly is the cancel token reaching the
    // search workers. Fired from another thread while saturation is in
    // flight, so the trip lands mid-search, not at a phase boundary.
    let token = CancelToken::new();
    let params = SaturateParams {
        node_limit: 10_000_000,
        r1_iters: 10_000,
        r2_iters: 10_000,
        cancel: token.clone(),
        ..SaturateParams::default()
    }
    .without_time_limit()
    .with_search_threads(4);

    let killer = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let net = aig_to_egraph(&aig::gen::csa_multiplier(6));
    let start = Instant::now();
    let (_, stats) = saturate(net, &params);
    let elapsed = start.elapsed();
    killer.join().unwrap();

    assert!(
        stats.was_cancelled(),
        "stops: {:?} / {:?}",
        stats.r1_stop,
        stats.r2_stop
    );
    // Generous bound: cancellation must beat the hours-scale budget by
    // orders of magnitude even on a slow, loaded machine.
    assert!(
        elapsed < Duration::from_secs(60),
        "cancellation took {elapsed:?}"
    );
}
