//! Format-agnostic service behavior: the same circuit delivered as
//! `.aag`, `.blif`, or `.v` must land on one structural fingerprint —
//! and therefore one result-cache entry, one saturation run.

use std::path::PathBuf;

use boole::BooleParams;
use boole_service::{fingerprint_aig, JobSpec, Service, ServiceConfig};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boole-frontends-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The acceptance check from the frontend issue: an isomorphic netlist
/// submitted once as `.aag` and once as `.blif` (and `.v`) yields a
/// cache hit — the pipeline runs exactly once.
#[test]
fn cross_format_submissions_share_one_cache_entry() {
    let dir = temp_dir("cache");
    let circuit = aig::gen::csa_multiplier(3);
    let aag = dir.join("mult.aag");
    let blif = dir.join("mult.blif");
    let verilog = dir.join("mult.v");
    aig::write_netlist(&aag, &circuit).unwrap();
    aig::write_netlist(&blif, &circuit).unwrap();
    aig::write_netlist(&verilog, &circuit).unwrap();

    let service = Service::new(ServiceConfig {
        num_workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        telemetry: None,
        search_threads: None,
        ..ServiceConfig::default()
    });
    let spec = |path: &PathBuf| JobSpec::file(path).with_params(BooleParams::small());

    let first = service.submit(spec(&aag)).wait();
    assert!(first.summary().is_some(), "aag job failed");
    assert!(!first.from_cache);

    let second = service.submit(spec(&blif)).wait();
    assert!(second.summary().is_some(), "blif job failed");
    assert!(
        second.from_cache,
        "blif submission of an isomorphic netlist must hit the aag's cache entry"
    );

    let third = service.submit(spec(&verilog)).wait();
    assert!(
        third.from_cache,
        "verilog submission of an isomorphic netlist must hit too"
    );

    // Identical canonical payloads, and exactly one saturation run.
    use boole::json::ToJson;
    assert_eq!(
        first.summary().unwrap().to_json().to_string(),
        second.summary().unwrap().to_json().to_string()
    );
    let stats = service.shutdown();
    assert_eq!(stats.pipelines_run, 1, "one pipeline for three formats");
    assert_eq!(stats.cache.hits, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_mirrors_fingerprint_equal_to_writer_output() {
    // A BLIF written by us and re-parsed must fingerprint-equal the
    // original in-memory AIG (the cache key is the fingerprint).
    for circuit in [
        aig::gen::csa_multiplier(3),
        aig::gen::booth_multiplier(4),
        aig::gen::wallace_multiplier(3),
    ] {
        let reference = fingerprint_aig(&circuit);
        let via_blif = aig::blif::parse_blif(&aig::blif::write_blif(&circuit)).unwrap();
        let via_v = aig::verilog::parse_verilog(&aig::verilog::write_verilog(&circuit)).unwrap();
        let via_aag = aig::aiger::from_aag(&aig::aiger::to_aag(&circuit)).unwrap();
        assert_eq!(fingerprint_aig(&via_blif), reference);
        assert_eq!(fingerprint_aig(&via_v), reference);
        assert_eq!(fingerprint_aig(&via_aag), reference);
    }
}

use aig::test_util::random_aig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The issue's round-trip property, stated on the cache key
    /// itself: Aig → write_blif → parse_blif is fingerprint-equal.
    #[test]
    fn prop_blif_roundtrip_is_fingerprint_equal(aig in random_aig(5, 24)) {
        let rebuilt = aig::blif::parse_blif(&aig::blif::write_blif(&aig)).expect("parses");
        prop_assert_eq!(fingerprint_aig(&rebuilt), fingerprint_aig(&aig));
    }

    /// Same property through the Verilog writer.
    #[test]
    fn prop_verilog_roundtrip_is_fingerprint_equal(aig in random_aig(5, 24)) {
        let rebuilt = aig::verilog::parse_verilog(&aig::verilog::write_verilog(&aig)).expect("parses");
        prop_assert_eq!(fingerprint_aig(&rebuilt), fingerprint_aig(&aig));
    }
}
