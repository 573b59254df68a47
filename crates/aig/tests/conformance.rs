//! Differential conformance harness for the netlist frontends.
//!
//! Three layers of evidence that the BLIF and structural-Verilog
//! frontends agree with the rest of the system:
//!
//! 1. **Golden corpus** — checked-in `.blif`/`.v` mirrors of the
//!    `gen::` circuits under `tests/data/`. The hand-written mirrors
//!    (`full_adder`, `rca4`) use deliberately different structure
//!    (flat SOP covers, discrete gates) from the generators; the
//!    machine-generated mirrors (`csa3`, `booth4`, `wallace3`) pin the
//!    writers' output. Each file is parsed and checked functionally
//!    equal to the freshly generator-built AIG on 256 random input
//!    vectors via `aig::sim`.
//! 2. **Round trips** — `write_blif`/`write_verilog` followed by the
//!    matching parser must reproduce the AIG *node for node* (not just
//!    functionally), for the corpus circuits and for proptest-generated
//!    random AIGs.
//! 3. **Negative paths** — malformed inputs (truncation, undeclared
//!    signals, latches, arity mismatches, unknown extensions) produce
//!    typed errors through the `read_netlist` dispatcher, never panics.
//!
//! Regenerate the machine-written mirrors after changing a writer or a
//! generator with:
//!
//! ```sh
//! cargo test -p aig --test conformance -- --ignored regen
//! ```

use std::path::{Path, PathBuf};

use aig::netlist::{frontend_for_path, read_netlist, NetlistErrorKind, FRONTENDS};
use aig::sim::random_equiv_check;
use aig::{Aig, Lit};

/// 256 random vectors = 4 rounds of 64-wide word-parallel simulation.
const ROUNDS_256_VECTORS: usize = 4;

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// Reference build of the full adder mirrored by the hand-written
/// corpus files: inputs `a, b, cin`; outputs `s, c`.
fn full_adder_ref() -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_input();
    let b = aig.add_input();
    let c = aig.add_input();
    let (s, co) = aig::gen::full_adder(&mut aig, a, b, c);
    aig.add_output("s", s);
    aig.add_output("c", co);
    aig
}

/// Reference build of the 4-bit ripple-carry adder mirrored by the
/// hand-written corpus files: inputs `a0..a3, b0..b3`; outputs
/// `s0..s3, cout`.
fn rca4_ref() -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_inputs(4);
    let b = aig.add_inputs(4);
    let (sums, cout) = aig::gen::ripple_carry_adder(&mut aig, &a, &b, Lit::FALSE);
    for (i, s) in sums.iter().enumerate() {
        aig.add_output(format!("s{i}"), *s);
    }
    aig.add_output("cout", cout);
    aig
}

/// The golden corpus: circuit name → generator-built reference.
/// Every entry has a `.blif` and a `.v` mirror under `tests/data/`.
fn corpus() -> Vec<(&'static str, Aig)> {
    vec![
        ("full_adder", full_adder_ref()),
        ("rca4", rca4_ref()),
        ("csa3", aig::gen::csa_multiplier(3)),
        ("booth4", aig::gen::booth_multiplier(4)),
        ("wallace3", aig::gen::wallace_multiplier(3)),
    ]
}

/// Which corpus mirrors are machine-generated by the frontends'
/// writers (the rest are hand-written and must never be regenerated).
const GENERATED: [&str; 3] = ["csa3", "booth4", "wallace3"];

// ---------------------------------------------------------------------
// 1. Golden corpus: parse each mirror, differential-simulate against
//    the generator on 256 random vectors.
// ---------------------------------------------------------------------

#[test]
fn golden_corpus_matches_generators_on_256_random_vectors() {
    for (name, reference) in corpus() {
        for ext in ["blif", "v"] {
            let path = data_dir().join(format!("{name}.{ext}"));
            let parsed = read_netlist(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                parsed.num_inputs(),
                reference.num_inputs(),
                "{name}.{ext}: input count"
            );
            assert_eq!(
                parsed.num_outputs(),
                reference.num_outputs(),
                "{name}.{ext}: output count"
            );
            assert!(
                random_equiv_check(
                    &parsed,
                    &reference,
                    ROUNDS_256_VECTORS,
                    0xC0FF_EE00 ^ ext.len() as u64
                ),
                "{name}.{ext} disagrees with the generator on random vectors"
            );
        }
    }
}

#[test]
fn golden_corpus_output_names_match_generators() {
    // Functional equality checks outputs positionally; the mirrors
    // must also carry the generator's port names so downstream
    // tooling can correlate results.
    for (name, reference) in corpus() {
        for ext in ["blif", "v"] {
            let path = data_dir().join(format!("{name}.{ext}"));
            let parsed = read_netlist(&path).unwrap();
            for (idx, ((pn, _), (rn, _))) in
                parsed.outputs().iter().zip(reference.outputs()).enumerate()
            {
                // Writers sanitize names; compare modulo that mapping.
                let sanitized: String = rn
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                assert_eq!(pn, &sanitized, "{name}.{ext}: output {idx} name drifted");
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Round trips: node-for-node reproduction.
// ---------------------------------------------------------------------

/// Asserts that `rebuilt` is the same AIG as `original`: identical node
/// table, identical input list, identical output literals.
fn assert_structurally_identical(tag: &str, original: &Aig, rebuilt: &Aig) {
    assert_eq!(
        rebuilt.nodes(),
        original.nodes(),
        "{tag}: node tables differ"
    );
    assert_eq!(rebuilt.inputs(), original.inputs(), "{tag}: inputs differ");
    let out = |a: &Aig| a.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>();
    assert_eq!(out(rebuilt), out(original), "{tag}: output literals differ");
}

#[test]
fn corpus_circuits_round_trip_through_blif_exactly() {
    for (name, reference) in corpus() {
        let text = aig::blif::write_blif(&reference);
        let rebuilt = aig::blif::parse_blif(&text).expect(name);
        assert_structurally_identical(&format!("{name} via blif"), &reference, &rebuilt);
    }
}

#[test]
fn corpus_circuits_round_trip_through_verilog_exactly() {
    for (name, reference) in corpus() {
        let text = aig::verilog::write_verilog(&reference);
        let rebuilt = aig::verilog::parse_verilog(&text).expect(name);
        assert_structurally_identical(&format!("{name} via verilog"), &reference, &rebuilt);
    }
}

#[test]
fn cross_format_parses_are_identical() {
    // The same circuit through all four frontends must land on the
    // same structure — this is what makes the service's result cache
    // format-agnostic.
    for (name, reference) in corpus() {
        let via_aag = aig::aiger::from_aag(&aig::aiger::to_aag(&reference)).unwrap();
        let via_blif = aig::blif::parse_blif(&aig::blif::write_blif(&reference)).unwrap();
        let via_v = aig::verilog::parse_verilog(&aig::verilog::write_verilog(&reference)).unwrap();
        assert_structurally_identical(&format!("{name}: aag vs blif"), &via_aag, &via_blif);
        assert_structurally_identical(&format!("{name}: aag vs verilog"), &via_aag, &via_v);
    }
}

// ---------------------------------------------------------------------
// Proptest round trips: arbitrary small AIGs.
// ---------------------------------------------------------------------

mod proptests {
    use super::*;
    use aig::test_util::random_aig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// BLIF round trips reproduce arbitrary AIGs node for node.
        #[test]
        fn prop_blif_roundtrip_is_exact(aig in random_aig(5, 24)) {
            let text = aig::blif::write_blif(&aig);
            let rebuilt = aig::blif::parse_blif(&text).expect("self-produced blif parses");
            prop_assert_eq!(rebuilt.nodes(), aig.nodes());
            prop_assert_eq!(rebuilt.num_inputs(), aig.num_inputs());
            prop_assert_eq!(
                rebuilt.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
                aig.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>()
            );
            prop_assert!(aig::sim::exhaustive_equiv_check(&aig, &rebuilt));
        }

        /// Verilog round trips reproduce arbitrary AIGs node for node.
        #[test]
        fn prop_verilog_roundtrip_is_exact(aig in random_aig(5, 24)) {
            let text = aig::verilog::write_verilog(&aig);
            let rebuilt = aig::verilog::parse_verilog(&text).expect("self-produced verilog parses");
            prop_assert_eq!(rebuilt.nodes(), aig.nodes());
            prop_assert_eq!(rebuilt.num_inputs(), aig.num_inputs());
            prop_assert_eq!(
                rebuilt.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
                aig.outputs().iter().map(|(_, l)| *l).collect::<Vec<_>>()
            );
            prop_assert!(aig::sim::exhaustive_equiv_check(&aig, &rebuilt));
        }

        /// Ugly output names survive both writers' sanitization.
        #[test]
        fn prop_hostile_output_names_round_trip(aig in random_aig(4, 12)) {
            let mut renamed = Aig::new();
            let ins = renamed.add_inputs(aig.num_inputs());
            let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
            for (i, v) in aig.inputs().iter().enumerate() {
                map[v.index()] = ins[i];
            }
            for v in aig.and_vars() {
                if let aig::Node::And(a, b) = aig.node(v) {
                    let fa = Aig::translate(&map, a);
                    let fb = Aig::translate(&map, b);
                    map[v.index()] = renamed.and(fa, fb);
                }
            }
            let hostile = ["s[0]", "s[0]", "a b", "1st", ""];
            for (i, (_, lit)) in aig.outputs().iter().enumerate() {
                renamed.add_output(hostile[i % hostile.len()], Aig::translate(&map, *lit));
            }
            let via_blif = aig::blif::parse_blif(&aig::blif::write_blif(&renamed)).expect("blif");
            let via_v =
                aig::verilog::parse_verilog(&aig::verilog::write_verilog(&renamed)).expect("verilog");
            prop_assert!(aig::sim::exhaustive_equiv_check(&renamed, &via_blif));
            prop_assert!(aig::sim::exhaustive_equiv_check(&renamed, &via_v));
        }
    }
}

// ---------------------------------------------------------------------
// 3. Negative paths through the dispatcher.
// ---------------------------------------------------------------------

#[test]
fn unknown_extensions_are_rejected_before_io() {
    for path in ["x.vhdl", "x.json", "x"] {
        match frontend_for_path(Path::new(path)) {
            Err(e) => assert_eq!(e.kind, NetlistErrorKind::UnknownFormat, "{path}"),
            Ok(f) => panic!("{path} unexpectedly matched {}", f.format_name()),
        }
    }
}

#[test]
fn corrupt_files_produce_typed_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("boole-conf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: &[(&str, &str, NetlistErrorKind)] = &[
        (
            "latch.blif",
            ".model t\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n",
            NetlistErrorKind::Latch,
        ),
        (
            "truncated.blif",
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n",
            NetlistErrorKind::Truncated,
        ),
        (
            "undeclared.blif",
            ".model t\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n",
            NetlistErrorKind::Undeclared,
        ),
        (
            "arity.blif",
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n1-0 1\n.end\n",
            NetlistErrorKind::Arity,
        ),
        (
            "truncated.v",
            "module m (a, y);\n  input a;\n  output y;\n  buf g (y, a);\n",
            NetlistErrorKind::Truncated,
        ),
        (
            "undeclared.v",
            "module m (a, y);\n  input a;\n  output y;\n  and g (y, a, ghost);\nendmodule\n",
            NetlistErrorKind::Undeclared,
        ),
        (
            "arity.v",
            "module m (a, b, y);\n  input a, b;\n  output y;\n  not g (y, a, b);\nendmodule\n",
            NetlistErrorKind::Arity,
        ),
        (
            "sequential.v",
            "module m (clk, q);\n  input clk;\n  output q;\n  always @(posedge clk) q <= 1;\nendmodule\n",
            NetlistErrorKind::Unsupported,
        ),
        (
            "garbage.aag",
            "this is not an aiger file\n",
            NetlistErrorKind::Syntax,
        ),
        (
            "redefined.aag",
            "aag 3 2 0 1 2\n2\n4\n6\n6 2 4\n6 4 3\n",
            NetlistErrorKind::Syntax,
        ),
        (
            "undefined-output.aag",
            "aag 2 1 0 1 0\n2\n4\n",
            NetlistErrorKind::Undeclared,
        ),
        (
            "cycle.aag",
            "aag 4 1 0 1 2\n2\n6\n6 8 2\n8 6 2\n",
            NetlistErrorKind::Cycle,
        ),
        ("empty.aag", "", NetlistErrorKind::Truncated),
        ("latch.aag", "aag 2 1 1 0 0\n2\n4 2\n", NetlistErrorKind::Latch),
        (
            "truncated-deltas.aig",
            "aig 2 1 0 0 1\n\x02",
            NetlistErrorKind::Truncated,
        ),
        (
            "too-many-inputs.aig",
            "aig 2000000 2000000 0 0 0\n",
            NetlistErrorKind::Unsupported,
        ),
    ];
    for (file, contents, kind) in cases {
        let path = dir.join(file);
        std::fs::write(&path, contents).unwrap();
        let err = read_netlist(&path)
            .map(|_| ())
            .expect_err(&format!("{file} must not parse"));
        assert_eq!(err.kind, *kind, "{file}: {err}");
        assert!(!err.to_string().is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arbitrary_garbage_never_panics_any_frontend() {
    let garbage: &[&[u8]] = &[
        b"",
        b"\x00\xff\xfe",
        b"module module module (((",
        b".names\n.names\n.end",
        b"aag 999999999999999999 0 0 0 0\n",
        b"aig 4 2 0 1 2\n\xff\xff\xff\xff\xff",
        b"// \xf0\x9f\xa6\x80",
        b".model\n.inputs \\",
    ];
    for frontend in FRONTENDS {
        for bytes in garbage {
            // Any Err is fine; a panic is the failure mode under test.
            let _ = frontend.parse(bytes);
        }
    }
}

// ---------------------------------------------------------------------
// Corpus regeneration (machine-written mirrors only).
// ---------------------------------------------------------------------

/// Rewrites the machine-generated golden mirrors from the current
/// generators + writers. Run explicitly after intentional changes:
/// `cargo test -p aig --test conformance -- --ignored regen`.
#[test]
#[ignore = "writes tests/data/; run only to regenerate the corpus"]
fn regen_generated_golden_mirrors() {
    for (name, reference) in corpus() {
        if !GENERATED.contains(&name) {
            continue;
        }
        let header = format!(
            "Machine-generated mirror of aig::gen::{name}; regenerate with\n\
             `cargo test -p aig --test conformance -- --ignored regen`."
        );
        let blif = {
            let body = aig::blif::write_blif(&reference);
            let mut s = String::new();
            for line in header.lines() {
                s.push_str(&format!("# {line}\n"));
            }
            s + &body
        };
        let verilog = {
            let body = aig::verilog::write_verilog(&reference);
            let mut s = String::new();
            for line in header.lines() {
                s.push_str(&format!("// {line}\n"));
            }
            s + &body
        };
        std::fs::write(data_dir().join(format!("{name}.blif")), blif).unwrap();
        std::fs::write(data_dir().join(format!("{name}.v")), verilog).unwrap();
    }
}
