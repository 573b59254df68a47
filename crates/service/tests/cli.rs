//! End-to-end tests of the `boole` CLI binary.

use std::process::Command;

fn boole() -> Command {
    Command::new(env!("CARGO_BIN_EXE_boole"))
}

#[test]
fn gen_batch_json_is_identical_across_serial_and_four_workers() {
    let specs = [
        "csa:2",
        "csa:3",
        "csa:4",
        "booth:4",
        "wallace:3",
        "wallace:4",
        "csa:3:mapped",
        "csa:3:dch",
    ];
    let run = |extra: &[&str]| {
        let output = boole()
            .arg("gen")
            .args(specs)
            .args(["--params", "small", "--no-timing", "--compact"])
            .args(extra)
            .output()
            .expect("spawn boole");
        assert!(
            output.status.success(),
            "boole failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("utf8 json")
    };
    let serial = run(&["--workers", "1", "--no-cache"]);
    let concurrent = run(&["--workers", "4"]);
    assert_eq!(
        serial, concurrent,
        "batch JSON must be byte-identical between 1-worker cache-less and 4-worker runs"
    );
    assert!(serial.contains("\"status\":\"completed\""));
}

#[test]
fn event_stream_is_strict_ndjson_and_leaves_results_byte_identical() {
    let specs = ["csa:2", "csa:3", "wallace:3"];
    let base = ["--params", "small", "--no-timing", "--compact"];
    let run = |extra: &[&str]| {
        let output = boole()
            .arg("gen")
            .args(specs)
            .args(base)
            .args(extra)
            .output()
            .expect("spawn boole");
        assert!(
            output.status.success(),
            "boole failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("utf8 json")
    };

    let plain = run(&[]);
    let streamed = run(&["--events", "-"]);

    // Every stdout line — events and result document — must survive
    // the strict parser on its own.
    let lines: Vec<&str> = streamed.lines().collect();
    for line in &lines {
        boole::json::Json::parse(line)
            .unwrap_or_else(|e| panic!("stdout line is not strict JSON: {e:?}\n{line}"));
    }
    // Telemetry rides above the result channel: the final document is
    // byte-identical to a run with no telemetry at all.
    assert_eq!(lines.last(), plain.lines().last().as_ref());
    assert!(
        lines.len() > 2,
        "expected event lines before the result document, got {} lines",
        lines.len()
    );
    assert!(lines[0].contains("\"event\":\"job_submitted\""));
    assert!(streamed.contains("\"event\":\"job_done\""));

    // A 1-worker cache-less run streams the same event vocabulary.
    let serial = run(&["--workers", "1", "--no-cache", "--events", "-"]);
    assert!(serial.contains("\"event\":\"phase_finished\""));
    assert_eq!(serial.lines().last(), plain.lines().last());
}

#[test]
fn event_file_holds_the_stream() {
    let dir = std::env::temp_dir().join(format!("boole-ev-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let events_path = dir.join("events.ndjson");
    let output = boole()
        .args(["gen", "csa:2", "--params", "small"])
        .arg("--events")
        .arg(&events_path)
        .output()
        .expect("spawn boole");
    assert!(output.status.success());
    // File sinks leave stdout to the (pretty, multi-line) result alone.
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(!stdout.contains("\"event\""));

    let events = std::fs::read_to_string(&events_path).unwrap();
    let mut kinds = Vec::new();
    for line in events.lines() {
        let doc = boole::json::Json::parse(line).expect("strict NDJSON line");
        if let boole::json::Json::Obj(pairs) = &doc {
            if let Some((_, boole::json::Json::Str(kind))) =
                pairs.iter().find(|(k, _)| k == "event")
            {
                kinds.push(kind.clone());
            }
        }
    }
    assert_eq!(kinds.first().map(String::as_str), Some("job_submitted"));
    assert_eq!(kinds.last().map(String::as_str), Some("job_done"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_command_reads_an_aag_file() {
    let dir = std::env::temp_dir().join(format!("boole-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fa.aag");
    let mut netlist = aig::Aig::new();
    let ins = netlist.add_inputs(3);
    let (s, c) = aig::gen::full_adder(&mut netlist, ins[0], ins[1], ins[2]);
    netlist.add_output("s", s);
    netlist.add_output("c", c);
    std::fs::write(&path, aig::aiger::to_aag(&netlist)).unwrap();

    let output = boole()
        .arg("run")
        .arg(&path)
        .args(["--params", "small", "--compact"])
        .output()
        .expect("spawn boole");
    assert!(
        output.status.success(),
        "boole run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"status\":\"completed\""), "got: {stdout}");
    assert!(stdout.contains("\"exact_fa_count\":"), "got: {stdout}");
    assert!(!stdout.contains("\"exact_fa_count\":0"), "got: {stdout}");

    // batch over the same directory finds the file.
    let output = boole()
        .arg("batch")
        .arg(&dir)
        .args(["--params", "small", "--compact"])
        .output()
        .expect("spawn boole");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("fa.aag"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_order_aag_gives_the_result_of_its_ordered_twin() {
    let dir = std::env::temp_dir().join(format!("boole-cli-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = aig::gen::csa_multiplier(3);
    let ordered = aig::aiger::to_aag(&netlist);
    // Hoist to the front every AND line that reads the AND written just
    // before it: each hoisted gate now precedes its fanins, yet it
    // becomes buildable right after that previous gate and, listed
    // first, is built next — so both files rebuild the same AIG.
    let mut lines: Vec<&str> = ordered.lines().collect();
    let first_and = 1 + netlist.num_inputs() + netlist.num_outputs();
    let ands: Vec<&str> = lines[first_and..first_and + netlist.num_ands()].to_vec();
    let var = |line: &str, field: usize| -> u32 {
        line.split(' ').nth(field).unwrap().parse::<u32>().unwrap() & !1
    };
    let (hoisted, kept): (Vec<usize>, Vec<usize>) = (0..ands.len()).partition(|&k| {
        k > 0
            && [1, 2]
                .iter()
                .any(|&f| var(ands[k], f) == var(ands[k - 1], 0))
    });
    assert!(!hoisted.is_empty());
    let reordered = hoisted.iter().chain(&kept).map(|&k| ands[k]);
    lines.splice(first_and..first_and + ands.len(), reordered);
    std::fs::write(dir.join("ordered.aag"), &ordered).unwrap();
    std::fs::write(dir.join("shuffled.aag"), lines.join("\n") + "\n").unwrap();

    let result = |file: &str| {
        let output = boole()
            .arg("run")
            .arg(dir.join(file))
            .args(["--params", "small", "--no-timing", "--compact"])
            .output()
            .expect("spawn boole");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(output.status.success(), "{file}: {stdout}");
        let doc = boole::json::Json::parse(&stdout).expect("json");
        let job = &doc.field("jobs").and_then(|j| j.as_array()).expect("jobs")[0];
        job.field("result").expect("result").to_string()
    };
    assert_eq!(result("shuffled.aag"), result("ordered.aag"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_command_reads_blif_and_verilog_files() {
    let dir = std::env::temp_dir().join(format!("boole-cli-fmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut netlist = aig::Aig::new();
    let ins = netlist.add_inputs(3);
    let (s, c) = aig::gen::full_adder(&mut netlist, ins[0], ins[1], ins[2]);
    netlist.add_output("s", s);
    netlist.add_output("c", c);
    for file in ["fa.blif", "fa.v"] {
        let path = dir.join(file);
        aig::write_netlist(&path, &netlist).unwrap();
        let output = boole()
            .arg("run")
            .arg(&path)
            .args(["--params", "small", "--compact"])
            .output()
            .expect("spawn boole");
        assert!(
            output.status.success(),
            "boole run {file} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("\"status\":\"completed\""),
            "{file}: {stdout}"
        );
        assert!(!stdout.contains("\"exact_fa_count\":0"), "{file}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_mixes_formats_in_one_directory() {
    let dir = std::env::temp_dir().join(format!("boole-cli-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let circuit = aig::gen::csa_multiplier(3);
    // The same circuit under three formats — one nested a level down,
    // as benchmark suites do — plus one unrelated file the collector
    // must skip.
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    aig::write_netlist(dir.join("m1.aag"), &circuit).unwrap();
    aig::write_netlist(dir.join("m2.blif"), &circuit).unwrap();
    aig::write_netlist(dir.join("sub/m3.v"), &circuit).unwrap();
    std::fs::write(dir.join("notes.txt"), "not a netlist").unwrap();

    // One worker serializes the batch, so the two resubmissions of the
    // isomorphic circuit deterministically hit the first job's entry.
    let output = boole()
        .arg("batch")
        .arg(&dir)
        .args(["--params", "small", "--compact", "--workers", "1"])
        .output()
        .expect("spawn boole");
    assert!(
        output.status.success(),
        "mixed batch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in ["m1.aag", "m2.blif", "m3.v"] {
        assert!(stdout.contains(name), "missing {name} in: {stdout}");
    }
    assert!(!stdout.contains("notes.txt"));
    assert_eq!(stdout.matches("\"status\":\"completed\"").count(), 3);
    // Isomorphic circuits across formats: one miss, two hits.
    assert!(stdout.contains("\"hits\":2"), "cache stats in: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn batch_terminates_on_symlink_cycles_and_counts_each_circuit_once() {
    let dir = std::env::temp_dir().join(format!("boole-cli-cycle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let circuit = aig::gen::csa_multiplier(3);
    aig::write_netlist(dir.join("top.aag"), &circuit).unwrap();
    aig::write_netlist(dir.join("sub/nested.aag"), &circuit).unwrap();
    // Pre-fix, the cycle made `boole batch` walk forever and the alias
    // double-counted nested.aag.
    std::os::unix::fs::symlink("..", dir.join("sub/loop")).unwrap();
    std::os::unix::fs::symlink(dir.join("sub"), dir.join("alias")).unwrap();

    let output = boole()
        .arg("batch")
        .arg(&dir)
        .args(["--params", "small", "--compact"])
        .output()
        .expect("spawn boole");
    assert!(
        output.status.success(),
        "cyclic batch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        stdout.matches("\"status\":\"completed\"").count(),
        2,
        "each netlist exactly once: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_accepts_specs_interleaved_with_options() {
    // Regression: `boole gen csa:3 --workers 2 wallace:3` used to
    // reject `wallace:3` as an unknown option.
    let output = boole()
        .args(["gen", "csa:3", "--workers", "2", "wallace:3"])
        .args(["--params", "small", "--compact"])
        .output()
        .expect("spawn boole");
    assert!(
        output.status.success(),
        "interleaved gen failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.matches("\"status\":\"completed\"").count(), 2);
    assert!(stdout.contains("csa:3") && stdout.contains("wallace:3"));
}

#[test]
fn unparseable_netlists_exit_nonzero_with_json_error() {
    let dir = std::env::temp_dir().join(format!("boole-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Fixture names are deliberately neutral (bad1, bad2, …) so the
    // expected kind can only match inside the error message, never via
    // the file path echoed in the job label.
    let cases = [
        (
            "bad1.blif",
            ".model t\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n",
            "(latch)",
        ),
        (
            "bad2.v",
            "module m (a, y);\n input a;\n output y;\n and g (y, a, ghost);\nendmodule\n",
            "(undeclared)",
        ),
        ("bad3.blif", ".model t\n.inputs a\n", "(truncated)"),
    ];
    for (file, contents, kind) in cases {
        let path = dir.join(file);
        std::fs::write(&path, contents).unwrap();
        let output = boole()
            .args(["run"])
            .arg(&path)
            .args(["--compact"])
            .output()
            .expect("spawn boole");
        assert!(
            !output.status.success(),
            "{file}: failed parse must exit non-zero"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("\"status\":\"failed\""),
            "{file}: JSON must record the failure: {stdout}"
        );
        assert!(
            stdout.contains("\"error\":") && stdout.contains(kind),
            "{file}: JSON error must carry the typed kind {kind:?}: {stdout}"
        );
    }
    // Unknown extension: also a failed job, not a crash.
    let path = dir.join("x.vhdl");
    std::fs::write(&path, "whatever").unwrap();
    let output = boole()
        .args(["run"])
        .arg(&path)
        .args(["--compact"])
        .output()
        .expect("spawn boole");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("unknown-format"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_flag_cancels_without_crashing() {
    let output = boole()
        .args(["gen", "csa:8", "--deadline-ms", "1", "--compact"])
        .output()
        .expect("spawn boole");
    assert!(
        output.status.success(),
        "boole gen failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"status\":\"cancelled\""), "got: {stdout}");
}

#[test]
fn bad_usage_exits_nonzero() {
    for args in [
        &["frobnicate"][..],
        &["gen"][..],
        &["gen", "karatsuba:8"][..],
        &["run"][..],
    ] {
        let output = boole().args(args).output().expect("spawn boole");
        assert!(!output.status.success(), "args {args:?} should fail");
    }
}
