//! Bench-artefact shape: every committed `BENCH_*.json` opens with the
//! `execution` block its bench writes through `hdc_bench::report` — the
//! worker count the measurement ran on, the host's available parallelism,
//! the repeats behind each spread and the smoke flag — so a committed
//! number can always be traced to the parallelism it was measured under.
//! The other checks read each report's host-independent rows line by line
//! (the printer puts one array element on each line).

use std::path::Path;

/// Extracts the raw JSON token following `"key":` (up to `,`, `}` or EOL).
fn raw_value(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)?;
    let rest = &text[at + needle.len()..];
    let token: String = rest
        .trim_start()
        .chars()
        .take_while(|c| !matches!(c, ',' | '}' | '\n'))
        .collect();
    Some(token.trim().to_owned())
}

/// The `{"median": .., "min": .., "max": ..}` object following `"key":`,
/// as `(median, min, max)`, with `min <= median <= max` checked.
fn spread(text: &str, key: &str) -> Option<(f64, f64, f64)> {
    let needle = format!("\"{key}\": {{");
    let at = text.find(&needle)?;
    let body = &text[at + needle.len() - 1..];
    let body = &body[..=body.find('}')?];
    let field = |k: &str| -> Option<f64> { raw_value(body, k)?.parse().ok() };
    let (median, min, max) = (field("median")?, field("min")?, field("max")?);
    assert!(
        min <= median && median <= max,
        "{key}: median {median} outside [{min}, {max}]"
    );
    Some((median, min, max))
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_bench_json_opens_with_its_execution_block() {
    let mut seen = 0;
    for entry in std::fs::read_dir(repo_root()).expect("read repo root") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(entry.path()).expect("read bench artefact");
        let block = text
            .strip_prefix("{\n  \"execution\": {")
            .and_then(|rest| rest.split_once('}'))
            .unwrap_or_else(|| panic!("{name}: must open with an \"execution\": {{..}} block"))
            .0;
        let count = |key: &str| -> u64 {
            let v = raw_value(block, key)
                .unwrap_or_else(|| panic!("{name}: execution block has no {key}"));
            v.parse()
                .unwrap_or_else(|_| panic!("{name}: execution {key} must be an integer, got {v}"))
        };
        assert!(count("threads") >= 1, "{name}: threads");
        assert!(
            count("available_parallelism") >= 1,
            "{name}: available_parallelism"
        );
        let repeats = count("repeats");
        assert!(repeats >= 5, "{name}: {repeats} repeats");
        assert_eq!(
            raw_value(block, "smoke").as_deref(),
            Some("false"),
            "{name}: a committed report is never a smoke run"
        );
    }
    assert!(seen >= 5, "only {seen} BENCH_*.json artefacts found");
}

#[test]
fn serve_bench_records_the_golden_serve_digests() {
    // BENCH_serve.json must report the very traces the serve golden manifest
    // pins, so a re-blessed digest cannot leave the committed bench stale.
    let golden = std::fs::read_to_string(repo_root().join("tests/golden/serve_digests.txt"))
        .expect("committed serve golden manifest");
    let bench = std::fs::read_to_string(repo_root().join("BENCH_serve.json"))
        .expect("committed BENCH_serve.json");
    let mut checked = 0;
    for row in golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let fields: Vec<&str> = row.split_whitespace().collect();
        let [name, digest, decided, shed, rejected] = fields[..] else {
            panic!("malformed serve golden row: {row}");
        };
        let line = bench
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap_or_else(|| panic!("BENCH_serve.json has no {name} workload"));
        let field = |key: &str| {
            raw_value(line, key)
                .unwrap_or_else(|| panic!("BENCH_serve.json {name}: no {key}"))
                .trim_matches('"')
                .to_owned()
        };
        let count = |key: &str| {
            field(key)
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("BENCH_serve.json {name}: {key} ({e})"))
        };
        assert_eq!(field("digest"), digest, "{name}: digest");
        assert_eq!(count("decided").to_string(), decided, "{name}: decided");
        assert_eq!(count("shed").to_string(), shed, "{name}: shed");
        assert_eq!(
            (count("rejected_budget") + count("rejected_queue")).to_string(),
            rejected,
            "{name}: rejected (budget + queue)"
        );
        checked += 1;
    }
    assert_eq!(checked, 3, "the three serve golden workloads");
}

#[test]
fn stream_bench_gate_counters_cover_every_frame() {
    // Host-independent shape of BENCH_stream.json: each mode's serve pass
    // decides every frame the metadata's workload offers, its gate
    // counters resolve every frame exactly once, reuse never adds full
    // runs, and strict gating never diverges from the ungated oracle.
    let bench = std::fs::read_to_string(repo_root().join("BENCH_stream.json"))
        .expect("committed BENCH_stream.json");
    let count = |line: &str, key: &str| {
        raw_value(line, key)
            .unwrap_or_else(|| panic!("BENCH_stream.json: no {key} in {line}"))
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("BENCH_stream.json: {key} ({e})"))
    };
    let frames_per_stream = count(&bench, "holds")
        * (count(&bench, "transition_frames")
            + count(&bench, "keyframes_per_hold") * count(&bench, "dups_per_keyframe"));
    let passes = count(&bench, "passes");
    assert!(passes >= 2, "reuse must carry across the cycle boundary");
    let offered = count(&bench, "streams") * passes * frames_per_stream;
    let mut modes = Vec::new();
    let mut full_runs = Vec::new();
    for line in bench.lines().filter(|l| l.contains("\"mode\":")) {
        let mode = raw_value(line, "mode").expect("mode name");
        // the spread across repeats, and the same-repeat ratio to `off`
        for key in ["aggregate_fps", "speedup_vs_off"] {
            spread(line, key)
                .unwrap_or_else(|| panic!("BENCH_stream.json {mode}: no {key} median/min/max"));
        }
        assert_eq!(
            count(line, "frames"),
            offered,
            "BENCH_stream.json {mode}: every offered frame is decided"
        );
        assert_eq!(
            count(line, "strict_hits") + count(line, "incremental_hits") + count(line, "full_runs"),
            count(line, "frames"),
            "BENCH_stream.json {mode}: gate counters must sum to the frame count"
        );
        let digest = raw_value(line, "digest").expect("serve digest");
        assert_eq!(
            digest.trim_matches('"').len(),
            16,
            "{mode}: digest {digest}"
        );
        full_runs.push(count(line, "full_runs"));
        modes.push(mode.trim_matches('"').to_owned());
    }
    assert_eq!(modes, ["off", "strict", "incremental"]);
    assert!(
        full_runs[2] <= full_runs[1] && full_runs[1] <= full_runs[0],
        "BENCH_stream.json: full runs off/strict/incremental {full_runs:?}"
    );
    let repeats = count(&bench, "repeats");
    assert!(repeats >= 3, "BENCH_stream.json: {repeats} repeats");
    let strict = bench
        .lines()
        .find(|l| l.trim_start().starts_with("\"strict\": {\"frames\""))
        .expect("BENCH_stream.json: strict divergence row");
    assert_eq!(
        count(strict, "divergent"),
        0,
        "strict gating must not diverge"
    );
}

#[test]
fn sessions_bench_splits_the_miss_path_by_stage() {
    // Every stage of a view-memo miss has a committed number: the two
    // halves of the mask path, and the static channel's four stages of
    // the read. Only their presence is checked, never a timing.
    let bench = std::fs::read_to_string(repo_root().join("BENCH_sessions.json"))
        .expect("committed BENCH_sessions.json");
    for key in [
        "render_mask_ns",
        "read_mask_ns",
        "label_ns",
        "contour_ns",
        "signature_ns",
        "sax_match_ns",
        "mask_miss_over_grey_miss",
        "read_mask_over_one_pass_read",
    ] {
        spread(&bench, key).unwrap_or_else(|| panic!("BENCH_sessions.json: no {key} spread"));
    }
}

#[test]
fn sessions_bench_counts_the_shared_reads() {
    // The miss-path split counts the memo misses a farm's shared table of
    // view reads serves, on one worker (where the count is deterministic),
    // split into scripted and stochastic humans.
    let bench = std::fs::read_to_string(repo_root().join("BENCH_sessions.json"))
        .expect("committed BENCH_sessions.json");
    let line = bench
        .lines()
        .find(|l| l.trim_start().starts_with("\"shared_hits\": {"))
        .expect("BENCH_sessions.json: no shared_hits row");
    let count = |key: &str| -> u64 {
        raw_value(line, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("BENCH_sessions.json shared_hits: no {key} count"))
    };
    assert_eq!(count("workers"), 1);
    assert!(
        count("scripted") + count("stochastic") >= 1,
        "the mixed farm's sessions share at least one view read"
    );
}

#[test]
fn sessions_bench_ladder_rungs_carry_their_spread() {
    // Each capacity-ladder rung is timed over repeats, so a farm change
    // is judged against the spread, not one wall time.
    let bench = std::fs::read_to_string(repo_root().join("BENCH_sessions.json"))
        .expect("committed BENCH_sessions.json");
    let rungs: Vec<&str> = bench
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"sessions\":"))
        .collect();
    assert!(!rungs.is_empty(), "BENCH_sessions.json: no ladder rungs");
    for rung in rungs {
        let sessions = raw_value(rung, "sessions").expect("rung size");
        for key in ["wall_ms", "sessions_per_s"] {
            spread(rung, key).unwrap_or_else(|| {
                panic!("BENCH_sessions.json rung {sessions}: no {key} median/min/max")
            });
        }
        let repeats: u32 = raw_value(rung, "repeats")
            .and_then(|r| r.parse().ok())
            .unwrap_or_else(|| panic!("BENCH_sessions.json rung {sessions}: no repeats"));
        assert!(
            repeats >= 5,
            "BENCH_sessions.json rung {sessions}: {repeats} repeats"
        );
    }
}

#[test]
fn sessions_bench_idle_mission_carries_its_spread() {
    // Each scheduler mode of the idle mission is timed over repeats, so a
    // scheduler change is judged against the spread, not one wall time.
    let bench = std::fs::read_to_string(repo_root().join("BENCH_sessions.json"))
        .expect("committed BENCH_sessions.json");
    for mode in ["lockstep", "event_driven"] {
        let line = bench
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("\"{mode}\": {{")))
            .unwrap_or_else(|| panic!("BENCH_sessions.json: no idle-mission {mode} row"));
        spread(line, "wall_ms")
            .unwrap_or_else(|| panic!("BENCH_sessions.json {mode}: no wall_ms median/min/max"));
        let repeats: u32 = raw_value(line, "repeats")
            .and_then(|r| r.parse().ok())
            .unwrap_or_else(|| panic!("BENCH_sessions.json {mode}: no repeats"));
        assert!(
            repeats >= 5,
            "BENCH_sessions.json {mode}: {repeats} repeats"
        );
    }
}

#[test]
fn recognize_bench_rows_carry_their_spread() {
    // The resolution sweep, Figure 4 and every kernel row are timed over
    // repeats; each speed-up or ratio is taken within one repeat.
    let bench = std::fs::read_to_string(repo_root().join("BENCH_recognize.json"))
        .expect("committed BENCH_recognize.json");
    let repeats: u32 = raw_value(&bench, "repeats")
        .and_then(|r| r.parse().ok())
        .expect("BENCH_recognize.json: no repeats");
    assert!(repeats >= 5, "BENCH_recognize.json: {repeats} repeats");
    let resolutions: Vec<&str> = bench.split("\"width\":").skip(1).collect();
    assert_eq!(
        resolutions.len(),
        3,
        "BENCH_recognize.json: three resolutions"
    );
    for block in resolutions {
        let width = raw_value(&format!("\"width\":{block}"), "width").expect("width");
        for key in [
            "seed_ms_per_frame",
            "hybrid_ms_per_frame",
            "hybrid_fps",
            "speedup_hybrid",
        ] {
            spread(block, key).unwrap_or_else(|| {
                panic!("BENCH_recognize.json width {width}: no {key} median/min/max")
            });
        }
    }
    // Figure 4's timing half: both azimuths and their same-repeat ratio
    for key in [
        "azimuth_0_ns_per_frame",
        "azimuth_65_ns_per_frame",
        "ratio_65_over_0",
    ] {
        spread(&bench, key)
            .unwrap_or_else(|| panic!("BENCH_recognize.json fig4: no {key} median/min/max"));
    }
    let kernels: Vec<&str> = bench
        .lines()
        .filter(|l| l.contains("\"kernel\":"))
        .collect();
    assert!(!kernels.is_empty(), "BENCH_recognize.json: no kernel rows");
    for line in kernels {
        let kernel = raw_value(line, "kernel").expect("kernel name");
        for key in ["byte_ns_per_frame", "packed_ns_per_frame", "speedup"] {
            spread(line, key).unwrap_or_else(|| {
                panic!("BENCH_recognize.json kernel {kernel}: no {key} median/min/max")
            });
        }
    }
}

#[test]
fn link_bench_transfers_carry_their_spread() {
    // Each transfer is timed over repeats that must put the same frames on
    // the wire, so a link change is judged against the throughput spread.
    let bench = std::fs::read_to_string(repo_root().join("BENCH_link.json"))
        .expect("committed BENCH_link.json");
    let repeats: u32 = raw_value(&bench, "repeats")
        .and_then(|r| r.parse().ok())
        .expect("BENCH_link.json: no repeats");
    assert!(repeats >= 5, "BENCH_link.json: {repeats} repeats");
    let rows: Vec<&str> = bench
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"label\":"))
        .collect();
    assert_eq!(rows.len(), 3, "BENCH_link.json: clean, drop-5 and drop-20");
    for row in rows {
        let label = raw_value(row, "label").expect("transfer label");
        spread(row, "throughput_payloads_per_s").unwrap_or_else(|| {
            panic!("BENCH_link.json {label}: no throughput_payloads_per_s median/min/max")
        });
        let count = |key: &str| -> u64 {
            raw_value(row, key)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("BENCH_link.json {label}: no {key}"))
        };
        assert_eq!(
            count("frames_on_wire"),
            count("payloads") + count("retransmits") + count("acks") + count("heartbeats"),
            "BENCH_link.json {label}: frames on the wire are payloads, retransmits, acks and heartbeats"
        );
    }
}
