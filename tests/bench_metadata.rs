//! Bench-artefact metadata shape: every pool-driven benchmark JSON must
//! record how it was threaded — an explicit, non-null `threads_flag` /
//! `threads_requested` plus `available_parallelism` — so a committed number
//! can always be traced to the parallelism it was measured under. New bench
//! JSONs that declare a thread key with a `null` value fail this check.

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

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The pool-driven bench artefacts: these MUST declare their threading.
/// (`BENCH_recognize.json` is exempt: it measures a single pipeline with no
/// work pool, so there is no thread count to record.)
const POOL_DRIVEN: [&str; 5] = [
    "BENCH_engine.json",
    "BENCH_link.json",
    "BENCH_serve.json",
    "BENCH_sessions.json",
    "BENCH_stream.json",
];

#[test]
fn pool_driven_bench_jsons_declare_explicit_threading() {
    for name in POOL_DRIVEN {
        let path = repo_root().join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: committed bench artefact must exist ({e})"));
        let flag =
            raw_value(&text, "threads_flag").or_else(|| raw_value(&text, "threads_requested"));
        let flag = flag.unwrap_or_else(|| {
            panic!("{name}: must declare threads_flag or threads_requested metadata")
        });
        assert_ne!(
            flag, "null",
            "{name}: thread metadata must be explicit, not null — regenerate with --threads N"
        );
        assert!(
            flag.parse::<u32>().is_ok(),
            "{name}: thread metadata must be an integer, got {flag}"
        );
        let avail = raw_value(&text, "available_parallelism")
            .unwrap_or_else(|| panic!("{name}: must record available_parallelism"));
        assert!(
            avail.parse::<u32>().is_ok(),
            "{name}: available_parallelism must be an integer, got {avail}"
        );
    }
}

#[test]
fn no_bench_json_carries_null_thread_metadata() {
    let mut seen = 0;
    for entry in std::fs::read_dir(repo_root()).expect("read repo root") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(entry.path()).expect("read bench artefact");
        for key in ["threads_flag", "threads_requested"] {
            if let Some(v) = raw_value(&text, key) {
                assert_ne!(
                    v, "null",
                    "{name}: {key} is null — regenerate with an explicit --threads N"
                );
            }
        }
    }
    assert!(seen >= 6, "only {seen} BENCH_*.json artefacts found");
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
