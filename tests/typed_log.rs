//! A recognised sign and every protocol fact in a session log are typed.
//!
//! Code that looks for a fact in a session log (a recognised sign, a
//! quorum acceptance, a detected wave-off) matches a `LogEntry` variant,
//! so a free-text `LogEntry::Note` is prose: written from a literal or a
//! `format!`, and read only to print it. And a pipeline label becomes a
//! `MarshallingSign` in one place, `ViewRead::of`. This scan reads the
//! non-test part of every source file under `crates/*/src` (each file up
//! to its first `#[cfg(test)]` line) and fails on code that binds a
//! note's text for anything but printing it, or that maps a label to a
//! sign anywhere else.
//!
//! The session core keeps no hidden state: `core_keeps_no_hidden_state`
//! fails on a `thread_local!`, a `static mut`, or a `static` cell, lock or
//! atomic anywhere under `crates/core/src` but the calibration cache, so
//! whatever a session's reads go through is an argument its caller passes.
//!
//! The same non-test sources give the line count that changes quote:
//! `cargo test -q --test typed_log non_test_line_count -- --nocapture`
//! prints it. They also hold every caller a `pub fn` needs: a function
//! that only tests call fails `every_pub_fn_has_a_non_test_caller`.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(path relative to the root, non-test source)` of every crate source.
fn non_test_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for member in std::fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&member.expect("member").path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "only {} sources found", files.len());
    non_test_parts(root, files)
}

/// `(path relative to the root, non-test source)` of each file: its text
/// up to its first `#[cfg(test)]` line.
fn non_test_parts(root: &Path, files: Vec<PathBuf>) -> Vec<(String, String)> {
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("source file");
            let code: String = text
                .lines()
                .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                .flat_map(|l| [l, "\n"])
                .collect();
            let name = path.strip_prefix(root).unwrap().display().to_string();
            (name, code)
        })
        .collect()
}

/// Whether the text after `LogEntry::Note(` writes a note or prints one:
/// a literal, a `format!`, a wildcard, or the binding `Display` prints.
fn writes_or_prints(after: &str) -> bool {
    let after = after.trim_start();
    if after.starts_with('"') || after.starts_with("format!(") || after.starts_with("_)") {
        return true;
    }
    let ident_end = after
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(after.len());
    after[ident_end..].starts_with(") => write!(f, ")
}

#[test]
fn no_code_reads_the_text_of_a_note() {
    let mut reads = Vec::new();
    for (name, code) in non_test_sources() {
        for (at, _) in code.match_indices("LogEntry::Note(") {
            if !writes_or_prints(&code[at + "LogEntry::Note(".len()..]) {
                let line = code[..at].lines().count();
                reads.push(format!("{name}:{line}"));
            }
        }
    }
    assert!(
        reads.is_empty(),
        "code reads a note's text; match a typed LogEntry variant instead: {reads:?}"
    );
}

#[test]
fn only_the_view_read_maps_a_label_to_a_sign() {
    let mut maps = Vec::new();
    for (name, code) in non_test_sources() {
        for (i, line) in code.lines().enumerate() {
            let defines = name.ends_with("figure/src/pose.rs");
            let reads = name.ends_with("core/src/view.rs") && line.contains("from_label(");
            if (line.contains("label() ==") || line.contains("from_label(")) && !defines && !reads {
                maps.push(format!("{name}:{}", i + 1));
            }
        }
    }
    assert!(
        maps.is_empty(),
        "a label becomes a sign only in ViewRead::of: {maps:?}"
    );
}

/// The one `static` under `crates/core/src` that may hold shared mutable
/// state: the process-wide cache of calibrated pipelines, a pure memo of
/// each view spec's calibration.
const CORE_STATICS_ALLOWED: [&str; 1] = ["CALIBRATED"];

/// Lines (1-based) of `text` that declare hidden mutable state: a
/// `thread_local!` block (reported once, at its first line), a
/// `static mut`, or a `static` whose type is a `Cell`, `RefCell`, `Mutex`,
/// `RwLock` or atomic, unless it is named in [`CORE_STATICS_ALLOWED`].
fn hidden_state_lines(text: &str) -> Vec<usize> {
    let braces = |code: &str| code.matches('{').count() as i64 - code.matches('}').count() as i64;
    let (mut found, mut depth) = (Vec::new(), 0);
    for (i, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or_default().trim();
        if depth > 0 {
            depth += braces(code);
            continue;
        }
        if code.contains("thread_local!") {
            found.push(i + 1);
            depth = braces(code);
            continue;
        }
        let declaration = code
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        let Some(rest) = declaration.strip_prefix("static ") else {
            continue;
        };
        if rest.starts_with("mut ") {
            found.push(i + 1);
            continue;
        }
        let Some((name, ty)) = rest.split_once(':') else {
            continue;
        };
        let outer = ty.split(['<', '=', ';']).next().unwrap_or_default().trim();
        let outer = outer.rsplit("::").next().unwrap_or_default();
        let mutable =
            ["Cell", "RefCell", "Mutex", "RwLock"].contains(&outer) || outer.starts_with("Atomic");
        if mutable && !CORE_STATICS_ALLOWED.contains(&name.trim()) {
            found.push(i + 1);
        }
    }
    found
}

#[test]
fn core_keeps_no_hidden_state() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    assert!(files.len() > 5, "only {} core sources found", files.len());
    let mut found = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("source file");
        let name = path.strip_prefix(root).unwrap().display().to_string();
        for line in hidden_state_lines(&text) {
            found.push(format!("{name}:{line}"));
        }
    }
    assert!(
        found.is_empty(),
        "hidden mutable state under crates/core/src; pass it as an argument \
         (a ViewWorker, a session field) instead: {found:?}"
    );
}

#[test]
fn the_hidden_state_scan_sees_each_form() {
    let text = "\
thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());
}
static LAST: AtomicU64 = AtomicU64::new(0);
pub(crate) static mut RAW: u32 = 0;
static TABLE: std::sync::Mutex<Vec<u8>> = Mutex::new(Vec::new());
pub static FLAG: Cell<bool> = Cell::new(false);
static CALIBRATED: Mutex<Vec<u8>> = Mutex::new(Vec::new());
static NAMES: [&str; 2] = [\"a\", \"b\"];
// static COMMENTED: Mutex<u8> in a comment, or thread_local! in prose
const LIMIT: usize = 4;
";
    assert_eq!(hidden_state_lines(text), [1, 4, 5, 6, 7]);
}

#[test]
fn non_test_line_count() {
    let sources = non_test_sources();
    let lines: usize = sources.iter().map(|(_, code)| code.lines().count()).sum();
    println!(
        "non-test lines under crates/*/src: {lines} in {} files",
        sources.len()
    );
}

/// `pub fn`s that only tests call, each with the reason it stays in the
/// library: an oracle or fixture the tests of more than one file share.
/// An entry that names no `pub fn` fails the scan, so the list cannot
/// outlive its oracles.
const TEST_ORACLES: [(&str, &str); 5] = [
    (
        "decode_pgm",
        "reads P5 bytes back into an image, so raster's round-trip tests pin the PGM format",
    ),
    (
        "fill_tapered_capsule",
        "draws capsule fixtures on a grey image for the raster, moments and vision tests; \
         raster's props check it against the per-pixel loop it replaced",
    ),
    (
        "frame_features",
        "the allocating reference the dynamic recogniser's scratch path must equal \
         (hdc-vision unit and property tests)",
    ),
    (
        "label_components_packed",
        "the full packed labelling that raster's unit tests and props check against the \
         byte labellings, and against which the lazy largest-component kernel's copy \
         decision is checked",
    ),
    (
        "smooth_moving_average",
        "circular smoothing that the timeseries unit and property tests pin and the \
         vision signature test uses to count a bar's two far ends",
    ),
];

/// Whether `text[at..at + len]` is a whole identifier.
fn is_word(text: &str, at: usize, len: usize) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    !text[..at].ends_with(ident) && !text[at + len..].starts_with(ident)
}

/// Whether `line` opens a `use` item (`use`, `pub use`, `pub(crate) use`).
fn opens_use(line: &str) -> bool {
    let item = line
        .strip_prefix("pub(crate) ")
        .or_else(|| line.strip_prefix("pub "))
        .unwrap_or(line);
    item.starts_with("use ")
}

/// The code of a non-test source: its lines minus comments and `use`
/// items (a re-export names a function, it does not call it), plus the
/// code of its doc examples (a compiled example is a documented caller),
/// each kept on its own line so line numbers still match the file.
fn callers_code(text: &str) -> String {
    let (mut in_example, mut in_use) = (false, false);
    let mut code = String::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        let doc = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"));
        match doc.map(str::trim_start) {
            Some(body) if body.starts_with("```") => in_example = !in_example,
            Some(body) if in_example && opens_use(body) => {}
            Some(body) if in_example => code.push_str(body),
            _ if trimmed.starts_with("//") => {}
            _ if in_use || opens_use(trimmed) => in_use = !trimmed.trim_end().ends_with(';'),
            _ => code.push_str(line),
        }
        code.push('\n');
    }
    code
}

#[test]
fn every_pub_fn_has_a_non_test_caller() {
    // Every crate source's non-test part, plus the other programs that
    // call the library: examples, the root crate and the benchmark.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs = Vec::new();
    for dir in ["examples", "crates/bench/examples", "src", "perfbench/src"] {
        rust_files(&root.join(dir), &mut programs);
    }
    let mut sources = non_test_sources();
    let defining = sources.len();
    sources.extend(non_test_parts(root, programs));
    let code: Vec<String> = sources.iter().map(|(_, text)| callers_code(text)).collect();

    let mut uncalled = Vec::new();
    let mut oracles_defined = Vec::new();
    for ((name, _), text) in sources[..defining].iter().zip(&code) {
        for (at, _) in text.match_indices("pub fn ") {
            let rest = &text[at + "pub fn ".len()..];
            let len = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let func = &rest[..len];
            if TEST_ORACLES.iter().any(|(oracle, _)| *oracle == func) {
                oracles_defined.push(func);
                continue;
            }
            if func.is_empty() {
                continue;
            }
            let called = code.iter().any(|text| {
                text.match_indices(func)
                    .any(|(i, _)| is_word(text, i, len) && !text[..i].ends_with("fn "))
            });
            if !called {
                let line = text[..at].lines().count() + 1;
                uncalled.push(format!("{name}:{line} {func}"));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "pub fns with no caller outside tests; delete them or move them into their tests: {uncalled:#?}"
    );
    let stale: Vec<&str> = TEST_ORACLES
        .iter()
        .map(|(oracle, _)| *oracle)
        .filter(|oracle| !oracles_defined.contains(oracle))
        .collect();
    assert!(
        stale.is_empty(),
        "TEST_ORACLES names no pub fn under crates/*/src; drop the entry: {stale:?}"
    );
}
