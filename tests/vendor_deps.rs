//! Every in-tree stand-in under `vendor/` is a root
//! `[workspace.dependencies]` path entry that some workspace member
//! declares, so a stand-in that loses its last user fails here. The
//! manifests are read as text: no TOML parser is needed.

use std::collections::BTreeSet;
use std::path::Path;

/// `(section header, key, value)` of every `key = value` line.
fn entries(manifest: &str) -> Vec<(&str, &str, &str)> {
    let mut header = "";
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(h) = line.strip_prefix('[') {
            header = h.trim_end_matches(']');
        } else if let Some((key, value)) = line.split_once('=').filter(|_| !line.starts_with('#')) {
            out.push((header, key.trim().trim_end_matches(".workspace"), value));
        }
    }
    out
}

#[test]
fn every_vendored_crate_is_a_workspace_dependency_with_a_user() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| std::fs::read_to_string(p).expect("manifest");
    let mut manifests = vec![read(&root.join("Cargo.toml"))];
    for member in std::fs::read_dir(root.join("crates")).expect("crates/") {
        manifests.push(read(&member.expect("member").path().join("Cargo.toml")));
    }
    let vendored: BTreeSet<(&str, &str)> = entries(&manifests[0])
        .into_iter()
        .filter(|(header, ..)| *header == "workspace.dependencies")
        .filter_map(|(_, key, value)| {
            let dir = value.split("path = \"vendor/").nth(1)?.split('"').next()?;
            Some((key, dir))
        })
        .collect();
    let dirs: BTreeSet<String> = std::fs::read_dir(root.join("vendor"))
        .expect("vendor/")
        .map(|e| e.expect("vendor entry").file_name().into_string().unwrap())
        .collect();
    let listed: BTreeSet<String> = vendored.iter().map(|(_, dir)| dir.to_string()).collect();
    assert_eq!(
        listed, dirs,
        "each vendor/* directory must be a root [workspace.dependencies] path entry"
    );
    let declared: BTreeSet<&str> = manifests
        .iter()
        .flat_map(|m| entries(m))
        .filter(|(header, ..)| header.ends_with("dependencies") && !header.starts_with("workspace"))
        .map(|(_, key, _)| key)
        .collect();
    for (name, dir) in vendored {
        assert!(
            declared.contains(name),
            "vendor/{dir} ({name}) is declared by no workspace member: delete it"
        );
    }
}
