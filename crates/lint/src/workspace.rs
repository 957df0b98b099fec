//! Workspace discovery and file classification.
//!
//! The linter walks the workspace the same way the rules reason about it:
//! every `.rs` file gets a [`FileContext`] naming its crate and its role
//! (library, test, bench, example), which each rule's `applies` gate consults.
//! Lint fixture files (`**/tests/fixtures/**`) are excluded — they contain
//! seeded violations by design.

use std::path::{Path, PathBuf};

/// The role a file plays in its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library or binary source under `src/` — the code that ships.
    Lib,
    /// Integration tests under `tests/`.
    Test,
    /// Benchmarks under `benches/`.
    Bench,
    /// Examples under `examples/`.
    Example,
}

/// Where a file lives: its crate, role, and whether it is a vendored shim.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name (`core`, `codec`, `serve`, ..., `hmd` for the
    /// facade at the workspace root).
    pub crate_name: String,
    /// The file's role within the crate.
    pub kind: FileKind,
    /// True for the vendored dependency shims under `shims/`.
    pub is_shim: bool,
}

impl FileContext {
    /// A context for ad-hoc single-file runs and tests.
    pub fn new(crate_name: &str, kind: FileKind, is_shim: bool) -> FileContext {
        FileContext {
            crate_name: crate_name.to_string(),
            kind,
            is_shim,
        }
    }
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collects every workspace `.rs` file with its classification,
/// sorted by relative path for deterministic output.
pub fn discover(root: &Path) -> std::io::Result<Vec<(PathBuf, String, FileContext)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(files)
}

fn walk(
    root: &Path,
    dir: &Path,
    files: &mut Vec<(PathBuf, String, FileContext)>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            // target/ holds build artifacts, .git history, fixtures seeded
            // violations; none of them are workspace source.
            if name == "target" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Some(ctx) = classify(&rel) {
                files.push((path, rel, ctx));
            }
        }
    }
    Ok(())
}

/// Maps a workspace-relative path to its [`FileContext`].
///
/// Returns `None` for files the linter has no business reading (nothing in
/// the current layout, but future generated code can be excluded here).
pub fn classify(rel: &str) -> Option<FileContext> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, is_shim, rest) = match parts.as_slice() {
        ["crates", krate, rest @ ..] => ((*krate).to_string(), false, rest),
        ["shims", shim, rest @ ..] => ((*shim).to_string(), true, rest),
        // Workspace root: the facade crate plus its tests/examples.
        rest => ("hmd".to_string(), false, rest),
    };
    let kind = match rest.first().copied() {
        Some("src") => FileKind::Lib,
        Some("tests") => FileKind::Test,
        Some("benches") => FileKind::Bench,
        Some("examples") => FileKind::Example,
        // build.rs and other root-level files count as library code.
        Some(_) | None => FileKind::Lib,
    };
    Some(FileContext {
        crate_name,
        kind,
        is_shim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        let c = classify("crates/serve/src/fleet.rs").unwrap();
        assert_eq!(c.crate_name, "serve");
        assert_eq!(c.kind, FileKind::Lib);
        assert!(!c.is_shim);

        let c = classify("shims/rayon/src/lib.rs").unwrap();
        assert_eq!(c.crate_name, "rayon");
        assert!(c.is_shim);

        let c = classify("crates/ml/tests/flat_equivalence.rs").unwrap();
        assert_eq!(c.kind, FileKind::Test);

        let c = classify("src/lib.rs").unwrap();
        assert_eq!(c.crate_name, "hmd");
        assert_eq!(c.kind, FileKind::Lib);

        let c = classify("examples/quickstart.rs").unwrap();
        assert_eq!(c.kind, FileKind::Example);

        let c = classify("crates/bench/benches/robustness.rs").unwrap();
        assert_eq!(c.kind, FileKind::Bench);
    }

    #[test]
    fn classification_covers_the_corpus_module_layout() {
        // The corpus generators grew streaming modules and integration
        // suites; the classifier must keep their lib code in scope for the
        // no-panic rule while leaving the tests free to assert.
        let c = classify("crates/dvfs/src/stream.rs").unwrap();
        assert_eq!(c.crate_name, "dvfs");
        assert_eq!(c.kind, FileKind::Lib);
        assert!(!c.is_shim);

        let c = classify("crates/hpc/src/stream.rs").unwrap();
        assert_eq!(c.crate_name, "hpc");
        assert_eq!(c.kind, FileKind::Lib);

        let c = classify("crates/threat/src/evasion.rs").unwrap();
        assert_eq!(c.crate_name, "threat");
        assert_eq!(c.kind, FileKind::Lib);

        let c = classify("crates/dvfs/tests/stream.rs").unwrap();
        assert_eq!(c.crate_name, "dvfs");
        assert_eq!(c.kind, FileKind::Test);

        let c = classify("crates/hpc/tests/stream.rs").unwrap();
        assert_eq!(c.kind, FileKind::Test);

        let c = classify("crates/loop/tests/adversarial_loop.rs").unwrap();
        assert_eq!(c.crate_name, "loop");
        assert_eq!(c.kind, FileKind::Test);
    }

    #[test]
    fn the_workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/lint").is_dir());
    }
}
