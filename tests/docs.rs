//! The documents cite real files: every backticked repository path in
//! the user-facing docs resolves, so a rename or a deletion that leaves a
//! sentence behind fails here instead of misleading a reader.
//!
//! A cited path is an inline code span made only of path characters and
//! ending in `.rs`, `.json`, `.toml`, `.md`, `.sh` or `.yml`. It resolves
//! from the repository root, from the citing document's directory, or as
//! the trailing `/<path>` of a file in the repository (so `timing.rs`
//! and `mpi/src/timing.rs` both name `crates/mpi/src/timing.rs`).
//! CHANGES.md and ROADMAP.md are history and are not read.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "crates/check/README.md",
    ".claude/skills/verify/SKILL.md",
];

const EXTENSIONS: &[&str] = &[".rs", ".json", ".toml", ".md", ".sh", ".yml"];

/// Every file under `dir`, as a path relative to `root` with `/`
/// separators; build output and git metadata are skipped.
fn files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                files(root, &path, out);
            }
        } else if let Ok(rel) = path.strip_prefix(root) {
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The inline code spans of a Markdown text that look like file paths;
/// fenced code blocks are skipped.
fn cited_paths(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_.-/".contains(c);
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.chars().all(is_path_char))
        .filter(|span| {
            EXTENSIONS
                .iter()
                .any(|ext| span.ends_with(ext) && span != ext)
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn every_cited_path_resolves() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Vec::new();
    files(&root, &root, &mut tree);
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("the doc exists");
        let dir = root.join(Path::new(doc).parent().unwrap_or(Path::new("")));
        for path in cited_paths(&text) {
            let suffix = format!("/{path}");
            let resolves = root.join(&path).exists()
                || dir.join(&path).exists()
                || tree.iter().any(|file| file.ends_with(&suffix));
            if !resolves {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "cited paths that resolve nowhere:\n{}",
        missing.join("\n")
    );
}

#[test]
fn cited_paths_are_read_from_inline_code_only() {
    let text = "See `crates/a.rs` and `cargo test -p x`, `x.rs::f`, `.rs`,\n\
                ```bash\nls `not/this.rs`\n```\nand `README.md`.\n";
    assert_eq!(cited_paths(text), ["crates/a.rs", "README.md"]);
}
