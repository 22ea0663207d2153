//! The documents cite real files: every backticked repository path in
//! the user-facing docs resolves, so a rename or a deletion that leaves a
//! sentence behind fails here instead of misleading a reader.
//!
//! A cited path is an inline code span made only of path characters and
//! ending in `.rs`, `.json`, `.toml`, `.md`, `.sh` or `.yml`. It resolves
//! from the repository root, from the citing document's directory, or as
//! the trailing `/<path>` of a file in the repository (so `timing.rs`
//! and `mpi/src/timing.rs` both name `crates/mpi/src/timing.rs`).
//!
//! They cite real flags too: every `--flag` of an inline `bsim <sub> …`
//! span in any of them is listed in `<sub>`'s entry of the usage `bsim`
//! prints, which a unit test in `src/bin/bsim.rs` holds to the flags the
//! parser accepts — so a retired flag (`bsim fig`'s sampled mode, say)
//! cannot stay cited as a live one.
//! CHANGES.md and ROADMAP.md are history and are not read.
//!
//! EXPERIMENTS.md's claim tables are the block `bsim score` prints, one
//! row per `PAPER_CLAIMS` entry in table order; CI's release job diffs
//! the whole block against a fresh `bsim score`.

use silicon_bridge::core::claims::{BLOCK, PAPER_CLAIMS};
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

/// The inline code spans of a Markdown text; fenced code blocks are
/// skipped.
fn code_spans(text: &str) -> Vec<String> {
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
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The inline code spans of a Markdown text that look like file paths.
fn cited_paths(text: &str) -> Vec<String> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_.-/".contains(c);
    code_spans(text)
        .into_iter()
        .filter(|span| span.chars().all(is_path_char))
        .filter(|span| {
            EXTENSIONS
                .iter()
                .any(|ext| span.ends_with(ext) && span != ext)
        })
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

/// The `--flag` words of `text`, in order.
fn flags(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("--") {
        let word = &rest[at..];
        let end = 2 + word[2..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(word.len() - 2);
        if end > 2 {
            out.push(&word[..end]);
        }
        rest = &word[end..];
    }
    out
}

/// What `bsim` prints for a bad invocation, as `(subcommand, entry)`:
/// an entry is a `bsim <sub>` line and the indented lines continuing it.
fn usage_entries() -> Vec<(String, String)> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bsim"))
        .output()
        .expect("bsim runs");
    let usage = String::from_utf8(out.stderr).expect("usage is UTF-8");
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in usage.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("bsim ") {
            let sub = rest.split_whitespace().next().unwrap_or_default();
            entries.push((sub.to_string(), line.to_string()));
        } else if let Some((_, entry)) = entries.last_mut() {
            entry.push_str(line);
        }
    }
    entries
}

/// Every `bsim <sub> … --flag` a document cites in inline code names a
/// flag `<sub>`'s usage entry lists.
#[test]
fn every_cited_flag_is_in_its_subcommands_usage() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let usage = usage_entries();
    assert!(usage.iter().any(|(sub, _)| sub == "fig"), "{usage:?}");
    let mut unknown = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("the doc exists");
        for span in code_spans(&text) {
            let Some(rest) = span.strip_prefix("bsim ") else {
                continue;
            };
            let sub = rest.split_whitespace().next().unwrap_or_default();
            let listed: Vec<&str> = usage
                .iter()
                .filter(|(name, _)| name == sub)
                .flat_map(|(_, entry)| flags(entry))
                .collect();
            for flag in flags(rest) {
                if !listed.contains(&flag) {
                    unknown.push(format!("{doc}: `{span}`: {flag}"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "cited flags the usage does not list:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn cited_flags_are_read_word_by_word() {
    assert_eq!(
        flags("fig 5 [--smoke|--paper] --store F --kill-rank R --"),
        ["--smoke", "--paper", "--store", "--kill-rank"]
    );
}

#[test]
fn cited_paths_are_read_from_inline_code_only() {
    let text = "See `crates/a.rs` and `cargo test -p x`, `x.rs::f`, `.rs`,\n\
                ```bash\nls `not/this.rs`\n```\nand `README.md`.\n";
    assert_eq!(cited_paths(text), ["crates/a.rs", "README.md"]);
}

#[test]
fn experiments_scores_every_paper_claim_once_in_table_order() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("the doc exists");
    let (begin, end) = BLOCK;
    let start = text
        .find(begin)
        .expect("EXPERIMENTS.md has the bsim score block");
    let stop = text[start..].find(end).expect("the block is closed") + start;
    let rows: Vec<&str> = text[start..stop]
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    let claims: Vec<&str> = PAPER_CLAIMS.iter().map(|c| c.id).collect();
    assert_eq!(rows, claims, "regenerate the block with `bsim score`");
}
