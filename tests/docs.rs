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
//! DESIGN.md's crate inventory (§3) is the workspace, each `crates/*`
//! directory named once; every `DESIGN.md §N` citation, and every bare
//! `§N` inside DESIGN.md that is not a `paper §N`, names a heading
//! DESIGN.md has. EXPERIMENTS.md, DESIGN.md and README.md stay under a
//! byte bound, so each stays a document a reader can hold at once.
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

/// The byte bounds of the three documents that grow with every PR.
const BOUNDS: &[(&str, usize)] = &[
    ("EXPERIMENTS.md", 30 * 1024),
    ("DESIGN.md", 45 * 1024),
    ("README.md", 24 * 1024),
];

#[test]
fn experiments_and_design_stay_under_their_bounds() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for &(doc, bound) in BOUNDS {
        let len = fs::metadata(root.join(doc)).expect("the doc exists").len() as usize;
        assert!(
            len <= bound,
            "{doc} is {len} bytes, over its {bound}-byte bound: it holds current results, \
             the current layout or pointers to them only; a PR's pairs table and its \
             narrative go in CHANGES.md, a measured negative result is one line of \
             EXPERIMENTS.md's \"Ruled out\""
        );
    }
}

/// The section numbers of DESIGN.md's numbered headings: `## 3. Title`
/// is `3`, `### 10.2 Title` is `10.2`.
fn design_sections(text: &str) -> Vec<String> {
    text.lines()
        .filter(|line| line.starts_with("## ") || line.starts_with("### "))
        .filter_map(|line| {
            let number = line.trim_start_matches('#').split_whitespace().next()?;
            let number = number.trim_end_matches('.');
            number
                .chars()
                .all(|c| c.is_ascii_digit() || c == '.')
                .then(|| number.to_string())
        })
        .collect()
}

/// The section numbers `text` cites as `§N` or `§N.M`; with `own`
/// (DESIGN.md reading itself) every `§` not preceded by `paper `,
/// otherwise only those a `DESIGN` or `DESIGN.md` (a Markdown link
/// included) comes right before.
fn cited_sections(text: &str, own: bool) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices('§') {
        let before = text[..at].trim_end_matches(|c: char| "`]) ".contains(c));
        let cites = if own {
            !before.ends_with("paper")
        } else {
            before.ends_with("DESIGN") || before.ends_with("DESIGN.md")
        };
        let rest = &text[at + '§'.len_utf8()..];
        let number = rest
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .next()
            .unwrap_or_default()
            .trim_end_matches('.');
        if cites && !number.is_empty() {
            out.push(number.to_string());
        }
    }
    out
}

#[test]
fn cited_sections_are_read_after_design_only() {
    // `\u{a7}` is the section sign, escaped so this file cites nothing.
    let text = "DESIGN.md \u{a7}5, DESIGN \u{a7}10.4. [`DESIGN.md`](DESIGN.md) \u{a7}2 \
                and \u{a7}7; paper \u{a7}3.2.2";
    assert_eq!(cited_sections(text, false), ["5", "10.4", "2"]);
    assert_eq!(cited_sections(text, true), ["5", "10.4", "2", "7"]);
    assert_eq!(
        design_sections("# T\n## 2. A\n### 2.1 B\n## Notes\n#### 9 c\n"),
        ["2", "2.1"]
    );
}

/// Every `DESIGN.md §N` in the repository's `.rs`, `.md` and `.yml`
/// files names a numbered heading of DESIGN.md, so renumbering a
/// section cannot leave a pointer behind. CHANGES.md and ROADMAP.md
/// are history and exempt.
#[test]
fn every_design_section_citation_resolves() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("the doc exists");
    let sections = design_sections(&design);
    assert!(sections.len() > 10, "{sections:?}");
    let mut tree = Vec::new();
    files(&root, &root, &mut tree);
    let mut dangling = Vec::new();
    let mut cited = 0;
    for file in tree {
        let exempt = ["CHANGES.md", "ROADMAP.md"].contains(&file.as_str());
        if exempt || ![".rs", ".md", ".yml"].iter().any(|ext| file.ends_with(ext)) {
            continue;
        }
        let Ok(text) = fs::read_to_string(root.join(&file)) else {
            continue;
        };
        for number in cited_sections(&text, file == "DESIGN.md") {
            cited += 1;
            if !sections.contains(&number) {
                dangling.push(format!("{file}: §{number}"));
            }
        }
    }
    assert!(cited > 10, "the scan found only {cited} citations");
    assert!(
        dangling.is_empty(),
        "DESIGN.md has no such section:\n{}",
        dangling.join("\n")
    );
}

/// DESIGN.md §3 is the workspace: every `crates/*` directory is named
/// there exactly once, as `` `crates/<name>` ``, and no other crate is.
#[test]
fn the_design_inventory_is_the_workspace() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("the doc exists");
    let start = design
        .find("\n## 3. ")
        .expect("DESIGN.md has a §3 inventory");
    let section = &design[start + 1..];
    let section = &section[..section[1..]
        .find("\n## ")
        .map_or(section.len(), |end| end + 1)];
    let mut named: Vec<&str> = section
        .split("`crates/")
        .skip(1)
        .filter_map(|rest| rest.split('`').next())
        .filter(|name| !name.is_empty() && !name.contains('/'))
        .collect();
    named.sort_unstable();
    let mut crates: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/ reads")
        .flatten()
        .filter(|entry| entry.path().is_dir())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort_unstable();
    assert_eq!(
        named, crates,
        "DESIGN.md §3 must name each `crates/*` directory once"
    );
}
