//! Rows of the committed `BENCH_<name>.json` files at the repo root.
//!
//! A row is one verdict: two command lines (two binaries, or two sets of
//! flags) run `n` times each in alternating pairs, the first arm first in
//! odd pairs and second in even ones, every run's wall time, and the
//! verdict against a stated bar. Both arms must print the same stdout,
//! so a row holds one FNV-1a digest; a comparison whose runs printed two
//! cannot be made into a row. `examples/pairs.rs` runs the pairs and
//! appends the row; tier-1 parses every committed file with [`parse`].
//!
//! Each run's peak resident set rides beside its wall time where the
//! host reports it (`maxrss_mb`; rows written before it was recorded
//! have none). It is reported, not judged.
//!
//! The verdict is a function of the walls, so [`parse`] recomputes it:
//! the second arm is `faster` when it wins at least nine pairs in ten,
//! its median is below the first arm's by more than the bar (a fraction
//! of the first arm's median) and by more than the first arm's
//! interquartile range; `slower` is the mirror image, and anything else
//! is `level`.

use serde::{Serialize, Value};
use std::path::Path;

/// One arm of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Arm {
    /// The commit the arm's binary was built from.
    pub commit: String,
    /// The command line, as given.
    pub command: String,
    /// Wall seconds of each run, pair by pair.
    pub wall_s: Vec<f64>,
    /// Peak resident MB of each run, pair by pair; empty where it was
    /// not recorded, and then left out of the JSON.
    pub maxrss_mb: Vec<f64>,
}

impl Serialize for Arm {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("commit".to_string(), self.commit.to_value()),
            ("command".to_string(), self.command.to_value()),
            ("wall_s".to_string(), self.wall_s.to_value()),
        ];
        if !self.maxrss_mb.is_empty() {
            fields.push(("maxrss_mb".to_string(), self.maxrss_mb.to_value()));
        }
        Value::Map(fields)
    }
}

/// One comparison, as it is stored.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Row {
    /// When the last run ended, UTC, `YYYY-MM-DDTHH:MM:SSZ`.
    pub date: String,
    /// Logical CPUs of the host.
    pub nproc: u64,
    /// The host's CPU model.
    pub cpu: String,
    /// Pairs run.
    pub n: u64,
    /// The baseline arm.
    pub a: Arm,
    /// The arm being judged against it.
    pub b: Arm,
    /// FNV-1a (64-bit) of the stdout every run printed, in hex.
    pub stdout_fnv1a: String,
    /// The smallest median gain, as a fraction of `a`'s median, that
    /// counts as a difference.
    pub bar: f64,
    /// `faster`, `slower` or `level`: `b` against `a`.
    pub verdict: String,
}

/// The host a comparison ran on and when it ended.
#[derive(Clone, Debug)]
pub struct Host {
    pub date: String,
    pub nproc: u64,
    pub cpu: String,
}

/// One run of a command: its wall time, its peak resident MB where the
/// host reports it, and the digest of its stdout.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub wall_s: f64,
    pub maxrss_mb: Option<f64>,
    pub stdout_fnv1a: u64,
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `q`-quantile of `xs`, which must not be empty, by linear
/// interpolation between order statistics (the median is `q = 0.5`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Pairs `b` won: runs of `b` faster than the run of `a` they pair with.
pub fn wins(a: &[f64], b: &[f64]) -> usize {
    a.iter().zip(b).filter(|(a, b)| b < a).count()
}

/// The verdict on `b` against `a` at `bar` (module docs).
pub fn verdict(a: &[f64], b: &[f64], bar: f64) -> &'static str {
    let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
    let iqr = quantile(a, 0.75) - quantile(a, 0.25);
    let need = (a.len() * 9).div_ceil(10);
    if wins(a, b) >= need && mb < ma * (1.0 - bar) && ma - mb > iqr {
        "faster"
    } else if wins(b, a) >= need && mb > ma * (1.0 + bar) && mb - ma > iqr {
        "slower"
    } else {
        "level"
    }
}

impl Row {
    /// The row for runs `a` and `b` of the two arms, pair by pair.
    /// Refuses runs that printed different stdout, and a count of runs
    /// that is not the same, non-zero number per arm.
    pub fn new(
        host: Host,
        (a_commit, a_command): (&str, &str),
        (b_commit, b_command): (&str, &str),
        a: &[Run],
        b: &[Run],
        bar: f64,
    ) -> Result<Row, String> {
        if a.is_empty() || a.len() != b.len() {
            return Err(format!("{} runs against {}", a.len(), b.len()));
        }
        let digest = a[0].stdout_fnv1a;
        if let Some(run) = a.iter().chain(b).find(|r| r.stdout_fnv1a != digest) {
            return Err(format!(
                "stdout differs: {:016x} against {digest:016x}",
                run.stdout_fnv1a
            ));
        }
        let walls = |runs: &[Run]| runs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
        let (a_wall, b_wall) = (walls(a), walls(b));
        // Recorded for both arms or for neither.
        let peaks = a
            .iter()
            .chain(b)
            .map(|r| r.maxrss_mb)
            .collect::<Option<Vec<_>>>();
        let (a_rss, b_rss) = match peaks {
            Some(mut peaks) => {
                let b_rss = peaks.split_off(a.len());
                (peaks, b_rss)
            }
            None => (Vec::new(), Vec::new()),
        };
        Ok(Row {
            date: host.date,
            nproc: host.nproc,
            cpu: host.cpu,
            n: a.len() as u64,
            verdict: verdict(&a_wall, &b_wall, bar).to_string(),
            a: Arm {
                commit: a_commit.to_string(),
                command: a_command.to_string(),
                wall_s: a_wall,
                maxrss_mb: a_rss,
            },
            b: Arm {
                commit: b_commit.to_string(),
                command: b_command.to_string(),
                wall_s: b_wall,
                maxrss_mb: b_rss,
            },
            stdout_fnv1a: format!("{digest:016x}"),
            bar,
        })
    }

    /// The pairs as a Markdown table, then one line of medians,
    /// quartiles, wins and the verdict.
    pub fn table(&self) -> String {
        let (a, b) = (&self.a.wall_s, &self.b.wall_s);
        let mut out =
            String::from("| pair | first | a s | b s | b/a |\n|---:|:---:|---:|---:|---:|\n");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let first = if i % 2 == 0 { "a" } else { "b" };
            out += &format!("| {} | {first} | {x:.3} | {y:.3} | {:.3} |\n", i + 1, y / x);
        }
        let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| y / x).collect();
        let summary = |xs: &[f64]| {
            format!(
                "{:.3} (q1 {:.3}, q3 {:.3})",
                quantile(xs, 0.5),
                quantile(xs, 0.25),
                quantile(xs, 0.75)
            )
        };
        out += &format!(
            "a median {} s; b median {} s; b/a median {}; b faster in {} of {} pairs; \
             verdict at a {:.0} % bar: {}\n",
            summary(a),
            summary(b),
            summary(&ratios),
            wins(a, b),
            a.len(),
            self.bar * 100.0,
            self.verdict
        );
        let (a, b) = (&self.a.maxrss_mb, &self.b.maxrss_mb);
        if !a.is_empty() {
            out += &format!(
                "peak RSS: a median {:.1} MB; b median {:.1} MB\n",
                quantile(a, 0.5),
                quantile(b, 0.5)
            );
        }
        out
    }
}

/// Parses a `BENCH_*.json` file: an array of rows, each with every
/// field of [`Row`] and nothing else, one digest, `n` walls per arm and
/// the verdict its walls give.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let rows = doc.as_seq().ok_or("not an array of rows")?;
    if rows.is_empty() {
        return Err("no rows".into());
    }
    rows.iter()
        .enumerate()
        .map(|(i, v)| row(v).map_err(|e| format!("row {i}: {e}")))
        .collect()
}

fn keys(v: &Value, want: &[&str]) -> Result<(), String> {
    let Value::Map(entries) = v else {
        return Err("not an object".into());
    };
    let have: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    if have != want {
        return Err(format!("keys {have:?}, want {want:?}"));
    }
    Ok(())
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key).and_then(Value::as_str) {
        Some(s) if !s.is_empty() => Ok(s.to_string()),
        _ => Err(format!("{key}: not a non-empty string")),
    }
}

fn count(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key).and_then(Value::as_u64) {
        Some(n) if n > 0 => Ok(n),
        _ => Err(format!("{key}: not a positive integer")),
    }
}

/// `n` positive numbers under `key`.
fn positives(v: &Value, key: &str, n: u64) -> Result<Vec<f64>, String> {
    let xs = v
        .get(key)
        .and_then(Value::as_seq)
        .ok_or(format!("{key}: not an array"))?;
    let xs = xs
        .iter()
        .map(|x| x.as_f64().filter(|x| x.is_finite() && *x > 0.0))
        .collect::<Option<Vec<f64>>>()
        .ok_or(format!("{key}: not all positive"))?;
    if xs.len() as u64 != n {
        return Err(format!("{} {key} for n = {n}", xs.len()));
    }
    Ok(xs)
}

fn arm(v: &Value, n: u64) -> Result<Arm, String> {
    // A row written before peaks were recorded has no `maxrss_mb`.
    let recorded = v.get("maxrss_mb").is_some();
    keys(
        v,
        &["commit", "command", "wall_s", "maxrss_mb"][..3 + recorded as usize],
    )?;
    Ok(Arm {
        commit: text(v, "commit")?,
        command: text(v, "command")?,
        wall_s: positives(v, "wall_s", n)?,
        maxrss_mb: if recorded {
            positives(v, "maxrss_mb", n)?
        } else {
            Vec::new()
        },
    })
}

fn row(v: &Value) -> Result<Row, String> {
    keys(
        v,
        &[
            "date",
            "nproc",
            "cpu",
            "n",
            "a",
            "b",
            "stdout_fnv1a",
            "bar",
            "verdict",
        ],
    )?;
    let date = text(v, "date")?;
    let shape = date.len() == 20 && date.as_bytes()[10] == b'T' && date.ends_with('Z');
    if !shape {
        return Err(format!("date {date}: not YYYY-MM-DDTHH:MM:SSZ"));
    }
    let n = count(v, "n")?;
    let side = |key| {
        v.get(key)
            .map_or(Err(format!("{key}: missing")), |a| arm(a, n))
    };
    let (a, b) = (side("a")?, side("b")?);
    if a.maxrss_mb.is_empty() != b.maxrss_mb.is_empty() {
        return Err("maxrss_mb: recorded for one arm only".into());
    }
    let digest = text(v, "stdout_fnv1a")?;
    if digest.len() != 16 || !digest.bytes().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("stdout_fnv1a {digest}: not 16 hex digits"));
    }
    let bar = v.get("bar").and_then(Value::as_f64);
    let bar = bar
        .filter(|b| (0.0..1.0).contains(b))
        .ok_or("bar: not in [0, 1)")?;
    let stored = text(v, "verdict")?;
    let derived = verdict(&a.wall_s, &b.wall_s, bar);
    if stored != derived {
        return Err(format!("verdict {stored}, but the walls say {derived}"));
    }
    Ok(Row {
        date,
        nproc: count(v, "nproc")?,
        cpu: text(v, "cpu")?,
        n,
        a,
        b,
        stdout_fnv1a: digest,
        bar,
        verdict: stored,
    })
}

/// Appends `row` to the file at `path`, creating it with one row. The
/// existing rows and the new one must parse, or nothing is written.
pub fn append(path: &Path, row: &Row) -> Result<(), String> {
    let mut rows = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    rows.push(row.clone());
    let text = serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())? + "\n";
    parse(&text).map_err(|e| format!("the new row: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            date: "2026-01-01T00:00:00Z".into(),
            nproc: 2,
            cpu: "test".into(),
        }
    }

    fn runs(walls: &[f64], digest: u64) -> Vec<Run> {
        let run = |&wall_s| Run {
            wall_s,
            maxrss_mb: None,
            stdout_fnv1a: digest,
        };
        walls.iter().map(run).collect()
    }

    #[test]
    fn a_digest_mismatch_cannot_be_written() {
        let path = std::env::temp_dir().join(format!("bench-rows-{}.json", std::process::id()));
        let (a, mut b) = (runs(&[2.0, 2.1, 1.9], 7), runs(&[1.0, 1.1, 0.9], 7));
        b[1].stdout_fnv1a = 8;
        let refused = Row::new(host(), ("p", "x"), ("c", "x"), &a, &b, 0.1);
        assert!(refused.unwrap_err().contains("stdout differs"));
        assert!(!path.exists(), "nothing is written for a refused row");

        let row = Row::new(host(), ("p", "x"), ("c", "x"), &a, &runs(&[1.0; 3], 7), 0.1)
            .expect("one digest");
        append(&path, &row).unwrap();
        append(&path, &row).unwrap();
        let rows = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(rows, [row.clone(), row]);
    }

    #[test]
    fn the_verdict_needs_wins_the_bar_and_the_spread() {
        let a = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, 0.1), "faster");
        assert_eq!(verdict(&a, &faster, 0.25), "level", "under the bar");
        assert_eq!(verdict(&faster, &a, 0.1), "slower");
        let mut one_loss = faster.clone();
        (one_loss[0], one_loss[1]) = (10.5, 10.5);
        assert_eq!(verdict(&a, &one_loss, 0.1), "level", "8 wins of 10");
        assert_eq!(verdict(&a, &a, 0.0), "level");
    }

    #[test]
    fn peak_rss_rides_beside_the_walls_and_old_rows_still_parse() {
        let with_peak = |walls: &[f64], mb: f64| {
            let mut rs = runs(walls, 3);
            rs.iter_mut().for_each(|r| r.maxrss_mb = Some(mb));
            rs
        };
        let (a, b) = (with_peak(&[2.0, 2.2], 70.0), with_peak(&[2.1, 2.0], 50.0));
        let row = Row::new(host(), ("p", "x"), ("c", "x"), &a, &b, 0.1).unwrap();
        assert_eq!(row.a.maxrss_mb, [70.0; 2]);
        assert_eq!(row.b.maxrss_mb, [50.0; 2]);
        assert!(row
            .table()
            .contains("peak RSS: a median 70.0 MB; b median 50.0 MB"));
        let text = serde_json::to_string_pretty(&[&row]).unwrap();
        assert_eq!(parse(&text).unwrap(), std::slice::from_ref(&row));
        assert_eq!(row.verdict, "level", "the peak is not judged");

        // A row written before the peak was recorded has no such key, and
        // re-writes without one.
        let old = Row::new(
            host(),
            ("p", "x"),
            ("c", "x"),
            &runs(&[2.0, 2.2], 3),
            &runs(&[2.1, 2.0], 3),
            0.1,
        )
        .unwrap();
        let old_text = serde_json::to_string_pretty(&[&old]).unwrap();
        assert!(!old_text.contains("maxrss_mb"));
        assert_eq!(parse(&old_text).unwrap(), std::slice::from_ref(&old));
        assert!(!old.table().contains("peak RSS"));

        // Peaks for one arm alone, a count that is not n, or a zero, do
        // not parse.
        let refused = |edit: &dyn Fn(&mut Row)| {
            let mut bad = row.clone();
            edit(&mut bad);
            parse(&serde_json::to_string_pretty(&[bad]).unwrap()).unwrap_err()
        };
        assert!(refused(&|r| r.a.maxrss_mb.clear()).contains("one arm only"));
        assert!(refused(&|r| r.a.maxrss_mb.push(70.0)).contains("maxrss_mb"));
        assert!(refused(&|r| r.b.maxrss_mb[1] = 0.0).contains("maxrss_mb"));
    }

    #[test]
    fn a_row_whose_verdict_disagrees_with_its_walls_does_not_parse() {
        let a = runs(&[2.0, 2.0], 1);
        let row = Row::new(
            host(),
            ("p", "x"),
            ("c", "y"),
            &a,
            &runs(&[1.0, 1.0], 1),
            0.1,
        )
        .unwrap();
        let text = serde_json::to_string_pretty(&[row]).unwrap();
        assert_eq!(parse(&text).unwrap()[0].verdict, "faster");
        let forged = text.replace("\"faster\"", "\"level\"");
        assert!(parse(&forged).unwrap_err().contains("the walls say faster"));
        assert!(parse("[]").is_err());
        assert!(parse(&text.replace("\"bar\"", "\"bars\"")).is_err());
    }
}
