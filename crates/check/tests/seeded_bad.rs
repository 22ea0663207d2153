//! Acceptance tests: every seeded-bad artifact the issue names must be
//! flagged with its stable code, and both paper platform families must
//! pass the full preflight clean. Uses `bsim-soc` as a dev-dependency so
//! the checks run against the real Table 4/5 catalog, not mocks.

use bsim_check::audit::{scan_source, BANS};
use bsim_check::{analyze, GraphSpec, ModelSpec, Report, WireSpec};
use bsim_soc::configs;
use bsim_soc::preflight::preflight;

/// A two-model ring where one direction has latency 0: the combinational
/// path MG001 exists to reject. (With a latency, the same ring is the
/// stock ping-pong topology.)
fn ring(latency_back: u64) -> GraphSpec {
    let mut fwd = WireSpec::new(0, 0, 1, 0, 1);
    fwd.capacity = None;
    let back = WireSpec::new(1, 0, 0, 0, latency_back);
    GraphSpec {
        models: vec![ModelSpec::indexed(0, 1, 1), ModelSpec::indexed(1, 1, 1)],
        wires: vec![fwd, back],
    }
}

#[test]
fn zero_latency_cycle_is_mg001() {
    let report = analyze(&ring(0), 1);
    assert!(report.has_code("MG001"), "got:\n{}", report.render());
    assert!(report.has_errors());
    // The same ring with latency 1 everywhere is legal.
    assert!(analyze(&ring(1), 1).is_clean());
}

#[test]
fn tokenless_cycle_is_mg002() {
    let mut spec = ring(1);
    // Strip the reset tokens from both wires: each model now waits on
    // the other's first token forever — the classic simulation deadlock.
    for w in &mut spec.wires {
        w.reset_tokens = Some(0);
    }
    let report = analyze(&spec, 1);
    assert!(report.has_code("MG002"), "got:\n{}", report.render());
    assert!(report.has_errors());
}

#[test]
fn undersized_channel_capacity_is_mg005() {
    let mut spec = ring(1);
    // latency 1 + quantum 4 needs capacity >= 5; 3 deadlocks under a
    // batched schedule.
    spec.wires[0].capacity = Some(3);
    let report = analyze(&spec, 4);
    assert!(report.has_code("MG005"), "got:\n{}", report.render());
    assert!(report.has_errors());
    // An explicit capacity that meets the bound is clean.
    spec.wires[0].capacity = Some(5);
    assert!(analyze(&spec, 4).is_clean());
}

#[test]
fn non_power_of_two_cache_is_cl001() {
    let mut cfg = configs::rocket1(1);
    cfg.hierarchy.l1d.sets = 65;
    let report = preflight(&cfg);
    assert!(report.has_code("CL001"), "got:\n{}", report.render());
    assert!(report.has_errors());
}

#[test]
fn drifted_k1_preset_is_pf010() {
    let mut cfg = configs::banana_pi_hw(1);
    cfg.freq_ghz = 2.4; // the K1 clocks at 1.6 GHz (Table 5)
    cfg.hierarchy.core_freq_ghz = 2.4; // keep SC004 quiet: this is drift, not a typo
    let report = preflight(&cfg);
    assert!(report.has_code("PF010"), "got:\n{}", report.render());
    assert!(
        !report.has_errors(),
        "drift is a warning: the §4 tuning loop moves knobs on purpose"
    );
}

#[test]
fn drifted_sg2042_preset_is_pf011() {
    let mut cfg = configs::milkv_hw(1);
    cfg.hierarchy.l1d.ways /= 2; // halves the 64 KiB L1D (Table 5)
    let report = preflight(&cfg);
    assert!(report.has_code("PF011"), "got:\n{}", report.render());
    assert!(!report.has_errors());
}

#[test]
fn every_catalog_platform_passes_clean() {
    for cfg in [
        configs::rocket1(4),
        configs::rocket2(4),
        configs::banana_pi_sim(4),
        configs::fast_banana_pi_sim(4),
        configs::small_boom(4),
        configs::medium_boom(4),
        configs::large_boom(4),
        configs::milkv_sim(4),
        configs::banana_pi_hw(4),
        configs::milkv_hw(4),
    ] {
        let report = preflight(&cfg);
        assert!(
            report.is_clean(),
            "{} must preflight clean:\n{}",
            cfg.name,
            report.render()
        );
    }
}

/// Every AU007 row, seeded: each needle of each row of [`BANS`] is
/// planted in a file the row covers and must be reported with the row's
/// message — and must not be where the row says the text belongs: a
/// file it excepts, a file it does not cover, a comment, a waived line,
/// a `#[cfg(test)]` region unless the row reaches into those, or (for a
/// row about two things meeting) a line that holds only one of them.
#[test]
fn every_au007_row_flags_its_seeded_text() {
    let scan = |path: &str, text: &str| {
        let (mut report, mut waived) = (Report::new(), 0);
        scan_source(path, text, &mut report, &mut waived);
        (report, waived)
    };
    assert!(BANS.len() >= 12, "the table lost rows");
    for (row, ban) in BANS.iter().enumerate() {
        let path = match ban.within[0] {
            file if file.ends_with(".rs") => file.to_string(),
            dir => format!("{dir}seeded.rs"),
        };
        for needle in ban.needles {
            let at = format!("row {row} ({needle:?} in {path})");
            let line = format!("let _ = a{needle}b{});", ban.with);

            let (report, _) = scan(&path, &format!("fn f() {{\n    {line}\n}}\n"));
            let found: Vec<_> = report.with_code("AU007").collect();
            assert_eq!(found.len(), 1, "{at}:\n{}", report.render());
            assert!(found[0].message.ends_with(ban.message), "{at}");
            assert_eq!(found[0].span, format!("{path}:2"), "{at}");
            assert!(report.has_errors(), "{at}: AU007 is an error");

            let clean = |path: &str, text: String, why: &str| {
                let (report, waived) = scan(path, &text);
                assert!(
                    !report.has_code("AU007"),
                    "{at}, {why}:\n{}",
                    report.render()
                );
                waived
            };
            for home in ban.except {
                clean(home, format!("fn f() {{ {line} }}\n"), "where it belongs");
            }
            clean(
                "tests/seeded.rs",
                format!("fn f() {{ {line} }}\n"),
                "not covered",
            );
            clean(&path, format!("// {line}\nfn f() {{}}\n"), "a comment");
            let waived = clean(
                &path,
                format!("// bsim: allow(AU007) seeded\nfn f() {{ {line} }}\n"),
                "waived",
            );
            assert_eq!(waived, 1, "{at}");
            if !ban.with.is_empty() {
                clean(&path, format!("fn f() {{ a{needle}b); }}\n"), "half of it");
            }

            let in_test = format!("#[cfg(test)]\nmod tests {{\n    fn g() {{ {line} }}\n}}\n");
            let (report, _) = scan(&path, &in_test);
            assert_eq!(
                report.has_code("AU007"),
                ban.in_tests,
                "{at}, in a test region"
            );
        }
    }
}
