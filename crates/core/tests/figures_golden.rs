//! Pins the plotted series of every paper subfigure at `Sizes::smoke()`.
//!
//! The shape tests only check inequalities, so a drifted size mapping,
//! platform list or grid layout would pass them; this compares each
//! scalar, sequential figure point for point against
//! `figures_smoke.golden.json` (a `CkptStore` of `Vec<Series>` per
//! subfigure key). A deliberate model change regenerates the file with
//! `cargo test --release -p bsim-core --test figures_golden -- --ignored bless`
//! — and makes every stored result stale, so `key.rs`'s
//! `the_code_version_is_bumped_with_the_golden` then fails until
//! `CODE_VERSION` is bumped with it.

use bsim_core::experiments::{figure, Parallelism, Series, Sizes, FIGURES};
use bsim_core::CkptStore;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/figures_smoke.golden.json")
}

fn series(key: &str) -> Vec<Series> {
    figure(key)
        .run(Sizes::smoke(), Parallelism::Sequential)
        .series
}

fn assert_matches_golden(keys: &[&str]) {
    let golden = CkptStore::load(&golden_path()).expect("golden file loads");
    for key in keys {
        let want: Vec<Series> = golden
            .get(key)
            .expect("golden entry is well-formed")
            .unwrap_or_else(|| panic!("{key} missing from the golden file"));
        assert_eq!(series(key), want, "{key} drifted from the golden series");
    }
}

#[test]
fn npb_and_app_subfigures_reproduce_the_golden_series() {
    assert_matches_golden(&[
        "fig3a", "fig3b", "fig4a", "fig4b1", "fig4b4", "fig5", "fig6", "fig7",
    ]);
}

/// Figures 1–2 take minutes in debug; CI runs this in its release job.
#[test]
#[ignore = "fig1/fig2 sweeps are slow in debug; run with --ignored in release"]
fn microbench_subfigures_reproduce_the_golden_series() {
    assert_matches_golden(&["fig1", "fig2"]);
}

#[test]
#[ignore = "rewrites the golden file; run by hand after a deliberate model change"]
fn bless() {
    let mut store = CkptStore::new();
    for spec in &FIGURES {
        store.put(spec.key, &series(spec.key));
    }
    store.save(&golden_path()).expect("golden file writes");
}
