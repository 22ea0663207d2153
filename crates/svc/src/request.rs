//! Request model: parse the JSON body of a `/submit`, preflight it
//! through `bsim-check` (reject with diagnostics instead of burning
//! worker time), and decompose it into content-addressed cells.
//!
//! ## Wire shapes
//!
//! ```json
//! {"kind": "sweep", "platforms": ["Rocket 1"], "kernels": ["EM5"],
//!  "scale": 1, "seed": 0}
//! {"kind": "fig", "id": "1", "sizes": "smoke", "seed": 0}
//! {"kind": "tune", "scale": 1, "seed": 0}
//! ```
//!
//! ## SV-series lints
//!
//! - **SV000** (error): request body is not valid JSON / lacks fields.
//! - **SV001** (error): request references an unknown figure, size
//!   preset, platform, or kernel.
//! - **SV002** (error): the request decomposes into more cells than the
//!   daemon's per-request budget.
//!
//! Platform configs named by a sweep additionally run the full SoC
//! preflight, so MG/CL/SC findings reject the request up front exactly
//! as `bsim check` would.
//!
//! The catalog is constant, so each of its platforms is resolved,
//! preflighted and keyed once per process (`platform`): a request
//! merges a platform's cached report and hashes only its cells' own
//! fields.

use bsim_check::{Diagnostic, Report};
use bsim_core::experiments::{subfigures, Sizes, FIGURE_IDS};
use bsim_core::key::MicroKeyer;
use bsim_core::WireCell;
use bsim_soc::{configs, preflight, SocConfig};
use bsim_workloads::microbench;
use serde::Value;
use std::sync::OnceLock;

/// A parsed, validated service request.
#[derive(Clone, Debug, PartialEq)]
pub enum SvcRequest {
    /// Platform × kernel microbenchmark grid.
    Sweep {
        platforms: Vec<String>,
        kernels: Vec<String>,
        scale: u32,
        seed: u64,
    },
    /// One paper figure (decomposes into its subfigures).
    Fig {
        id: String,
        sizes: String,
        seed: u64,
    },
    /// The §4 model-selection loop (a single heavy cell).
    Tune { scale: u32, seed: u64 },
}

/// One schedulable unit of work: the [`WireCell`] that (re)computes it,
/// with its [`WireCell::key`] at the request's seed and a human-readable
/// label for responses.
#[derive(Clone, Debug)]
pub struct Cell {
    pub key: String,
    pub label: String,
    pub spec: WireCell,
}

/// A catalog platform as every request sees it: its config, its
/// MG/CL/SC preflight, and the keyer holding its share of every cell key.
struct Platform {
    cfg: SocConfig,
    preflight: Report,
    keyer: MicroKeyer,
}

/// The catalog platform `name` names, case-insensitively (the rule of
/// `configs::by_name`), built with the rest of the catalog on first use.
fn platform(name: &str) -> Option<&'static Platform> {
    static CATALOG: OnceLock<Vec<Platform>> = OnceLock::new();
    CATALOG
        .get_or_init(|| {
            configs::catalog(1)
                .into_iter()
                .map(|cfg| Platform {
                    preflight: preflight::preflight(&cfg),
                    keyer: MicroKeyer::new(&cfg),
                    cfg,
                })
                .collect()
        })
        .iter()
        .find(|p| p.cfg.name.eq_ignore_ascii_case(name))
}

fn str_field(map: &Value, name: &str) -> Option<String> {
    field(map, name).and_then(|v| v.as_str().map(str::to_string))
}

fn u64_field(map: &Value, name: &str, default: u64) -> Option<u64> {
    match field(map, name) {
        Some(v) => v.as_u64(),
        None => Some(default),
    }
}

fn str_list_field(map: &Value, name: &str) -> Option<Vec<String>> {
    field(map, name)?
        .as_seq()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect()
}

fn field<'a>(map: &'a Value, name: &str) -> Option<&'a Value> {
    match map {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn malformed(detail: impl Into<String>) -> Report {
    let mut r = Report::new();
    r.push(
        Diagnostic::error("SV000", "request", detail)
            .with_help("see README.md 'Simulation as a service' for the wire shapes"),
    );
    r
}

impl SvcRequest {
    /// Parses a `/submit` body. Shape errors come back as an SV000
    /// report, never a panic — the daemon turns them into HTTP 400.
    pub fn parse(body: &str) -> Result<SvcRequest, Report> {
        let tree = serde_json::from_str(body).map_err(|e| malformed(format!("not JSON: {e}")))?;
        let kind = str_field(&tree, "kind")
            .ok_or_else(|| malformed("missing string field 'kind' (sweep|fig|tune)"))?;
        let seed = u64_field(&tree, "seed", 0)
            .ok_or_else(|| malformed("'seed' must be a non-negative integer"))?;
        let scale = || -> Result<u32, Report> {
            // A kernel built at scale 0 is its scale-1 program, so a
            // scale-0 cell would be the scale-1 cell under a second key.
            let s = u64_field(&tree, "scale", 1)
                .filter(|&s| s > 0)
                .ok_or_else(|| malformed("'scale' must be a positive integer"))?;
            u32::try_from(s).map_err(|_| malformed("'scale' does not fit in 32 bits"))
        };
        match kind.as_str() {
            "sweep" => Ok(SvcRequest::Sweep {
                platforms: str_list_field(&tree, "platforms")
                    .ok_or_else(|| malformed("'platforms' must be a list of platform names"))?,
                kernels: str_list_field(&tree, "kernels")
                    .ok_or_else(|| malformed("'kernels' must be a list of kernel names"))?,
                scale: scale()?,
                seed,
            }),
            "fig" => Ok(SvcRequest::Fig {
                id: str_field(&tree, "id")
                    .ok_or_else(|| malformed("'id' must be a figure id string"))?,
                sizes: str_field(&tree, "sizes").unwrap_or_else(|| "default".into()),
                seed,
            }),
            "tune" => Ok(SvcRequest::Tune {
                scale: scale()?,
                seed,
            }),
            other => Err(malformed(format!(
                "unknown kind {other:?} (expected sweep, fig, or tune)"
            ))),
        }
    }

    /// Static preflight: SV001 for dangling names, SV002 against the
    /// per-request cell `budget`, and the full MG/CL/SC platform
    /// preflight for every config a sweep references. Clean report ⇒
    /// [`SvcRequest::cells`] cannot panic.
    pub fn preflight(&self, budget: usize) -> Report {
        let mut report = Report::new();
        match self {
            SvcRequest::Sweep {
                platforms, kernels, ..
            } => {
                if platforms.is_empty() || kernels.is_empty() {
                    report.push(Diagnostic::error(
                        "SV001",
                        "request",
                        "a sweep needs at least one platform and one kernel",
                    ));
                }
                let mut resolved = Vec::new();
                for name in platforms {
                    match platform(name) {
                        Some(p) => resolved.push(p),
                        None => report.push(
                            Diagnostic::error(
                                "SV001",
                                "request.platforms",
                                format!("unknown platform {name:?}"),
                            )
                            .with_help("`bsim list` names the catalog"),
                        ),
                    }
                }
                for name in kernels {
                    if microbench::find(name).is_none() {
                        report.push(
                            Diagnostic::error(
                                "SV001",
                                "request.kernels",
                                format!("unknown kernel {name:?}"),
                            )
                            .with_help("`bsim list` names the suite"),
                        );
                    }
                }
                // The same static pass `bsim check` runs: reject invalid
                // platform configs before they reach a worker.
                for p in resolved {
                    report.merge(p.preflight.clone());
                }
            }
            SvcRequest::Fig { id, sizes, .. } => {
                if !FIGURE_IDS.contains(&id.as_str()) {
                    report.push(
                        Diagnostic::error("SV001", "request.id", format!("unknown figure {id:?}"))
                            .with_help(format!("known figures: {}", FIGURE_IDS.join(" "))),
                    );
                }
                if Sizes::parse(sizes).is_none() {
                    report.push(
                        Diagnostic::error(
                            "SV001",
                            "request.sizes",
                            format!("unknown size preset {sizes:?}"),
                        )
                        .with_help("known presets: default smoke paper"),
                    );
                }
            }
            SvcRequest::Tune { .. } => {}
        }
        if !report.has_errors() {
            let cells = self.cell_count();
            if cells > budget {
                report.push(
                    Diagnostic::error(
                        "SV002",
                        "request",
                        format!("request decomposes into {cells} cells, budget is {budget}"),
                    )
                    .with_help("split the request, or raise `bsim serve --budget`"),
                );
            }
        }
        report
    }

    /// How many cells [`SvcRequest::cells`] will produce. Only valid on
    /// a preflight-clean request.
    fn cell_count(&self) -> usize {
        match self {
            SvcRequest::Sweep {
                platforms, kernels, ..
            } => platforms.len() * kernels.len(),
            SvcRequest::Fig { id, .. } => subfigures(id).count(),
            SvcRequest::Tune { .. } => 1,
        }
    }

    /// Decomposes a preflight-clean request into cells, in the stable
    /// order responses render them (platform-major for sweeps, plan
    /// order for figures).
    pub fn cells(&self) -> Vec<Cell> {
        match self {
            SvcRequest::Sweep {
                platforms,
                kernels,
                scale,
                seed,
            } => {
                let mut out = Vec::with_capacity(platforms.len() * kernels.len());
                for name in platforms {
                    // `WireCell::key` of every cell below, with the
                    // platform's share of the hash taken once per process.
                    let Platform { cfg, keyer, .. } =
                        platform(name).expect("platform was preflighted");
                    for kernel in kernels {
                        out.push(Cell {
                            key: keyer.key(kernel, *scale, *seed),
                            label: format!("{}/{kernel}", cfg.name),
                            spec: WireCell::Micro {
                                platform: cfg.name.clone(),
                                kernel: kernel.clone(),
                                scale: *scale,
                            },
                        });
                    }
                }
                out
            }
            SvcRequest::Fig { id, sizes, seed } => WireCell::figure_cells(id, sizes)
                .into_iter()
                .zip(subfigures(id))
                .map(|(spec, fig)| Cell {
                    key: spec.key(*seed),
                    label: fig.key.to_string(),
                    spec,
                })
                .collect(),
            SvcRequest::Tune { scale, seed } => {
                let spec = WireCell::Tune { scale: *scale };
                vec![Cell {
                    key: spec.key(*seed),
                    label: "tune".into(),
                    spec,
                }]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_wire_shapes() {
        let sweep = SvcRequest::parse(
            r#"{"kind":"sweep","platforms":["Rocket 1"],"kernels":["EM5","STc"],"seed":7}"#,
        )
        .unwrap();
        assert_eq!(
            sweep,
            SvcRequest::Sweep {
                platforms: vec!["Rocket 1".into()],
                kernels: vec!["EM5".into(), "STc".into()],
                scale: 1,
                seed: 7,
            }
        );
        let fig = SvcRequest::parse(r#"{"kind":"fig","id":"3","sizes":"smoke"}"#).unwrap();
        assert_eq!(
            fig,
            SvcRequest::Fig {
                id: "3".into(),
                sizes: "smoke".into(),
                seed: 0
            }
        );
        let tune = SvcRequest::parse(r#"{"kind":"tune","scale":2}"#).unwrap();
        assert_eq!(tune, SvcRequest::Tune { scale: 2, seed: 0 });
    }

    #[test]
    fn malformed_bodies_reject_with_sv000() {
        for body in [
            "not json",
            r#"{"platforms":[]}"#,
            r#"{"kind":"dance"}"#,
            r#"{"kind":"sweep","platforms":"Rocket 1","kernels":["EM5"]}"#,
            r#"{"kind":"fig"}"#,
        ] {
            let report = SvcRequest::parse(body).unwrap_err();
            assert!(report.has_code("SV000"), "{body} -> {report}");
        }
    }

    #[test]
    fn scale_0_is_refused_for_both_kinds_that_take_a_scale() {
        for body in [
            r#"{"kind":"sweep","platforms":["Rocket 1"],"kernels":["EM5"],"scale":0}"#,
            r#"{"kind":"tune","scale":0}"#,
        ] {
            let report = SvcRequest::parse(body).unwrap_err();
            assert!(report.has_code("SV000"), "{body} -> {report}");
            assert!(report.to_string().contains("'scale'"), "{report}");
        }
    }

    #[test]
    fn unknown_names_reject_with_sv001() {
        let req = SvcRequest::Sweep {
            platforms: vec!["Rocket 1".into(), "Pentium".into()],
            kernels: vec!["EM5".into(), "BogoMips".into()],
            scale: 1,
            seed: 0,
        };
        let report = req.preflight(64);
        assert_eq!(report.with_code("SV001").count(), 2, "{report}");

        let fig = SvcRequest::Fig {
            id: "9".into(),
            sizes: "jumbo".into(),
            seed: 0,
        };
        assert_eq!(fig.preflight(64).with_code("SV001").count(), 2);
    }

    #[test]
    fn over_budget_requests_reject_with_sv002() {
        let req = SvcRequest::Sweep {
            platforms: vec!["Rocket 1".into(), "Rocket 2".into()],
            kernels: vec!["EM5".into(), "STc".into(), "EI".into()],
            scale: 1,
            seed: 0,
        };
        assert_eq!(req.cell_count(), 6);
        assert!(req.preflight(6).is_clean());
        let report = req.preflight(5);
        assert!(report.has_code("SV002"), "{report}");
    }

    #[test]
    fn sweep_cells_are_platform_major_and_content_addressed() {
        let req = SvcRequest::parse(
            r#"{"kind":"sweep","platforms":["Rocket 1","Rocket 2"],"kernels":["EM5","STc"]}"#,
        )
        .unwrap();
        assert!(req.preflight(64).is_clean());
        let cells = req.cells();
        assert_eq!(
            cells.iter().map(|c| c.label.as_str()).collect::<Vec<_>>(),
            [
                "Rocket 1/EM5",
                "Rocket 1/STc",
                "Rocket 2/EM5",
                "Rocket 2/STc"
            ]
        );
        // Keys are unique within the request but shared *across*
        // requests naming the same work — the whole point of the store.
        let again = req.cells();
        for (a, b) in cells.iter().zip(again.iter()) {
            assert_eq!(a.key, b.key);
        }
        let mut keys: Vec<_> = cells.iter().map(|c| c.key.clone()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn fig_request_decomposes_into_the_plan() {
        let req = SvcRequest::Fig {
            id: "3".into(),
            sizes: "smoke".into(),
            seed: 0,
        };
        assert!(req.preflight(64).is_clean());
        let cells = req.cells();
        assert_eq!(cells.len(), req.cell_count());
        assert!(cells.iter().any(|c| c.label == "fig3a"));
    }

    /// The per-process catalog answers exactly what resolving, linting
    /// and keying each named platform afresh did: every cataloged name as
    /// cataloged, lowercased and uppercased, and a platform named twice.
    #[test]
    fn the_catalog_memo_answers_what_by_name_and_preflight_all_did() {
        // The unmemoized composition: resolve by name, lint what resolved.
        fn fresh_preflight(platforms: &[String], kernels: &[String], budget: usize) -> Report {
            let mut report = Report::new();
            let mut resolved = Vec::new();
            for name in platforms {
                match configs::by_name(name, 1) {
                    Some(cfg) => resolved.push(cfg),
                    None => report.push(
                        Diagnostic::error(
                            "SV001",
                            "request.platforms",
                            format!("unknown platform {name:?}"),
                        )
                        .with_help("`bsim list` names the catalog"),
                    ),
                }
            }
            for name in kernels {
                if microbench::find(name).is_none() {
                    report.push(
                        Diagnostic::error(
                            "SV001",
                            "request.kernels",
                            format!("unknown kernel {name:?}"),
                        )
                        .with_help("`bsim list` names the suite"),
                    );
                }
            }
            report.merge(preflight::preflight_all(resolved.iter()));
            let cells = platforms.len() * kernels.len();
            if !report.has_errors() && cells > budget {
                report.push(
                    Diagnostic::error(
                        "SV002",
                        "request",
                        format!("request decomposes into {cells} cells, budget is {budget}"),
                    )
                    .with_help("split the request, or raise `bsim serve --budget`"),
                );
            }
            report
        }

        let kernels: Vec<String> = vec!["EM5".into(), "Cca".into()];
        let mut requests: Vec<Vec<String>> = Vec::new();
        for cfg in configs::catalog(1) {
            for name in [
                cfg.name.clone(),
                cfg.name.to_lowercase(),
                cfg.name.to_uppercase(),
            ] {
                requests.push(vec![name]);
            }
        }
        assert_eq!(
            requests.len(),
            30,
            "ten cataloged platforms, three spellings"
        );
        requests.push(vec![
            "Rocket 1".into(),
            "Large BOOM".into(),
            "rocket 1".into(),
        ]);

        for platforms in requests {
            let req = SvcRequest::Sweep {
                platforms: platforms.clone(),
                kernels: kernels.clone(),
                scale: 3,
                seed: 5,
            };
            let report = req.preflight(64);
            assert_eq!(
                report.diagnostics,
                fresh_preflight(&platforms, &kernels, 64).diagnostics,
                "{platforms:?}"
            );
            assert!(!report.has_errors(), "{platforms:?}: {report}");
            let cells = req.cells();
            assert_eq!(cells.len(), platforms.len() * kernels.len());
            let expected = platforms.iter().flat_map(|name| {
                let cfg = configs::by_name(name, 1).unwrap();
                kernels.iter().map(move |kernel| {
                    (
                        bsim_core::key::micro_cell_key(&cfg, kernel, 3, 5),
                        format!("{}/{kernel}", cfg.name),
                    )
                })
            });
            for (cell, (key, label)) in cells.iter().zip(expected) {
                assert_eq!(cell.key, key, "{label}");
                assert_eq!(cell.label, label);
            }
        }

        // Unknown names still fail where and as they did, one SV001 each.
        let platforms: Vec<String> = vec!["Rocket 1".into(), "Pentium".into()];
        let kernels: Vec<String> = vec!["EM5".into(), "BogoMips".into()];
        let req = SvcRequest::Sweep {
            platforms: platforms.clone(),
            kernels: kernels.clone(),
            scale: 1,
            seed: 0,
        };
        let report = req.preflight(64);
        assert_eq!(report.with_code("SV001").count(), 2, "{report}");
        assert_eq!(
            report.diagnostics,
            fresh_preflight(&platforms, &kernels, 64).diagnostics
        );
    }

    /// A request's cells carry `WireCell::key` at the request's seed and
    /// nothing else — the sweep's per-platform `MicroKeyer` included —
    /// so what a daemon stores is found by `bsim fig`.
    #[test]
    fn every_cell_is_keyed_by_its_wire_cell_at_the_request_seed() {
        let requests = [
            SvcRequest::Sweep {
                platforms: vec!["Rocket 1".into(), "MILK-V Pioneer".into()],
                kernels: vec!["EM5".into(), "STc".into(), "Cca".into()],
                scale: 2,
                seed: 7,
            },
            SvcRequest::Fig {
                id: "4".into(),
                sizes: "smoke".into(),
                seed: 3,
            },
            SvcRequest::Fig {
                id: "1".into(),
                sizes: "paper".into(),
                seed: 0,
            },
            SvcRequest::Tune { scale: 2, seed: 11 },
        ];
        for req in requests {
            let (SvcRequest::Sweep { seed, .. }
            | SvcRequest::Fig { seed, .. }
            | SvcRequest::Tune { seed, .. }) = req;
            assert!(req.preflight(64).is_clean(), "{req:?}");
            let cells = req.cells();
            assert_eq!(cells.len(), req.cell_count(), "{req:?}");
            for cell in cells {
                assert_eq!(cell.key, cell.spec.key(seed), "{}", cell.label);
                assert_ne!(cell.key, cell.spec.key(seed + 1), "{}", cell.label);
            }
        }
    }
}
