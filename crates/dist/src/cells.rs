//! The serializable unit of sweep work a worker process executes.
//!
//! [`WireCell`] is the one cell type of the tree: `bsim-svc` schedules
//! it inside one process and a worker on the far side of a socket
//! receives the same thing as *data*. It names the work (platform by
//! catalog name, figure by id/sizes/index) instead of carrying live
//! config structs, travels as a JSON tree inside a
//! [`crate::frame::Frame::Plan`], and [`WireCell::run`] reconstructs
//! the real objects wherever it executes.
//!
//! Results are bit-identical across host worker counts by construction
//! (the same argument `bsim-svc` makes for its cell keys), which is
//! what lets the launcher compare a 2-process sweep byte-for-byte
//! against the in-process schedule.

use bsim_core::experiments::{self, subfigures, Parallelism, Sizes};
use bsim_core::tuning::tune_milkv;
use bsim_resilience::snapshot::Snapshot;
use bsim_soc::configs;
use serde::{Serialize, Value};

/// One schedulable, serializable cell of sweep work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireCell {
    /// One subfigure of a paper figure: `subfigures(id).nth(index)`.
    Fig {
        id: String,
        sizes: String,
        index: usize,
    },
    /// One microbenchmark kernel on one named platform.
    Micro {
        platform: String,
        kernel: String,
        scale: u32,
    },
    /// The §4 model-selection loop.
    Tune { scale: u32 },
}

fn str_field(v: &Value, name: &str) -> Option<String> {
    v.get(name)?.as_str().map(str::to_string)
}

fn u64_field(v: &Value, name: &str) -> Option<u64> {
    v.get(name)?.as_u64()
}

impl WireCell {
    /// A stable human-readable label — the launcher's result key and
    /// the checkpoint-store cell name (`fig:3/smoke/0`, `micro:...`).
    pub fn label(&self) -> String {
        match self {
            WireCell::Fig { id, sizes, index } => format!("fig:{id}/{sizes}/{index}"),
            WireCell::Micro {
                platform,
                kernel,
                scale,
            } => format!("micro:{platform}/{kernel}/x{scale}"),
            WireCell::Tune { scale } => format!("tune:x{scale}"),
        }
    }

    /// The JSON tree shipped inside the plan.
    pub fn encode(&self) -> Value {
        match self {
            WireCell::Fig { id, sizes, index } => Value::Map(vec![
                ("kind".into(), Value::Str("fig".into())),
                ("id".into(), Value::Str(id.clone())),
                ("sizes".into(), Value::Str(sizes.clone())),
                ("index".into(), Value::U64(*index as u64)),
            ]),
            WireCell::Micro {
                platform,
                kernel,
                scale,
            } => Value::Map(vec![
                ("kind".into(), Value::Str("micro".into())),
                ("platform".into(), Value::Str(platform.clone())),
                ("kernel".into(), Value::Str(kernel.clone())),
                ("scale".into(), Value::U64(u64::from(*scale))),
            ]),
            WireCell::Tune { scale } => Value::Map(vec![
                ("kind".into(), Value::Str("tune".into())),
                ("scale".into(), Value::U64(u64::from(*scale))),
            ]),
        }
    }

    /// Parses a plan tree back. `None` on any malformed shape — the
    /// worker turns that into an `Err` frame, never a panic.
    pub fn decode(v: &Value) -> Option<WireCell> {
        match str_field(v, "kind")?.as_str() {
            "fig" => Some(WireCell::Fig {
                id: str_field(v, "id")?,
                sizes: str_field(v, "sizes")?,
                index: u64_field(v, "index")? as usize,
            }),
            "micro" => Some(WireCell::Micro {
                platform: str_field(v, "platform")?,
                kernel: str_field(v, "kernel")?,
                scale: u32::try_from(u64_field(v, "scale")?).ok()?,
            }),
            "tune" => Some(WireCell::Tune {
                scale: u32::try_from(u64_field(v, "scale")?).ok()?,
            }),
            _ => None,
        }
    }

    /// Runs the cell and returns the result tree, or a description of
    /// why the spec names something this binary doesn't have. `par` is
    /// the host parallelism a figure cell fans its *internal* grid
    /// across; it never changes the result.
    pub fn run(&self, par: Parallelism) -> Result<Value, String> {
        match self {
            WireCell::Fig { id, sizes, index } => {
                let sizes =
                    Sizes::parse(sizes).ok_or_else(|| format!("unknown sizes {sizes:?}"))?;
                let spec = subfigures(id)
                    .nth(*index)
                    .ok_or_else(|| format!("figure {id} has no subfigure {index}"))?;
                Ok(spec.run(sizes, par).save())
            }
            WireCell::Micro {
                platform,
                kernel,
                scale,
            } => {
                let cfg = configs::by_name(platform, 1)
                    .ok_or_else(|| format!("unknown platform {platform:?}"))?;
                experiments::microbench_cell(cfg, kernel, *scale)
                    .map(|report| report.to_value())
                    .ok_or_else(|| format!("unknown kernel {kernel:?}"))
            }
            WireCell::Tune { scale } => {
                let out = tune_milkv(*scale);
                Ok(Value::Map(vec![
                    ("best".into(), Value::Str(out.best().to_string())),
                    ("explanation".into(), Value::Str(out.explanation(10))),
                ]))
            }
        }
    }

    /// The subfigure cells of one figure, in plan order; empty for an
    /// unknown figure or size preset.
    pub fn figure_cells(id: &str, sizes: &str) -> Vec<WireCell> {
        if Sizes::parse(sizes).is_none() {
            return Vec::new();
        }
        (0..subfigures(id).count())
            .map(|index| WireCell::Fig {
                id: id.to_string(),
                sizes: sizes.to_string(),
                index,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_core::experiments::FIGURE_IDS;

    #[test]
    fn cells_roundtrip_through_their_wire_form() {
        let cells = vec![
            WireCell::Fig {
                id: "3".into(),
                sizes: "smoke".into(),
                index: 1,
            },
            WireCell::Micro {
                platform: "Rocket".into(),
                kernel: "Cca".into(),
                scale: 2,
            },
            WireCell::Tune { scale: 1 },
        ];
        for cell in cells {
            let json = serde_json::to_string(&cell.encode()).expect("shim renderer is total");
            let back = WireCell::decode(&serde_json::from_str(&json).expect("valid json"))
                .expect("decodes");
            assert_eq!(back, cell);
        }
        assert_eq!(WireCell::decode(&Value::Map(vec![])), None);
        assert_eq!(
            WireCell::decode(&Value::Map(vec![(
                "kind".into(),
                Value::Str("warp".into())
            )])),
            None
        );
    }

    #[test]
    fn figure_cells_cover_every_declared_subfigure() {
        let mut total = 0;
        for id in FIGURE_IDS {
            let cells = WireCell::figure_cells(id, "smoke");
            assert!(!cells.is_empty(), "figure {id} has cells");
            total += cells.len();
        }
        // The ten stable subfigure keys: fig1, fig2, fig3a/b, fig4a,
        // fig4b1/b4, fig5, fig6, fig7.
        assert_eq!(total, 10);
        assert!(WireCell::figure_cells("9", "smoke").is_empty());
        assert!(WireCell::figure_cells("1", "galactic").is_empty());
    }

    #[test]
    fn bad_specs_run_to_errors_not_panics() {
        let bad = WireCell::Micro {
            platform: "not-a-platform".into(),
            kernel: "Cca".into(),
            scale: 1,
        };
        assert!(bad
            .run(Parallelism::Sequential)
            .expect_err("unknown platform")
            .contains("platform"));
        let bad = WireCell::Fig {
            id: "1".into(),
            sizes: "smoke".into(),
            index: 99,
        };
        let err = bad.run(Parallelism::Sequential).expect_err("index range");
        assert!(err.contains("subfigure"));
    }
}
