//! The serializable unit of sweep work a worker process executes.
//!
//! [`WireCell`] is the one cell type of the tree: `bsim-svc` schedules
//! it inside one process and a worker on the far side of a socket
//! receives the same thing as *data*. It names the work (platform by
//! catalog name, figure by id/sizes/index) instead of carrying live
//! config structs, travels as a JSON tree inside a
//! [`crate::frame::Frame::Plan`], and [`WireCell::run`] reconstructs
//! the real objects wherever it executes. [`WireCell::key`] is what
//! identifies its result in a store ([`crate::key`]).
//!
//! Results are bit-identical across host worker counts by construction
//! — which is why no host knob reaches the key, and what lets the
//! launcher compare a 2-process sweep byte-for-byte against the
//! in-process schedule.

use crate::key::{self, MicroKeyer};
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
    /// What identifies this cell's result: the content hash of the work
    /// it names, `seed`, and the schema/code version ([`crate::key`]) —
    /// the only thing a result store is ever indexed by. Host knobs
    /// (`Parallelism`, lane count) cannot reach it: they do not change
    /// the result.
    pub fn key(&self, seed: u64) -> String {
        let runnable = match self {
            WireCell::Fig { id, sizes, index } => subfigures(id)
                .nth(*index)
                .map(|fig| key::fig_cell_key(id, fig.key, sizes, seed)),
            WireCell::Micro {
                platform,
                kernel,
                scale,
            } => configs::by_name(platform, 1)
                .map(|cfg| MicroKeyer::new(&cfg).key(kernel, *scale, seed)),
            WireCell::Tune { scale } => Some(key::tune_cell_key(*scale, seed)),
        };
        runnable.unwrap_or_else(|| key::unrunnable_cell_key(&self.label(), seed))
    }

    /// [`WireCell::key`] for the result a *sampled* executor estimates
    /// (`bsim fig --sample`): `sample` is the sampler's configuration,
    /// which changes the digits and therefore the key.
    pub fn key_sampled(&self, seed: u64, sample: &impl Serialize) -> String {
        key::sampled_cell_key(&self.key(seed), sample.to_value())
    }

    /// A human-readable display name (`fig:3/smoke/0`, `micro:...`) for
    /// logs and result listings; never a store key.
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
        // The ten subfigures: fig1, fig2, fig3a/b, fig4a, fig4b1/b4,
        // fig5, fig6, fig7.
        assert_eq!(total, 10);
        assert!(WireCell::figure_cells("9", "smoke").is_empty());
        assert!(WireCell::figure_cells("1", "galactic").is_empty());
    }

    fn fig(id: &str, sizes: &str, index: usize) -> WireCell {
        WireCell::Fig {
            id: id.into(),
            sizes: sizes.into(),
            index,
        }
    }

    fn micro(platform: &str, kernel: &str, scale: u32) -> WireCell {
        WireCell::Micro {
            platform: platform.into(),
            kernel: kernel.into(),
            scale,
        }
    }

    #[test]
    fn everything_that_names_the_work_changes_the_key() {
        let base = fig("3", "smoke", 0);
        let variants = [
            (fig("4", "smoke", 0), "figure id"),
            (fig("3", "smoke", 1), "subfigure index"),
            (fig("3", "default", 0), "sizes"),
            (fig("3", "paper", 0), "sizes"),
        ];
        for (other, what) in &variants {
            assert_ne!(base.key(0), other.key(0), "{what}");
        }
        assert_ne!(base.key(0), base.key(1), "seed");

        let base = micro("Rocket 1", "EM5", 1);
        let variants = [
            (micro("Rocket 1", "STc", 1), "kernel"),
            (micro("Rocket 1", "EM5", 2), "scale"),
            (micro("Rocket 2", "EM5", 1), "platform config"),
        ];
        for (other, what) in &variants {
            assert_ne!(base.key(0), other.key(0), "{what}");
        }
        assert_ne!(base.key(0), base.key(1), "seed");
        // A platform is keyed by the config its name resolves to, so
        // every knob `key::any_knob_change_changes_the_key` turns lands
        // here too.
        let cfg = configs::by_name("Rocket 1", 1).expect("cataloged");
        assert_eq!(base.key(5), key::micro_cell_key(&cfg, "EM5", 1, 5));
        assert_eq!(base.key(5), micro("rocket 1", "EM5", 1).key(5));

        let tune = WireCell::Tune { scale: 1 };
        assert_ne!(tune.key(0), WireCell::Tune { scale: 2 }.key(0), "scale");
        assert_ne!(tune.key(0), tune.key(1), "seed");
        assert_eq!(tune.key(9), key::tune_cell_key(1, 9));
    }

    #[test]
    fn a_sampled_result_is_keyed_apart_by_its_budget() {
        let cell = fig("3", "smoke", 0);
        let budget = |n: u64| Value::Map(vec![("max_clusters".into(), Value::U64(n))]);
        let sampled = cell.key_sampled(0, &budget(8));
        assert_ne!(sampled, cell.key(0), "an estimate is not the exact result");
        assert_eq!(sampled, cell.key_sampled(0, &budget(8)));
        assert_ne!(sampled, cell.key_sampled(0, &budget(9)), "budget");
        assert_ne!(sampled, cell.key_sampled(1, &budget(8)), "seed");
        assert_ne!(sampled, fig("3", "smoke", 1).key_sampled(0, &budget(8)));
    }

    /// Host knobs have no way into a key: it is a function of the cell
    /// and the seed, and a cell has no field to carry one. A field added
    /// to a variant fails the patterns below — decide then whether it
    /// changes the result (fold it into [`WireCell::key`]) or not.
    #[test]
    fn no_host_knob_can_reach_the_key() {
        let _: fn(&WireCell, u64) -> String = WireCell::key;
        let _every_field = |cell: WireCell| match cell {
            WireCell::Fig {
                id: _,
                sizes: _,
                index: _,
            }
            | WireCell::Micro {
                platform: _,
                kernel: _,
                scale: _,
            }
            | WireCell::Tune { scale: _ } => {}
        };
    }

    #[test]
    fn cells_that_cannot_run_still_key_apart() {
        let unrunnable = [
            fig("9", "smoke", 0),
            fig("3", "smoke", 99),
            micro("not-a-platform", "EM5", 1),
            micro("nor-this", "EM5", 1),
        ];
        let mut keys: Vec<String> = unrunnable.iter().map(|c| c.key(0)).collect();
        keys.push(fig("3", "smoke", 0).key(0));
        keys.push(micro("Rocket 1", "EM5", 1).key(0));
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
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
