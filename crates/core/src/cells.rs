//! The one unit of sweep work.
//!
//! [`WireCell`] is the one cell type of the tree: `bsim fig` and
//! `bsim-svc` run it through the cell pool. It names the work (platform
//! by catalog name, figure by id/sizes/index) instead of carrying live
//! config structs, and [`WireCell::run`] reconstructs the real objects.
//! [`WireCell::key`] is what identifies its result in a store
//! ([`crate::key`]).
//!
//! Results are bit-identical across host worker counts by construction,
//! which is why no host knob reaches the key.

use crate::experiments::{self, subfigures, Parallelism, Sizes};
use crate::key::{self, MicroKeyer};
use crate::snapshot::Snapshot;
use crate::tuning::tune_milkv;
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

impl WireCell {
    /// What identifies this cell's result: the content hash of the work
    /// it names, `seed`, and the schema/code version ([`crate::key`]) —
    /// the only thing a result store is ever indexed by. Host knobs
    /// (`Parallelism`, worker count) cannot reach it: they do not
    /// change the result.
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
                    ("explanation".into(), Value::Str(out.explanation())),
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
    use crate::experiments::FIGURE_IDS;

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
