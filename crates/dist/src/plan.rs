//! The partition plan a coordinator distributes to workers.
//!
//! A plan is plain JSON inside a [`Frame::Plan`](crate::frame::Frame):
//! either a **sweep** (independent [`WireCell`]s, indexed so results
//! can be collected and re-planned after a process loss) or a **graph**
//! (one rank's slice of a partitioned demo ring, everything needed to
//! rebuild [`rank_view`](crate::graph::rank_view) locally).
//!
//! Before any process is spawned, [`lint_graph_plan`] runs the
//! `DL`-series lints from `bsim-check` over the partition shape —
//! out-of-range ranks, empty partitions, cut wires too tight for the
//! quantum — the same preflight-before-cycles discipline the rest of
//! the stack uses.

use crate::cells::WireCell;
use bsim_check::rules::{partition_lints, PartitionSpec};
use bsim_check::Report;
use bsim_engine::Wire;
use serde::Value;

/// What a worker process is asked to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanSpec {
    /// Run these sweep cells (global cell index, cell) sequentially,
    /// reporting each as a `Cell` frame.
    Sweep { cells: Vec<(u32, WireCell)> },
    /// Run one rank of the partitioned demo ring and report the final
    /// model states.
    Graph {
        ring: usize,
        latency: u64,
        quantum: usize,
        cycles: u64,
        seed: u64,
        /// Rank per global model — the worker derives its own view.
        assignment: Vec<usize>,
        /// This worker's rank.
        rank: usize,
    },
}

impl PlanSpec {
    pub fn encode(&self) -> String {
        let tree = match self {
            PlanSpec::Sweep { cells } => Value::Map(vec![
                ("mode".into(), Value::Str("sweep".into())),
                (
                    "cells".into(),
                    Value::Seq(
                        cells
                            .iter()
                            .map(|(index, cell)| {
                                Value::Map(vec![
                                    ("index".into(), Value::U64(u64::from(*index))),
                                    ("cell".into(), cell.encode()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            PlanSpec::Graph {
                ring,
                latency,
                quantum,
                cycles,
                seed,
                assignment,
                rank,
            } => Value::Map(vec![
                ("mode".into(), Value::Str("graph".into())),
                ("ring".into(), Value::U64(*ring as u64)),
                ("latency".into(), Value::U64(*latency)),
                ("quantum".into(), Value::U64(*quantum as u64)),
                ("cycles".into(), Value::U64(*cycles)),
                ("seed".into(), Value::U64(*seed)),
                (
                    "assignment".into(),
                    Value::Seq(assignment.iter().map(|&r| Value::U64(r as u64)).collect()),
                ),
                ("rank".into(), Value::U64(*rank as u64)),
            ]),
        };
        serde_json::to_string(&tree).expect("shim renderer is total")
    }

    pub fn decode(json: &str) -> Option<PlanSpec> {
        let tree = serde_json::from_str(json).ok()?;
        let usize_field = |name: &str| tree.get(name)?.as_u64().map(|v| v as usize);
        match tree.get("mode")?.as_str()? {
            "sweep" => {
                let cells = tree
                    .get("cells")?
                    .as_seq()?
                    .iter()
                    .map(|entry| {
                        let index = u32::try_from(entry.get("index")?.as_u64()?).ok()?;
                        Some((index, WireCell::decode(entry.get("cell")?)?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(PlanSpec::Sweep { cells })
            }
            "graph" => Some(PlanSpec::Graph {
                ring: usize_field("ring")?,
                latency: tree.get("latency")?.as_u64()?,
                quantum: usize_field("quantum")?,
                cycles: tree.get("cycles")?.as_u64()?,
                seed: tree.get("seed")?.as_u64()?,
                assignment: tree
                    .get("assignment")?
                    .as_seq()?
                    .iter()
                    .map(|v| v.as_u64().map(|r| r as usize))
                    .collect::<Option<Vec<_>>>()?,
                rank: usize_field("rank")?,
            }),
            _ => None,
        }
    }
}

/// Runs the `DL`-series partition lints plus the `DD`-series cross-rank
/// deadlock analysis over a graph-mode plan shape. Graph mode always
/// runs with fast-forward enabled ([`crate::graph::RankGraph::new`] is
/// called with `ff = true`), so the DD pass licenses accordingly.
pub(crate) fn lint_graph_plan(
    ranks: usize,
    assignment: &[usize],
    wires: &[Wire],
    quantum: usize,
) -> Report {
    let spec = PartitionSpec {
        ranks,
        assignment: assignment.to_vec(),
        wires: wires
            .iter()
            .map(|w| (w.from_model, w.to_model, w.latency))
            .collect(),
        quantum,
    };
    let mut report = partition_lints().run(&spec, "dist.plan");
    report.merge(bsim_check::dd::analyze_partition(&spec, true, "dist.plan"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::demo_ring;

    #[test]
    fn both_plan_modes_roundtrip() {
        let sweep = PlanSpec::Sweep {
            cells: vec![
                (
                    0,
                    WireCell::Fig {
                        id: "1".into(),
                        sizes: "smoke".into(),
                        index: 0,
                    },
                ),
                (3, WireCell::Tune { scale: 2 }),
            ],
        };
        assert_eq!(PlanSpec::decode(&sweep.encode()), Some(sweep));
        let graph = PlanSpec::Graph {
            ring: 4,
            latency: 2,
            quantum: 16,
            cycles: 500,
            seed: 7,
            assignment: vec![0, 0, 1, 1],
            rank: 1,
        };
        assert_eq!(PlanSpec::decode(&graph.encode()), Some(graph));
        assert_eq!(PlanSpec::decode("{}"), None);
        assert_eq!(PlanSpec::decode("not json"), None);
    }

    #[test]
    fn sane_demo_plans_lint_clean_and_broken_ones_do_not() {
        let (_, wires) = demo_ring(4, 1, 16);
        assert!(lint_graph_plan(2, &[0, 0, 1, 1], &wires, 16).is_clean());
        // A model on a rank that does not exist is a DL001 error.
        assert!(lint_graph_plan(2, &[0, 0, 1, 5], &wires, 16).has_errors());
        // Cut latency below the quantum serializes the link: DL005,
        // and the DD pass piles on — the rank cycle is shorter than
        // the quantum (DD002) and fast-forward can overrun the slack
        // (DD004). All warnings; the plan still runs.
        let (_, tight) = demo_ring(4, 1, 1);
        let report = lint_graph_plan(2, &[0, 0, 1, 1], &tight, 16);
        assert!(report.has_code("DL005") && !report.has_errors());
        assert!(report.has_code("DD002") && report.has_code("DD004"));
    }
}
