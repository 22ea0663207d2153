//! The sweep plan a coordinator distributes to workers.
//!
//! A plan is plain JSON inside a [`Frame::Plan`](crate::frame::Frame):
//! independent [`WireCell`]s, each with its global cell index so results
//! can be collected and re-planned after a process loss. The wire form
//! keeps its `"mode":"sweep"` tag, so a plan is the same bytes it has
//! always been; decoding reads only the cells.

use crate::cells::WireCell;
use serde::Value;

/// What a worker process is asked to do: run these sweep cells (global
/// cell index, cell) sequentially, reporting each as a `Cell` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanSpec {
    pub cells: Vec<(u32, WireCell)>,
}

impl PlanSpec {
    pub fn encode(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|(index, cell)| {
                Value::Map(vec![
                    ("index".into(), Value::U64(u64::from(*index))),
                    ("cell".into(), cell.encode()),
                ])
            })
            .collect();
        let tree = Value::Map(vec![
            ("mode".into(), Value::Str("sweep".into())),
            ("cells".into(), Value::Seq(cells)),
        ]);
        serde_json::to_string(&tree).expect("shim renderer is total")
    }

    pub fn decode(json: &str) -> Option<PlanSpec> {
        let tree = serde_json::from_str(json).ok()?;
        let cells = tree
            .get("cells")?
            .as_seq()?
            .iter()
            .map(|entry| {
                let index = u32::try_from(entry.get("index")?.as_u64()?).ok()?;
                Some((index, WireCell::decode(entry.get("cell")?)?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PlanSpec { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_plan_roundtrips() {
        let plan = PlanSpec {
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
        assert_eq!(PlanSpec::decode(&plan.encode()), Some(plan));
        assert_eq!(PlanSpec::decode("{}"), None);
        assert_eq!(PlanSpec::decode("not json"), None);
    }

    /// The bytes the coordinator sent for these plans while it still
    /// had a second plan mode.
    #[test]
    fn a_plan_is_the_bytes_it_always_was() {
        let one = PlanSpec {
            cells: vec![(3, WireCell::Tune { scale: 2 })],
        };
        assert_eq!(
            one.encode(),
            r#"{"mode":"sweep","cells":[{"index":3,"cell":{"kind":"tune","scale":2}}]}"#
        );
        let two = PlanSpec {
            cells: vec![
                (
                    0,
                    WireCell::Fig {
                        id: "1".into(),
                        sizes: "smoke".into(),
                        index: 0,
                    },
                ),
                (
                    7,
                    WireCell::Micro {
                        platform: "Rocket 1".into(),
                        kernel: "Cca".into(),
                        scale: 1,
                    },
                ),
            ],
        };
        assert_eq!(
            two.encode(),
            concat!(
                r#"{"mode":"sweep","cells":[{"index":0,"cell":{"kind":"fig","id":"1","sizes":"smoke","index":0}},"#,
                r#"{"index":7,"cell":{"kind":"micro","platform":"Rocket 1","kernel":"Cca","scale":1}}]}"#
            )
        );
    }
}
