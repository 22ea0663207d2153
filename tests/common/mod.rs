//! What the golden harness (`tests/golden.rs`) shares with the tests
//! that read its store: where the store is, how an entry is read and
//! compared, the smoke figures' view the claims are scored on, and the
//! synthetic MPI world the store pins and `tests/mpi_timing.rs` replays.

// Each test binary uses a part of this module.
#![allow(dead_code)]

use serde::{Serialize, Value};
use silicon_bridge::core::claims::{Claim, Score};
use silicon_bridge::core::experiments::FIGURES;
use silicon_bridge::core::{CkptStore, FigureData, Series};
use silicon_bridge::mpi::{RankCtx, ReduceOp, WorldReport};
use silicon_bridge::soc::Bucket;
use silicon_bridge::workloads::trace::{rank_base, with_trace};
use std::path::PathBuf;

/// The golden store: a `CkptStore` of JSON trees keyed by pin name.
pub fn store_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden.json")
}

pub fn golden() -> CkptStore {
    CkptStore::load(&store_path()).expect("the golden store loads")
}

/// The tree `store` holds for the pin `name`.
pub fn stored<'a>(store: &'a CkptStore, name: &str) -> &'a Value {
    store
        .entries()
        .find(|(key, _)| *key == name)
        .unwrap_or_else(|| panic!("{name} is not in the golden store: bless it"))
        .1
}

fn render(tree: &Value) -> String {
    serde_json::to_string_pretty(tree).expect("shim renderer is total")
}

/// How `got` moved from what `store` holds for `name`: the lines that
/// differ, position by position, or `None` where it did not move.
pub fn moved(store: &CkptStore, name: &str, got: &Value) -> Option<String> {
    let (want, got) = (render(stored(store, name)), render(got));
    if want == got {
        return None;
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut out = format!("{name}:\n");
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            w.into_iter().for_each(|w| out += &format!("  - {w}\n"));
            g.into_iter().for_each(|g| out += &format!("  + {g}\n"));
        }
    }
    Some(out)
}

/// Every subfigure `store` holds, in `FIGURES` order.
pub fn smoke_figures(store: &CkptStore) -> Vec<(&'static str, Vec<Series>)> {
    FIGURES
        .iter()
        .map(|spec| {
            let fig: FigureData = store
                .get(spec.key)
                .expect("a figure entry is well-formed")
                .unwrap_or_else(|| panic!("{} is not in the golden store", spec.key));
            (spec.key, fig.series)
        })
        .collect()
}

/// `claim` scored on `figs`.
pub fn score(figs: &[(&str, Vec<Series>)], claim: &Claim) -> Score {
    let view: Vec<(&str, &[Series])> = figs.iter().map(|(key, s)| (*key, &s[..])).collect();
    claim
        .score(&view)
        .unwrap_or_else(|e| panic!("{}: {e}", claim.id))
}

/// A streaming load / fused-multiply-add / store loop over `lines`
/// cache lines of the rank's private segment, starting at `offset`.
fn compute(ctx: &mut RankCtx, offset: u64, lines: u64) {
    let base = rank_base(ctx.rank()) + offset;
    with_trace(ctx, |g| {
        for i in 0..lines {
            g.load(base + i * 64);
            g.flops(2, true);
            g.store(base + 0x10_0000 + i * 64);
            g.loop_overhead(1, 1);
        }
    });
}

/// Every `RankCtx` operation once: skewed compute and analytic charges,
/// a ring exchange on two tags with unequal sizes (received in the
/// opposite order to the sends), the three collectives back to back (so
/// a fast rank enters the next one before a slow rank has left the
/// last), and the highest rank returning while the others still compute
/// and pass one more message down the line.
pub fn every_event(ctx: &mut RankCtx) {
    let (me, n) = (ctx.rank(), ctx.size());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);

    compute(ctx, 0, 96 + 32 * me as u64);
    ctx.charge(1_000 * (me as u64 + 1));

    ctx.send(next, 1, vec![me as u8; 64 + 512 * me]);
    ctx.send(next, 2, vec![me as u8; 4096]);
    assert_eq!(ctx.recv(prev, 2), vec![prev as u8; 4096]);
    assert_eq!(ctx.recv(prev, 1), vec![prev as u8; 64 + 512 * prev]);

    ctx.barrier();
    let sum = ctx.allreduce_f64(&[me as f64, 1.0], ReduceOp::Sum);
    assert_eq!(sum, vec![(n * (n - 1) / 2) as f64, n as f64]);
    let sends = (0..n)
        .map(|d| vec![me as u8; if d == me { 0 } else { 128 * (d + 1) }])
        .collect();
    let got = ctx.alltoallv(sends);
    for (src, payload) in got.iter().enumerate() {
        let len = if src == me { 0 } else { 128 * (me + 1) };
        assert_eq!(payload, &vec![src as u8; len]);
    }

    if me == n - 1 {
        return;
    }
    compute(ctx, 0x20_0000, 48);
    ctx.charge(300);
    if me > 0 {
        assert_eq!(ctx.recv(me - 1, 3), vec![7; 24]);
    }
    if me + 1 < n - 1 {
        ctx.send(me + 1, 3, vec![7; 24]);
    }
}

/// What a run of [`every_event`] reports: its `WorldReport` without the
/// cycle stacks, and each rank's MPI send and wait cycles from them.
pub fn observed(report: &WorldReport) -> Value {
    let stacks = report
        .run
        .telemetry
        .as_ref()
        .expect("telemetry enabled on the SoC config");
    let per_rank = |bucket: Bucket| {
        let cycles = stacks[..report.rank_cycles.len()]
            .iter()
            .map(|s| s.get(bucket));
        Value::Seq(cycles.map(Value::U64).collect())
    };
    let mut world = report.clone();
    world.run.telemetry = None;
    Value::Map(vec![
        ("report".into(), world.to_value()),
        ("send_cycles".into(), per_rank(Bucket::MpiSend)),
        ("wait_cycles".into(), per_rank(Bucket::MpiWait)),
    ])
}
