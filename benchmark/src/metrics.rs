//! The ledger's metric tables. `BENCHMARK.json` at the root of the repo
//! lists the same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Name, unit, and which way is better.
pub type Def = (&'static str, &'static str, &'static str);

pub const WORKLOADS: [&str; 4] = ["micro-isa", "apps-mpi", "sweep-lanes", "svc-mixed"];

/// What a user of the simulator sees. Host time throughout.
pub const END_TO_END: [Def; 5] = [
    ("wall_s", "s", "lower"),
    ("sim_minst_per_s", "M/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// One layer each, from the traced run. A metric of a layer that is not
/// on a workload's path reads 0 there.
pub const PER_LAYER: [Def; 87] = [
    // isa
    ("isa.interp_minst_per_s", "M/s", "higher"),
    ("isa.trace_minst_per_s", "M/s", "higher"),
    ("isa.assemble_ms", "ms", "lower"),
    ("isa.insts", "count", "lower"),
    ("isa.self_share", "share", "lower"),
    // uarch
    ("uarch.inorder_muops_per_s", "M/s", "higher"),
    ("uarch.ooo_muops_per_s", "M/s", "higher"),
    ("uarch.uops", "count", "lower"),
    ("uarch.cycles", "count", "lower"),
    ("uarch.mispredicts", "count", "lower"),
    ("uarch.ipc", "1/cycle", "higher"),
    ("uarch.self_share", "share", "lower"),
    // mem
    ("mem.access_ns", "ns", "lower"),
    ("mem.l1_hit_ns", "ns", "lower"),
    ("mem.l2_hit_ns", "ns", "lower"),
    ("mem.dram_ns", "ns", "lower"),
    ("mem.accesses", "count", "lower"),
    ("mem.l1d_hit_ratio", "ratio", "higher"),
    ("mem.l2_hit_ratio", "ratio", "higher"),
    ("mem.dram_reads", "count", "lower"),
    ("mem.dram_writes", "count", "lower"),
    ("mem.self_share", "share", "lower"),
    // soc
    ("soc.new_ms", "ms", "lower"),
    ("soc.report_ms", "ms", "lower"),
    ("soc.self_share", "share", "lower"),
    // workloads
    ("workloads.tracegen_ms", "ms", "lower"),
    ("workloads.tracegen_muops_per_s", "M/s", "higher"),
    ("workloads.self_share", "share", "lower"),
    // mpi
    ("mpi.skeleton_ms", "ms", "lower"),
    ("mpi.collectives", "count", "lower"),
    ("mpi.bytes", "count", "lower"),
    ("mpi.allreduce_us", "us", "lower"),
    ("mpi.alltoall_us", "us", "lower"),
    ("mpi.record_ms", "ms", "lower"),
    ("mpi.self_share", "share", "lower"),
    // core
    ("core.grid_overhead_ms", "ms", "lower"),
    ("core.preflight_ms", "ms", "lower"),
    ("core.cell_p90_ms", "ms", "lower"),
    ("core.render_ms", "ms", "lower"),
    ("core.unattributed_share", "share", "lower"),
    // sweepx
    ("sweepx.record_ms", "ms", "lower"),
    ("sweepx.replay_full_ms", "ms", "lower"),
    ("sweepx.replay_sampled_ms", "ms", "lower"),
    ("sweepx.lane_muops_per_s", "M/s", "higher"),
    ("sweepx.lane_vs_scalar", "x", "higher"),
    ("sweepx.distinct_l1", "count", "lower"),
    ("sweepx.trace_mb", "MB", "lower"),
    ("sweepx.sample_measured_frac", "ratio", "lower"),
    ("sweepx.sample_max_err_pct", "%", "lower"),
    ("sweepx.sample_stderr_pct", "%", "lower"),
    ("sweepx.self_share", "share", "lower"),
    // svc
    ("svc.warm_p50_ms", "ms", "lower"),
    ("svc.warm_p99_ms", "ms", "lower"),
    ("svc.cold_p50_ms", "ms", "lower"),
    ("svc.cold_p90_ms", "ms", "lower"),
    ("svc.open_ms", "ms", "lower"),
    ("svc.flush_ms", "ms", "lower"),
    ("svc.store_get_us", "us", "lower"),
    ("svc.store_put_us", "us", "lower"),
    ("svc.key_hash_us", "us", "lower"),
    ("svc.parse_us", "us", "lower"),
    ("svc.roundtrip_us", "us", "lower"),
    ("svc.cache_hit_ratio", "ratio", "higher"),
    ("svc.cells_simulated", "count", "lower"),
    ("svc.shed", "count", "lower"),
    ("svc.store_mb", "MB", "lower"),
    ("svc.self_share", "share", "lower"),
    // engine, dist, telemetry: fixed probes, no end-to-end workload yet
    ("engine.ring_seq_mcps", "M/s", "higher"),
    ("engine.ring_par_mcps", "M/s", "higher"),
    ("engine.ring_ff_mcps", "M/s", "higher"),
    ("engine.guarded_overhead_pct", "%", "lower"),
    ("dist.frame_encode_mb_per_s", "MB/s", "higher"),
    ("dist.frame_decode_mb_per_s", "MB/s", "higher"),
    ("dist.rankgraph_mcps", "M/s", "higher"),
    ("dist.cut_overhead_x", "x", "lower"),
    ("telemetry.on_overhead_pct", "%", "lower"),
    // host: triage witnesses
    ("host.user_s", "s", "lower"),
    ("host.sys_s", "s", "lower"),
    ("host.sys_share", "share", "lower"),
    ("host.minflt", "count", "lower"),
    ("host.pace_factor", "x", "lower"),
    ("host.pass_spread_pct", "%", "lower"),
    ("host.trace_overhead_pct", "%", "lower"),
    // op-time distribution of the traced pass, with its sample count
    ("ops.count", "count", "higher"),
    ("ops.p50_ms", "ms", "lower"),
    ("ops.tail_ms", "ms", "lower"),
    ("ops.tail_percentile", "%", "higher"),
];

/// Values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`, which must be one of `defs` — a typo is a bug here,
    /// not a silently missing metric.
    pub fn set(&mut self, defs: &[Def], name: &str, value: f64) {
        let def = defs
            .iter()
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.0.insert(def.0, value);
    }

    /// `(name, unit, value)` for every metric of `defs`, unset ones as 0.
    pub fn rows(&self, defs: &[Def]) -> Vec<(&'static str, &'static str, f64)> {
        defs.iter()
            .map(|&(name, unit, _)| (name, unit, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// A JSON number with all the digits of `v`; non-finite values (which no
/// metric should produce) read as 0 rather than break the line.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    rows: &[(&'static str, &'static str, f64)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The contract's name rule: starts with a letter or digit, then at
    /// most 64 of letters, digits, `_`, `.` and `-`.
    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let tree = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
        tree.get(section)
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn owned(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
            .collect()
    }

    #[test]
    fn tables_and_benchmark_json_list_the_same_metrics() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let tree = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads: Vec<&str> = tree
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.0)
            .chain(WORKLOADS);
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    #[test]
    fn the_result_line_emits_every_declared_metric_and_nothing_else() {
        for defs in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut values = Values::default();
            values.set(defs, defs[0].0, 1.25);
            let line = result_line(7, 0, &values.rows(defs));
            let tree = serde_json::from_str(&line).expect("the result line is JSON");
            let Value::Map(top) = &tree else {
                panic!("an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(tree.get("correct").and_then(Value::as_bool), Some(true));
            let Some(Value::Map(metrics)) = tree.get("metrics") else {
                panic!("metrics")
            };
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let wanted: Vec<&str> = defs.iter().map(|d| d.0).collect();
            assert_eq!(emitted, wanted);
            assert_eq!(
                metrics[0].1.get("value").and_then(Value::as_f64),
                Some(1.25)
            );
            assert_eq!(
                metrics[0].1.get("unit").and_then(Value::as_str),
                Some(defs[0].1)
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn setting_an_undeclared_metric_is_a_bug() {
        Values::default().set(&END_TO_END, "wall_ms", 1.0);
    }
}
