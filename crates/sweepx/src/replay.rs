//! Multi-lane replay of a recorded world.
//!
//! [`replay_world`] ticks N platform configs ("lanes") through one
//! recorded [`WorldTrace`] in a single linear pass. A lane is a
//! [`bsim_mpi::Timing`] — the same code, event for event, that
//! [`bsim_mpi::MpiWorld::run`] drives while the rank programs execute —
//! so a full (unsampled) replay gives each lane the [`WorldReport`] a
//! scalar run of its config gives, byte for byte in its JSON
//! serialization. Trace decode and event iteration happen once;
//! everything per-config — tile pipelines, cache tag/LRU arrays, DRAM
//! bank/row state, message and collective clocks, the MPI send/wait
//! counters — is lane state.
//!
//! What this file adds is the **lane-inner quantum** — a micro-op
//! segment goes through the lanes one shared quantum at a time, so each
//! quantum is applied to every lane while it is hot — the **shared
//! front end**, and **sampling**. Lanes whose configs have one
//! front key (`lane::FrontKey`) make the same branch, TLB and L1 tag
//! decisions: in each quantum the first lane of such a group decides
//! them and records them, and the others time from its record
//! (`bsim_mem::front`). With a [`SampleCfg`], Consume segments outside
//! the [`SamplePlan`] become a per-lane `Charge` of the segment's stratum
//! estimate instead of per-op timing (communication events are never
//! skipped), and each lane's [`SampleReport`] carries the stratified
//! error bound. The skip decision is shared, so a group's lanes time the
//! same segments.

use crate::lane::{front_groups, TraceKey};
use crate::sample::{signature, SampleCfg, SamplePlan, SampleReport, Strata};
use bsim_mpi::{Ev, NetConfig, Timing, WorldReport, WorldTrace};
use bsim_soc::front::FrontRecord;
use bsim_soc::SocConfig;

/// Micro-ops fed to one lane before moving to the next: small enough
/// for the shared quantum to stay cache-hot across lanes, large enough
/// to amortize the lane switch. Not `bsim_soc::RUN_QUANTUM` (1024):
/// that one sizes a buffer between a producer and one core, this one
/// pays for swapping a whole lane's model state in per pass.
const QUANTUM: usize = 8192;

/// Where a lane's front-end decisions come from.
#[derive(Clone, Copy)]
enum Role {
    /// Its own state: a lane whose front end no other lane shares.
    Own,
    /// Its own state, recorded into the group's record.
    Lead(usize),
    /// The group's record.
    Follow(usize),
}

/// Each lane's role, and one record per group of two or more lanes.
fn roles(cfgs: &[SocConfig]) -> (Vec<Role>, Vec<FrontRecord>) {
    let mut roles = vec![Role::Own; cfgs.len()];
    let mut records = Vec::new();
    for group in front_groups(cfgs).into_iter().filter(|g| g.len() > 1) {
        roles[group[0]] = Role::Lead(records.len());
        for &lane in &group[1..] {
            roles[lane] = Role::Follow(records.len());
        }
        records.push(FrontRecord::default());
    }
    (roles, records)
}

/// One lane's replay outcome.
#[derive(Debug)]
pub struct LaneOutcome {
    /// The replayed world report (bit-identical to the scalar run when
    /// unsampled).
    pub report: WorldReport,
    /// Sampling estimate and error bound, when sampling was on.
    pub sample: Option<SampleReport>,
}

/// Replays `trace` over every config in `cfgs` as parallel lanes.
///
/// Panics when a lane's trace-shaping knobs disagree with the trace
/// and on malformed traces.
pub fn replay_world(
    trace: &WorldTrace,
    cfgs: &[SocConfig],
    net: NetConfig,
    sample: Option<&SampleCfg>,
) -> Vec<LaneOutcome> {
    for cfg in cfgs {
        assert!(
            trace.compatible(cfg.simd_lanes, cfg.compiler_overhead_per_mille),
            "config '{}' does not match the trace key {:?}",
            cfg.name,
            TraceKey {
                ranks: trace.ranks,
                simd_lanes: trace.simd_lanes,
                compiler_overhead_per_mille: trace.compiler_overhead_per_mille
            },
        );
    }
    let (events, uops) = (&trace.events[..], &trace.uops[..]);
    let mut lanes: Vec<Timing> = (cfgs.iter())
        .map(|cfg| Timing::new(cfg, trace.ranks, net))
        .collect();
    let (roles, mut records) = roles(cfgs);
    // Sampling plan over the stream's segments (one per Consume event),
    // shared by every lane; strata accumulate per lane.
    let plan = sample.map(|cfg| {
        let segs = events.iter().filter_map(|ev| match *ev {
            Ev::Consume { start, len, .. } => Some(&uops[start..start + len]),
            _ => None,
        });
        let sigs: Vec<_> = segs.clone().map(signature).collect();
        SamplePlan::build(&sigs, segs.map(<[_]>::len).collect(), cfg)
    });
    let mut strata: Vec<Strata> = match (&plan, sample) {
        (Some(p), Some(cfg)) => cfgs.iter().map(|_| Strata::new(p.clusters, cfg)).collect(),
        _ => Vec::new(),
    };
    let mut seg = 0usize; // Consume-event ordinal, indexes the plan.

    for &ev in events {
        let Ev::Consume { rank, start, len } = ev else {
            lanes.iter_mut().for_each(|lane| lane.apply(ev, uops));
            continue;
        };
        let clock = |lane: &mut Timing| lane.soc().core_cycles(rank as usize);
        let stratum = plan.as_ref().map(|p| (p.cluster_of[seg], p.measured[seg]));
        seg += 1;
        match stratum {
            // Fast-forward: charge each lane its stratum's measured
            // cycles-per-op estimate for this segment. Only once every
            // lane's stratum has quiesced: the decision is shared so the
            // lanes walk the arena together, and the slowest-warming
            // lane keeps its siblings honest.
            Some((cluster, false)) if strata.iter().all(|st| st.quiesced(cluster)) => {
                for (lane, st) in lanes.iter_mut().zip(&mut strata) {
                    let cycles = st
                        .skip(cluster, len)
                        .expect("the guard saw this stratum quiesced on every lane");
                    lane.apply(Ev::Charge { rank, cycles }, uops);
                }
            }
            _ => {
                let t0: Vec<u64> = match stratum {
                    Some(_) => lanes.iter_mut().map(clock).collect(),
                    None => Vec::new(),
                };
                for at in (start..start + len).step_by(QUANTUM) {
                    let quantum = Ev::Consume {
                        rank,
                        start: at,
                        len: QUANTUM.min(start + len - at),
                    };
                    // A group's leader comes before its followers.
                    for (lane, &role) in lanes.iter_mut().zip(&roles) {
                        match role {
                            Role::Own => lane.apply(quantum, uops),
                            Role::Lead(g) => lane.apply_with(quantum, uops, &mut records[g].lead()),
                            Role::Follow(g) => {
                                let mut front = records[g].follow();
                                lane.apply_with(quantum, uops, &mut front);
                                debug_assert!(front.done(), "a follower left decisions unread");
                            }
                        }
                    }
                }
                if let Some((cluster, _)) = stratum {
                    for ((lane, st), t0) in lanes.iter_mut().zip(&mut strata).zip(t0) {
                        st.measure(cluster, len, clock(lane) - t0);
                    }
                }
            }
        }
    }

    (lanes.into_iter().zip(cfgs).enumerate())
        .map(|(lane, (timing, cfg))| {
            let report = timing.into_report();
            let sample = plan
                .as_ref()
                .map(|p| strata[lane].report(p, report.run.cycles, 1.0 / (cfg.freq_ghz * 1e9)));
            LaneOutcome { report, sample }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;
    use bsim_workloads::npb::cg;

    fn cg_cfg() -> cg::CgConfig {
        cg::CgConfig {
            n: 256,
            nnz_per_row: 7,
            iters: 2,
        }
    }

    #[test]
    fn sampled_replay_reports_bounds_and_stays_close() {
        let net = NetConfig::shared_memory();
        let (_, trace) = cg::record(configs::rocket1(2), 2, cg_cfg(), net);
        let cfgs = [configs::rocket1(2), configs::large_boom(2)];
        let full = replay_world(&trace, &cfgs, net, None);
        let sampled = replay_world(&trace, &cfgs, net, Some(&SampleCfg::default()));
        for (f, s) in full.iter().zip(&sampled) {
            let rep = s.sample.as_ref().expect("sampling was on");
            assert!(rep.measured_segments <= rep.segments);
            let est = s.report.run.cycles as f64;
            let truth = f.report.run.cycles as f64;
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.25, "sampled {est} vs full {truth} ({rel:.3} off)");
            assert!(rep.rel_stderr("cycles").is_some());
        }
    }
}
