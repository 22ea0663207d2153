//! The multi-lane world-replay kernel.
//!
//! [`replay_world`] ticks N platform configs ("lanes") through one
//! recorded [`WorldTrace`] in a single linear pass: trace decode and
//! event iteration happen once, while everything per-config — tile
//! pipelines, cache tag/LRU arrays, DRAM bank/row state, the MPI
//! send/wait counters — lives in struct-of-lanes state advanced in an
//! inner lane loop. Consume segments are processed in fixed micro-op
//! quanta with the lane loop innermost, so each quantum of the shared
//! uop arena is decoded once and applied to every lane while it is hot.
//!
//! **Bit identity.** The recorded event order *is* the scalar
//! scheduler's global turn order (every recorded call happens while the
//! acting rank holds the turn), and each event's timing update mirrors
//! `bsim_mpi::RankCtx` formula-for-formula: sends charge
//! `o_send + transfer(n)` and stamp `arrival(local, n)` from the
//! pre-advance clock; receives advance to `arrival.max(local) + o_recv`;
//! collectives release every rank at `collective_cost(max_entry, ranks,
//! max_bytes)`. A full (unsampled) replay therefore produces a
//! [`WorldReport`] whose JSON serialization is byte-identical to the
//! scalar run of the same config — the retained scalar path stays the
//! ground truth and the A/B tests in `tests/lane_ab.rs` hold the kernel
//! to it.
//!
//! **Sampling.** With a [`SampleCfg`], Consume segments outside the
//! [`SamplePlan`] fast-forward each lane's clock by the segment's
//! stratum estimate instead of per-op timing (communication events are
//! never skipped), and each lane's [`SampleReport`] carries the
//! stratified error bound.

use crate::lane::TraceKey;
use crate::sample::{signature, SampleCfg, SamplePlan, SampleReport, Strata};
use bsim_mpi::{publish_rank_counters, Ev, NetConfig, WorldReport, WorldTrace};
use bsim_soc::{Soc, SocConfig};
use std::collections::{HashMap, VecDeque};

/// Micro-ops decoded per SoA pass: small enough for the shared quantum
/// to stay cache-hot across lanes, large enough to amortize the lane
/// switch.
const QUANTUM: usize = 8192;

/// One lane's replay outcome.
#[derive(Debug)]
pub struct LaneOutcome {
    /// The replayed world report (bit-identical to the scalar run when
    /// unsampled).
    pub report: WorldReport,
    /// Sampling estimate and error bound, when sampling was on.
    pub sample: Option<SampleReport>,
}

/// One in-flight collective generation during replay. Fast ranks may
/// enter generation `g+1` before a laggard exits `g`, so generations
/// are tracked by per-rank enter/exit cursors rather than a single
/// global slot (the scalar scheduler gets this for free from its
/// `done_generation` handshake).
struct CollGen {
    entered: usize,
    bytes: usize,
    /// Per-lane latest entry clock.
    max_entry: Vec<u64>,
    /// Per-lane release clock, valid once `released`.
    release: Vec<u64>,
    released: bool,
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
    let ranks = trace.ranks;
    let nl = cfgs.len();
    for cfg in cfgs {
        assert!(
            trace.compatible(cfg.simd_lanes, cfg.compiler_overhead_per_mille),
            "config '{}' does not match the trace key {:?}",
            cfg.name,
            TraceKey {
                ranks,
                simd_lanes: trace.simd_lanes,
                compiler_overhead_per_mille: trace.compiler_overhead_per_mille
            },
        );
    }
    let mut socs: Vec<Soc> = cfgs.iter().map(|c| Soc::new(c.clone())).collect();

    // Sampling plan over the trace's natural segments (one per Consume
    // event), shared by every lane; strata accumulate per lane.
    let plan = sample.map(|cfg| {
        let mut sigs = Vec::new();
        let mut lens = Vec::new();
        for ev in &trace.events {
            if let Ev::Consume { start, len, .. } = *ev {
                sigs.push(signature(&trace.uops[start..start + len]));
                lens.push(len);
            }
        }
        SamplePlan::build(&sigs, lens, cfg)
    });
    let mut strata: Vec<Strata> = match (&plan, sample) {
        (Some(p), Some(cfg)) => (0..nl).map(|_| Strata::new(p.clusters, cfg)).collect(),
        _ => Vec::new(),
    };

    // Struct-of-lanes message timing: per (src, dst, tag) FIFO of
    // per-lane arrival stamps. Keyed lookups only — never iterated — so
    // map order cannot leak into results.
    let mut mail: HashMap<(u32, u32, u32), VecDeque<Vec<u64>>> = HashMap::new();
    let mut gens: Vec<CollGen> = Vec::new();
    let mut enter_ptr = vec![0usize; ranks];
    let mut exit_ptr = vec![0usize; ranks];
    // Lane-major MPI cycle counters: index `lane * ranks + rank`.
    let mut tel_send = vec![0u64; nl * ranks];
    let mut tel_wait = vec![0u64; nl * ranks];
    let mut seg = 0usize; // Consume-event ordinal, indexes the plan.

    for ev in &trace.events {
        match *ev {
            Ev::Consume { rank, start, len } => {
                let rank = rank as usize;
                let this_seg = seg;
                seg += 1;
                let detailed = match &plan {
                    None => true,
                    Some(p) => {
                        // Detailed until every lane's stratum has
                        // quiesced: the decision is shared across
                        // lanes so the SoA pass decodes once, and the
                        // slowest-warming lane keeps its siblings
                        // honest.
                        p.measured[this_seg]
                            || strata.iter().any(|st| !st.quiesced(p.cluster_of[this_seg]))
                    }
                };
                if detailed {
                    let t0: Vec<u64> = if plan.is_some() {
                        socs.iter().map(|s| s.core_cycles(rank)).collect()
                    } else {
                        Vec::new()
                    };
                    // The SoA pass: decode one quantum of the shared
                    // arena, tick it through every lane while hot.
                    for chunk in trace.uops[start..start + len].chunks(QUANTUM) {
                        for soc in socs.iter_mut() {
                            soc.consume_batch(rank, chunk);
                        }
                    }
                    if let Some(p) = &plan {
                        for (lane, soc) in socs.iter_mut().enumerate() {
                            let dt = soc.core_cycles(rank) - t0[lane];
                            strata[lane].measure(p.cluster_of[this_seg], len, dt);
                        }
                    }
                } else if let Some(p) = &plan {
                    // Fast-forward: charge each lane its stratum's
                    // measured cycles-per-op estimate for this segment.
                    for (lane, soc) in socs.iter_mut().enumerate() {
                        let est = strata[lane]
                            .skip(p.cluster_of[this_seg], len)
                            // skip() is Some whenever quiesced() held for
                            // every lane, which the detailed-path guard
                            // just checked.
                            // bsim: allow(AU002)
                            .expect("detailed-path guard saw this stratum quiesced");
                        let local = soc.core_cycles(rank);
                        soc.advance_core(rank, local + est);
                    }
                }
            }
            Ev::Charge { rank, cycles } => {
                let rank = rank as usize;
                for soc in socs.iter_mut() {
                    let t = soc.core_cycles(rank) + cycles;
                    soc.advance_core(rank, t);
                }
            }
            Ev::Send {
                rank,
                dst,
                tag,
                nbytes,
            } => {
                let r = rank as usize;
                let mut arrivals = Vec::with_capacity(nl);
                for (lane, soc) in socs.iter_mut().enumerate() {
                    let local = soc.core_cycles(r);
                    let busy = net.o_send + net.transfer_cycles(nbytes);
                    soc.advance_core(r, local + busy);
                    arrivals.push(net.arrival(local, nbytes));
                    tel_send[lane * ranks + r] += busy;
                }
                mail.entry((rank, dst, tag))
                    .or_default()
                    .push_back(arrivals);
            }
            Ev::Recv { rank, src, tag } => {
                let r = rank as usize;
                let arrivals = mail
                    .get_mut(&(src, rank, tag))
                    .and_then(|q| q.pop_front())
                    // The recorder emits Send before the matching Recv in
                    // global turn order; an empty queue means a corrupted
                    // trace, not a race worth recovering from.
                    // bsim: allow(AU002)
                    .expect("malformed trace: recv with no matching send");
                for (lane, soc) in socs.iter_mut().enumerate() {
                    let local = soc.core_cycles(r);
                    let done = arrivals[lane].max(local) + net.o_recv;
                    soc.advance_core(r, done);
                    tel_wait[lane * ranks + r] += done.saturating_sub(local);
                }
            }
            Ev::CollEnter { rank, bytes } => {
                let r = rank as usize;
                let g = enter_ptr[r];
                if gens.len() == g {
                    gens.push(CollGen {
                        entered: 0,
                        bytes: 0,
                        max_entry: vec![0; nl],
                        release: vec![0; nl],
                        released: false,
                    });
                }
                let gen = &mut gens[g];
                gen.entered += 1;
                gen.bytes = gen.bytes.max(bytes);
                for (lane, soc) in socs.iter().enumerate() {
                    gen.max_entry[lane] = gen.max_entry[lane].max(soc.core_cycles(r));
                }
                if gen.entered == ranks {
                    // Last arriver publishes, exactly as in the scalar
                    // scheduler.
                    for lane in 0..nl {
                        gen.release[lane] =
                            net.collective_cost(gen.max_entry[lane], ranks, gen.bytes);
                    }
                    gen.released = true;
                }
                enter_ptr[r] += 1;
            }
            Ev::CollExit { rank } => {
                let r = rank as usize;
                let gen = &gens[exit_ptr[r]];
                assert!(
                    gen.released,
                    "malformed trace: collective exit before all ranks entered"
                );
                for (lane, soc) in socs.iter_mut().enumerate() {
                    let local = soc.core_cycles(r);
                    soc.advance_core(r, gen.release[lane]);
                    tel_wait[lane * ranks + r] += gen.release[lane].saturating_sub(local);
                }
                exit_ptr[r] += 1;
            }
            Ev::Finish {
                rank,
                messages,
                bytes,
            } => {
                // Publish this rank's MPI counters per lane, at the
                // same point in the global order as the scalar
                // `publish_telemetry`, so counter registration order —
                // and thus export bytes — match the scalar run.
                let r = rank as usize;
                for (lane, soc) in socs.iter_mut().enumerate() {
                    publish_rank_counters(
                        soc,
                        r,
                        messages,
                        bytes,
                        tel_send[lane * ranks + r],
                        tel_wait[lane * ranks + r],
                    );
                }
            }
        }
    }

    socs.into_iter()
        .enumerate()
        .map(|(lane, mut soc)| {
            let rank_cycles: Vec<u64> = (0..ranks).map(|r| soc.core_cycles(r)).collect();
            let run = soc.report(None);
            let sample = plan
                .as_ref()
                .map(|p| strata[lane].report(p, run.cycles, 1.0 / (cfgs[lane].freq_ghz * 1e9)));
            LaneOutcome {
                report: WorldReport {
                    run,
                    rank_cycles,
                    messages: trace.messages,
                    bytes: trace.bytes,
                },
                sample,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "calibration dump, run by hand with --nocapture"]
    fn dump_strata_rates() {
        use super::*;
        let cfgs = crate::lane::cache_tuning_grid(2, 1);
        let net = bsim_mpi::NetConfig::shared_memory();
        let wl = bsim_workloads::npb::cg::CgConfig::default();
        let (_, trace) = bsim_workloads::npb::cg::record(cfgs[0].clone(), 2, wl, net);
        let scfg = SampleCfg {
            quiesce_tol: 0.15,
            ..SampleCfg::default()
        };
        let ranks = trace.ranks;
        let plan = {
            let mut sigs = Vec::new();
            let mut lens = Vec::new();
            for ev in &trace.events {
                if let Ev::Consume { start, len, .. } = *ev {
                    sigs.push(crate::sample::signature(&trace.uops[start..start + len]));
                    lens.push(len);
                }
            }
            SamplePlan::build(&sigs, lens, &scfg)
        };
        let mut per_cluster: Vec<Vec<usize>> = vec![Vec::new(); plan.clusters];
        for (i, &c) in plan.cluster_of.iter().enumerate() {
            per_cluster[c as usize].push(plan.seg_uops[i]);
        }
        for (c, lens) in per_cluster.iter().enumerate() {
            println!("cluster {c}: {} members, uops {:?}", lens.len(), lens);
        }
        let _ = ranks;
    }

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
