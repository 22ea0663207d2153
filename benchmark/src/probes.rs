//! Fixed probes: one layer's public entry point on a fixed input, the
//! same in every traced run of every workload. They give `engine`,
//! `dist` and `telemetry` a number while no end-to-end workload runs
//! through them (a stated gap), and the `mem`, `uarch`, `mpi` and `svc`
//! layers a figure that does not depend on what a workload happens to
//! send them.

use crate::stats::median;
use crate::workloads::{stage, Layers};
use silicon_bridge::core::experiments::microbench_cell;
use silicon_bridge::dist::frame::{read_frame, write_frame};
use silicon_bridge::dist::graph::{demo_ring, rank_view, DemoNode};
use silicon_bridge::dist::{Frame, RankGraph};
use silicon_bridge::engine::{CounterBlock, FaultPlan, Harness, TickModel, WatchdogConfig, Wire};
use silicon_bridge::mem::{AccessKind, MemoryHierarchy};
use silicon_bridge::mpi::{MpiWorld, NetConfig, RankCtx, ReduceOp};
use silicon_bridge::soc::{configs, Soc, SocConfig, TelemetryConfig};
use silicon_bridge::svc::{client, micro_cell_key, Daemon, DaemonConfig, ResultStore, SvcRequest};
use silicon_bridge::uarch::MicroOp;
use silicon_bridge::workloads::microbench;
use silicon_bridge::workloads::TraceGen;
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Median seconds of three runs of `f`.
fn time3(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

/// ns per access of `n` accesses to `addr(i)` after one untimed lap.
fn mem_probe(n: u64, addr: impl Fn(u64) -> u64) -> f64 {
    let mut mem = MemoryHierarchy::new(configs::large_boom(1).hierarchy);
    let mut now = 0;
    let lap = |mem: &mut MemoryHierarchy, now: &mut u64| {
        for i in 0..n {
            *now = mem
                .access(0, addr(i), AccessKind::Load, *now + 1)
                .complete_at;
        }
    };
    lap(&mut mem, &mut now);
    let t = Instant::now();
    lap(&mut mem, &mut now);
    black_box(mem.stats());
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// A fixed micro-op stream: dependent and independent ALU and FP work,
/// L1-resident loads and stores, loop branches.
fn uop_stream(n_blocks: u64) -> Vec<MicroOp> {
    let mut uops = Vec::new();
    {
        let mut sink = |u: &MicroOp| uops.push(*u);
        let mut g = TraceGen::new(&mut sink);
        for i in 0..n_blocks {
            g.int_ops(6, i % 2 == 0);
            g.load(0x10_0000 + (i % 256) * 64);
            g.flops(4, false);
            g.store(0x20_0000 + (i % 256) * 64);
            g.loop_overhead(7, 1);
        }
    }
    uops
}

fn core_muops_per_s(cfg: SocConfig, uops: &[MicroOp]) -> f64 {
    let s = time3(|| {
        let mut soc = Soc::new(cfg.clone());
        stage::consume(&mut soc, std::iter::once((0, uops)));
        black_box(soc.report(None));
    });
    uops.len() as f64 / s / 1e6
}

/// Host µs per collective: `n` of them on 4 ranks with nothing between.
fn mpi_us(n: usize, collective: impl Fn(&mut RankCtx) + Sync) -> f64 {
    let s = time3(|| {
        black_box(MpiWorld::run(
            configs::rocket1(4),
            4,
            NetConfig::shared_memory(),
            |ctx| {
                for _ in 0..n {
                    collective(ctx);
                }
            },
        ));
    });
    s * 1e6 / n as f64
}

/// The token-engine ring of `ablation_engine`: an LCG per model.
struct Lfsr(u64);

impl TickModel for Lfsr {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(inputs[0] ^ cycle);
        outputs[0] = self.0 >> 13;
    }
}

/// The mostly idle ring of `ablation_fastforward`: one token per period.
struct Beacon {
    next: u64,
    state: u64,
}

const BEACON_PERIOD: u64 = 512;

impl TickModel for Beacon {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
        if inputs[0] != 0 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(inputs[0]);
        }
        if cycle >= self.next {
            outputs[0] = self.state | 1;
            self.next = cycle + BEACON_PERIOD;
        } else {
            outputs[0] = 0;
        }
    }
    fn next_activity(&self) -> Option<u64> {
        Some(self.next)
    }
}

fn ring_wires(n: usize, latency: u64) -> Vec<Wire> {
    (0..n)
        .map(|i| Wire {
            from_model: i,
            from_port: 0,
            to_model: (i + 1) % n,
            to_port: 0,
            latency,
        })
        .collect()
}

fn lfsr_ring(n: usize, latency: u64) -> Harness<Lfsr> {
    Harness::new((1..=n as u64).map(Lfsr).collect(), ring_wires(n, latency))
}

fn engine(out: &mut Layers, scale: u64) {
    const QUANTUM: usize = 32;
    let cycles = 200_000 / scale;
    let mcps = |s: f64| cycles as f64 / s / 1e6;
    out.set(
        "engine.ring_seq_mcps",
        mcps(time3(|| {
            black_box(lfsr_ring(4, 1).run(cycles));
        })),
    );
    // Two models, two host threads: the 2-core host's parallel schedule.
    let par_s = time3(|| {
        black_box(lfsr_ring(2, 32).run_parallel(cycles, QUANTUM));
    });
    out.set("engine.ring_par_mcps", mcps(par_s));
    let guarded_s = time3(|| {
        let run = lfsr_ring(2, 32).run_guarded(
            cycles,
            QUANTUM,
            &FaultPlan::new(0),
            WatchdogConfig::default(),
            &mut CounterBlock::new(false),
        );
        black_box(run.is_ok());
    });
    out.set(
        "engine.guarded_overhead_pct",
        100.0 * (guarded_s - par_s) / par_s,
    );
    let ff_cycles = 20 * cycles;
    let ff_s = time3(|| {
        let models = (1..=4).map(|state| Beacon { next: 0, state }).collect();
        black_box(Harness::new(models, ring_wires(4, 1)).run(ff_cycles));
    });
    out.set("engine.ring_ff_mcps", ff_cycles as f64 / ff_s / 1e6);
}

/// The demo ring split over two ranks on socket pairs, one thread each.
fn two_rank_ring(cycles: u64) {
    const QUANTUM: usize = 16;
    let (models, wires) = demo_ring(4, 0xB51D, 2);
    let assignment = [0usize, 0, 1, 1];
    let views = [
        rank_view(&assignment, &wires, 0),
        rank_view(&assignment, &wires, 1),
    ];
    // One socket pair per cut wire: the producer rank writes, the
    // consumer rank reads.
    let mut pairs: Vec<(usize, Option<UnixStream>, Option<UnixStream>)> = views
        .iter()
        .flat_map(|v| v.outs.iter())
        .map(|cut| {
            let (w, r) = UnixStream::pair().expect("socket pairs are available");
            (cut.wire, Some(w), Some(r))
        })
        .collect();
    let graphs: Vec<RankGraph<DemoNode>> = views
        .iter()
        .map(|view| {
            let mut end = |wire: usize, write: bool| {
                let pair = pairs
                    .iter_mut()
                    .find(|p| p.0 == wire)
                    .expect("every cut wire has a pair");
                if write { pair.1.take() } else { pair.2.take() }.expect("each end is used once")
            };
            let ins = view
                .ins
                .iter()
                .map(|cut| Box::new(end(cut.wire, false)) as Box<dyn Read + Send>)
                .collect();
            let outs = view
                .outs
                .iter()
                .map(|cut| Box::new(end(cut.wire, true)) as Box<dyn Write + Send>)
                .collect();
            let local = view
                .local_models
                .iter()
                .map(|&g| models[g].clone())
                .collect();
            RankGraph::new(local, view, ins, outs, QUANTUM, true)
        })
        .collect();
    // Each rank hands its graph back, so no socket closes while the other
    // rank still flushes its last tokens into it.
    let finished: Vec<RankGraph<DemoNode>> = std::thread::scope(|scope| {
        let ranks: Vec<_> = graphs
            .into_iter()
            .map(|mut graph| {
                scope.spawn(move || {
                    graph.run(cycles).expect("loopback links do not fail");
                    graph
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank threads do not panic"))
            .collect()
    });
    black_box(finished.iter().map(RankGraph::cycle).sum::<u64>());
}

fn dist(out: &mut Layers, scale: u64) {
    let frame = Frame::Data {
        start: 0,
        tokens: (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
    };
    let reps = 2000 / scale as usize;
    let mut wire = Vec::new();
    let encode_s = time3(|| {
        wire.clear();
        for _ in 0..reps {
            write_frame(&mut wire, &frame).expect("writing to memory does not fail");
        }
    });
    let mb = wire.len() as f64 / (1 << 20) as f64;
    out.set("dist.frame_encode_mb_per_s", mb / encode_s);
    let decode_s = time3(|| {
        let mut r = Cursor::new(&wire);
        for _ in 0..reps {
            black_box(read_frame(&mut r).expect("the frames just written decode"));
        }
    });
    out.set("dist.frame_decode_mb_per_s", mb / decode_s);

    let cycles = 10_000 / scale;
    let cut_s = time3(|| two_rank_ring(cycles));
    out.set("dist.rankgraph_mcps", cycles as f64 / cut_s / 1e6);
    let whole_s = time3(|| {
        let (models, wires) = demo_ring(4, 0xB51D, 2);
        black_box(Harness::new(models, wires).run(cycles));
    });
    out.set("dist.cut_overhead_x", cut_s / whole_s);
}

fn telemetry(out: &mut Layers) {
    let kernel = microbench::suite()
        .into_iter()
        .find(|k| k.name == "EM5")
        .expect("EM5 is in the suite");
    let prog = kernel.build(1);
    let run = |tel: TelemetryConfig| {
        let mut cycles = 0;
        let s = time3(|| {
            let mut soc = Soc::new(configs::rocket1(1).with_telemetry(tel));
            cycles = soc.run_program(0, &prog, u64::MAX).cycles;
        });
        (s, cycles)
    };
    let (off_s, off_cycles) = run(TelemetryConfig::disabled());
    let (on_s, on_cycles) = run(TelemetryConfig::counters());
    assert_eq!(
        off_cycles, on_cycles,
        "telemetry must not move simulated cycles"
    );
    out.set("telemetry.on_overhead_pct", 100.0 * (on_s - off_s) / off_s);
}

fn svc(out: &mut Layers, scale: u64) {
    let cfg = configs::rocket1(1);
    let n = 2000 / scale;
    let s = time3(|| {
        for seed in 0..n {
            black_box(micro_cell_key(&cfg, "EM5", 1, seed));
        }
    });
    out.set("svc.key_hash_us", s * 1e6 / n as f64);

    let body = r#"{"kind":"sweep","platforms":["Rocket 1","Large BOOM"],"kernels":["EM5","STc","Cca","ED1"]}"#;
    let n = 200 / scale;
    let s = time3(|| {
        for _ in 0..n {
            let req = SvcRequest::parse(body).expect("the probe body is well-formed");
            black_box(req.preflight(64).has_errors());
            black_box(req.cells());
        }
    });
    out.set("svc.parse_us", s * 1e6 / n as f64);

    let tree = serde::Serialize::to_value(
        &microbench_cell(cfg.clone(), "EM5", 1).expect("EM5 is in the suite"),
    );
    let keys: Vec<String> = (0..256)
        .map(|seed| micro_cell_key(&cfg, "EM5", 1, seed))
        .collect();
    let mut store = ResultStore::ephemeral();
    let s = time3(|| {
        for key in &keys {
            store.put(key, &tree);
        }
    });
    out.set("svc.store_put_us", s * 1e6 / keys.len() as f64);
    let s = time3(|| {
        for key in &keys {
            black_box(store.get(key));
        }
    });
    out.set("svc.store_get_us", s * 1e6 / keys.len() as f64);

    // The cheapest exchange the wire has: a status query for no job.
    if let Ok((daemon, _)) = Daemon::spawn(DaemonConfig::default()) {
        let addr = daemon.addr();
        let n = 300 / scale;
        let s = time3(|| {
            for _ in 0..n {
                black_box(client::status(&addr, "job-0").is_ok());
            }
        });
        out.set("svc.roundtrip_us", s * 1e6 / n as f64);
        let _ = client::shutdown(&addr);
        daemon.join();
    }
}

/// Runs every fixed probe; `smoke` shrinks them tenfold.
pub fn run(out: &mut Layers, smoke: bool) {
    let scale = if smoke { 10 } else { 1 };
    // One line over and over; a 256 KiB lap (misses the 32 KiB L1, fits
    // the L2); a 256 MiB lap (misses everything).
    out.set(
        "mem.l1_hit_ns",
        mem_probe(2_000_000 / scale, |i| 0x10_0000 + (i % 64) * 64),
    );
    out.set(
        "mem.l2_hit_ns",
        mem_probe(400_000 / scale, |i| 0x10_0000 + (i % 4096) * 64),
    );
    out.set(
        "mem.dram_ns",
        mem_probe(200_000 / scale, |i| 0x1000_0000 + (i % (1 << 22)) * 64),
    );
    let uops = uop_stream(60_000 / scale);
    out.set(
        "uarch.inorder_muops_per_s",
        core_muops_per_s(configs::rocket1(1), &uops),
    );
    out.set(
        "uarch.ooo_muops_per_s",
        core_muops_per_s(configs::large_boom(1), &uops),
    );
    out.set(
        "mpi.allreduce_us",
        mpi_us(2000 / scale as usize, |ctx| {
            black_box(ctx.allreduce_f64(&[1.0], ReduceOp::Sum));
        }),
    );
    out.set(
        "mpi.alltoall_us",
        mpi_us(1000 / scale as usize, |ctx| {
            black_box(ctx.alltoallv(vec![vec![0u8; 1024]; 4]));
        }),
    );
    engine(out, scale);
    dist(out, scale);
    telemetry(out);
    svc(out, scale);
}
