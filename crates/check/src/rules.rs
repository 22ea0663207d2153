//! The domain rule catalog: `CL0xx` config lints over the memory-system
//! and core-model configuration structs.
//!
//! Each `*_lints()` function builds the [`LintRegistry`] for one config
//! type; the `lint_*` composites walk a whole structure (a memory
//! hierarchy, a core model) and run every applicable registry with
//! dotted spans (`milkv_sim.hierarchy.l1d`). SoC-level (`SC0xx`) and
//! paper-fidelity (`PF0xx`) rules live in `bsim-soc::preflight`, next to
//! the platform catalog they judge; the `NC001` network lint lives in
//! `bsim-mpi`, next to `NetConfig`.
//!
//! Every code is documented in `crates/check/README.md`.

use crate::diag::{Diagnostic, Report};
use crate::lint::LintRegistry;
use bsim_mem::cache::CacheConfig;
use bsim_mem::llc::LlcConfig;
use bsim_mem::{BusConfig, DramConfig, HierarchyConfig};
use bsim_uarch::{InOrderConfig, OooConfig, TlbConfig};

/// `CL001`–`CL007`: cache geometry and timing.
pub fn cache_lints() -> LintRegistry<CacheConfig> {
    LintRegistry::new()
        .rule("CL001", "sets must be a power of two", |c: &CacheConfig, span, out| {
            if !c.sets.is_power_of_two() {
                out.push(
                    Diagnostic::error(
                        "CL001",
                        span,
                        format!("sets = {} is not a power of two", c.sets),
                    )
                    .with_help("set indexing uses address bit slices; non-power-of-two set counts cannot be indexed"),
                );
            }
        })
        .rule("CL002", "line size must be a power of two", |c, span, out| {
            if !c.line_bytes.is_power_of_two() {
                out.push(Diagnostic::error(
                    "CL002",
                    span,
                    format!("line_bytes = {} is not a power of two", c.line_bytes),
                ));
            }
        })
        .rule("CL003", "bank count must be a power of two", |c, span, out| {
            if !c.banks.is_power_of_two() {
                out.push(Diagnostic::error(
                    "CL003",
                    span,
                    format!("banks = {} is not a power of two", c.banks),
                ));
            }
        })
        .rule("CL004", "need at least one way", |c, span, out| {
            if c.ways == 0 {
                out.push(Diagnostic::error(
                    "CL004",
                    span,
                    "ways = 0: a cache needs at least one way",
                ));
            }
        })
        .rule("CL005", "associativity should divide the set count", |c, span, out| {
            if c.ways >= 1 && c.sets >= 1 && !c.sets.is_multiple_of(c.ways) {
                out.push(
                    Diagnostic::warning(
                        "CL005",
                        span,
                        format!("ways = {} does not divide sets = {}", c.ways, c.sets),
                    )
                    .with_help("banked LRU arrays are usually sliced ways-per-set-group; uneven slicing wastes tag storage"),
                );
            }
        })
        .rule("CL006", "zero MSHRs means a fully blocking cache", |c, span, out| {
            if c.mshrs == 0 {
                out.push(Diagnostic::note(
                    "CL006",
                    span,
                    "mshrs = 0: the cache blocks on every miss (no memory-level parallelism)",
                ));
            }
        })
        .rule("CL007", "zero hit latency is not a cache", |c, span, out| {
            if c.hit_latency == 0 {
                out.push(Diagnostic::warning(
                    "CL007",
                    span,
                    "hit_latency = 0: hits complete in the issue cycle, which no real SRAM does",
                ));
            }
        })
}

/// `CL010`–`CL011`: system bus.
pub fn bus_lints() -> LintRegistry<BusConfig> {
    LintRegistry::new()
        .rule(
            "CL010",
            "bus width must be a power of two, >= 8 bits",
            |b: &BusConfig, span, out| {
                if !b.width_bits.is_power_of_two() || b.width_bits < 8 {
                    out.push(Diagnostic::error(
                        "CL010",
                        span,
                        format!(
                            "width_bits = {} must be a power of two and at least 8",
                            b.width_bits
                        ),
                    ));
                }
            },
        )
        .rule(
            "CL011",
            "a zero-latency bus is combinational",
            |b, span, out| {
                if b.latency == 0 {
                    out.push(Diagnostic::warning(
                        "CL011",
                        span,
                        "latency = 0: the bus forwards in the issue cycle",
                    ));
                }
            },
        )
}

/// `CL020`–`CL023`: DRAM device and controller parameters.
pub fn dram_lints() -> LintRegistry<DramConfig> {
    LintRegistry::new()
        .rule("CL020", "channel/rank/bank counts must be >= 1", |d: &DramConfig, span, out| {
            for (field, v) in [("channels", d.channels), ("ranks", d.ranks), ("banks", d.banks)] {
                if v == 0 {
                    out.push(Diagnostic::error(
                        "CL020",
                        span,
                        format!("{field} = 0: DRAM needs at least one"),
                    ));
                }
            }
        })
        .rule("CL021", "data rate must be positive", |d, span, out| {
            if d.data_rate_mtps == 0 {
                out.push(Diagnostic::error(
                    "CL021",
                    span,
                    "data_rate_mtps = 0: bandwidth would be zero, every access takes forever",
                ));
            }
        })
        .rule("CL022", "timing parameters must be finite and non-negative", |d, span, out| {
            for (field, v) in [
                ("t_cas_ns", d.t_cas_ns),
                ("t_rcd_ns", d.t_rcd_ns),
                ("t_rp_ns", d.t_rp_ns),
                ("ctrl_latency_ns", d.ctrl_latency_ns),
            ] {
                if !v.is_finite() || v < 0.0 {
                    out.push(Diagnostic::error(
                        "CL022",
                        span,
                        format!("{field} = {v} must be finite and non-negative"),
                    ));
                }
            }
        })
        .rule("CL023", "token quantum must be >= 1 cycle", |d, span, out| {
            if d.token_quantum_cycles == 0 {
                out.push(
                    Diagnostic::error(
                        "CL023",
                        span,
                        "token_quantum_cycles = 0: the DRAM token loop would never advance",
                    )
                    .with_help("silicon references use 1 (no quantization); FireSim's DDR3 model uses 4"),
                );
            }
        })
}

/// `CL030`–`CL032`: TLB sizing.
pub fn tlb_lints() -> LintRegistry<TlbConfig> {
    LintRegistry::new()
        .rule(
            "CL030",
            "L1 TLB needs at least one entry",
            |t: &TlbConfig, span, out| {
                if t.l1_entries == 0 {
                    out.push(Diagnostic::error(
                        "CL030",
                        span,
                        "l1_entries = 0: every access would walk the page table",
                    ));
                }
            },
        )
        .rule(
            "CL031",
            "an L2 TLB, if present, needs entries",
            |t, span, out| {
                if t.l2_entries == Some(0) {
                    out.push(
                        Diagnostic::error("CL031", span, "l2_entries = Some(0): an empty L2 TLB")
                            .with_help("use None to model a single-level TLB"),
                    );
                }
            },
        )
        .rule(
            "CL032",
            "free page walks hide TLB pressure",
            |t, span, out| {
                if t.walk_latency == 0 {
                    out.push(Diagnostic::warning(
                        "CL032",
                        span,
                        "walk_latency = 0: page walks are free, TLB misses cost nothing",
                    ));
                }
            },
        )
}

/// `CL050`–`CL052`: in-order core model.
pub fn inorder_lints() -> LintRegistry<InOrderConfig> {
    LintRegistry::new()
        .rule("CL050", "issue width must be >= 1", |c: &InOrderConfig, span, out| {
            if c.issue_width == 0 {
                out.push(Diagnostic::error(
                    "CL050",
                    span,
                    "issue_width = 0: the core can never issue",
                ));
            }
        })
        .rule("CL051", "fetch should keep up with issue", |c, span, out| {
            if c.fetch_width < c.issue_width {
                out.push(Diagnostic::warning(
                    "CL051",
                    span,
                    format!(
                        "fetch_width = {} < issue_width = {}: the front end starves the issue stage",
                        c.fetch_width, c.issue_width
                    ),
                ));
            }
        })
        .rule("CL052", "pipeline needs at least one stage", |c, span, out| {
            if c.pipeline_depth == 0 {
                out.push(Diagnostic::error(
                    "CL052",
                    span,
                    "pipeline_depth = 0: mispredict penalties and bypass timing are undefined",
                ));
            }
        })
}

/// `CL060`–`CL064`: out-of-order core model.
pub fn ooo_lints() -> LintRegistry<OooConfig> {
    LintRegistry::new()
        .rule(
            "CL060",
            "the RoB needs entries",
            |c: &OooConfig, span, out| {
                if c.rob == 0 {
                    out.push(Diagnostic::error(
                        "CL060",
                        span,
                        "rob = 0: no instruction can be in flight",
                    ));
                }
            },
        )
        .rule(
            "CL061",
            "LSQ entries should fit in the RoB",
            |c, span, out| {
                if c.rob < c.ldq + c.stq {
                    out.push(
                        Diagnostic::warning(
                            "CL061",
                            span,
                            format!(
                                "ldq + stq = {} exceeds rob = {}: part of the LSQ can never fill",
                                c.ldq + c.stq,
                                c.rob
                            ),
                        )
                        .with_help("every queued load/store also occupies a RoB entry"),
                    );
                }
            },
        )
        .rule(
            "CL062",
            "fetch should keep up with decode",
            |c, span, out| {
                if c.fetch_width < c.decode_width {
                    out.push(Diagnostic::warning(
                        "CL062",
                        span,
                        format!(
                            "fetch_width = {} < decode_width = {}: decode starves",
                            c.fetch_width, c.decode_width
                        ),
                    ));
                }
            },
        )
        .rule("CL063", "execution units must exist", |c, span, out| {
            for (field, v) in [
                ("int_units", c.int_units),
                ("mem_ports", c.mem_ports),
                ("fp_units", c.fp_units),
            ] {
                if v == 0 {
                    out.push(Diagnostic::error(
                        "CL063",
                        span,
                        format!("{field} = 0: instructions of that class can never execute"),
                    ));
                }
            }
        })
        .rule(
            "CL064",
            "free branch mispredictions hide the front end",
            |c, span, out| {
                if c.mispredict_penalty == 0 {
                    out.push(Diagnostic::warning(
                        "CL064",
                        span,
                        "mispredict_penalty = 0: branchy code is modeled as perfectly predicted",
                    ));
                }
            },
        )
}

/// A harness run's host-schedule parameters, as seen by the engine
/// lints: the token-exchange `quantum`, the smallest wire latency in
/// the graph (the tightest channel window), how many models publish a
/// `next_activity` quiescence hint, and whether fast-forward is on.
/// Built by `bsim-engine`'s `Harness::lint_schedule`.
#[derive(Clone, Debug)]
pub struct ScheduleSpec {
    /// Token-exchange batch size per lock acquisition.
    pub quantum: usize,
    /// Smallest wire latency in the model graph, in cycles.
    pub min_latency: u64,
    /// Models whose `next_activity()` returns a hint.
    pub hinted_models: usize,
    /// Whether the harness will use quiescence fast-forward.
    pub fast_forward: bool,
}

/// `CL070`–`CL071`: engine host-schedule tuning.
pub fn engine_lints() -> LintRegistry<ScheduleSpec> {
    LintRegistry::new()
        .rule(
            "CL070",
            "quantum exceeds the tightest channel window",
            |s: &ScheduleSpec, span, out| {
                if s.quantum as u64 > s.min_latency && s.min_latency > 0 {
                    out.push(
                        Diagnostic::warning(
                            "CL070",
                            span,
                            format!(
                                "quantum = {} exceeds the smallest channel latency ({}): \
                                 channels must be auto-resized to latency + quantum to hold a batch",
                                s.quantum, s.min_latency
                            ),
                        )
                        .with_help(
                            "a producer can only run `latency` cycles ahead of its consumer, so \
                             batches beyond the smallest latency are latency-bound; the extra \
                             quantum only grows channel buffers",
                        ),
                    );
                }
            },
        )
        .rule(
            "CL071",
            "quiescence hints present but fast-forward disabled",
            |s, span, out| {
                if s.hinted_models > 0 && !s.fast_forward {
                    out.push(
                        Diagnostic::warning(
                            "CL071",
                            span,
                            format!(
                                "{} model(s) publish next_activity() hints but fast-forward is off",
                                s.hinted_models
                            ),
                        )
                        .with_help(
                            "results are bit-identical either way; enable fast-forward with \
                             Harness::with_fast_forward(true) to skip quiescent ticks",
                        ),
                    );
                }
            },
        )
}

/// A distributed partition plan, as seen by the `DL`-series lints: how
/// many worker ranks the graph splits across, the model → rank
/// assignment, and each wire as `(from_model, to_model, latency)`.
/// Built by `bsim-dist`'s partition planner before any process spawns.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Worker ranks (OS processes) the plan targets.
    pub ranks: usize,
    /// Rank owning each model, indexed by model id.
    pub assignment: Vec<usize>,
    /// Every wire in the graph: `(from_model, to_model, latency)`.
    pub wires: Vec<(usize, usize, u64)>,
    /// Token-exchange quantum the remote links batch at.
    pub quantum: usize,
}

impl PartitionSpec {
    /// Wires whose endpoints land on different ranks — the ones that
    /// become socket token links.
    pub fn cut_wires(&self) -> impl Iterator<Item = &(usize, usize, u64)> {
        self.wires.iter().filter(|(f, t, _)| {
            match (self.assignment.get(*f), self.assignment.get(*t)) {
                (Some(a), Some(b)) => a != b,
                _ => false, // dangling endpoints are DL004's problem
            }
        })
    }
}

/// `DL001`–`DL006`: distributed partition-plan lints. Errors here mean
/// the plan cannot run (dangling ranks or models, rendezvous that can
/// never complete); warnings flag plans that run but serialize a socket
/// link.
pub fn partition_lints() -> LintRegistry<PartitionSpec> {
    LintRegistry::new()
        .rule(
            "DL001",
            "model assigned to a rank outside the plan",
            |p: &PartitionSpec, span, out| {
                for (model, &rank) in p.assignment.iter().enumerate() {
                    if rank >= p.ranks {
                        out.push(Diagnostic::error(
                            "DL001",
                            span,
                            format!("model {model} assigned to rank {rank}, plan has {} rank(s)", p.ranks),
                        ));
                    }
                }
            },
        )
        .rule(
            "DL002",
            "degenerate plan shape",
            |p, span, out| {
                if p.ranks == 0 {
                    out.push(Diagnostic::error("DL002", span, "plan has zero ranks"));
                }
                if p.assignment.is_empty() {
                    out.push(Diagnostic::error("DL002", span, "plan assigns no models"));
                }
            },
        )
        .rule(
            "DL003",
            "rank owns no models",
            |p, span, out| {
                for rank in 0..p.ranks {
                    if !p.assignment.contains(&rank) {
                        out.push(
                            Diagnostic::warning(
                                "DL003",
                                span,
                                format!("rank {rank} owns no models: an idle worker process"),
                            )
                            .with_help("shrink --ranks or rebalance the assignment"),
                        );
                    }
                }
            },
        )
        .rule(
            "DL004",
            "wire endpoint outside the assignment",
            |p, span, out| {
                for &(f, t, _) in &p.wires {
                    for m in [f, t] {
                        if m >= p.assignment.len() {
                            out.push(Diagnostic::error(
                                "DL004",
                                span,
                                format!(
                                    "wire {f}->{t} references model {m}, assignment covers {}",
                                    p.assignment.len()
                                ),
                            ));
                        }
                    }
                }
            },
        )
        .rule(
            "DL005",
            "cut wire tighter than the link quantum",
            |p, span, out| {
                for &(f, t, lat) in p.cut_wires() {
                    if lat < p.quantum as u64 {
                        out.push(
                            Diagnostic::warning(
                                "DL005",
                                span,
                                format!(
                                    "cut wire {f}->{t} has latency {lat} below the link quantum {}: \
                                     the socket link can never carry a full batch",
                                    p.quantum
                                ),
                            )
                            .with_help(
                                "a remote producer can only run `latency` cycles ahead; \
                                 partition along high-latency wires or lower the quantum",
                            ),
                        );
                    }
                }
            },
        )
        .rule(
            "DL006",
            "plan hangs at rendezvous: empty rank or dangling relay wire",
            |p, span, out| {
                // An empty rank still gets a worker slot in the launcher's
                // rendezvous: the switchboard waits for its Hello and link
                // connections forever. DL003 used to wave this through as
                // "an idle worker"; in graph mode it is a hang, not waste.
                for rank in 0..p.ranks {
                    if !p.assignment.is_empty() && !p.assignment.contains(&rank) {
                        out.push(
                            Diagnostic::error(
                                "DL006",
                                span,
                                format!(
                                    "rank {rank} owns no models: the rendezvous waits for link \
                                     connections that never come"
                                ),
                            )
                            .with_help("shrink the rank count or rebalance the assignment"),
                        );
                    }
                }
                // A relay created for a wire whose endpoint rank is outside
                // the plan dangles: the owning worker is never spawned.
                for &(f, t, _) in &p.wires {
                    let (a, b) = match (p.assignment.get(f), p.assignment.get(t)) {
                        (Some(&a), Some(&b)) => (a, b),
                        _ => continue, // DL004's problem
                    };
                    if a == b {
                        continue;
                    }
                    for rank in [a, b] {
                        if rank >= p.ranks {
                            out.push(
                                Diagnostic::error(
                                    "DL006",
                                    span,
                                    format!(
                                        "relay for cut wire {f}->{t} dangles: endpoint rank \
                                         {rank} is outside the {}-rank plan and its worker is \
                                         never spawned",
                                        p.ranks
                                    ),
                                )
                                .with_help("fix the assignment before the switchboard is built"),
                            );
                        }
                    }
                }
            },
        )
}

/// Estimated DRAM access latency in core cycles — the CAS + RCD + controller
/// path, the comparison point for `CL041` monotonicity.
fn dram_latency_cycles(d: &DramConfig, core_freq_ghz: f64) -> u64 {
    if !core_freq_ghz.is_finite() || core_freq_ghz <= 0.0 {
        return u64::MAX;
    }
    ((d.t_cas_ns + d.t_rcd_ns + d.ctrl_latency_ns) * core_freq_ghz).max(0.0) as u64
}

/// Full LLC load-to-use latency: tag lookup plus data array.
fn llc_latency(llc: &LlcConfig) -> u64 {
    llc.geometry.hit_latency as u64 + llc.data_latency as u64
}

/// Lints one LLC config: slice geometry plus `CL044` slice-count rules.
fn lint_llc(llc: &LlcConfig, span: &str) -> Report {
    let mut out = cache_lints().run(&llc.geometry, &format!("{span}.geometry"));
    if llc.slices == 0 {
        out.push(Diagnostic::error(
            "CL044",
            span,
            "slices = 0: the LLC has no storage",
        ));
    } else if !llc.slices.is_power_of_two() {
        out.push(
            Diagnostic::warning(
                "CL044",
                span,
                format!("slices = {} is not a power of two", llc.slices),
            )
            .with_help(
                "slice selection hashes address bits; power-of-two slice counts interleave evenly",
            ),
        );
    }
    out
}

/// Lints a whole memory hierarchy: every level's geometry, the bus, the
/// DRAM, plus the cross-level `CL040`–`CL045` structure rules.
pub fn lint_hierarchy(h: &HierarchyConfig, span: &str) -> Report {
    let mut out = Report::new();
    cache_lints().run_into(&h.l1i, &format!("{span}.l1i"), &mut out);
    cache_lints().run_into(&h.l1d, &format!("{span}.l1d"), &mut out);
    cache_lints().run_into(&h.l2, &format!("{span}.l2"), &mut out);
    bus_lints().run_into(&h.bus, &format!("{span}.bus"), &mut out);
    dram_lints().run_into(&h.dram, &format!("{span}.dram"), &mut out);
    if let Some(llc) = &h.llc {
        out.merge(lint_llc(llc, &format!("{span}.llc")));
    }

    if h.cores == 0 {
        out.push(Diagnostic::error(
            "CL040",
            span,
            "cores = 0: the hierarchy serves no one",
        ));
    }
    if !h.core_freq_ghz.is_finite() || h.core_freq_ghz <= 0.0 {
        out.push(Diagnostic::error(
            "CL042",
            span,
            format!(
                "core_freq_ghz = {} must be positive and finite",
                h.core_freq_ghz
            ),
        ));
    }

    // CL041: latency must grow down the hierarchy — L1 < L2 < LLC < DRAM.
    // An inversion is legal to simulate but almost certainly a typo'd
    // config, and it breaks the locality story every result rests on.
    let mut level_latency: Vec<(String, u64)> = vec![
        (format!("{span}.l1d"), h.l1d.hit_latency as u64),
        (format!("{span}.l2"), h.l2.hit_latency as u64),
    ];
    if let Some(llc) = &h.llc {
        level_latency.push((format!("{span}.llc"), llc_latency(llc)));
    }
    level_latency.push((
        format!("{span}.dram"),
        dram_latency_cycles(&h.dram, h.core_freq_ghz),
    ));
    for pair in level_latency.windows(2) {
        let (inner, outer) = (&pair[0], &pair[1]);
        if inner.1 >= outer.1 {
            out.push(
                Diagnostic::warning(
                    "CL041",
                    &inner.0,
                    format!(
                        "latency inversion: {} costs {} cycle(s) but the next level out ({}) costs {}",
                        inner.0, inner.1, outer.0, outer.1
                    ),
                )
                .with_help("hit latency must grow down the hierarchy: L1 < L2 < LLC < DRAM"),
            );
        }
    }

    // CL043: so must capacity.
    let mut level_capacity: Vec<(String, u64)> = vec![
        (format!("{span}.l1d"), h.l1d.capacity()),
        (format!("{span}.l2"), h.l2.capacity()),
    ];
    if let Some(llc) = &h.llc {
        level_capacity.push((
            format!("{span}.llc"),
            llc.geometry.capacity() * llc.slices as u64,
        ));
    }
    for pair in level_capacity.windows(2) {
        let (inner, outer) = (&pair[0], &pair[1]);
        if inner.1 >= outer.1 {
            out.push(Diagnostic::warning(
                "CL043",
                &inner.0,
                format!(
                    "capacity inversion: {} holds {} bytes but the next level out ({}) holds {}",
                    inner.0, inner.1, outer.0, outer.1
                ),
            ));
        }
    }

    if h.l1_to_l2_latency == 0 {
        out.push(Diagnostic::warning(
            "CL045",
            span,
            "l1_to_l2_latency = 0: the L1-L2 crossing is free",
        ));
    }
    out
}

/// Lints an in-order core model, including its TLB.
pub fn lint_inorder(c: &InOrderConfig, span: &str) -> Report {
    let mut out = inorder_lints().run(c, span);
    tlb_lints().run_into(&c.tlb, &format!("{span}.tlb"), &mut out);
    out
}

/// Lints an out-of-order core model, including its TLB.
pub fn lint_ooo(c: &OooConfig, span: &str) -> Report {
    let mut out = ooo_lints().run(c, span);
    tlb_lints().run_into(&c.tlb, &format!("{span}.tlb"), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_cache() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            banks: 4,
            hit_latency: 2,
            mshrs: 4,
        }
    }

    #[test]
    fn healthy_cache_is_clean() {
        assert!(cache_lints().run(&good_cache(), "t").is_clean());
    }

    #[test]
    fn non_power_of_two_geometry_is_an_error() {
        let mut c = good_cache();
        c.sets = 65;
        let r = cache_lints().run(&c, "t.l1d");
        assert!(r.has_code("CL001") && r.has_errors(), "{}", r.render());
        assert_eq!(r.diagnostics[0].span, "t.l1d");

        let mut c = good_cache();
        c.line_bytes = 48;
        assert!(cache_lints().run(&c, "t").has_code("CL002"));
        let mut c = good_cache();
        c.banks = 3;
        assert!(cache_lints().run(&c, "t").has_code("CL003"));
    }

    #[test]
    fn degenerate_cache_parameters() {
        let mut c = good_cache();
        c.ways = 0;
        assert!(cache_lints().run(&c, "t").has_code("CL004"));
        let mut c = good_cache();
        c.ways = 6; // 64 % 6 != 0, and 6 is not a power of two is fine
        assert!(cache_lints().run(&c, "t").has_code("CL005"));
        let mut c = good_cache();
        c.mshrs = 0;
        let r = cache_lints().run(&c, "t");
        assert!(r.has_code("CL006") && !r.has_errors() && !r.has_warnings());
        let mut c = good_cache();
        c.hit_latency = 0;
        assert!(cache_lints().run(&c, "t").has_code("CL007"));
    }

    #[test]
    fn partition_rules() {
        // A healthy 2-rank split of a 4-model ring along latency-16
        // wires is clean.
        let good = PartitionSpec {
            ranks: 2,
            assignment: vec![0, 0, 1, 1],
            wires: vec![(0, 1, 1), (1, 2, 16), (2, 3, 1), (3, 0, 16)],
            quantum: 16,
        };
        assert!(partition_lints().run(&good, "t").is_clean());
        assert_eq!(good.cut_wires().count(), 2);

        let mut p = good.clone();
        p.assignment[3] = 7;
        assert!(partition_lints().run(&p, "t").has_code("DL001"));

        let empty = PartitionSpec {
            ranks: 0,
            assignment: vec![],
            wires: vec![],
            quantum: 16,
        };
        let r = partition_lints().run(&empty, "t");
        assert_eq!(r.with_code("DL002").count(), 2, "{}", r.render());

        // An empty rank used to be merely DL003 (idle worker); in graph
        // mode the rendezvous waits for it forever, so DL006 rejects it.
        let mut p = good.clone();
        p.ranks = 3;
        let r = partition_lints().run(&p, "t");
        assert!(r.has_code("DL003"), "{}", r.render());
        assert!(r.has_code("DL006") && r.has_errors(), "{}", r.render());

        // A cut wire pointing at an out-of-plan rank dangles its relay.
        let mut p = good.clone();
        p.assignment = vec![0, 0, 1, 2];
        p.ranks = 2;
        let r = partition_lints().run(&p, "t");
        assert!(r.has_code("DL006"), "{}", r.render());

        let mut p = good.clone();
        p.wires.push((0, 9, 4));
        assert!(partition_lints().run(&p, "t").has_code("DL004"));

        // A cut wire with latency 1 under a quantum of 16 serializes
        // the socket link: warned, not fatal.
        let mut p = good.clone();
        p.wires[1].2 = 1;
        let r = partition_lints().run(&p, "t");
        assert!(r.has_code("DL005") && !r.has_errors(), "{}", r.render());
    }

    #[test]
    fn bus_rules() {
        let b = BusConfig {
            width_bits: 96,
            latency: 0,
        };
        let r = bus_lints().run(&b, "t.bus");
        assert!(r.has_code("CL010") && r.has_code("CL011"), "{}", r.render());
        let ok = BusConfig {
            width_bits: 128,
            latency: 4,
        };
        assert!(bus_lints().run(&ok, "t.bus").is_clean());
    }

    #[test]
    fn dram_rules() {
        let mut d = DramConfig::ddr3_2000(1);
        assert!(dram_lints().run(&d, "t").is_clean());
        d.channels = 0;
        d.data_rate_mtps = 0;
        d.t_cas_ns = f64::NAN;
        d.token_quantum_cycles = 0;
        let r = dram_lints().run(&d, "t.dram");
        for code in ["CL020", "CL021", "CL022", "CL023"] {
            assert!(r.has_code(code), "missing {code}: {}", r.render());
        }
    }

    #[test]
    fn tlb_rules() {
        let mut t = TlbConfig::rocket();
        assert!(tlb_lints().run(&t, "t").is_clean());
        t.l1_entries = 0;
        t.l2_entries = Some(0);
        t.walk_latency = 0;
        let r = tlb_lints().run(&t, "t.tlb");
        for code in ["CL030", "CL031", "CL032"] {
            assert!(r.has_code(code), "missing {code}: {}", r.render());
        }
    }

    #[test]
    fn core_model_rules() {
        let mut c = InOrderConfig::rocket();
        assert!(lint_inorder(&c, "t").is_clean());
        c.issue_width = 3;
        c.fetch_width = 2;
        assert!(lint_inorder(&c, "t").has_code("CL051"));

        let mut o = OooConfig::small_boom();
        assert!(lint_ooo(&o, "t").is_clean());
        o.rob = 8; // ldq + stq = 16 > 8
        assert!(lint_ooo(&o, "t").has_code("CL061"));
        o.fetch_width = 1;
        o.decode_width = 2;
        assert!(lint_ooo(&o, "t").has_code("CL062"));
        o.int_units = 0;
        assert!(lint_ooo(&o, "t").has_code("CL063"));
    }

    #[test]
    fn engine_schedule_lints() {
        let good = ScheduleSpec {
            quantum: 4,
            min_latency: 4,
            hinted_models: 2,
            fast_forward: true,
        };
        assert!(engine_lints().run(&good, "t").is_clean());
        let oversized = ScheduleSpec {
            quantum: 64,
            min_latency: 2,
            ..good.clone()
        };
        let r = engine_lints().run(&oversized, "t");
        assert!(r.has_code("CL070"), "{}", r.render());
        assert!(!r.has_errors());
        let wasted = ScheduleSpec {
            fast_forward: false,
            ..good.clone()
        };
        let r = engine_lints().run(&wasted, "t");
        assert!(r.has_code("CL071"), "{}", r.render());
        let unhinted = ScheduleSpec {
            hinted_models: 0,
            fast_forward: false,
            ..good
        };
        assert!(engine_lints().run(&unhinted, "t").is_clean());
    }

    #[test]
    fn latency_inversion_fires_cl041() {
        let mut h = hierarchy();
        h.l2.hit_latency = 1; // below the L1's 2
        let r = lint_hierarchy(&h, "t");
        assert!(r.has_code("CL041"), "{}", r.render());
        assert!(!r.has_errors(), "inversions warn, they do not block");
    }

    #[test]
    fn capacity_inversion_fires_cl043() {
        let mut h = hierarchy();
        h.l2.sets = 64; // L2 shrinks to L1 size
        let r = lint_hierarchy(&h, "t");
        assert!(r.has_code("CL043"), "{}", r.render());
    }

    #[test]
    fn healthy_hierarchy_is_clean() {
        let r = lint_hierarchy(&hierarchy(), "t");
        assert!(r.is_clean(), "{}", r.render());
    }

    fn hierarchy() -> HierarchyConfig {
        HierarchyConfig {
            cores: 4,
            l1i: good_cache(),
            l1d: good_cache(),
            l2: CacheConfig {
                sets: 1024,
                ways: 8,
                line_bytes: 64,
                banks: 4,
                hit_latency: 14,
                mshrs: 8,
            },
            bus: BusConfig {
                width_bits: 128,
                latency: 4,
            },
            llc: None,
            dram: DramConfig::ddr3_2000(1),
            core_freq_ghz: 1.6,
            l1_to_l2_latency: 2,
            prefetch_degree: 0,
        }
    }
}
