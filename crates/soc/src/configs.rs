//! The paper's named platform configurations (Tables 4 and 5).

use bsim_mem::cache::CacheConfig;
use bsim_mem::llc::{LlcConfig, LlcStyle};
use bsim_mem::{BusConfig, DramConfig, HierarchyConfig};
use bsim_telemetry::TelemetryConfig;
use bsim_uarch::{InOrderConfig, OooConfig};
use serde::{Deserialize, Serialize};

/// Which core timing model an SoC uses.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CoreModel {
    /// In-order (Rocket / SpacemiT K1).
    InOrder(InOrderConfig),
    /// Out-of-order (BOOM / SG2042).
    Ooo(OooConfig),
}

/// A complete platform description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SocConfig {
    /// Display name, as used in the paper's figures.
    pub name: String,
    /// Core count instantiated (the paper models one 4-core cluster).
    pub cores: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Core microarchitecture.
    pub core: CoreModel,
    /// Memory system.
    pub hierarchy: HierarchyConfig,
    /// True for FireSim-hosted models (affects reporting only).
    pub is_simulation: bool,
    /// Vector-unit width in f64 lanes. The paper instantiates the
    /// FireSim targets "without enabling vector units" (§3.1.1) → 1;
    /// the SpacemiT K1 implements RVV 1.0 at 256 bits → 4, and the
    /// SG2042's C920 cores have 128-bit vectors → 2. Auto-vectorizable
    /// workload regions run with correspondingly fewer dynamic ops on
    /// the silicon references.
    pub simd_lanes: u32,
    /// Extra dynamic ops per 1000 from the platform's compiler
    /// generation. Table 3: the FireSim images ship GCC 9.4.0 ("upgrading
    /// GCC on FireSim to 13.2 requires building it from source ... which
    /// is time-consuming"), while both silicon platforms run GCC 13.2 —
    /// older codegen retires measurably more instructions on the same
    /// C/C++ kernels.
    pub compiler_overhead_per_mille: u32,
    /// Out-of-band telemetry (AutoCounter/TracerV analogue). Disabled by
    /// default in every named config; enable with
    /// [`SocConfig::with_telemetry`]. Never affects simulated timing.
    pub telemetry: TelemetryConfig,
}

impl SocConfig {
    /// Converts a cycle count on this platform to seconds.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// The same platform with the given telemetry configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> SocConfig {
        self.telemetry = telemetry;
        self
    }
}

// ---- shared cache geometries -------------------------------------------------

/// Rocket L1 (Table 5: 32 KiB, 64 sets / 8 ways).
fn rocket_l1() -> CacheConfig {
    CacheConfig {
        sets: 64,
        ways: 8,
        line_bytes: 64,
        banks: 1,
        hit_latency: 2,
        mshrs: 2,
    }
}

/// Rocket-tile shared L2 (512 KiB, 1024 sets / 8 ways), bank count varies.
fn rocket_l2(banks: u32) -> CacheConfig {
    CacheConfig {
        sets: 1024,
        ways: 8,
        line_bytes: 64,
        banks,
        hit_latency: 14,
        mshrs: 8,
    }
}

/// Small/Medium BOOM L1 (Table 4: 64 sets / 4 ways = 16 KiB).
fn boom_small_l1() -> CacheConfig {
    CacheConfig {
        sets: 64,
        ways: 4,
        line_bytes: 64,
        banks: 4,
        hit_latency: 3,
        mshrs: 4,
    }
}

/// Large BOOM L1 (Table 4: 64 sets / 8 ways = 32 KiB).
fn boom_large_l1() -> CacheConfig {
    CacheConfig {
        sets: 64,
        ways: 8,
        line_bytes: 64,
        banks: 4,
        hit_latency: 3,
        mshrs: 8,
    }
}

/// MILK-V-tuned L1 (Table 5: 64 KiB, 128 sets / 8 ways).
fn milkv_l1() -> CacheConfig {
    CacheConfig {
        sets: 128,
        ways: 8,
        line_bytes: 64,
        banks: 4,
        hit_latency: 3,
        mshrs: 8,
    }
}

/// BOOM-tile shared L2 (512 KiB), 4 banks.
fn boom_l2() -> CacheConfig {
    CacheConfig {
        sets: 1024,
        ways: 8,
        line_bytes: 64,
        banks: 4,
        hit_latency: 14,
        mshrs: 16,
    }
}

/// MILK-V-tuned L2 (Table 5: 1 MiB / 4 cores, 2048 sets / 8 ways).
fn milkv_l2() -> CacheConfig {
    CacheConfig {
        sets: 2048,
        ways: 8,
        line_bytes: 64,
        banks: 4,
        hit_latency: 16,
        mshrs: 16,
    }
}

/// One 16 MiB LLC slice (16384 sets / 16 ways); the paper uses four.
fn llc_slice() -> CacheConfig {
    CacheConfig {
        sets: 16384,
        ways: 16,
        line_bytes: 64,
        banks: 4,
        hit_latency: 10,
        mshrs: 32,
    }
}

// ---- FireSim-hosted models -----------------------------------------------------

/// Table 4 "Rocket 1": Huge Rocket, 1 L2 bank, 64-bit system bus,
/// DDR3-2000 FR-FCFS quad-rank (FireSim's only memory model).
pub fn rocket1(cores: usize) -> SocConfig {
    SocConfig {
        name: "Rocket 1".into(),
        cores,
        freq_ghz: 1.6,
        core: CoreModel::InOrder(InOrderConfig::rocket()),
        hierarchy: HierarchyConfig {
            cores,
            l1i: rocket_l1(),
            l1d: rocket_l1(),
            l2: rocket_l2(1),
            bus: BusConfig {
                width_bits: 64,
                latency: 4,
            },
            llc: None,
            dram: DramConfig::ddr3_2000(1),
            core_freq_ghz: 1.6,
            l1_to_l2_latency: 2,
            prefetch_degree: 0, // stock Rocket has no prefetcher
        },
        is_simulation: true,
        simd_lanes: 1,
        compiler_overhead_per_mille: 200, // GCC 9.4 vs 13.2 (Table 3)
        telemetry: TelemetryConfig::disabled(),
    }
}

/// Table 4 "Rocket 2": Rocket 1 with the L2 banked ×4.
pub fn rocket2(cores: usize) -> SocConfig {
    let mut c = rocket1(cores);
    c.name = "Rocket 2".into();
    c.hierarchy.l2 = rocket_l2(4);
    c
}

/// §4 "Banana Pi Sim Model": Rocket 2 plus a 128-bit system bus.
pub fn banana_pi_sim(cores: usize) -> SocConfig {
    let mut c = rocket2(cores);
    c.name = "Banana Pi Sim Model".into();
    c.hierarchy.bus = BusConfig {
        width_bits: 128,
        latency: 4,
    };
    c
}

/// §4 "Fast Banana Pi Sim Model": the same target clocked at 3.2 GHz to
/// mimic the K1's dual issue. Doubling the clock also (unrealistically)
/// halves cache latencies relative to DRAM — exactly the side effect the
/// paper observes in the MM/MM_st and MG results.
pub fn fast_banana_pi_sim(cores: usize) -> SocConfig {
    let mut c = banana_pi_sim(cores);
    c.name = "Fast Banana Pi Sim Model".into();
    c.freq_ghz = 3.2;
    c.hierarchy.core_freq_ghz = 3.2;
    c
}

fn boom_soc(name: &str, cores: usize, core: OooConfig, l1: CacheConfig) -> SocConfig {
    SocConfig {
        name: name.into(),
        cores,
        freq_ghz: 2.0,
        core: CoreModel::Ooo(core),
        hierarchy: HierarchyConfig {
            cores,
            l1i: l1,
            l1d: l1,
            l2: boom_l2(),
            bus: BusConfig {
                width_bits: 128,
                latency: 4,
            },
            llc: None,
            dram: DramConfig::ddr3_2000(1),
            core_freq_ghz: 2.0,
            l1_to_l2_latency: 2,
            prefetch_degree: 0, // stock BOOM has no prefetcher
        },
        is_simulation: true,
        simd_lanes: 1,
        compiler_overhead_per_mille: 200, // GCC 9.4 vs 13.2 (Table 3)
        telemetry: TelemetryConfig::disabled(),
    }
}

/// Table 4 "Small BOOM".
pub fn small_boom(cores: usize) -> SocConfig {
    boom_soc(
        "Small BOOM",
        cores,
        OooConfig::small_boom(),
        boom_small_l1(),
    )
}

/// Table 4 "Medium BOOM".
pub fn medium_boom(cores: usize) -> SocConfig {
    boom_soc(
        "Medium BOOM",
        cores,
        OooConfig::medium_boom(),
        boom_small_l1(),
    )
}

/// Table 4 "Large BOOM".
pub fn large_boom(cores: usize) -> SocConfig {
    boom_soc(
        "Large BOOM",
        cores,
        OooConfig::large_boom(),
        boom_large_l1(),
    )
}

/// §4 "MILK-V Simulation Model": Large BOOM with the MILK-V cache
/// hierarchy — 64 KiB L1s, 1 MiB L2, and a 64 MiB LLC modeled as four
/// 16 MiB SRAM-like slices on FireSim's four memory channels.
pub fn milkv_sim(cores: usize) -> SocConfig {
    let mut c = boom_soc(
        "MILK-V Sim Model",
        cores,
        OooConfig::large_boom(),
        milkv_l1(),
    );
    c.hierarchy.l2 = milkv_l2();
    c.hierarchy.llc = Some(LlcConfig {
        geometry: llc_slice(),
        slices: 4,
        data_latency: 18,
        style: LlcStyle::FiresimSram,
    });
    c.hierarchy.dram = DramConfig::ddr3_2000(4);
    c
}

// ---- hardware references ---------------------------------------------------------

/// Table 5 Banana Pi hardware column: one 4-core SpacemiT K1 cluster —
/// dual-issue 8-stage in-order cores, 32 KiB L1s, 512 KiB shared L2,
/// dual 32-bit LPDDR4-2666. No token quantization: this is silicon.
pub fn banana_pi_hw(cores: usize) -> SocConfig {
    SocConfig {
        name: "Banana Pi".into(),
        cores,
        freq_ghz: 1.6,
        core: CoreModel::InOrder(InOrderConfig::spacemit_k1()),
        hierarchy: HierarchyConfig {
            cores,
            l1i: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                banks: 2,
                hit_latency: 2,
                mshrs: 4,
            },
            l1d: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                banks: 2,
                hit_latency: 2,
                mshrs: 4,
            },
            l2: rocket_l2(4),
            bus: BusConfig {
                width_bits: 128,
                latency: 3,
            },
            llc: None,
            dram: DramConfig::lpddr4_2666(),
            core_freq_ghz: 1.6,
            l1_to_l2_latency: 2,
            prefetch_degree: 3, // the K1 ships an L2 prefetcher
        },
        is_simulation: false,
        simd_lanes: 4, // RVV 1.0, 256-bit
        compiler_overhead_per_mille: 0,
        telemetry: TelemetryConfig::disabled(),
    }
}

/// Table 5 MILK-V hardware column: a 4-core SG2042 cluster — wide OoO
/// cores, 64 KiB L1s, 1 MiB L2, latency-accurate 64 MiB LLC, 4-channel
/// DDR4-3200.
pub fn milkv_hw(cores: usize) -> SocConfig {
    SocConfig {
        name: "MILK-V Pioneer".into(),
        cores,
        freq_ghz: 2.0,
        core: CoreModel::Ooo(OooConfig::sg2042()),
        hierarchy: HierarchyConfig {
            cores,
            l1i: milkv_l1(),
            l1d: milkv_l1(),
            l2: milkv_l2(),
            bus: BusConfig {
                width_bits: 128,
                latency: 3,
            },
            llc: Some(LlcConfig {
                geometry: llc_slice(),
                slices: 4,
                data_latency: 14,
                style: LlcStyle::Silicon,
            }),
            dram: DramConfig::ddr4_3200(4),
            core_freq_ghz: 2.0,
            l1_to_l2_latency: 2,
            prefetch_degree: 4, // the SG2042's XuanTie C920 prefetches
        },
        is_simulation: false,
        simd_lanes: 2, // XuanTie C920: 128-bit vector
        compiler_overhead_per_mille: 0,
        telemetry: TelemetryConfig::disabled(),
    }
}

/// Every named platform of the catalog — the ten configs `bsim list`
/// prints and a service request may reference by name: the four Rocket
/// variants, the four BOOM variants, and the two silicon references.
pub fn catalog(cores: usize) -> Vec<SocConfig> {
    let mut all = rocket_family(cores);
    all.extend(boom_family(cores));
    all.push(banana_pi_hw(cores));
    all.push(milkv_hw(cores));
    all
}

/// Look up a cataloged platform by its display name, case-insensitively.
pub fn by_name(name: &str, cores: usize) -> Option<SocConfig> {
    catalog(cores)
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

/// All FireSim Rocket-side configs of Figure 1/3, in figure order.
pub(crate) fn rocket_family(cores: usize) -> Vec<SocConfig> {
    vec![
        rocket1(cores),
        rocket2(cores),
        banana_pi_sim(cores),
        fast_banana_pi_sim(cores),
    ]
}

/// All FireSim BOOM-side configs of Figure 2/4, in figure order.
pub(crate) fn boom_family(cores: usize) -> Vec<SocConfig> {
    vec![
        small_boom(cores),
        medium_boom(cores),
        large_boom(cores),
        milkv_sim(cores),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_capacities_match_table5() {
        assert_eq!(rocket_l1().capacity(), 32 * 1024);
        assert_eq!(rocket_l2(4).capacity(), 512 * 1024);
        assert_eq!(milkv_l1().capacity(), 64 * 1024);
        assert_eq!(milkv_l2().capacity(), 1024 * 1024);
        assert_eq!(llc_slice().capacity() * 4, 64 * 1024 * 1024);
        assert_eq!(boom_small_l1().capacity(), 16 * 1024);
        assert_eq!(boom_large_l1().capacity(), 32 * 1024);
    }

    #[test]
    fn rocket_variants_differ_as_table4_says() {
        let r1 = rocket1(4);
        let r2 = rocket2(4);
        let bps = banana_pi_sim(4);
        let fast = fast_banana_pi_sim(4);
        assert_eq!(r1.hierarchy.l2.banks, 1);
        assert_eq!(r2.hierarchy.l2.banks, 4);
        assert_eq!(r1.hierarchy.bus.width_bits, 64);
        assert_eq!(r2.hierarchy.bus.width_bits, 64);
        assert_eq!(bps.hierarchy.bus.width_bits, 128);
        assert_eq!(fast.freq_ghz, 3.2);
        assert_eq!(bps.freq_ghz, 1.6);
    }

    #[test]
    fn boom_family_grows_monotonically() {
        let s = small_boom(1);
        let m = medium_boom(1);
        let l = large_boom(1);
        let (CoreModel::Ooo(sc), CoreModel::Ooo(mc), CoreModel::Ooo(lc)) =
            (&s.core, &m.core, &l.core)
        else {
            panic!("BOOM configs must be OoO")
        };
        assert!(sc.rob < mc.rob && mc.rob < lc.rob);
        assert!(sc.decode_width < mc.decode_width && mc.decode_width < lc.decode_width);
        assert!(sc.ldq < mc.ldq && mc.ldq < lc.ldq);
    }

    #[test]
    fn simulation_models_use_ddr3_hardware_does_not() {
        // The paper's central limitation: FireSim only supports DDR3.
        for cfg in rocket_family(4).iter().chain(boom_family(4).iter()) {
            assert!(cfg.is_simulation);
            assert!(
                cfg.hierarchy.dram.name.starts_with("DDR3"),
                "{} must use FireSim's DDR3 model",
                cfg.name
            );
        }
        assert!(banana_pi_hw(4).hierarchy.dram.name.starts_with("LPDDR4"));
        assert!(milkv_hw(4).hierarchy.dram.name.starts_with("DDR4"));
    }

    #[test]
    fn milkv_llc_styles_differ() {
        use bsim_mem::llc::LlcStyle;
        assert_eq!(
            milkv_sim(4).hierarchy.llc.unwrap().style,
            LlcStyle::FiresimSram
        );
        assert_eq!(milkv_hw(4).hierarchy.llc.unwrap().style, LlcStyle::Silicon);
    }

    #[test]
    fn catalog_covers_every_named_platform() {
        let names: Vec<String> = catalog(1).into_iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 10);
        for n in [
            "Rocket 1",
            "MILK-V Sim Model",
            "Banana Pi",
            "MILK-V Pioneer",
        ] {
            assert!(names.iter().any(|c| c == n), "missing {n}");
        }
        assert_eq!(by_name("rocket 1", 2).unwrap().cores, 2);
        assert!(by_name("Pentium", 1).is_none());
    }

    #[test]
    fn seconds_conversion() {
        let c = rocket1(1);
        assert!((c.seconds(1_600_000_000) - 1.0).abs() < 1e-12);
        let f = fast_banana_pi_sim(1);
        assert!((f.seconds(3_200_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hardware_k1_is_dual_issue() {
        let CoreModel::InOrder(k1) = banana_pi_hw(4).core else {
            panic!()
        };
        assert_eq!(k1.issue_width, 2);
        assert_eq!(k1.pipeline_depth, 8);
        let CoreModel::InOrder(rk) = rocket1(4).core else {
            panic!()
        };
        assert_eq!(rk.issue_width, 1);
        assert_eq!(rk.pipeline_depth, 5);
    }
}
