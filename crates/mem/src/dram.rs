//! FR-FCFS DRAM timing model with open-row banks, rank/bank/channel
//! parallelism, and data-bus occupancy.
//!
//! Presets cover the paper's three external memories (Table 5):
//!
//! * [`DramConfig::ddr3_2000`] — the "DDR3 2000 Mbps FR-FCFS quad-rank"
//!   model that is the *only* memory model FireSim supports (§4, §6),
//! * [`DramConfig::ddr4_3200`] — the MILK-V Pioneer's 4-channel DDR4-3200,
//! * [`DramConfig::lpddr4_2666`] — the Banana Pi's dual 32-bit LPDDR4-2666.
//!
//! The model is *busy-until* based: each bank remembers its open row and
//! when it can next accept a command; each channel's data bus serializes
//! bursts. FR-FCFS is approximated by its first-order effect — row-buffer
//! hits bypass the precharge/activate pair — which is the property the
//! paper's MM/MM_st microbenchmarks are sensitive to.
//!
//! FireSim's token-based co-simulation quantizes when DRAM responses are
//! visible to the target; `token_quantum_cycles > 1` rounds completion
//! times up to that boundary, reproducing the stall behaviour §3.2.2
//! describes.

use serde::{Deserialize, Serialize};

/// DRAM organization and timing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Human-readable name used in reports ("DDR3-2000 FR-FCFS quad-rank").
    pub name: String,
    /// Independent channels (each with its own data bus).
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u32,
    /// Data-bus width per channel, in bits.
    pub width_bits: u32,
    /// Transfer rate in mega-transfers/second (DDR: 2 per clock).
    pub data_rate_mtps: u32,
    /// CAS latency (read command to first data), ns.
    pub t_cas_ns: f64,
    /// RAS-to-CAS delay (activate to read/write), ns.
    pub t_rcd_ns: f64,
    /// Row precharge, ns.
    pub t_rp_ns: f64,
    /// FireSim token quantum in target cycles (1 = silicon, no quantization).
    pub token_quantum_cycles: u32,
    /// Fixed memory-controller pipeline latency, ns. FireSim's software
    /// DDR3 model runs a deep token pipeline in front of the FR-FCFS
    /// scheduler; silicon controllers are shallower.
    pub ctrl_latency_ns: f64,
}

impl DramConfig {
    /// FireSim's DDR3-2000 FR-FCFS quad-rank model.
    pub fn ddr3_2000(channels: u32) -> DramConfig {
        DramConfig {
            // bsim: allow(AU006) preset constructor, once per platform config
            name: format!("DDR3-2000 FR-FCFS quad-rank x{channels}"),
            channels,
            ranks: 4,
            banks: 8,
            row_bytes: 2048,
            width_bits: 64,
            data_rate_mtps: 2000,
            t_cas_ns: 13.75,
            t_rcd_ns: 13.75,
            t_rp_ns: 13.75,
            token_quantum_cycles: 4,
            ctrl_latency_ns: 16.0,
        }
    }

    /// MILK-V Pioneer: 4-channel DDR4-3200 (pass `channels = 4`).
    pub fn ddr4_3200(channels: u32) -> DramConfig {
        DramConfig {
            // bsim: allow(AU006) preset constructor, once per platform config
            name: format!("DDR4-3200 x{channels}"),
            channels,
            ranks: 2,
            banks: 16,
            row_bytes: 2048,
            width_bits: 64,
            data_rate_mtps: 3200,
            t_cas_ns: 13.75,
            t_rcd_ns: 13.75,
            t_rp_ns: 13.75,
            token_quantum_cycles: 1,
            ctrl_latency_ns: 10.0,
        }
    }

    /// Banana Pi BPI-F3: dual 32-bit LPDDR4-2666.
    pub fn lpddr4_2666() -> DramConfig {
        DramConfig {
            name: "LPDDR4-2666 dual 32-bit".to_string(),
            channels: 2,
            ranks: 1,
            banks: 8,
            row_bytes: 1024,
            width_bits: 32,
            data_rate_mtps: 2666,
            t_cas_ns: 15.0,
            t_rcd_ns: 18.0,
            t_rp_ns: 18.0,
            token_quantum_cycles: 1,
            ctrl_latency_ns: 14.0,
        }
    }

    /// Time for one 64-byte line burst on one channel, ns.
    fn burst_ns(&self, bytes: u32) -> f64 {
        let beats = (bytes * 8).div_ceil(self.width_bits) as f64;
        beats * 1000.0 / self.data_rate_mtps as f64
    }
}

#[derive(Clone, Copy, Debug)]
struct BankState {
    open_row: Option<u64>,
    ready_ns: f64,
}

/// Outcome of a DRAM access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramOutcome {
    /// Core cycle at which the burst completes.
    pub done: u64,
    /// Whether the open-row buffer was hit.
    pub row_hit: bool,
}

/// Log2 of a value when it is a power of two — the address-mapping
/// fast path. Every preset geometry (channels, lines-per-row, banks) is
/// a power of two, so the per-access div/mod chain collapses to
/// shift/mask; the `None` fallback keeps exotic configs correct.
#[inline]
fn po2_shift(v: u64) -> Option<u32> {
    v.is_power_of_two().then(|| v.trailing_zeros())
}

/// Stateful DRAM timing model.
pub struct DramModel {
    cfg: DramConfig,
    core_freq_ghz: f64,
    banks: Vec<BankState>, // channels * ranks * banks
    channel_free_ns: Vec<f64>,
    reads: u64,
    writes: u64,
    row_hits: u64,
    token_stall_cycles: u64,
    /// Precomputed `log2(channels)` when channels is a power of two.
    ch_shift: Option<u32>,
    /// Precomputed `log2(row_bytes / 64)`.
    row_lines_shift: Option<u32>,
    /// Precomputed `log2(ranks * banks)`.
    bank_shift: Option<u32>,
    /// Latest completion time across banks and channel buses: the model
    /// is quiescent after this instant until the next access arrives.
    busy_until_ns: f64,
    /// `cfg.burst_ns(64)`: every access moves one 64-byte line.
    line_burst_ns: f64,
}

impl DramModel {
    /// Builds an idle DRAM model clocked against a core at `core_freq_ghz`.
    pub fn new(cfg: DramConfig, core_freq_ghz: f64) -> DramModel {
        assert!(core_freq_ghz > 0.0);
        let nbanks = (cfg.channels * cfg.ranks * cfg.banks) as usize;
        DramModel {
            channel_free_ns: vec![0.0; cfg.channels as usize],
            banks: vec![
                BankState {
                    open_row: None,
                    ready_ns: 0.0
                };
                nbanks
            ],
            ch_shift: po2_shift(cfg.channels as u64),
            row_lines_shift: po2_shift((cfg.row_bytes as u64 / 64).max(1)),
            bank_shift: po2_shift((cfg.ranks * cfg.banks) as u64),
            busy_until_ns: 0.0,
            line_burst_ns: cfg.burst_ns(64),
            cfg,
            core_freq_ghz,
            reads: 0,
            writes: 0,
            row_hits: 0,
            token_stall_cycles: 0,
        }
    }

    /// The configuration of this DRAM.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// (reads, writes, row_hits) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.row_hits)
    }

    /// Cumulative cycles completions lost to token-quantum rounding —
    /// the §3.2.2 quantization cost (always 0 when the quantum is 1).
    pub fn token_stall_cycles(&self) -> u64 {
        self.token_stall_cycles
    }

    #[inline]
    fn ns_of(&self, cycles: u64) -> f64 {
        cycles as f64 / self.core_freq_ghz
    }

    #[inline]
    fn cycles_of(&self, ns: f64) -> u64 {
        (ns * self.core_freq_ghz).ceil() as u64
    }

    fn map(&self, addr: u64) -> (usize, usize, u64) {
        // Line-interleaved channels; within a channel consecutive lines
        // fill a row (column bits), then banks interleave, then rows —
        // the row-buffer-friendly mapping FR-FCFS schedulers assume.
        // Power-of-two geometries (all presets) decode with three
        // shift/mask pairs; anything else falls back to div/mod.
        let line = addr >> 6;
        if let (Some(cs), Some(rs), Some(bs)) =
            (self.ch_shift, self.row_lines_shift, self.bank_shift)
        {
            let ch = (line & ((1 << cs) - 1)) as usize;
            let per_row = line >> cs >> rs;
            let bank = (per_row & ((1 << bs) - 1)) as usize;
            return (ch, bank, per_row >> bs);
        }
        let ch = (line % self.cfg.channels as u64) as usize;
        let per_ch = line / self.cfg.channels as u64;
        let lines_per_row = (self.cfg.row_bytes as u64 / 64).max(1);
        let nbanks = (self.cfg.ranks * self.cfg.banks) as u64;
        let bank = ((per_ch / lines_per_row) % nbanks) as usize;
        let row = per_ch / lines_per_row / nbanks;
        (ch, bank, row)
    }

    /// Cycle after which every bank and channel bus is idle: nothing in
    /// this model changes between then and the next access, which is
    /// exactly the promise a harness quiescence hint needs.
    pub(crate) fn busy_until_cycle(&self) -> u64 {
        self.cycles_of(self.busy_until_ns)
    }

    /// Services a 64-byte line access issued at core cycle `now`.
    pub fn access(&mut self, addr: u64, is_write: bool, now: u64) -> DramOutcome {
        let (ch, bank_in_ch, row) = self.map(addr);
        let bank_idx = ch * (self.cfg.ranks * self.cfg.banks) as usize + bank_in_ch;
        let now_ns = self.ns_of(now);

        let bank = &mut self.banks[bank_idx];
        let start_ns = (now_ns + self.cfg.ctrl_latency_ns).max(bank.ready_ns);
        let (cmd_ns, row_hit) = match bank.open_row {
            Some(open) if open == row => (self.cfg.t_cas_ns, true),
            Some(_) => (
                self.cfg.t_rp_ns + self.cfg.t_rcd_ns + self.cfg.t_cas_ns,
                false,
            ),
            None => (self.cfg.t_rcd_ns + self.cfg.t_cas_ns, false),
        };
        bank.open_row = Some(row);

        // Data must also win the channel bus.
        let data_start = (start_ns + cmd_ns).max(self.channel_free_ns[ch]);
        let done_ns = data_start + self.line_burst_ns;
        self.channel_free_ns[ch] = done_ns;
        self.banks[bank_idx].ready_ns = done_ns;
        self.busy_until_ns = self.busy_until_ns.max(done_ns);

        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        if row_hit {
            self.row_hits += 1;
        }

        let mut done = self.cycles_of(done_ns).max(now + 1);
        let q = self.cfg.token_quantum_cycles as u64;
        if q > 1 {
            let rounded = done.div_ceil(q) * q;
            self.token_stall_cycles += rounded - done;
            done = rounded;
        }
        DramOutcome { done, row_hit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_bandwidths_match_spec() {
        // Peak bandwidth across all channels, GB/s.
        let peak = |c: DramConfig| {
            c.channels as f64 * (c.width_bits as f64 / 8.0) * c.data_rate_mtps as f64 / 1000.0
        };
        assert!((peak(DramConfig::ddr3_2000(1)) - 16.0).abs() < 1e-9);
        assert!((peak(DramConfig::ddr4_3200(4)) - 102.4).abs() < 1e-9);
        // Dual 32-bit LPDDR4-2666: 2 * 4 B * 2666 MT/s = 21.3 GB/s.
        assert!((peak(DramConfig::lpddr4_2666()) - 21.328).abs() < 0.01);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = DramModel::new(DramConfig::ddr4_3200(1), 2.0);
        let first = d.access(0x0, false, 0);
        assert!(!first.row_hit, "cold bank cannot row-hit");
        // Same row, later in time so bank is idle again.
        let hit = d.access(0x40, false, first.done + 1000);
        assert!(hit.row_hit);
        let hit_latency = hit.done - (first.done + 1000);
        // Different row in the same bank, bank idle.
        // Row stride: channels=1, ranks*banks=32, row_bytes/64=32 lines.
        let far = 32u64 * 32 * 64 * 8; // definitely another row, same bank 0
        let miss = d.access(far, false, hit.done + 1000);
        let miss_latency = miss.done - (hit.done + 1000);
        assert!(
            miss_latency > hit_latency,
            "row miss ({miss_latency}) must cost more than row hit ({hit_latency})"
        );
    }

    #[test]
    fn channel_bus_serializes_bursts() {
        let cfg = DramConfig::ddr3_2000(1);
        let burst = cfg.burst_ns(64);
        let mut d = DramModel::new(cfg, 1.0);
        // Two accesses to different banks at the same instant share one bus.
        let a = d.access(0x0, false, 0);
        let b = d.access(0x40, false, 0); // next line → same channel, next bank
        assert!(
            b.done >= a.done + (burst as u64) - 1,
            "second burst must queue on the channel"
        );
    }

    #[test]
    fn more_channels_increase_throughput() {
        let one = DramConfig::ddr4_3200(1);
        let four = DramConfig::ddr4_3200(4);
        let mut d1 = DramModel::new(one, 2.0);
        let mut d4 = DramModel::new(four, 2.0);
        let mut last1 = 0;
        let mut last4 = 0;
        for i in 0..64u64 {
            last1 = d1.access(i * 64, false, 0).done.max(last1);
            last4 = d4.access(i * 64, false, 0).done.max(last4);
        }
        assert!(
            last4 < last1 / 2,
            "4-channel stream should finish much sooner ({last4} vs {last1})"
        );
    }

    #[test]
    fn ddr3_slower_than_ddr4_for_streams() {
        let mut ddr3 = DramModel::new(DramConfig::ddr3_2000(1), 2.0);
        let mut ddr4 = DramModel::new(DramConfig::ddr4_3200(1), 2.0);
        let mut t3 = 0;
        let mut t4 = 0;
        for i in 0..256u64 {
            t3 = ddr3.access(i * 64, false, t3).done;
            t4 = ddr4.access(i * 64, false, t4).done;
        }
        assert!(
            t3 > t4,
            "DDR3-2000 stream must be slower than DDR4-3200 ({t3} vs {t4})"
        );
    }

    #[test]
    fn token_quantum_rounds_up() {
        let mut cfg = DramConfig::ddr3_2000(1);
        cfg.token_quantum_cycles = 8;
        let mut d = DramModel::new(cfg, 1.0);
        let out = d.access(0x0, false, 3);
        assert_eq!(out.done % 8, 0, "completion must land on a token boundary");
    }

    #[test]
    fn po2_mapping_matches_divmod() {
        for cfg in [
            DramConfig::ddr3_2000(1),
            DramConfig::ddr4_3200(4),
            DramConfig::lpddr4_2666(),
        ] {
            let d = DramModel::new(cfg.clone(), 2.0);
            assert!(
                d.ch_shift.is_some(),
                "{}: preset must hit the fast path",
                cfg.name
            );
            let mut rng = 0x9E3779B97F4A7C15u64;
            for _ in 0..10_000 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = rng >> 16;
                let line = addr >> 6;
                let ch = (line % cfg.channels as u64) as usize;
                let per_ch = line / cfg.channels as u64;
                let lpr = (cfg.row_bytes as u64 / 64).max(1);
                let nb = (cfg.ranks * cfg.banks) as u64;
                let expect = (ch, ((per_ch / lpr) % nb) as usize, per_ch / lpr / nb);
                assert_eq!(d.map(addr), expect, "{}: addr {addr:#x}", cfg.name);
            }
        }
    }

    #[test]
    fn busy_until_tracks_the_latest_completion() {
        let mut d = DramModel::new(DramConfig::ddr4_3200(1), 2.0);
        assert_eq!(d.busy_until_cycle(), 0, "an idle model is quiescent");
        let a = d.access(0x0, false, 0);
        assert_eq!(d.busy_until_cycle(), a.done);
        let b = d.access(0x40, true, a.done + 500);
        assert_eq!(d.busy_until_cycle(), b.done);
        // An earlier-finishing access never shrinks the horizon.
        assert!(d.busy_until_cycle() >= a.done);
    }

    #[test]
    fn counters_track_reads_writes_hits() {
        let mut d = DramModel::new(DramConfig::ddr4_3200(1), 1.0);
        d.access(0, false, 0);
        d.access(64, true, 1000);
        let (r, w, h) = d.counters();
        assert_eq!((r, w), (1, 1));
        assert_eq!(h, 1); // second access hits the open row
    }
}
