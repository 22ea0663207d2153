//! The seeded generator behind every workload input: cell order per
//! pass, the sampler seed, and the `svc-mixed` request sequence. The
//! program under test only ever sees what this generates.

/// SplitMix64: tiny, seedable, and identical on every host.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `(seed, stream)`: passes and client threads draw
    /// from separate streams of the one run seed.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias at these sizes is
    /// far below anything the ledger measures).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_different_seed_different_order() {
        let a = SplitMix64::new(7, 1).permutation(156);
        let b = SplitMix64::new(7, 1).permutation(156);
        let c = SplitMix64::new(8, 1).permutation(156);
        let d = SplitMix64::new(7, 2).permutation(156);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "passes of one seed draw different orders");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..156).collect::<Vec<_>>());
    }
}
