//! The counter registry: hierarchically named `u64` cells.
//!
//! Counters live in a [`CounterBlock`] owned by the model that increments
//! them, so the hot path is one unconditional add into a plain `u64` —
//! no atomics, no hashing, no branch on "is telemetry on?". A disabled
//! block hands out the same [`CounterId`] (index 0) for every registration
//! and routes all updates into a single scratch cell that is never
//! exported, which keeps the instrumented code identical in both modes.
//!
//! Names are dotted paths mirroring the model hierarchy, e.g.
//! `tile0.l1d.misses`, `dram.row_misses`, `engine.chan.cpu_to_mem.tokens`,
//! `mpi.rank3.wait_cycles`. The `host.` prefix is reserved for quantities
//! that depend on the host machine or thread schedule (wall-clock rates,
//! lock spins); [`CounterBlock::deterministic_counters`] and the snapshot
//! layer exclude them when comparing runs for determinism.

/// Prefix for host-dependent (non-deterministic) counters.
pub(crate) const HOST_PREFIX: &str = "host.";

/// Handle to one counter cell inside a [`CounterBlock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

impl CounterId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of named counters owned by one model.
#[derive(Clone, Debug)]
pub struct CounterBlock {
    enabled: bool,
    names: Vec<String>,
    cells: Vec<u64>,
}

impl CounterBlock {
    /// Builds a block. A disabled block accepts all operations but keeps
    /// no names and exports nothing.
    pub fn new(enabled: bool) -> CounterBlock {
        if enabled {
            CounterBlock {
                enabled,
                names: Vec::new(),
                cells: Vec::new(),
            }
        } else {
            // One scratch cell so `add` stays branch-free.
            CounterBlock {
                enabled,
                names: Vec::new(),
                cells: vec![0],
            }
        }
    }

    /// Whether this block records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or finds) a counter by dotted name.
    pub fn register(&mut self, name: &str) -> CounterId {
        if !self.enabled {
            return CounterId(0);
        }
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return CounterId(i as u32);
        }
        self.names.push(name.to_string());
        self.cells.push(0);
        CounterId((self.names.len() - 1) as u32)
    }

    /// Adds `n` to the counter. The hot path: a single unconditional add.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.cells[id.index()] = self.cells[id.index()].wrapping_add(n);
    }

    /// Overwrites the counter with `v` (published aggregates).
    #[inline]
    pub fn set(&mut self, id: CounterId, v: u64) {
        self.cells[id.index()] = v;
    }

    /// Register-or-find `name` and overwrite it with `v`. For cold paths
    /// that publish a finished statistic into the registry.
    pub fn set_named(&mut self, name: &str, v: u64) {
        let id = self.register(name);
        self.set(id, v);
    }

    /// Register-or-find `name` and add `n` to it.
    pub fn add_named(&mut self, name: &str, n: u64) {
        let id = self.register(name);
        self.add(id, n);
    }

    /// Current value of a counter by name (`None` if never registered or
    /// the block is disabled).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.cells[i])
    }

    /// Number of registered counters (0 when disabled).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All `(name, value)` pairs in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .map(|n| n.as_str())
            .zip(self.cells.iter().copied())
    }

    /// `(name, value)` pairs excluding host-dependent (`host.*`) counters.
    pub fn deterministic_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters().filter(|(n, _)| !n.starts_with(HOST_PREFIX))
    }

    /// Raw cell values in registration order (used by the sampler; the
    /// disabled block's scratch cell is excluded).
    pub fn values(&self) -> &[u64] {
        &self.cells[..self.names.len()]
    }

    /// Registered names in registration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Folds every counter of `other` into this block under `prefix`.
    /// Used to merge per-model blocks into one exported registry.
    pub fn absorb(&mut self, prefix: &str, other: &CounterBlock) {
        for (name, value) in other.counters() {
            let full = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            };
            self.set_named(&full, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_back() {
        let mut b = CounterBlock::new(true);
        let miss = b.register("tile0.l1d.misses");
        b.add(miss, 3);
        b.add(miss, 4);
        assert_eq!(b.get("tile0.l1d.misses"), Some(7));
    }

    #[test]
    fn register_is_idempotent() {
        let mut b = CounterBlock::new(true);
        let a = b.register("x");
        let b2 = b.register("x");
        assert_eq!(a, b2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn disabled_block_records_nothing() {
        let mut b = CounterBlock::new(false);
        let id = b.register("tile0.l1d.misses");
        b.add(id, 99);
        b.set_named("dram.reads", 5);
        assert_eq!(b.len(), 0);
        assert_eq!(b.get("tile0.l1d.misses"), None);
        assert_eq!(b.counters().count(), 0);
        assert!(b.values().is_empty());
    }

    #[test]
    fn host_counters_are_excluded_from_deterministic_view() {
        let mut b = CounterBlock::new(true);
        b.set_named("engine.cycles", 100);
        b.set_named("host.engine.spins", 12345);
        let det: Vec<_> = b.deterministic_counters().collect();
        assert_eq!(det, vec![("engine.cycles", 100)]);
    }

    #[test]
    fn absorb_prefixes_names() {
        let mut inner = CounterBlock::new(true);
        inner.set_named("l1d.misses", 7);
        let mut outer = CounterBlock::new(true);
        outer.absorb("tile0", &inner);
        assert_eq!(outer.get("tile0.l1d.misses"), Some(7));
    }
}
