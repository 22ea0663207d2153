//! The counter registry: hierarchically named `u64` cells.
//!
//! The token engine tallies a run into a [`CounterBlock`] and the
//! service daemon serves one at `/metrics`. A disabled block keeps no
//! names and ignores every update, so the code that counts is identical
//! in both modes and a disabled block exports nothing.
//!
//! Names are dotted paths, e.g. `cells.simulated`. The `host.` prefix is
//! reserved for quantities that depend on the host machine or thread
//! schedule (wall-clock rates, retries, watchdog trips).

/// A set of named counters, in registration order.
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
        CounterBlock {
            enabled,
            names: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Whether this block records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The cell named `name`, registered on first use; `None` when the
    /// block is disabled.
    fn cell(&mut self, name: &str) -> Option<&mut u64> {
        if !self.enabled {
            return None;
        }
        let i = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.cells.push(0);
                self.cells.len() - 1
            }
        };
        Some(&mut self.cells[i])
    }

    /// Register-or-find `name` and overwrite it with `v`: publishes a
    /// finished statistic, so publishing twice does not double-count.
    pub fn set_named(&mut self, name: &str, v: u64) {
        if let Some(cell) = self.cell(name) {
            *cell = v;
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_back() {
        let mut b = CounterBlock::new(true);
        b.set_named("cells.simulated", 7);
        assert_eq!(b.get("cells.simulated"), Some(7));
        b.set_named("cells.simulated", 2);
        assert_eq!(b.get("cells.simulated"), Some(2));
    }

    #[test]
    fn register_is_idempotent() {
        let mut b = CounterBlock::new(true);
        b.set_named("x", 1);
        b.set_named("x", 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn disabled_block_records_nothing() {
        let mut b = CounterBlock::new(false);
        b.set_named("cells.simulated", 5);
        assert_eq!(b.len(), 0);
        assert_eq!(b.get("cells.simulated"), None);
        assert_eq!(b.counters().count(), 0);
    }
}
