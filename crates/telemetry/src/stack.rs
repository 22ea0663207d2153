//! The cycle stack: where one core's cycles went.

use serde::{Serialize, Value};

/// What one advance of a core's clock is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    /// Issue width, functional-unit latency and the structural waits
    /// whose cause the core does not hold; an MPI `charge`.
    Base,
    /// Instruction-fetch stalls and mispredict refills.
    Frontend,
    /// A load served by the L1D.
    L1,
    /// A load served by the shared L2.
    L2,
    /// A load served by the last-level cache.
    Llc,
    /// A load served by DRAM, its token-quantum rounding included.
    Dram,
    /// The TLB's extra cycles on a load.
    Tlb,
    /// An MPI send's overhead and transfer.
    MpiSend,
    /// An MPI receive or collective waiting for its data or its peers.
    MpiWait,
}

impl Bucket {
    /// Every bucket, in stack order.
    pub const ALL: [Bucket; 9] = [
        Bucket::Base,
        Bucket::Frontend,
        Bucket::L1,
        Bucket::L2,
        Bucket::Llc,
        Bucket::Dram,
        Bucket::Tlb,
        Bucket::MpiSend,
        Bucket::MpiWait,
    ];

    /// The bucket's name in a serialized stack and in tables.
    pub fn name(self) -> &'static str {
        [
            "base", "frontend", "l1", "l2", "llc", "dram", "tlb", "mpi_send", "mpi_wait",
        ][self as usize]
    }
}

/// One core's cycles by [`Bucket`]. A core charges every advance of its
/// clock to exactly one bucket where the advance happens, so the stack
/// sums to the core's cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleStack([u64; 9]);

impl CycleStack {
    /// Charges `cycles` to `bucket`.
    #[inline(always)]
    pub fn charge(&mut self, bucket: Bucket, cycles: u64) {
        self.0[bucket as usize] += cycles;
    }

    /// The cycles charged to `bucket`.
    pub fn get(&self, bucket: Bucket) -> u64 {
        self.0[bucket as usize]
    }

    /// Every bucket's cycles: the core's cycles.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl Serialize for CycleStack {
    fn to_value(&self) -> Value {
        Value::Map(
            Bucket::ALL
                .into_iter()
                .map(|b| (b.name().to_string(), Value::U64(self.get(b))))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_sum_to_the_total_and_serialize_by_name() {
        let mut s = CycleStack::default();
        s.charge(Bucket::Base, 7);
        s.charge(Bucket::Dram, 30);
        s.charge(Bucket::Base, 3);
        assert_eq!(s.total(), 40);
        assert_eq!(s.get(Bucket::Base), 10);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.starts_with(r#"{"base":10,"frontend":0,"#), "{json}");
        assert!(json.ends_with(r#""mpi_send":0,"mpi_wait":0}"#), "{json}");
    }
}
