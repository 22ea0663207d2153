//! The paper's comparison metric.

/// Relative speedup of the simulation versus the hardware (§5).
///
/// Defined so that 1.0 is a perfect match, values above 1.0 mean the
/// *simulation* is faster, and values below 1.0 mean the hardware is
/// faster: `hardware_time / simulation_time`.
pub fn relative_speedup(hardware_seconds: f64, simulation_seconds: f64) -> f64 {
    assert!(hardware_seconds >= 0.0 && simulation_seconds > 0.0);
    hardware_seconds / simulation_seconds
}

/// Mean absolute deviation from 1.0 — the "how far from a perfect
/// match" score used by the tuning loop.
pub fn deviation_from_parity(rels: &[f64]) -> f64 {
    if rels.is_empty() {
        return 0.0;
    }
    // Symmetric in log space so 0.5x and 2x count equally.
    rels.iter().map(|r| r.max(1e-300).ln().abs()).sum::<f64>() / rels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        // "A relative speedup of 1.2 ... indicates that the simulation
        // runs 20% faster than the real hardware."
        let rel = relative_speedup(1.2, 1.0);
        assert!((rel - 1.2).abs() < 1e-12);
    }

    #[test]
    fn parity_is_one() {
        assert_eq!(relative_speedup(3.5, 3.5), 1.0);
    }

    #[test]
    fn deviation_is_symmetric() {
        let a = deviation_from_parity(&[2.0]);
        let b = deviation_from_parity(&[0.5]);
        assert!((a - b).abs() < 1e-12);
        assert_eq!(deviation_from_parity(&[1.0, 1.0]), 0.0);
    }
}
