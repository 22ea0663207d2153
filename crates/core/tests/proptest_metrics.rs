//! Property tests for the metrics module.

use bsim_core::metrics::{deviation_from_parity, relative_speedup};
use proptest::prelude::*;

proptest! {
    #[test]
    fn relative_speedup_is_scale_invariant(hw in 1e-9f64..1e6, sim in 1e-9f64..1e6, k in 1e-3f64..1e3) {
        let a = relative_speedup(hw, sim);
        let b = relative_speedup(hw * k, sim * k);
        prop_assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
    }

    #[test]
    fn relative_speedup_inverts(hw in 1e-6f64..1e6, sim in 1e-6f64..1e6) {
        let a = relative_speedup(hw, sim);
        let b = relative_speedup(sim, hw);
        prop_assert!((a * b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deviation_zero_iff_parity(vals in prop::collection::vec(0.01f64..100.0, 1..20)) {
        let d = deviation_from_parity(&vals);
        prop_assert!(d >= 0.0);
        if vals.iter().all(|v| (v - 1.0).abs() < 1e-12) {
            prop_assert!(d < 1e-9);
        }
    }

    #[test]
    fn deviation_monotone_in_distance(r in 1.0f64..50.0) {
        // Farther from parity = larger deviation score.
        let near = deviation_from_parity(&[r]);
        let far = deviation_from_parity(&[r * 2.0]);
        prop_assert!(far > near);
    }
}
