//! Telemetry configuration.

use serde::{Deserialize, Serialize};

/// Controls whether a simulation publishes counters out-of-band.
///
/// With `enabled: false` every counter call is a no-op against a single
/// scratch cell, nothing is named, and exports are empty — the timing model
/// itself never observes the difference (see the disabled-path tests in
/// `bsim-soc`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. Off ⇒ no counters.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig { enabled: false }
    }

    /// Final counter values, published when the run reports.
    pub fn counters() -> TelemetryConfig {
        TelemetryConfig { enabled: true }
    }
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg, TelemetryConfig::disabled());
    }
}
