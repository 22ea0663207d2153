//! Telemetry configuration.

use serde::{Deserialize, Serialize};

/// Controls whether a run's report carries its cores' cycle stacks.
///
/// The cores keep their stacks either way; the switch only decides
/// whether the report publishes them, so the timing model never observes
/// it (see the disabled-path tests in `bsim-soc`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. Off ⇒ the report carries no stacks.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig { enabled: false }
    }

    /// Each core's cycle stack, published when the run reports.
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
