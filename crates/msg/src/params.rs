//! Message-layer cost constants.

use crate::fault::FaultPlan;

/// Calibrated costs of the shared-memory message layer.
///
/// Defaults target the microsecond-scale kernel-to-kernel messaging the
/// Popcorn papers report for small control messages on one machine: a
/// same-socket 64-byte message lands in roughly 2–3 µs end to end
/// (send software path + ring write + IPI notification + receive path).
#[derive(Debug, Clone, PartialEq)]
pub struct MsgParams {
    /// Send-side software path: marshalling, ring slot claim.
    pub send_sw_ns: u64,
    /// Receive-side software path: demux, handler dispatch.
    pub recv_sw_ns: u64,
    /// Ring write throughput, in nanoseconds per 64-byte cache line.
    pub per_line_ns: u64,
    /// Deterministic fault-injection script. The default
    /// ([`FaultPlan::none()`]) injects nothing and keeps the send path
    /// byte-identical to a fabric without fault support.
    pub faults: FaultPlan,
}

impl Default for MsgParams {
    fn default() -> Self {
        MsgParams {
            send_sw_ns: 550,
            recv_sw_ns: 650,
            per_line_ns: 18,
            faults: FaultPlan::none(),
        }
    }
}

impl MsgParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(MsgParams::default().validate(), Ok(()));
    }

    #[test]
    fn invalid_fault_plan_rejected() {
        let p = MsgParams {
            faults: FaultPlan::uniform_drop(0, 2.0),
            ..MsgParams::default()
        };
        assert!(p.validate().is_err());
    }
}
