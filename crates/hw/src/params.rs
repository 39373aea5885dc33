//! Calibrated hardware cost constants.
//!
//! Defaults approximate the 2015-era multi-socket Xeon class machines the
//! Popcorn Linux evaluation used (see EXPERIMENTS.md for the calibration
//! sources). All fields are public so experiments can
//! override individual knobs and ablations can be expressed as parameter
//! diffs.

use popcorn_sim::SimTime;

/// Every hardware latency constant used by the simulation, in nanoseconds
/// unless noted.
///
/// # Example
///
/// ```
/// use popcorn_hw::HwParams;
///
/// let mut p = HwParams::default();
/// p.remote_page_walk_ns = 4_600; // slower remote walks for a replication study
/// assert!(p.remote_page_walk_ns > p.local_replica_walk_ns);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HwParams {
    /// Core clock in GHz; converts workload "cycles" to time.
    pub clock_ghz: f64,
    /// Last-level-cache hit (used for warm accesses).
    pub llc_hit_ns: u64,
    /// Transferring a modified cache line between cores on one socket.
    pub line_transfer_same_socket_ns: u64,
    /// Transferring a modified cache line across sockets.
    pub line_transfer_cross_socket_ns: u64,
    /// An uncontended atomic read-modify-write (lock-prefixed op).
    pub atomic_op_ns: u64,
    /// Uncontended spinlock acquire+release round trip.
    pub spinlock_uncontended_ns: u64,
    /// Delivery latency of an IPI from send to remote handler entry.
    pub ipi_latency_ns: u64,
    /// Cost of running the IPI handler on the target.
    pub ipi_handler_ns: u64,
    /// Fixed initiator-side cost of a TLB shootdown (building the cpumask,
    /// entering the flush path) before any IPIs are sent.
    pub tlb_shootdown_base_ns: u64,
    /// Local TLB invalidation (`invlpg`).
    pub tlb_invalidate_local_ns: u64,
    /// A page-table walk against a local replica of the tables (all four
    /// levels in local DRAM or cache). Only charged when the walk-locality
    /// model is on (`page_table_replication`).
    pub local_replica_walk_ns: u64,
    /// A page-table walk when the tables live on another kernel's memory
    /// domain: four dependent pointer chases, each a full cross-fabric
    /// round trip that cannot overlap with the next (the walker needs
    /// level N's entry to find level N+1). Mitosis measures 3–4× per
    /// level just for NUMA-remote tables; cross-kernel adds the
    /// fabric hop on top.
    pub remote_page_walk_ns: u64,
    /// Applying one pushed page-table-entry update at a replica holder
    /// (write the PTE, invalidate the local TLB entry).
    pub pt_replica_update_ns: u64,
}

impl Default for HwParams {
    /// 2.4 GHz, 4-socket Xeon-class defaults (see EXPERIMENTS.md §Calibration).
    fn default() -> Self {
        HwParams {
            clock_ghz: 2.4,
            llc_hit_ns: 15,
            line_transfer_same_socket_ns: 45,
            line_transfer_cross_socket_ns: 130,
            atomic_op_ns: 20,
            spinlock_uncontended_ns: 30,
            ipi_latency_ns: 1_200,
            ipi_handler_ns: 450,
            tlb_shootdown_base_ns: 900,
            tlb_invalidate_local_ns: 120,
            // ~4 levels of local DRAM/cache vs 4 dependent cross-fabric
            // round trips (~575 ns each: remote DRAM + cross-socket
            // transfer + coherence, serialized by the pointer chase).
            local_replica_walk_ns: 120,
            remote_page_walk_ns: 2_300,
            pt_replica_update_ns: 210,
        }
    }
}

impl HwParams {
    /// Validates internal consistency (remote ≥ local, positive clock).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_ghz <= 0.0 {
            return Err(format!(
                "clock_ghz must be positive, got {}",
                self.clock_ghz
            ));
        }
        if self.line_transfer_cross_socket_ns < self.line_transfer_same_socket_ns {
            return Err(format!(
                "cross-socket line transfer ({}) faster than same-socket ({})",
                self.line_transfer_cross_socket_ns, self.line_transfer_same_socket_ns
            ));
        }
        if self.remote_page_walk_ns < self.local_replica_walk_ns {
            return Err(format!(
                "remote page walk ({}) faster than local replica walk ({})",
                self.remote_page_walk_ns, self.local_replica_walk_ns
            ));
        }
        Ok(())
    }

    /// Uncontended spinlock round trip as time.
    pub fn spinlock_uncontended(&self) -> SimTime {
        SimTime::from_nanos(self.spinlock_uncontended_ns)
    }

    /// Atomic op as time.
    pub fn atomic_op(&self) -> SimTime {
        SimTime::from_nanos(self.atomic_op_ns)
    }

    /// IPI delivery latency as time.
    pub fn ipi_latency(&self) -> SimTime {
        SimTime::from_nanos(self.ipi_latency_ns)
    }

    /// IPI handler cost as time.
    pub fn ipi_handler(&self) -> SimTime {
        SimTime::from_nanos(self.ipi_handler_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(HwParams::default().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_zero_clock() {
        let p = HwParams {
            clock_ghz: 0.0,
            ..HwParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_inverted_line_transfer() {
        let p = HwParams {
            line_transfer_cross_socket_ns: 1,
            ..HwParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_inverted_page_walk() {
        let p = HwParams {
            remote_page_walk_ns: 1,
            ..HwParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn time_accessors_match_fields() {
        let p = HwParams::default();
        assert_eq!(p.atomic_op().as_nanos(), p.atomic_op_ns);
        assert_eq!(p.ipi_latency().as_nanos(), p.ipi_latency_ns);
        assert_eq!(p.ipi_handler().as_nanos(), p.ipi_handler_ns);
        assert_eq!(
            p.spinlock_uncontended().as_nanos(),
            p.spinlock_uncontended_ns
        );
    }
}
