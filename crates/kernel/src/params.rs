//! Kernel software-path cost constants shared by all three OS models.
//!
//! These price the *uncontended* software paths; contention is added on top
//! by the lock-site models (SMP) or messaging (replicated kernel). Values
//! approximate 2015-era Linux on the hardware of `HwParams::default`
//! (see EXPERIMENTS.md §Calibration).

use popcorn_sim::SimTime;

/// Per-kernel software cost constants (nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct OsParams {
    /// Syscall trap entry + exit.
    pub syscall_entry_ns: u64,
    /// Context switch between two threads on one core.
    pub context_switch_ns: u64,
    /// Scheduler time slice.
    pub quantum_us: u64,
    /// Thread clone: task struct allocation and wiring (no scheduling).
    pub clone_base_ns: u64,
    /// Thread exit teardown.
    pub exit_ns: u64,
    /// `mmap` software path excluding address-space locking.
    pub mmap_base_ns: u64,
    /// `munmap` software path excluding locking and TLB shootdown.
    pub munmap_base_ns: u64,
    /// Servicing an anonymous minor fault (allocate + zero + map).
    pub fault_service_ns: u64,
    /// Futex syscall software path (hash, queue ops) excluding locking.
    pub futex_base_ns: u64,
    /// Waking a task: scheduler enqueue (plus an IPI if its core idles).
    pub wakeup_ns: u64,
    /// Page-allocator lock hold per page allocated/freed, in all three
    /// models. On SMP this lock is machine-global (and a freed page holds
    /// it `SmpParams::zone_free_per_page_ns`); on the partitioned kernels
    /// each kernel has its own allocator, contended only by its own cores.
    pub zone_lock_hold_ns: u64,
    /// Maximum user ops executed per scheduler interaction (simulation
    /// batching bound; does not affect modelled time).
    pub max_batched_ops: u32,
}

impl Default for OsParams {
    fn default() -> Self {
        OsParams {
            syscall_entry_ns: 140,
            context_switch_ns: 1_600,
            quantum_us: 1_000,
            clone_base_ns: 11_000,
            exit_ns: 6_000,
            mmap_base_ns: 1_800,
            munmap_base_ns: 2_200,
            fault_service_ns: 1_100,
            futex_base_ns: 550,
            wakeup_ns: 900,
            zone_lock_hold_ns: 230,
            max_batched_ops: 512,
        }
    }
}

impl OsParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.quantum_us == 0 {
            return Err("quantum must be positive".into());
        }
        if self.max_batched_ops == 0 {
            return Err("max_batched_ops must be positive".into());
        }
        Ok(())
    }

    /// The scheduler time slice as time.
    pub fn quantum(&self) -> SimTime {
        SimTime::from_micros(self.quantum_us)
    }

    /// Syscall entry/exit overhead as time.
    pub fn syscall_entry(&self) -> SimTime {
        SimTime::from_nanos(self.syscall_entry_ns)
    }

    /// Context switch cost as time.
    pub fn context_switch(&self) -> SimTime {
        SimTime::from_nanos(self.context_switch_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(OsParams::default().validate(), Ok(()));
    }

    #[test]
    fn zero_quantum_rejected() {
        let p = OsParams {
            quantum_us: 0,
            ..OsParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_batch_rejected() {
        let p = OsParams {
            max_batched_ops: 0,
            ..OsParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn accessors_convert_units() {
        let p = OsParams::default();
        assert_eq!(p.quantum(), SimTime::from_micros(p.quantum_us));
        assert_eq!(p.syscall_entry().as_nanos(), p.syscall_entry_ns);
        assert_eq!(p.context_switch().as_nanos(), p.context_switch_ns);
    }
}
