//! Baseline-specific cost parameters.

/// SMP-kernel lock-hold times: how long each shared-structure lock is held
/// per operation. These are what the queueing models turn into waiting
/// time as core counts grow.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpParams {
    /// `tasklist_lock`-style hold during clone/exit.
    pub task_lock_hold_ns: u64,
    /// `mmap_sem` write hold during mmap.
    pub mmap_write_hold_ns: u64,
    /// `mmap_sem` write hold during munmap (longer: page teardown).
    pub munmap_write_hold_ns: u64,
    /// `mmap_sem` read hold during fault handling.
    pub fault_read_hold_ns: u64,
    /// Page-table lock hold during fault install.
    pub pt_lock_hold_ns: u64,
    /// Futex hash-bucket lock hold per operation.
    pub futex_bucket_hold_ns: u64,
    /// Number of futex hash buckets (Linux scales this with cores; the
    /// paper-era default order of magnitude).
    pub futex_buckets: usize,
    /// Run-queue lock hold when waking a task onto another core.
    pub rq_lock_hold_ns: u64,
    /// Zone lock hold per page freed on munmap. (The hold per page
    /// allocation is the kernel's `OsParams::zone_lock_hold_ns`; on SMP its
    /// one zone lock is machine-wide.)
    pub zone_free_per_page_ns: u64,
}

impl Default for SmpParams {
    fn default() -> Self {
        SmpParams {
            task_lock_hold_ns: 1_900,
            mmap_write_hold_ns: 1_300,
            munmap_write_hold_ns: 1_900,
            fault_read_hold_ns: 420,
            pt_lock_hold_ns: 260,
            futex_bucket_hold_ns: 380,
            futex_buckets: 256,
            rq_lock_hold_ns: 320,
            zone_free_per_page_ns: 110,
        }
    }
}

/// Multikernel (Barrelfish-like) parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MultikernelParams {
    /// Remote dispatcher (thread) creation service cost at the target.
    pub remote_spawn_ns: u64,
    /// Shared-service (futex/atomic) request handling at the home.
    pub service_ns: u64,
}

impl Default for MultikernelParams {
    fn default() -> Self {
        MultikernelParams {
            remote_spawn_ns: 9_000,
            service_ns: 420,
        }
    }
}
