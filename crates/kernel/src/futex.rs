//! Synchronization words and futex wait queues.
//!
//! User-level synchronization in the workloads (mutexes, barriers) is built
//! on words manipulated with atomic RMW ops plus `futex` wait/wake. In this
//! reproduction the word values and wait queues live in a [`FutexTable`]
//! owned by whichever kernel is *authoritative* for the group:
//!
//! - on the SMP baseline, the single kernel;
//! - on the replicated-kernel OS, the group's **home kernel** (the paper's
//!   global futex server) — remote kernels reach it by RPC, local threads
//!   take the fast path.
//!
//! Serializing value checks and queue operations at one place makes
//! lost-wakeup races impossible by construction, which mirrors how both
//! Linux (per-bucket locks) and Popcorn (home-kernel server) close them.
//! See DESIGN.md §Distributed futex for the modelling rationale.

use std::collections::{HashMap, VecDeque};

use popcorn_msg::KernelId;

use crate::program::RmwOp;
use crate::types::{GroupId, Tid, VAddr};

/// A parked futex waiter (possibly on a remote kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Kernel hosting the sleeping thread.
    pub kernel: KernelId,
    /// The sleeping thread.
    pub tid: Tid,
}

/// Authoritative synchronization-word values and futex wait queues for the
/// groups homed on one kernel.
///
/// # Example
///
/// ```
/// use popcorn_kernel::futex::{FutexTable, Waiter};
/// use popcorn_kernel::program::RmwOp;
/// use popcorn_kernel::types::{GroupId, Tid, VAddr};
/// use popcorn_msg::KernelId;
///
/// let mut t = FutexTable::new();
/// let g = GroupId(Tid::new(KernelId(0), 1));
/// let w = VAddr(0x7f00_0000_0000);
///
/// assert_eq!(t.rmw(g, w, RmwOp::Add(1)), 0); // old value
/// assert_eq!(t.read(g, w), 1);
///
/// let sleeper = Waiter { kernel: KernelId(0), tid: Tid::new(KernelId(0), 2) };
/// assert!(t.wait_if(g, w, 1, sleeper));      // 1 == current: parked
/// assert_eq!(t.wake(g, w, u32::MAX), vec![sleeper]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FutexTable {
    words: HashMap<(GroupId, u64), u64>,
    queues: HashMap<(GroupId, u64), VecDeque<Waiter>>,
}

impl FutexTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FutexTable::default()
    }

    /// Reads a word (0 if never written).
    pub fn read(&self, group: GroupId, addr: VAddr) -> u64 {
        self.words.get(&(group, addr.0)).copied().unwrap_or(0)
    }

    /// Applies an atomic RMW, returning the *old* value.
    pub fn rmw(&mut self, group: GroupId, addr: VAddr, op: RmwOp) -> u64 {
        let slot = self.words.entry((group, addr.0)).or_insert(0);
        let old = *slot;
        match op {
            RmwOp::Add(n) => *slot = old.wrapping_add(n),
            RmwOp::Xchg(n) => *slot = n,
            RmwOp::Cas { expected, new } => {
                if old == expected {
                    *slot = new;
                }
            }
        }
        old
    }

    /// Parks `waiter` if the word still holds `expected`; returns whether it
    /// was parked (`false` = value changed, caller returns `EAGAIN`).
    pub fn wait_if(&mut self, group: GroupId, addr: VAddr, expected: u64, waiter: Waiter) -> bool {
        if self.read(group, addr) != expected {
            return false;
        }
        self.queues
            .entry((group, addr.0))
            .or_default()
            .push_back(waiter);
        true
    }

    /// Wakes up to `count` waiters in FIFO order; returns them.
    pub fn wake(&mut self, group: GroupId, addr: VAddr, count: u32) -> Vec<Waiter> {
        let Some(q) = self.queues.get_mut(&(group, addr.0)) else {
            return Vec::new();
        };
        let n = (count as usize).min(q.len());
        let woken: Vec<Waiter> = q.drain(..n).collect();
        if q.is_empty() {
            self.queues.remove(&(group, addr.0));
        }
        woken
    }

    /// Number of waiters parked on a word.
    pub fn waiters(&self, group: GroupId, addr: VAddr) -> usize {
        self.queues.get(&(group, addr.0)).map_or(0, VecDeque::len)
    }

    /// Number of parked waiters (across all words) resident on `kernel` —
    /// the futex-wait residency signal in the load-telemetry snapshot.
    pub fn resident_waiters(&self, kernel: KernelId) -> usize {
        self.queues
            .values()
            .flat_map(|q| q.iter())
            .filter(|w| w.kernel == kernel)
            .count()
    }

    /// Removes every wait queue of `group` but keeps its word values
    /// (crash recovery: a member kernel died and the authoritative table is
    /// being swept). Returns the parked waiters sorted by tid so the caller
    /// can wake survivors with an `EOWNERDEAD`-style error and skip waiters
    /// that were resident on the dead kernel. Words survive because the
    /// group lives on — its mutexes and barriers keep their state.
    pub fn sweep_group(&mut self, group: GroupId) -> Vec<Waiter> {
        let mut orphans = Vec::new();
        self.queues.retain(|&(g, _), q| {
            if g == group {
                orphans.extend(q.iter().copied());
                false
            } else {
                true
            }
        });
        orphans.sort_unstable_by_key(|w| w.tid);
        orphans
    }

    /// Drops all state of a group (group exit); returns any still-parked
    /// waiters so the caller can fail them.
    pub fn drop_group(&mut self, group: GroupId) -> Vec<Waiter> {
        self.words.retain(|&(g, _), _| g != group);
        let mut orphans = Vec::new();
        self.queues.retain(|&(g, _), q| {
            if g == group {
                orphans.extend(q.iter().copied());
                false
            } else {
                true
            }
        });
        orphans.sort_unstable_by_key(|w| w.tid);
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> GroupId {
        GroupId(Tid::new(KernelId(0), 1))
    }

    fn w(n: u32) -> Waiter {
        Waiter {
            kernel: KernelId(0),
            tid: Tid::new(KernelId(0), n),
        }
    }

    const A: VAddr = VAddr(0x7000);

    #[test]
    fn words_default_zero() {
        assert_eq!(FutexTable::new().read(g(), A), 0);
    }

    #[test]
    fn rmw_add_returns_old() {
        let mut t = FutexTable::new();
        assert_eq!(t.rmw(g(), A, RmwOp::Add(5)), 0);
        assert_eq!(t.rmw(g(), A, RmwOp::Add(3)), 5);
        assert_eq!(t.read(g(), A), 8);
    }

    #[test]
    fn rmw_add_wraps() {
        let mut t = FutexTable::new();
        t.rmw(g(), A, RmwOp::Xchg(u64::MAX));
        assert_eq!(t.rmw(g(), A, RmwOp::Add(2)), u64::MAX);
        assert_eq!(t.read(g(), A), 1);
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let mut t = FutexTable::new();
        assert_eq!(
            t.rmw(
                g(),
                A,
                RmwOp::Cas {
                    expected: 0,
                    new: 1
                }
            ),
            0
        );
        assert_eq!(t.read(g(), A), 1);
        // Mismatch: returns old, leaves value.
        assert_eq!(
            t.rmw(
                g(),
                A,
                RmwOp::Cas {
                    expected: 0,
                    new: 9
                }
            ),
            1
        );
        assert_eq!(t.read(g(), A), 1);
    }

    #[test]
    fn xchg_swaps() {
        let mut t = FutexTable::new();
        assert_eq!(t.rmw(g(), A, RmwOp::Xchg(7)), 0);
        assert_eq!(t.rmw(g(), A, RmwOp::Xchg(0)), 7);
    }

    #[test]
    fn wait_gated_on_expected_value() {
        let mut t = FutexTable::new();
        t.rmw(g(), A, RmwOp::Xchg(2));
        assert!(!t.wait_if(g(), A, 1, w(1)), "stale expected must not park");
        assert!(t.wait_if(g(), A, 2, w(1)));
        assert_eq!(t.waiters(g(), A), 1);
    }

    #[test]
    fn wake_is_fifo_and_bounded() {
        let mut t = FutexTable::new();
        for i in 1..=4 {
            assert!(t.wait_if(g(), A, 0, w(i)));
        }
        let woken = t.wake(g(), A, 2);
        assert_eq!(woken, vec![w(1), w(2)]);
        assert_eq!(t.waiters(g(), A), 2);
        let rest = t.wake(g(), A, u32::MAX);
        assert_eq!(rest, vec![w(3), w(4)]);
        assert_eq!(t.waiters(g(), A), 0);
    }

    #[test]
    fn wake_empty_is_empty() {
        let mut t = FutexTable::new();
        assert!(t.wake(g(), A, u32::MAX).is_empty());
    }

    #[test]
    fn groups_are_isolated() {
        let mut t = FutexTable::new();
        let g2 = GroupId(Tid::new(KernelId(1), 1));
        t.rmw(g(), A, RmwOp::Add(1));
        assert_eq!(t.read(g2, A), 0);
        assert!(t.wait_if(g2, A, 0, w(9)));
        assert!(t.wake(g(), A, u32::MAX).is_empty());
        assert_eq!(t.waiters(g2, A), 1);
    }

    #[test]
    fn sweep_group_keeps_words_drops_queues() {
        let mut t = FutexTable::new();
        let g2 = GroupId(Tid::new(KernelId(1), 1));
        t.rmw(g(), A, RmwOp::Xchg(7));
        assert!(t.wait_if(g(), A, 7, w(4)));
        assert!(t.wait_if(g(), VAddr(0x8000), 0, w(2)));
        assert!(t.wait_if(g2, A, 0, w(9)));
        let swept = t.sweep_group(g());
        assert_eq!(swept, vec![w(2), w(4)]); // sorted by tid
        assert_eq!(t.read(g(), A), 7, "word values survive the sweep");
        assert_eq!(t.waiters(g(), A), 0);
        assert_eq!(t.waiters(g2, A), 1, "other groups untouched");
    }

    #[test]
    fn drop_group_returns_orphans_sorted() {
        let mut t = FutexTable::new();
        t.wait_if(g(), A, 0, w(3)).then_some(()).unwrap();
        t.wait_if(g(), VAddr(0x8000), 0, w(1))
            .then_some(())
            .unwrap();
        let orphans = t.drop_group(g());
        assert_eq!(orphans, vec![w(1), w(3)]);
        assert_eq!(t.read(g(), A), 0);
        assert_eq!(t.waiters(g(), A), 0);
    }
}
