//! User-space synchronization library: futex-backed primitives as
//! resumable *flows*.
//!
//! Real applications on the paper's systems synchronize through pthread
//! primitives: atomic operations on shared words with `futex` for
//! sleeping. Programs in this reproduction are state machines, so the
//! primitives come as [`Flow`]s — sub-state-machines a program drives from
//! inside its own `step`:
//!
//! - [`BarrierWait`] — sense-reversing counter barrier (generation word +
//!   arrival counter, wake-all on the last arrival);
//! - [`MutexLock`] / [`MutexUnlock`] — the classic three-state futex mutex
//!   (0 free, 1 locked, 2 locked-contended);
//! - [`JoinWait`] / [`JoinSignal`] — completion counting (thread join).
//!
//! All words are 8-byte slots inside memory the program mapped; by
//! convention they are touched *only* through `Op::AtomicRmw` / futexes
//! (see DESIGN.md §Distributed futex).

use popcorn_kernel::program::{FutexOp, Op, Resume, RmwOp, SysResult};
use popcorn_kernel::types::VAddr;

/// What a flow wants next: an operation to execute, or completion.
#[derive(Debug)]
pub enum Poll {
    /// Execute this and feed the result back.
    Op(Op),
    /// The primitive completed.
    Done,
}

/// A resumable synchronization primitive.
pub trait Flow: std::fmt::Debug + Send {
    /// Advances given the previous op's result (`Resume::Start` first).
    fn step(&mut self, resume: Resume) -> Poll;
}

/// Shared-memory layout of a barrier: an arrival counter and a generation
/// word, in two adjacent slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Barrier {
    /// Arrival counter word.
    pub count: VAddr,
    /// Generation word (incremented each episode; waiters sleep on it).
    pub gen: VAddr,
    /// Parties per episode.
    pub n: u64,
}

impl Barrier {
    /// Lays a barrier out at `base` (16 bytes).
    pub fn at(base: VAddr, n: u64) -> Self {
        assert!(n > 0, "barrier needs at least one party");
        Barrier {
            count: base,
            gen: base.add(8),
            n,
        }
    }
}

/// One thread's passage through a [`Barrier`].
#[derive(Debug)]
pub struct BarrierWait {
    b: Barrier,
    my_gen: u64,
    state: u8,
}

impl BarrierWait {
    /// Begins a barrier episode.
    pub fn new(b: Barrier) -> Self {
        BarrierWait {
            b,
            my_gen: 0,
            state: 0,
        }
    }
}

impl Flow for BarrierWait {
    fn step(&mut self, resume: Resume) -> Poll {
        match self.state {
            // Read the current generation (via a no-op RMW).
            0 => {
                self.state = 1;
                Poll::Op(Op::AtomicRmw(self.b.gen, RmwOp::Add(0)))
            }
            1 => {
                let Resume::Value(g) = resume else {
                    panic!("barrier expected generation value, got {resume:?}");
                };
                self.my_gen = g;
                self.state = 2;
                Poll::Op(Op::AtomicRmw(self.b.count, RmwOp::Add(1)))
            }
            2 => {
                let Resume::Value(old) = resume else {
                    panic!("barrier expected counter value, got {resume:?}");
                };
                if old == self.b.n - 1 {
                    // Last arrival: reset the counter...
                    self.state = 3;
                    Poll::Op(Op::AtomicRmw(self.b.count, RmwOp::Xchg(0)))
                } else {
                    self.state = 5;
                    Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(
                        FutexOp::Wait {
                            uaddr: self.b.gen,
                            expected: self.my_gen,
                        },
                    )))
                }
            }
            // ...bump the generation...
            3 => {
                self.state = 4;
                Poll::Op(Op::AtomicRmw(self.b.gen, RmwOp::Add(1)))
            }
            // ...and wake everyone.
            4 => {
                self.state = 6;
                Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(
                    FutexOp::Wake {
                        uaddr: self.b.gen,
                        count: u32::MAX,
                    },
                )))
            }
            // Waiter woke (or the wait was stale): re-check the generation.
            5 => {
                debug_assert!(matches!(resume, Resume::Sys(_)));
                self.state = 7;
                Poll::Op(Op::AtomicRmw(self.b.gen, RmwOp::Add(0)))
            }
            7 => {
                let Resume::Value(g) = resume else {
                    panic!("barrier expected generation value, got {resume:?}");
                };
                if g != self.my_gen {
                    Poll::Done
                } else {
                    self.state = 5;
                    Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(
                        FutexOp::Wait {
                            uaddr: self.b.gen,
                            expected: self.my_gen,
                        },
                    )))
                }
            }
            6 => {
                debug_assert!(matches!(resume, Resume::Sys(SysResult::Val(_))));
                Poll::Done
            }
            s => panic!("barrier in impossible state {s}"),
        }
    }
}

/// A two-level (combining) barrier: threads first meet in per-group local
/// barriers; the last arrival of each group represents it at a global
/// barrier of `groups` parties, then releases its group.
///
/// Grouping threads by the kernel they run on turns all but one
/// synchronization op per kernel per episode into kernel-local traffic —
/// the classic NUMA/multikernel barrier optimization. On the replicated
/// kernel this pays off when synchronization words are homed where they
/// are used (see `PopcornParams::sync_first_touch_homing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierBarrier {
    /// The top-level barrier among group leaders.
    pub global: Barrier,
    /// Base address of the per-group barriers (64 bytes apart).
    pub locals_base: VAddr,
    /// Number of groups.
    pub groups: u64,
}

impl HierBarrier {
    /// Lays out a hierarchical barrier at `base`: the global barrier in the
    /// first 64-byte slot, group `g`'s local barrier in slot `1 + g`.
    /// Requires `(groups + 1) * 64` bytes at `base`.
    pub fn at(base: VAddr, groups: u64) -> Self {
        assert!(groups > 0, "need at least one group");
        HierBarrier {
            global: Barrier::at(base, groups),
            locals_base: base.add(64),
            groups,
        }
    }

    /// The local barrier of group `g` with `parties` members.
    pub fn local(&self, g: u64, parties: u64) -> Barrier {
        assert!(g < self.groups, "group {g} out of range");
        Barrier::at(self.locals_base.add(64 * g), parties)
    }
}

/// One thread's passage through a [`HierBarrier`].
#[derive(Debug)]
pub struct HierBarrierWait {
    local: Barrier,
    global: Barrier,
    my_gen: u64,
    state: u8,
    inner: Option<BarrierWait>,
}

impl HierBarrierWait {
    /// Begins an episode for a member of group `g` (which has `parties`
    /// members).
    pub fn new(h: HierBarrier, g: u64, parties: u64) -> Self {
        HierBarrierWait {
            local: h.local(g, parties),
            global: h.global,
            my_gen: 0,
            state: 0,
            inner: None,
        }
    }
}

impl Flow for HierBarrierWait {
    fn step(&mut self, resume: Resume) -> Poll {
        use popcorn_kernel::program::SyscallReq;
        match self.state {
            // Read the local generation first (gate for the wait).
            0 => {
                self.state = 1;
                Poll::Op(Op::AtomicRmw(self.local.gen, RmwOp::Add(0)))
            }
            1 => {
                let Resume::Value(g) = resume else {
                    panic!("hier barrier expected generation, got {resume:?}");
                };
                self.my_gen = g;
                self.state = 2;
                Poll::Op(Op::AtomicRmw(self.local.count, RmwOp::Add(1)))
            }
            2 => {
                let Resume::Value(old) = resume else {
                    panic!("hier barrier expected counter, got {resume:?}");
                };
                if old == self.local.n - 1 {
                    // Group leader: cross the global barrier.
                    let mut inner = BarrierWait::new(self.global);
                    let first = inner.step(Resume::Start);
                    self.inner = Some(inner);
                    self.state = 3;
                    match first {
                        Poll::Op(op) => Poll::Op(op),
                        Poll::Done => unreachable!("global barrier needs ops"),
                    }
                } else {
                    self.state = 6;
                    Poll::Op(Op::Syscall(SyscallReq::Futex(FutexOp::Wait {
                        uaddr: self.local.gen,
                        expected: self.my_gen,
                    })))
                }
            }
            // Leader driving the global barrier.
            3 => match self.inner.as_mut().expect("inner set").step(resume) {
                Poll::Op(op) => Poll::Op(op),
                Poll::Done => {
                    // Release the local group: reset count...
                    self.state = 4;
                    Poll::Op(Op::AtomicRmw(self.local.count, RmwOp::Xchg(0)))
                }
            },
            4 => {
                self.state = 5;
                Poll::Op(Op::AtomicRmw(self.local.gen, RmwOp::Add(1)))
            }
            5 => {
                self.state = 8;
                Poll::Op(Op::Syscall(SyscallReq::Futex(FutexOp::Wake {
                    uaddr: self.local.gen,
                    count: u32::MAX,
                })))
            }
            // Non-leader wait loop on the local generation.
            6 => {
                debug_assert!(matches!(resume, Resume::Sys(_)));
                self.state = 7;
                Poll::Op(Op::AtomicRmw(self.local.gen, RmwOp::Add(0)))
            }
            7 => {
                let Resume::Value(g) = resume else {
                    panic!("hier barrier expected generation, got {resume:?}");
                };
                if g != self.my_gen {
                    Poll::Done
                } else {
                    self.state = 6;
                    Poll::Op(Op::Syscall(SyscallReq::Futex(FutexOp::Wait {
                        uaddr: self.local.gen,
                        expected: self.my_gen,
                    })))
                }
            }
            8 => Poll::Done,
            s => panic!("hier barrier in impossible state {s}"),
        }
    }
}

/// Acquires a three-state futex mutex (0 free, 1 locked, 2 contended).
#[derive(Debug)]
pub struct MutexLock {
    word: VAddr,
    state: u8,
}

impl MutexLock {
    /// Begins an acquisition of the mutex at `word`.
    pub fn new(word: VAddr) -> Self {
        MutexLock { word, state: 0 }
    }
}

impl Flow for MutexLock {
    fn step(&mut self, resume: Resume) -> Poll {
        match self.state {
            0 => {
                self.state = 1;
                Poll::Op(Op::AtomicRmw(
                    self.word,
                    RmwOp::Cas {
                        expected: 0,
                        new: 1,
                    },
                ))
            }
            1 => {
                let Resume::Value(old) = resume else {
                    panic!("mutex expected CAS result, got {resume:?}");
                };
                if old == 0 {
                    return Poll::Done; // fast path
                }
                // Contended: advertise a waiter, then sleep.
                self.state = 2;
                Poll::Op(Op::AtomicRmw(self.word, RmwOp::Xchg(2)))
            }
            2 => {
                let Resume::Value(old) = resume else {
                    panic!("mutex expected Xchg result, got {resume:?}");
                };
                if old == 0 {
                    // It was free when we stamped 2: we own it.
                    return Poll::Done;
                }
                self.state = 3;
                Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(
                    FutexOp::Wait {
                        uaddr: self.word,
                        expected: 2,
                    },
                )))
            }
            3 => {
                debug_assert!(matches!(resume, Resume::Sys(_)));
                // Woken or stale: retry the contended exchange.
                self.state = 2;
                Poll::Op(Op::AtomicRmw(self.word, RmwOp::Xchg(2)))
            }
            s => panic!("mutex lock in impossible state {s}"),
        }
    }
}

/// Releases a futex mutex acquired by [`MutexLock`].
#[derive(Debug)]
pub struct MutexUnlock {
    word: VAddr,
    state: u8,
}

impl MutexUnlock {
    /// Begins the release of the mutex at `word`.
    pub fn new(word: VAddr) -> Self {
        MutexUnlock { word, state: 0 }
    }
}

impl Flow for MutexUnlock {
    fn step(&mut self, resume: Resume) -> Poll {
        match self.state {
            0 => {
                self.state = 1;
                Poll::Op(Op::AtomicRmw(self.word, RmwOp::Xchg(0)))
            }
            1 => {
                let Resume::Value(old) = resume else {
                    panic!("mutex expected Xchg result, got {resume:?}");
                };
                debug_assert!(old != 0, "unlocking a free mutex");
                if old == 2 {
                    self.state = 2;
                    Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(
                        FutexOp::Wake {
                            uaddr: self.word,
                            count: 1,
                        },
                    )))
                } else {
                    Poll::Done
                }
            }
            2 => {
                debug_assert!(matches!(resume, Resume::Sys(_)));
                Poll::Done
            }
            s => panic!("mutex unlock in impossible state {s}"),
        }
    }
}

/// Signals completion on a join counter: increment, then wake waiters.
#[derive(Debug)]
pub struct JoinSignal {
    word: VAddr,
    state: u8,
}

impl JoinSignal {
    /// Begins a completion signal on the counter at `word`.
    pub fn new(word: VAddr) -> Self {
        JoinSignal { word, state: 0 }
    }
}

impl Flow for JoinSignal {
    fn step(&mut self, resume: Resume) -> Poll {
        match self.state {
            0 => {
                self.state = 1;
                Poll::Op(Op::AtomicRmw(self.word, RmwOp::Add(1)))
            }
            1 => {
                debug_assert!(matches!(resume, Resume::Value(_)));
                self.state = 2;
                Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(
                    FutexOp::Wake {
                        uaddr: self.word,
                        count: u32::MAX,
                    },
                )))
            }
            2 => Poll::Done,
            s => panic!("join signal in impossible state {s}"),
        }
    }
}

/// Waits until a join counter reaches `target`.
#[derive(Debug)]
pub struct JoinWait {
    word: VAddr,
    target: u64,
    state: u8,
    seen: u64,
}

impl JoinWait {
    /// Begins waiting for the counter at `word` to reach `target`.
    pub fn new(word: VAddr, target: u64) -> Self {
        JoinWait {
            word,
            target,
            state: 0,
            seen: 0,
        }
    }
}

impl Flow for JoinWait {
    fn step(&mut self, resume: Resume) -> Poll {
        match self.state {
            0 => {
                self.state = 1;
                Poll::Op(Op::AtomicRmw(self.word, RmwOp::Add(0)))
            }
            1 => {
                let Resume::Value(v) = resume else {
                    panic!("join expected counter value, got {resume:?}");
                };
                if v >= self.target {
                    return Poll::Done;
                }
                self.seen = v;
                self.state = 2;
                Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(
                    FutexOp::Wait {
                        uaddr: self.word,
                        expected: self.seen,
                    },
                )))
            }
            2 => {
                debug_assert!(matches!(resume, Resume::Sys(_)));
                self.state = 1;
                Poll::Op(Op::AtomicRmw(self.word, RmwOp::Add(0)))
            }
            s => panic!("join wait in impossible state {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_kernel::futex::{FutexTable, Waiter};
    use popcorn_kernel::types::{GroupId, Tid};
    use popcorn_msg::KernelId;
    use std::collections::BTreeMap;

    /// A miniature cooperative executor: drives a set of flows against a
    /// real `FutexTable`, round-robin, handling AtomicRmw and futex
    /// syscalls exactly as an OS model would. Lets us unit-test the
    /// primitives' protocol logic without a simulator.
    struct MiniExec {
        table: FutexTable,
        group: GroupId,
        flows: Vec<(u32, Box<dyn Flow>)>,
        resumes: BTreeMap<u32, Resume>,
        blocked: BTreeMap<u32, VAddr>,
        done: Vec<u32>,
    }

    impl MiniExec {
        fn new(flows: Vec<Box<dyn Flow>>) -> Self {
            MiniExec {
                table: FutexTable::new(),
                group: GroupId(Tid::new(KernelId(0), 1)),
                resumes: flows
                    .iter()
                    .enumerate()
                    .map(|(i, _)| (i as u32, Resume::Start))
                    .collect(),
                flows: flows
                    .into_iter()
                    .enumerate()
                    .map(|(i, f)| (i as u32, f))
                    .collect(),
                blocked: BTreeMap::new(),
                done: Vec::new(),
            }
        }

        /// Runs until all flows complete (panics after too many rounds —
        /// a deadlocked primitive).
        fn run(&mut self) {
            self.run_with_order(None);
        }

        /// Like [`MiniExec::run`], but shuffling the per-round scheduling
        /// order with the given seed — an adversarial-interleaving mode
        /// for property tests.
        fn run_with_order(&mut self, seed: Option<u64>) {
            let mut rng = seed.map(popcorn_sim::SimRng::new);
            for _round in 0..100_000 {
                if self.flows.iter().all(|(id, _)| self.done.contains(id)) {
                    return;
                }
                let mut ids: Vec<u32> = self.flows.iter().map(|(id, _)| *id).collect();
                if let Some(rng) = rng.as_mut() {
                    rng.shuffle(&mut ids);
                }
                for id in ids {
                    if self.done.contains(&id) || self.blocked.contains_key(&id) {
                        continue;
                    }
                    self.step_one(id);
                }
                assert!(
                    !self
                        .flows
                        .iter()
                        .all(|(id, _)| self.blocked.contains_key(id) || self.done.contains(id))
                        || self.flows.iter().all(|(id, _)| self.done.contains(id)),
                    "all live flows blocked: deadlock"
                );
            }
            panic!("executor did not converge");
        }

        fn step_one(&mut self, id: u32) {
            let resume = self.resumes.insert(id, Resume::Done).expect("has resume");
            let flow = &mut self
                .flows
                .iter_mut()
                .find(|(i, _)| *i == id)
                .expect("flow exists")
                .1;
            match flow.step(resume) {
                Poll::Done => {
                    self.done.push(id);
                }
                Poll::Op(Op::AtomicRmw(addr, op)) => {
                    let old = self.table.rmw(self.group, addr, op);
                    self.resumes.insert(id, Resume::Value(old));
                }
                Poll::Op(Op::Syscall(popcorn_kernel::program::SyscallReq::Futex(op))) => match op {
                    FutexOp::Wait { uaddr, expected } => {
                        let w = Waiter {
                            kernel: KernelId(0),
                            tid: Tid::new(KernelId(0), id),
                        };
                        if self.table.wait_if(self.group, uaddr, expected, w) {
                            self.blocked.insert(id, uaddr);
                        } else {
                            self.resumes.insert(
                                id,
                                Resume::Sys(SysResult::Err(popcorn_kernel::types::Errno::Again)),
                            );
                        }
                    }
                    FutexOp::Wake { uaddr, count } => {
                        let woken = self.table.wake(self.group, uaddr, count);
                        for w in &woken {
                            let wid = w.tid.local();
                            self.blocked.remove(&wid);
                            self.resumes.insert(wid, Resume::Sys(SysResult::Val(0)));
                        }
                        self.resumes
                            .insert(id, Resume::Sys(SysResult::Val(woken.len() as u64)));
                    }
                },
                Poll::Op(other) => panic!("unexpected op from sync flow: {other:?}"),
            }
        }
    }

    const BASE: VAddr = VAddr(0x7f00_0000_0000);

    #[test]
    fn barrier_releases_all_parties() {
        for n in [1u64, 2, 3, 8, 16] {
            let b = Barrier::at(BASE, n);
            let flows: Vec<Box<dyn Flow>> = (0..n)
                .map(|_| Box::new(BarrierWait::new(b)) as Box<dyn Flow>)
                .collect();
            let mut exec = MiniExec::new(flows);
            exec.run();
            assert_eq!(exec.done.len(), n as usize, "n={n}");
            // Counter reset for the next episode.
            assert_eq!(exec.table.read(exec.group, b.count), 0);
            assert_eq!(exec.table.read(exec.group, b.gen), 1);
        }
    }

    #[test]
    fn barrier_is_reusable_across_episodes() {
        let n = 4u64;
        let b = Barrier::at(BASE, n);
        let mut table_gen = 0;
        let mut exec = MiniExec::new(
            (0..n)
                .map(|_| Box::new(BarrierWait::new(b)) as Box<dyn Flow>)
                .collect(),
        );
        exec.run();
        table_gen += 1;
        assert_eq!(exec.table.read(exec.group, b.gen), table_gen);
        // Second episode reusing the same words.
        let mut exec2 = MiniExec::new(
            (0..n)
                .map(|_| Box::new(BarrierWait::new(b)) as Box<dyn Flow>)
                .collect(),
        );
        exec2.table = exec.table;
        exec2.run();
        assert_eq!(exec2.table.read(exec2.group, b.gen), table_gen + 1);
    }

    /// A flow that locks, bumps a plain shared cell (simulated by the test
    /// through the futex table as a word, which is fine here), unlocks.
    #[derive(Debug)]
    struct CriticalSection {
        cell: VAddr,
        phase: u8,
        lock: MutexLock,
        unlock: MutexUnlock,
    }

    impl CriticalSection {
        fn new(word: VAddr, cell: VAddr) -> Self {
            CriticalSection {
                cell,
                phase: 0,
                lock: MutexLock::new(word),
                unlock: MutexUnlock::new(word),
            }
        }
    }

    impl Flow for CriticalSection {
        fn step(&mut self, resume: Resume) -> Poll {
            match self.phase {
                0 => match self.lock.step(resume) {
                    Poll::Op(op) => Poll::Op(op),
                    Poll::Done => {
                        self.phase = 1;
                        Poll::Op(Op::AtomicRmw(self.cell, RmwOp::Add(1)))
                    }
                },
                1 => {
                    self.phase = 2;
                    self.unlock.step(Resume::Start)
                }
                2 => match self.unlock.step(resume) {
                    Poll::Op(op) => Poll::Op(op),
                    Poll::Done => Poll::Done,
                },
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn mutex_serializes_and_counts_exactly() {
        let lock_word = BASE;
        let cell = BASE.add(64);
        let n = 12;
        let flows: Vec<Box<dyn Flow>> = (0..n)
            .map(|_| Box::new(CriticalSection::new(lock_word, cell)) as Box<dyn Flow>)
            .collect();
        let mut exec = MiniExec::new(flows);
        exec.run();
        assert_eq!(exec.table.read(exec.group, cell), n);
        // Lock is free at the end.
        assert_eq!(exec.table.read(exec.group, lock_word), 0);
    }

    #[test]
    fn join_wait_blocks_until_target() {
        let word = BASE;
        let mut flows: Vec<Box<dyn Flow>> = vec![Box::new(JoinWait::new(word, 3))];
        for _ in 0..3 {
            flows.push(Box::new(JoinSignal::new(word)));
        }
        let mut exec = MiniExec::new(flows);
        exec.run();
        assert_eq!(exec.table.read(exec.group, word), 3);
    }

    #[test]
    fn join_wait_with_zero_target_completes_immediately() {
        let mut exec = MiniExec::new(vec![Box::new(JoinWait::new(BASE, 0))]);
        exec.run();
        assert_eq!(exec.done.len(), 1);
    }

    #[test]
    #[should_panic(expected = "barrier needs at least one party")]
    fn zero_party_barrier_rejected() {
        Barrier::at(BASE, 0);
    }

    #[test]
    fn hier_barrier_releases_all_parties_across_groups() {
        // 3 groups of uneven sizes (3, 2, 1 members).
        let sizes = [3u64, 2, 1];
        let h = HierBarrier::at(BASE, sizes.len() as u64);
        let mut flows: Vec<Box<dyn Flow>> = Vec::new();
        for (g, &n) in sizes.iter().enumerate() {
            for _ in 0..n {
                flows.push(Box::new(HierBarrierWait::new(h, g as u64, n)));
            }
        }
        let total = flows.len();
        let mut exec = MiniExec::new(flows);
        exec.run();
        assert_eq!(exec.done.len(), total);
        // Every level reset/advanced for the next episode.
        assert_eq!(exec.table.read(exec.group, h.global.count), 0);
        assert_eq!(exec.table.read(exec.group, h.global.gen), 1);
        for (g, &n) in sizes.iter().enumerate() {
            let local = h.local(g as u64, n);
            assert_eq!(exec.table.read(exec.group, local.count), 0);
            assert_eq!(exec.table.read(exec.group, local.gen), 1);
        }
    }

    #[test]
    fn hier_barrier_is_reusable() {
        let h = HierBarrier::at(BASE, 2);
        for episode in 1..=3u64 {
            let mut flows: Vec<Box<dyn Flow>> = Vec::new();
            for g in 0..2u64 {
                for _ in 0..2 {
                    flows.push(Box::new(HierBarrierWait::new(h, g, 2)));
                }
            }
            let mut exec = MiniExec::new(flows);
            if episode > 1 {
                exec.table = PREV.with(|p| p.borrow_mut().take().expect("previous table"));
            }
            exec.run();
            assert_eq!(exec.table.read(exec.group, h.global.gen), episode);
            PREV.with(|p| *p.borrow_mut() = Some(std::mem::take(&mut exec.table)));
        }
    }

    thread_local! {
        static PREV: std::cell::RefCell<Option<FutexTable>> =
            const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn hier_barrier_single_group_degenerates_to_flat() {
        let h = HierBarrier::at(BASE, 1);
        let flows: Vec<Box<dyn Flow>> = (0..4)
            .map(|_| Box::new(HierBarrierWait::new(h, 0, 4)) as Box<dyn Flow>)
            .collect();
        let mut exec = MiniExec::new(flows);
        exec.run();
        assert_eq!(exec.done.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hier_barrier_rejects_bad_group() {
        HierBarrier::at(BASE, 2).local(2, 1);
    }

    mod props {
        //! Randomized interleaving tests driven by the deterministic
        //! [`SimRng`] (the build is offline, so no external
        //! property-testing framework).
        use super::*;
        use popcorn_sim::SimRng;

        /// Barriers release everyone under adversarial scheduling orders,
        /// for any party count.
        #[test]
        fn barrier_correct_under_random_interleavings() {
            let mut rng = SimRng::new(0x5EED_5001);
            for _ in 0..128 {
                let n = rng.range_u64(1, 12);
                let seed = rng.next_u64();
                let b = Barrier::at(BASE, n);
                let flows: Vec<Box<dyn Flow>> = (0..n)
                    .map(|_| Box::new(BarrierWait::new(b)) as Box<dyn Flow>)
                    .collect();
                let mut exec = MiniExec::new(flows);
                exec.run_with_order(Some(seed));
                assert_eq!(exec.done.len() as u64, n);
                assert_eq!(exec.table.read(exec.group, b.count), 0);
                assert_eq!(exec.table.read(exec.group, b.gen), 1);
            }
        }

        /// The mutex never loses an increment under adversarial
        /// scheduling.
        #[test]
        fn mutex_counts_exactly_under_random_interleavings() {
            let mut rng = SimRng::new(0x5EED_5002);
            for _ in 0..128 {
                let n = rng.range_u64(1, 10);
                let seed = rng.next_u64();
                let lock_word = BASE;
                let cell = BASE.add(64);
                let flows: Vec<Box<dyn Flow>> = (0..n)
                    .map(|_| Box::new(CriticalSection::new(lock_word, cell)) as Box<dyn Flow>)
                    .collect();
                let mut exec = MiniExec::new(flows);
                exec.run_with_order(Some(seed));
                assert_eq!(exec.table.read(exec.group, cell), n);
                assert_eq!(exec.table.read(exec.group, lock_word), 0);
            }
        }

        /// Hierarchical barriers with arbitrary group shapes release every
        /// member under adversarial scheduling.
        #[test]
        fn hier_barrier_correct_under_random_interleavings() {
            let mut rng = SimRng::new(0x5EED_5003);
            for _ in 0..128 {
                let groups = rng.range_u64(1, 5) as usize;
                let sizes: Vec<u64> = (0..groups).map(|_| rng.range_u64(1, 5)).collect();
                let seed = rng.next_u64();
                let h = HierBarrier::at(BASE, sizes.len() as u64);
                let mut flows: Vec<Box<dyn Flow>> = Vec::new();
                for (g, &n) in sizes.iter().enumerate() {
                    for _ in 0..n {
                        flows.push(Box::new(HierBarrierWait::new(h, g as u64, n)));
                    }
                }
                let total = flows.len();
                let mut exec = MiniExec::new(flows);
                exec.run_with_order(Some(seed));
                assert_eq!(exec.done.len(), total);
                assert_eq!(exec.table.read(exec.group, h.global.gen), 1);
            }
        }
    }
}
