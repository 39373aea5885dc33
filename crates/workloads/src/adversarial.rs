//! Adversarial workloads: scenarios built to punish a migration policy.
//!
//! Where [`micro`](crate::micro) probes protocol *costs*, these programs
//! probe policy *judgment*. Each one embodies a trap a naive policy walks
//! into:
//!
//! - [`thundering_herd`] — one waker repeatedly releases a herd of futex
//!   waiters parked across every kernel. A wake-locality policy should
//!   chase the waiters; a load policy sees almost no runnable load
//!   (parked waiters don't run) and must not thrash.
//! - [`pingpong_storm`] — scripted migration ping-pong plus a pile of
//!   compute ballast on one kernel. The load imbalance is real, but a
//!   threshold policy without hysteresis amplifies the ping-pong instead
//!   of fixing the skew.
//! - [`hot_page_skew`] — every worker hammers the *same* page sequence,
//!   so ownership bounces and threads spend their lives blocked on page
//!   RPCs. Blocked threads don't count as runnable load — telemetry that
//!   only reads runqueue depth sees idle kernels and migrates into the
//!   fire.
//! - [`straggler_hopper`] — error-tolerant hoppers ride the kernel ring
//!   while a fault plan makes one kernel slow or unreachable. A
//!   fault-aware policy reroutes the scripted hops; everyone else keeps
//!   dutifully migrating into the straggler.
//! - [`migrating_writers`] — ring hoppers that drag a private working
//!   set with them: each arrival rewrites the worker's own pages, so
//!   ownership (and, with replication on, the page walk bill) chases the
//!   thread around the machine. E15's walk generator.
//!
//! All of these run unchanged under every policy (including
//! `ScriptedOnly`), so E13/E15 can sweep full policies × scenarios
//! matrices.

use popcorn_kernel::program::{
    FutexOp, MigrateTarget, Op, Placement, ProgEnv, Program, Resume, RmwOp, SysResult, SyscallReq,
};
use popcorn_kernel::types::VAddr;
use popcorn_msg::KernelId;

use crate::micro::{compute_worker, MigrationPingPong, PageBounceWorker};
use crate::team::{Shared, Team, TeamConfig};

/// A herd waiter: for each round `r`, parks on the round word until the
/// waker has bumped it to at least `r`.
///
/// The wait is value-gated exactly like the ulib barrier: the waiter
/// re-reads the word and only parks if it is unchanged, so a wake racing
/// the park turns into a harmless `EAGAIN` and the waiter can never sleep
/// past the final round.
#[derive(Debug)]
pub struct HerdWaiter {
    word: VAddr,
    rounds: u64,
    round: u64,
    parked: bool,
}

impl HerdWaiter {
    /// Waits on `word` for `rounds` rounds.
    pub fn new(word: VAddr, rounds: u64) -> Self {
        HerdWaiter {
            word,
            rounds,
            round: 1,
            parked: false,
        }
    }
}

impl Program for HerdWaiter {
    fn step(&mut self, resume: Resume, _env: &ProgEnv) -> Op {
        if self.round > self.rounds {
            return Op::Exit(0);
        }
        // A wait just returned (woken or EAGAIN); either way, re-read.
        if self.parked {
            self.parked = false;
            return Op::AtomicRmw(self.word, RmwOp::Add(0));
        }
        match resume {
            Resume::Value(v) => {
                if v >= self.round {
                    // Round reached; advance (possibly past several).
                    self.round = v.min(self.rounds) + 1;
                    if self.round > self.rounds {
                        return Op::Exit(0);
                    }
                    Op::AtomicRmw(self.word, RmwOp::Add(0))
                } else {
                    self.parked = true;
                    Op::Syscall(SyscallReq::Futex(FutexOp::Wait {
                        uaddr: self.word,
                        expected: v,
                    }))
                }
            }
            _ => Op::AtomicRmw(self.word, RmwOp::Add(0)),
        }
    }
}

/// The herd's waker: `rounds` times, compute for `work_ns`, bump the round
/// word, and wake everyone parked on it.
#[derive(Debug)]
pub struct HerdWaker {
    word: VAddr,
    rounds: u64,
    work_ns: u64,
    state: u8, // 0 = compute, 1 = bump, 2 = wake
    done: u64,
}

impl HerdWaker {
    /// Wakes the herd on `word` for `rounds` rounds, computing `work_ns`
    /// before each wake so the waiters have time to pile up.
    pub fn new(word: VAddr, rounds: u64, work_ns: u64) -> Self {
        HerdWaker {
            word,
            rounds,
            work_ns,
            state: 0,
            done: 0,
        }
    }
}

impl Program for HerdWaker {
    fn step(&mut self, _resume: Resume, _env: &ProgEnv) -> Op {
        match self.state {
            0 => {
                if self.done == self.rounds {
                    return Op::Exit(0);
                }
                self.state = 1;
                Op::Compute(self.work_ns)
            }
            1 => {
                self.state = 2;
                Op::AtomicRmw(self.word, RmwOp::Add(1))
            }
            _ => {
                self.state = 0;
                self.done += 1;
                Op::Syscall(SyscallReq::Futex(FutexOp::Wake {
                    uaddr: self.word,
                    count: u32::MAX,
                }))
            }
        }
    }
}

/// Thundering-herd futex: worker 0 is the waker, the rest park across the
/// machine (`Placement::Auto`) and stampede on every round.
pub fn thundering_herd(waiters: usize, rounds: u64, work_ns: u64) -> Box<dyn Program> {
    Team::boxed(
        TeamConfig::new(waiters + 1, 0),
        Box::new(move |i, shared: Shared| {
            let word = shared.sync_slot(1);
            if i == 0 {
                Box::new(HerdWaker::new(word, rounds, work_ns))
            } else {
                Box::new(HerdWaiter::new(word, rounds))
            }
        }),
    )
}

/// Pathological migration ping-pong with a real load skew underneath:
/// `pairs` workers bounce between kernels 0 and 1 on every step, while
/// `ballast` compute workers sit on the leader's kernel
/// (`Placement::Local`). A threshold policy is baited twice — the bouncers
/// make runqueue depth flap, and the ballast makes kernel 0 genuinely
/// overloaded.
pub fn pingpong_storm(
    pairs: usize,
    hops: u32,
    compute_ns: u64,
    ballast: usize,
    ballast_ns: u64,
) -> Box<dyn Program> {
    let mut cfg = TeamConfig::new(pairs + ballast, 0);
    cfg.placement = Placement::Local;
    Team::boxed(
        cfg,
        Box::new(move |i, _shared| {
            if i < pairs {
                Box::new(
                    MigrationPingPong::between(hops, KernelId(0), KernelId(1))
                        .with_compute(compute_ns),
                )
            } else {
                compute_worker(ballast_ns)
            }
        }),
    )
}

/// Skewed hot-page ownership: every worker strides over the same window
/// *from the same starting offset*, so each write steals ownership of the
/// same hot page back and forth. Most threads are blocked in page RPCs at
/// any instant — runnable-load telemetry reads near-idle kernels.
pub fn hot_page_skew(threads: usize, pages: u64, iters: u32) -> Box<dyn Program> {
    Team::boxed(
        TeamConfig::new(threads, pages * VAddr::PAGE_SIZE),
        Box::new(move |_i, shared: Shared| {
            Box::new(PageBounceWorker::new(shared.data, pages, iters, 0))
        }),
    )
}

/// Migrates around the kernel ring with compute between hops, tolerating
/// a failed hop (a blacked-out or crashed target aborts the migration
/// back to the origin with `EIO`). The straggler scenario's building
/// block: scripted hops keep steering into the slow kernel unless a
/// fault-aware policy redirects them.
#[derive(Debug)]
pub struct TolerantRingHopper {
    hops_left: u32,
    kernels: u16,
    compute_ns: u64,
    migrating: bool,
    /// Hops that failed with an error and were skipped.
    pub hops_failed: u32,
}

impl TolerantRingHopper {
    /// `hops` ring hops over `kernels` kernels, computing `compute_ns`
    /// between hops.
    pub fn new(hops: u32, kernels: u16, compute_ns: u64) -> Self {
        TolerantRingHopper {
            hops_left: hops,
            kernels,
            compute_ns,
            migrating: false,
            hops_failed: 0,
        }
    }
}

impl Program for TolerantRingHopper {
    fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
        if self.migrating {
            self.migrating = false;
            if matches!(r, Resume::Sys(SysResult::Err(_))) {
                self.hops_failed += 1;
            }
            return Op::Compute(self.compute_ns);
        }
        if self.hops_left == 0 {
            return Op::Exit(0);
        }
        self.hops_left -= 1;
        self.migrating = true;
        let next = KernelId((env.kernel.0 + 1) % self.kernels);
        Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(next)))
    }
}

/// One straggler-ring hopper (load several as independent processes; the
/// harness pairs them with a fault plan that delays or blacks out one
/// kernel).
pub fn straggler_hopper(hops: u32, kernels: u16, compute_ns: u64) -> Box<dyn Program> {
    Box::new(TolerantRingHopper::new(hops, kernels, compute_ns))
}

/// What a [`MigratingWriter`] is waiting on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WriterState {
    /// Between hops (the migrate syscall or the inter-hop compute just
    /// resumed, or we are at the very start).
    Hopping,
    /// Rewriting the private working set at the current kernel.
    Touching,
}

/// Hops the kernel ring with a private working set in tow: each arrival
/// rewrites the worker's own pages before computing, so every hop turns
/// into write faults whose page ownership chases the thread around the
/// machine.
///
/// This is the access pattern page-table replication exists for: the
/// faults land at a kernel that has never seen the group's tables, so
/// with replication on but no replica the walk goes remote every time,
/// and a replica (eager or policy-placed) converts the whole stream to
/// local walks (E15).
#[derive(Debug)]
pub struct MigratingWriter {
    base: VAddr,
    pages: u64,
    hops_left: u32,
    kernels: u16,
    compute_ns: u64,
    next_page: u64,
    seq: u64,
    state: WriterState,
}

impl MigratingWriter {
    /// `hops` ring hops over `kernels` kernels; after each hop, rewrites
    /// the `pages` pages starting at `base`, then computes `compute_ns`.
    pub fn new(base: VAddr, pages: u64, hops: u32, kernels: u16, compute_ns: u64) -> Self {
        MigratingWriter {
            base,
            pages,
            hops_left: hops,
            kernels,
            compute_ns,
            next_page: 0,
            seq: 0,
            state: WriterState::Hopping,
        }
    }

    fn touch(&mut self) -> Op {
        let addr = self.base.add(self.next_page * VAddr::PAGE_SIZE);
        self.next_page += 1;
        self.seq += 1;
        Op::Store(addr, self.seq)
    }
}

impl Program for MigratingWriter {
    fn step(&mut self, _r: Resume, env: &ProgEnv) -> Op {
        match self.state {
            WriterState::Hopping => {
                if self.hops_left == 0 {
                    return Op::Exit(0);
                }
                self.hops_left -= 1;
                self.next_page = 0;
                self.state = WriterState::Touching;
                let next = KernelId((env.kernel.0 + 1) % self.kernels);
                Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(next)))
            }
            WriterState::Touching => {
                if self.next_page < self.pages {
                    self.touch()
                } else {
                    self.state = WriterState::Hopping;
                    Op::Compute(self.compute_ns)
                }
            }
        }
    }
}

/// Migrates once to an assigned kernel, then stays put and rewrites a
/// page range for a fixed number of rounds. Two of these sharing one
/// range on different kernels bounce every page's ownership back and
/// forth — each store is a write fault serialized at whichever service
/// point is home for the page.
///
/// The home-saturation generator (E16): with a flat home every pair's
/// traffic queues at the one root directory server; with per-socket
/// delegates a pair pinned inside one socket is served by that socket's
/// delegate, and the root only sees first-touch delegation.
#[derive(Debug)]
pub struct PinnedBouncer {
    target: KernelId,
    base: VAddr,
    pages: u64,
    rounds: u32,
    compute_ns: u64,
    placed: bool,
    next_page: u64,
    seq: u64,
}

impl PinnedBouncer {
    /// Migrates to `target`, then rewrites the `pages` pages at `base`
    /// for `rounds` rounds with `compute_ns` of think time between
    /// rounds.
    pub fn new(target: KernelId, base: VAddr, pages: u64, rounds: u32, compute_ns: u64) -> Self {
        PinnedBouncer {
            target,
            base,
            pages,
            rounds,
            compute_ns,
            placed: false,
            next_page: 0,
            seq: 0,
        }
    }
}

impl Program for PinnedBouncer {
    fn step(&mut self, _r: Resume, _env: &ProgEnv) -> Op {
        if !self.placed {
            self.placed = true;
            return Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(self.target)));
        }
        if self.next_page < self.pages {
            let addr = self.base.add(self.next_page * VAddr::PAGE_SIZE);
            self.next_page += 1;
            self.seq += 1;
            return Op::Store(addr, self.seq);
        }
        if self.rounds == 0 {
            return Op::Exit(0);
        }
        self.rounds -= 1;
        self.next_page = 0;
        Op::Compute(self.compute_ns)
    }
}

/// One [`PinnedBouncer`] pair per entry of `pairs`: both workers pin to
/// their pair's two kernels and fight over the same disjoint
/// `pages_each`-page slice for `rounds` rounds. Disjoint ranges mean
/// pairs never share a page — all they can contend on is the home
/// service point itself, which is exactly what E16 measures.
pub fn kernel_pair_bouncers(
    pairs: Vec<(KernelId, KernelId)>,
    pages_each: u64,
    rounds: u32,
    compute_ns: u64,
) -> Box<dyn Program> {
    let workers = pairs.len() * 2;
    let mut cfg = TeamConfig::new(workers, pairs.len() as u64 * pages_each * VAddr::PAGE_SIZE);
    cfg.placement = Placement::Local;
    Team::boxed(
        cfg,
        Box::new(move |i, shared: Shared| {
            let pair = pairs[i / 2];
            let target = if i % 2 == 0 { pair.0 } else { pair.1 };
            let base = shared
                .data
                .add((i / 2) as u64 * pages_each * VAddr::PAGE_SIZE);
            Box::new(PinnedBouncer::new(
                target, base, pages_each, rounds, compute_ns,
            ))
        }),
    )
}

/// `workers` ring hoppers, each dragging `pages_each` private pages of
/// working set around `kernels` kernels for `hops` hops (see
/// [`MigratingWriter`]).
pub fn migrating_writers(
    workers: usize,
    hops: u32,
    kernels: u16,
    pages_each: u64,
    compute_ns: u64,
) -> Box<dyn Program> {
    Team::boxed(
        TeamConfig::new(workers, workers as u64 * pages_each * VAddr::PAGE_SIZE),
        Box::new(move |i, shared: Shared| {
            let base = shared.data.add(i as u64 * pages_each * VAddr::PAGE_SIZE);
            Box::new(MigratingWriter::new(
                base, pages_each, hops, kernels, compute_ns,
            ))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ProgEnv {
        ProgEnv {
            tid: popcorn_kernel::types::Tid::new(KernelId(0), 1),
            core: popcorn_hw::CoreId(0),
            kernel: KernelId(0),
            now: popcorn_sim::SimTime::ZERO,
        }
    }

    const W: VAddr = VAddr(0x1040);

    #[test]
    fn herd_waiter_parks_only_on_stale_round() {
        let mut w = HerdWaiter::new(W, 2);
        // First step: read the word.
        assert!(matches!(w.step(Resume::Start, &env()), Op::AtomicRmw(a, RmwOp::Add(0)) if a == W));
        // Word is 0 < round 1: park, gated on the value just read.
        match w.step(Resume::Value(0), &env()) {
            Op::Syscall(SyscallReq::Futex(FutexOp::Wait { uaddr, expected })) => {
                assert_eq!(uaddr, W);
                assert_eq!(expected, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Woken: re-read; word now 2 >= both rounds: exit without parking.
        assert!(matches!(
            w.step(Resume::Sys(SysResult::Val(0)), &env()),
            Op::AtomicRmw(_, _)
        ));
        assert!(matches!(w.step(Resume::Value(2), &env()), Op::Exit(0)));
    }

    #[test]
    fn herd_waiter_eagain_rereads_instead_of_wedging() {
        let mut w = HerdWaiter::new(W, 1);
        w.step(Resume::Start, &env());
        w.step(Resume::Value(0), &env()); // parks
                                          // The word changed between read and park: EAGAIN → re-read.
        let op = w.step(
            Resume::Sys(SysResult::Err(popcorn_kernel::types::Errno::Again)),
            &env(),
        );
        assert!(matches!(op, Op::AtomicRmw(_, RmwOp::Add(0))));
        assert!(matches!(w.step(Resume::Value(1), &env()), Op::Exit(0)));
    }

    #[test]
    fn herd_waker_computes_bumps_wakes_each_round() {
        let mut w = HerdWaker::new(W, 1, 500);
        assert!(matches!(w.step(Resume::Start, &env()), Op::Compute(500)));
        assert!(matches!(
            w.step(Resume::Done, &env()),
            Op::AtomicRmw(a, RmwOp::Add(1)) if a == W
        ));
        assert!(matches!(
            w.step(Resume::Value(0), &env()),
            Op::Syscall(SyscallReq::Futex(FutexOp::Wake {
                count: u32::MAX,
                ..
            }))
        ));
        assert!(matches!(
            w.step(Resume::Sys(SysResult::Val(3)), &env()),
            Op::Exit(0)
        ));
    }

    #[test]
    fn tolerant_hopper_counts_failed_hops_and_continues() {
        let mut h = TolerantRingHopper::new(2, 4, 1_000);
        assert!(matches!(
            h.step(Resume::Start, &env()),
            Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(1))))
        ));
        // The hop failed (aborted back to the origin): skip and compute.
        assert!(matches!(
            h.step(
                Resume::Sys(SysResult::Err(popcorn_kernel::types::Errno::Io)),
                &env()
            ),
            Op::Compute(1_000)
        ));
        assert_eq!(h.hops_failed, 1);
        // Second hop succeeds, then exit.
        assert!(matches!(
            h.step(Resume::Done, &env()),
            Op::Syscall(SyscallReq::Migrate(_))
        ));
        let mut e1 = env();
        e1.kernel = KernelId(1);
        assert!(matches!(
            h.step(Resume::Sys(SysResult::Val(0)), &e1),
            Op::Compute(1_000)
        ));
        assert!(matches!(h.step(Resume::Done, &e1), Op::Exit(0)));
    }

    #[test]
    fn pinned_bouncer_migrates_once_then_rewrites_in_place() {
        let mut b = PinnedBouncer::new(KernelId(3), VAddr(0x8000), 2, 1, 700);
        assert!(matches!(
            b.step(Resume::Start, &env()),
            Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(3))))
        ));
        // Round 0: rewrite both pages, then think.
        assert!(matches!(
            b.step(Resume::Sys(SysResult::Val(0)), &env()),
            Op::Store(a, 1) if a == VAddr(0x8000)
        ));
        assert!(matches!(
            b.step(Resume::Done, &env()),
            Op::Store(a, 2) if a == VAddr(0x8000 + VAddr::PAGE_SIZE)
        ));
        assert!(matches!(b.step(Resume::Done, &env()), Op::Compute(700)));
        // Round 1: same pages again — no further migration — then exit.
        assert!(matches!(
            b.step(Resume::Done, &env()),
            Op::Store(a, 3) if a == VAddr(0x8000)
        ));
        assert!(matches!(b.step(Resume::Done, &env()), Op::Store(_, 4)));
        assert!(matches!(b.step(Resume::Done, &env()), Op::Exit(0)));
    }

    #[test]
    fn migrating_writer_rewrites_its_pages_after_every_hop() {
        let mut w = MigratingWriter::new(VAddr(0x8000), 2, 2, 4, 1_000);
        // First hop: ring successor of kernel 0.
        assert!(matches!(
            w.step(Resume::Start, &env()),
            Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(1))))
        ));
        // Arrival: rewrite both private pages, then compute.
        assert!(matches!(
            w.step(Resume::Sys(SysResult::Val(0)), &env()),
            Op::Store(a, 1) if a == VAddr(0x8000)
        ));
        assert!(matches!(
            w.step(Resume::Done, &env()),
            Op::Store(a, 2) if a == VAddr(0x8000 + VAddr::PAGE_SIZE)
        ));
        assert!(matches!(w.step(Resume::Done, &env()), Op::Compute(1_000)));
        // Second hop from kernel 1, same rewrite, then exit.
        let mut e1 = env();
        e1.kernel = KernelId(1);
        assert!(matches!(
            w.step(Resume::Done, &e1),
            Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(2))))
        ));
        assert!(matches!(
            w.step(Resume::Sys(SysResult::Val(0)), &e1),
            Op::Store(a, 3) if a == VAddr(0x8000)
        ));
        assert!(matches!(w.step(Resume::Done, &e1), Op::Store(_, 4)));
        assert!(matches!(w.step(Resume::Done, &e1), Op::Compute(1_000)));
        assert!(matches!(w.step(Resume::Done, &e1), Op::Exit(0)));
    }
}
