//! End-to-end fault-injection and recovery tests: the reliability layer
//! (sequence numbers, duplicate suppression, retransmission with backoff,
//! RPC deadlines, graceful abort) exercised through real simulated runs.
//!
//! The headline regression: a request/response chain loses one message,
//! for every position the loss can take on the forward channel. The sender
//! retransmits and the run completes cleanly each time; a requester left
//! waiting forever would show up in `RunReport::stuck_tasks`.

use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::{OsModel, RunReport};
use popcorn_kernel::program::{
    FutexOp, MigrateTarget, Op, Placement, ProgEnv, Program, Resume, RmwOp, SysResult, SyscallReq,
};
use popcorn_kernel::types::{Errno, VAddr};
use popcorn_msg::{ChannelFaults, FaultPlan, KernelId, MsgParams};
use popcorn_sim::{SimTime, StopCondition};
use popcorn_workloads::adversarial::TolerantRingHopper;
use popcorn_workloads::micro;

fn faulty_os(kernels: u16, plan: FaultPlan, pop: PopcornParams) -> PopcornOs {
    PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(kernels)
        .msg_params(MsgParams {
            faults: plan,
            ..MsgParams::default()
        })
        .popcorn_params(pop)
        .build()
}

/// Maps a page on kernel 0, writes it, migrates to kernel 1, reads it back.
/// The read forces a VMA fetch and a page request back to the home kernel —
/// a pure request/response chain whose response we can script a drop for.
#[derive(Debug)]
struct WriteMigrateRead {
    state: u8,
    addr: VAddr,
}

impl WriteMigrateRead {
    fn new() -> Self {
        WriteMigrateRead {
            state: 0,
            addr: VAddr(0),
        }
    }
}

impl Program for WriteMigrateRead {
    fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Syscall(SyscallReq::Mmap { len: 4096 })
            }
            1 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.addr = VAddr(res.expect_val("mmap"));
                self.state = 2;
                Op::Store(self.addr, 0xBEEF)
            }
            2 => {
                self.state = 3;
                Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(1))))
            }
            3 => {
                assert_eq!(env.kernel, KernelId(1));
                self.state = 4;
                Op::Load(self.addr)
            }
            4 => {
                let Resume::Value(v) = r else { panic!("load") };
                assert_eq!(v, 0xBEEF, "value must survive the faulty fabric");
                Op::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn lost_response_recovers_with_reliability_layer() {
    // Every ordinal on the forward channel must be recoverable — the
    // program's own asserts check the payload still arrives intact. And
    // the recovery is really retransmission, not an accident: each run
    // stays clean, no message is ever abandoned, and at least one scripted
    // loss (the ones that hit a sequenced message rather than a
    // loss-tolerant ack) forces a retransmission.
    let mut saw_retransmit = false;
    for nth in 1..=16u64 {
        let plan = FaultPlan::none().with_drop_nth(KernelId(0), KernelId(1), nth);
        let mut os = faulty_os(2, plan, PopcornParams::default());
        os.load(Box::new(WriteMigrateRead::new()));
        let r = os.run();
        assert!(r.is_clean(), "nth={nth} stuck: {:?}", r.stuck_tasks);
        assert_eq!(r.metric("msgs_abandoned"), 0.0, "nth={nth}");
        saw_retransmit |= r.metric("retransmits") >= 1.0;
    }
    assert!(
        saw_retransmit,
        "some scripted loss must hit a sequenced message"
    );
}

#[test]
fn injected_duplicates_are_suppressed_by_sequence_numbers() {
    // Duplicate every send (a migrating thread excepted: it gets no
    // duplicate arrival). Correctness asserts live inside the program (the
    // read must still see 0xBEEF exactly once written).
    let plan = FaultPlan {
        seed: 11,
        uniform: Some(popcorn_msg::ChannelFaults {
            drop_p: 0.0,
            dup_p: 1.0,
            delay_p: 0.0,
            delay_max_ns: 0,
        }),
        ..FaultPlan::none()
    };
    let mut os = faulty_os(2, plan, PopcornParams::default());
    os.load(Box::new(WriteMigrateRead::new()));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(
        r.metric("dup_suppressed") >= 1.0,
        "sequence numbers must drop injected duplicates: {:?}",
        r.metrics
    );
    assert!(r.metric("dups_injected") >= r.metric("dup_suppressed"));
}

#[test]
fn uniform_drop_completes_with_retransmissions() {
    // A heavier workload under 5% uniform loss: migration ping-pong plus
    // page traffic. Everything must still complete cleanly.
    let plan = FaultPlan::uniform_drop(1234, 0.05);
    let mut os = faulty_os(2, plan, PopcornParams::default());
    os.load(Box::new(micro::MigrationPingPong::new(40)));
    os.load(Box::new(WriteMigrateRead::new()));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(
        r.metric("drops_injected") >= 1.0,
        "metrics: {:?}",
        r.metrics
    );
    // Losses that hit loss-tolerant acks need no retransmit, so the two
    // counters are not equal — but sequenced traffic dominates.
    assert!(r.metric("retransmits") >= 1.0);
    assert!(r.metric("retx_backoff_ms") > 0.0);
    assert_eq!(r.metric("msgs_abandoned"), 0.0);
}

/// Migrates to a kernel, skipping the hop if the migration fails with an
/// error (the graceful-abort path), and keeps computing afterwards.
#[derive(Debug)]
struct FaultTolerantHopper {
    hops_left: u32,
    target: KernelId,
    hops_failed: u32,
}

impl Program for FaultTolerantHopper {
    fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
        if let Resume::Sys(SysResult::Err(e)) = r {
            // A failed migration resumes on the origin kernel with an error.
            assert_eq!(e, popcorn_kernel::types::Errno::Io);
            assert_ne!(env.kernel, self.target, "failed hop must not move us");
            self.hops_failed += 1;
        }
        if self.hops_left == 0 {
            return Op::Exit(i32::try_from(self.hops_failed).unwrap());
        }
        self.hops_left -= 1;
        Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(self.target)))
    }
}

#[test]
fn migration_to_crashed_kernel_aborts_back_to_origin() {
    // Kernel 1 is dead from the start: every migration attempt exhausts its
    // retransmit budget and the thread resumes on kernel 0 with EIO.
    let plan = FaultPlan::none().with_crash(KernelId(1), SimTime::ZERO);
    let mut os = faulty_os(2, plan, PopcornParams::default());
    os.load(Box::new(FaultTolerantHopper {
        hops_left: 3,
        target: KernelId(1),
        hops_failed: 0,
    }));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(r.exited_tasks, 1);
    assert_eq!(
        r.metric("migrations_aborted"),
        3.0,
        "metrics: {:?}",
        r.metrics
    );
    assert_eq!(r.metric("migrations_first"), 0.0, "nothing ever arrived");
    assert!(r.metric("msgs_abandoned") >= 3.0);
    assert!(r.metric("crash_drops") > 0.0);
}

#[test]
fn blackout_window_is_ridden_out_by_retries() {
    // A 2 ms blackout on the forward channel starting at t=0: shorter than
    // the worst-case retransmit chain, so every message eventually gets
    // through and nothing is abandoned.
    let plan = FaultPlan::none().with_blackout(
        KernelId(0),
        KernelId(1),
        SimTime::ZERO,
        SimTime::from_millis(2),
    );
    let mut os = faulty_os(2, plan, PopcornParams::default());
    os.load(Box::new(WriteMigrateRead::new()));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(
        r.metric("blackout_drops") >= 1.0,
        "metrics: {:?}",
        r.metrics
    );
    assert_eq!(r.metric("msgs_abandoned"), 0.0);
    assert!(r.metric("retransmits") >= 1.0);
}

fn run_fingerprint(plan: FaultPlan) -> (String, u64) {
    let mut os = faulty_os(2, plan, PopcornParams::default());
    os.load(Box::new(micro::MigrationPingPong::new(20)));
    os.load(Box::new(WriteMigrateRead::new()));
    let r: RunReport = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    (format!("{:?}", r.metrics), r.finished_at.as_nanos())
}

#[test]
fn fault_injection_is_fully_deterministic() {
    let plan = FaultPlan {
        seed: 99,
        uniform: Some(popcorn_msg::ChannelFaults {
            drop_p: 0.02,
            dup_p: 0.02,
            delay_p: 0.1,
            delay_max_ns: 30_000,
        }),
        ..FaultPlan::none()
    };
    let a = run_fingerprint(plan.clone());
    let b = run_fingerprint(plan.clone());
    assert_eq!(a, b, "same seed + plan must replay identically");
    // A different seed produces a different fault pattern (sanity check
    // that the plan is actually doing something).
    let c = run_fingerprint(FaultPlan { seed: 100, ..plan });
    assert_ne!(a.1, c.1, "different seed should perturb timing");
}

/// Parks on a word and revalidates on `EOWNERDEAD` (the crash-recovery
/// sweep) by re-waiting — the expected-value gate catches a stamp that
/// landed while it was being swept. Exits 0 once the rendezvous is
/// observed.
#[derive(Debug)]
struct RobustSleeper {
    word: VAddr,
}

impl Program for RobustSleeper {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match r {
            Resume::Start | Resume::Sys(SysResult::Err(Errno::OwnerDead)) => {
                Op::Syscall(SyscallReq::Futex(FutexOp::Wait {
                    uaddr: self.word,
                    expected: 0,
                }))
            }
            Resume::Sys(SysResult::Val(_)) | Resume::Sys(SysResult::Err(Errno::Again)) => {
                Op::Exit(0)
            }
            _ => Op::Exit(1),
        }
    }
}

/// Maps a word, spawns `n` sleepers round-robin, computes past the
/// crash-detection window, then stamps the word and wakes everyone.
#[derive(Debug)]
struct RendezvousLeader {
    state: u8,
    word: VAddr,
    spawned: u32,
    n: u32,
}

impl Program for RendezvousLeader {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Syscall(SyscallReq::Mmap { len: 4096 })
            }
            1 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.word = VAddr(res.expect_val("mmap"));
                self.state = 2;
                self.step(Resume::Done, _env)
            }
            2 => {
                if self.spawned < self.n {
                    self.spawned += 1;
                    return Op::Syscall(SyscallReq::Clone {
                        child: Box::new(RobustSleeper { word: self.word }),
                        placement: Placement::Auto,
                    });
                }
                self.state = 3;
                // Past the 12 ms detection window, so the sweep runs
                // while every surviving sleeper is still parked.
                Op::Compute(40_000_000)
            }
            3 => {
                self.state = 4;
                Op::AtomicRmw(self.word, RmwOp::Xchg(1))
            }
            4 => {
                self.state = 5;
                Op::Syscall(SyscallReq::Futex(FutexOp::Wake {
                    uaddr: self.word,
                    count: u32::MAX,
                }))
            }
            _ => Op::Exit(0),
        }
    }
}

#[test]
fn crash_during_futex_wait_sweeps_and_rewaits() {
    // Two sleepers park on kernels 0 and 1; kernel 1 dies while both are
    // asleep. Recovery must kill the orphaned sleeper, sweep the
    // survivor with EOWNERDEAD (it re-waits), and the leader's late wake
    // must still complete the rendezvous — nobody sleeps forever.
    let plan = FaultPlan::none().with_crash(KernelId(1), SimTime::from_millis(1));
    let mut os = faulty_os(2, plan, PopcornParams::default());
    os.load(Box::new(RendezvousLeader {
        state: 0,
        word: VAddr(0),
        spawned: 0,
        n: 2,
    }));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(r.metric("kernels_declared_dead"), 1.0, "{:?}", r.metrics);
    assert_eq!(r.metric("orphans_killed"), 1.0, "the kernel-1 sleeper");
    assert!(
        r.metric("futex_recovered") >= 1.0,
        "survivor must be swept: {:?}",
        r.metrics
    );
    // Leader and the surviving sleeper ran to completion; the orphan
    // retires too (killed with 137), so nobody is left parked.
    assert_eq!(r.exited_tasks, 3);
}

#[test]
fn crash_drops_partition_by_protocol_family() {
    // The fabric's crash_drops total must equal the sum of the
    // per-protocol-family breakdown — no drop is unattributed or
    // double-counted.
    let plan = FaultPlan::none().with_crash(KernelId(1), SimTime::ZERO);
    let mut os = faulty_os(2, plan, PopcornParams::default());
    os.load(Box::new(FaultTolerantHopper {
        hops_left: 3,
        target: KernelId(1),
        hops_failed: 0,
    }));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    let total = r.metric("crash_drops");
    assert!(total > 0.0, "metrics: {:?}", r.metrics);
    let families = ["migrate", "group", "vma", "page", "futex", "transport"];
    let sum: f64 = families
        .iter()
        .map(|f| r.metric(&format!("proto_{f}_crash_drops")))
        .sum();
    assert_eq!(sum, total, "metrics: {:?}", r.metrics);
}

#[test]
fn invariants_hold_under_random_fault_plans() {
    // Property test: 64 seeded-random fault plans (loss, duplication,
    // delay, and on every fourth plan a kernel crash) over the E12
    // workload mix. The global invariant audit runs after every one of
    // these (it is on by default) and panics on any lost thread, stale
    // directory entry, or wedged waiter; the assertion below adds that
    // the event queue fully drained — no plan may wedge the machine.
    let mut state: u64 = 0xE14_5EED;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for case in 0..64u64 {
        let x = next();
        let drop_p = ((x >> 8) % 1000) as f64 / 10_000.0; // 0..10%
        let dup_p = ((x >> 24) % 500) as f64 / 10_000.0; // 0..5%
        let delay_p = ((x >> 40) % 2000) as f64 / 10_000.0; // 0..20%
        let mut plan = FaultPlan {
            seed: x | 1,
            uniform: Some(ChannelFaults {
                drop_p,
                dup_p,
                delay_p,
                delay_max_ns: 20_000,
            }),
            ..FaultPlan::none()
        };
        let crash = case % 4 == 3;
        if crash {
            let victim = KernelId((next() % 4) as u16);
            let at = SimTime::from_micros(200 + next() % 2_000);
            plan = plan.with_crash(victim, at);
        }
        let mut os = PopcornOs::builder()
            .topology(Topology::paper_default())
            .kernels(4)
            .msg_params(MsgParams {
                faults: plan,
                ..MsgParams::default()
            })
            .build();
        // MigrationPingPong never reads its resume, so a failed hop is
        // just a skipped hop; WriteMigrateRead asserts its payload and
        // rides along only when no kernel dies (its migrate panics on
        // EIO by design). Classic join-based teams wedge when a member
        // dies — the crash-aware idiom is E14's — so the page-bounce
        // team also stays on the crash-free plans.
        os.load(Box::new(micro::MigrationPingPong::new(30)));
        if !crash {
            os.load(Box::new(WriteMigrateRead::new()));
            os.load(micro::page_bounce(4, 2, 30));
        }
        let r = os.run();
        assert_eq!(
            r.stop,
            StopCondition::QueueEmpty,
            "case {case} (crash={crash}) did not drain: {:?}",
            r.stop
        );
    }
}

/// Drives the delegate-crash half of hierarchical home sharding:
/// first-touches 4 pages from kernel 3 (socket 1), so they are delegated
/// to socket 1's lead — kernel 2 — while kernel 3 owns the frames. Then
/// kernel 2 dies. Recovery must un-delegate the shard, rebuild the
/// entries into the root directory from kernel 3's surviving page
/// tables (losing nothing), and demote the dead lead so later first
/// touches from socket 1 fall back to the root instead of a corpse.
#[derive(Debug)]
struct DelegateCrashTour {
    state: u8,
    base: VAddr,
    base2: VAddr,
    next_page: u64,
    seq: u64,
}

impl Program for DelegateCrashTour {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        const PAGE: u64 = VAddr::PAGE_SIZE;
        match self.state {
            0 => {
                self.state = 1;
                Op::Syscall(SyscallReq::Mmap { len: 4 * PAGE })
            }
            1 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.base = VAddr(res.expect_val("mmap"));
                self.state = 2;
                Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(3))))
            }
            2 => {
                // First touch from socket 1: each page delegates to the
                // socket lead (kernel 2) and is granted to kernel 3.
                if self.next_page < 4 {
                    let addr = self.base.add(self.next_page * PAGE);
                    self.next_page += 1;
                    self.seq += 1;
                    return Op::Store(addr, self.seq);
                }
                self.state = 3;
                // Ride out the crash (2 ms) plus the detection window.
                Op::Compute(40_000_000)
            }
            3 => {
                self.state = 4;
                self.next_page = 0;
                Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(1))))
            }
            4 => {
                // Rewrite through the rebuilt root directory: the entries
                // were adopted from the dead delegate's shard, with
                // kernel 3 still the live owner to invalidate.
                if self.next_page < 4 {
                    let addr = self.base.add(self.next_page * PAGE);
                    self.next_page += 1;
                    self.seq += 1;
                    return Op::Store(addr, self.seq);
                }
                self.state = 5;
                Op::Load(self.base)
            }
            5 => {
                let Resume::Value(v) = r else { panic!("load") };
                assert_eq!(v, 5, "page 0 must carry the post-crash rewrite");
                self.state = 6;
                Op::Syscall(SyscallReq::Mmap { len: 2 * PAGE })
            }
            6 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.base2 = VAddr(res.expect_val("mmap"));
                self.state = 7;
                self.next_page = 0;
                Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(3))))
            }
            7 => {
                // Fresh first touches from socket 1 after the lead died:
                // these must be root-served, not delegated to the corpse.
                if self.next_page < 2 {
                    let addr = self.base2.add(self.next_page * PAGE);
                    self.next_page += 1;
                    self.seq += 1;
                    return Op::Store(addr, self.seq);
                }
                Op::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn delegate_crash_rehomes_its_shard_without_losing_pages() {
    // Topology::new(2, 4) with 4 kernels: 0,1 on the root's socket, 2,3
    // on socket 1 — kernel 2 is socket 1's home delegate.
    let plan = FaultPlan::none().with_crash(KernelId(2), SimTime::from_millis(2));
    let mut os = faulty_os(
        4,
        plan,
        PopcornParams {
            home_sharding: true,
            ..PopcornParams::default()
        },
    );
    os.load(Box::new(DelegateCrashTour {
        state: 0,
        base: VAddr(0),
        base2: VAddr(0),
        next_page: 0,
        seq: 0,
    }));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(r.metric("kernels_declared_dead") >= 1.0, "{:?}", r.metrics);
    // Exactly the pre-crash first touches were delegated; the demoted
    // lead received none of the post-crash ones.
    assert_eq!(r.metric("shard_delegated_pages"), 4.0, "{:?}", r.metrics);
    // Kernel 3 survived with every frame, so the shard rebuild recovers
    // all four entries into the root directory.
    assert_eq!(r.metric("pages_lost"), 0.0, "{:?}", r.metrics);
    assert!(r.metric("recovery_pages_scanned") >= 4.0, "{:?}", r.metrics);
    assert_eq!(r.metric("orphans_killed"), 0.0, "nobody lived on kernel 2");
}

/// Exits at once: loaded first so the next group is homed on kernel 1.
#[derive(Debug)]
struct ExitAtOnce;

impl Program for ExitAtOnce {
    fn step(&mut self, _r: Resume, _env: &ProgEnv) -> Op {
        Op::Exit(0)
    }
}

/// Maps and writes a page on its home (kernel 1), migrates to kernel 0
/// and reads the page back there, so kernel 0 holds a replica. Then it
/// rides out the home's crash and maps again: kernel 0 is now the
/// successor serving the group, and must not count itself as a remote
/// replica to update.
#[derive(Debug)]
struct ReplicaAdoptsItsHome {
    state: u8,
    addr: VAddr,
}

impl Program for ReplicaAdoptsItsHome {
    fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
        self.state += 1;
        match self.state {
            1 => Op::Syscall(SyscallReq::Mmap { len: 4096 }),
            2 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.addr = VAddr(res.expect_val("mmap"));
                Op::Store(self.addr, 7)
            }
            3 => Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(0)))),
            4 => {
                assert_eq!(env.kernel, KernelId(0));
                Op::Load(self.addr)
            }
            // Ride out the crash (2 ms) plus the detection window.
            5 => Op::Compute(40_000_000),
            6 => Op::Syscall(SyscallReq::Mmap { len: 4096 }),
            7 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                res.expect_val("mmap at the adopting successor");
                Op::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn successor_holding_a_replica_maps_without_messaging_itself() {
    let plan = FaultPlan::none().with_crash(KernelId(1), SimTime::from_millis(2));
    let mut os = faulty_os(3, plan, PopcornParams::default());
    os.load(Box::new(ExitAtOnce));
    os.load(Box::new(ReplicaAdoptsItsHome {
        state: 0,
        addr: VAddr(0),
    }));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(r.metric("kernels_declared_dead") >= 1.0, "{:?}", r.metrics);
    assert_eq!(r.metric("orphans_killed"), 0.0, "nobody lived on kernel 1");
    assert_eq!(r.exited_tasks, 2);
}

#[test]
fn zero_fault_plan_matches_fault_free_build_exactly() {
    // FaultPlan::none() with the reliability layer compiled in must be
    // byte-identical to a run without any fault machinery engaged.
    let base = {
        let mut os = PopcornOs::builder()
            .topology(Topology::new(2, 4))
            .kernels(2)
            .build();
        os.load(Box::new(micro::MigrationPingPong::new(20)));
        let r = os.run();
        (format!("{:?}", r.metrics), r.finished_at)
    };
    let gated = {
        let mut os = faulty_os(2, FaultPlan::none(), PopcornParams::default());
        os.load(Box::new(micro::MigrationPingPong::new(20)));
        let r = os.run();
        (format!("{:?}", r.metrics), r.finished_at)
    };
    assert_eq!(base, gated);
}

#[test]
fn notifications_for_reaped_groups_do_not_chase_a_dead_home() {
    // A home notification abandoned (or frozen at a crashed kernel) after
    // its group was reaped used to be re-sent to the group's id-derived
    // home, which can be the dead kernel itself: abandon and re-send then
    // alternated until the event budget ran out. Every cell must drain.
    for victim in 0..4u16 {
        for at_us in [174, 211, 248] {
            for hoppers in [false, true] {
                let plan =
                    FaultPlan::none().with_crash(KernelId(victim), SimTime::from_micros(at_us));
                let mut os = PopcornOs::builder()
                    .topology(Topology::paper_default())
                    .kernels(4)
                    .msg_params(MsgParams {
                        faults: plan,
                        ..MsgParams::default()
                    })
                    .build();
                for _ in 0..4 {
                    if hoppers {
                        os.load(Box::new(TolerantRingHopper::new(24, 4, 50_000)));
                    } else {
                        os.load(Box::new(micro::MigrationPingPong::new(30)));
                    }
                }
                let r = os.run_with(SimTime::MAX, 1_000_000);
                assert_eq!(
                    r.stop,
                    StopCondition::QueueEmpty,
                    "victim {victim}, crash at {at_us} us, hoppers {hoppers}: {:?}",
                    r.stop
                );
            }
        }
    }
}
