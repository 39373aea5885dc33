//! End-to-end protocol tests for the replicated-kernel OS: these exercise
//! the paper's three mechanisms — distributed thread groups, context
//! migration, and address-space consistency — through real simulated runs
//! and assert on *observable program behaviour* (memory values, pids, exit
//! codes), not just counters.

use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::OsModel;
use popcorn_kernel::program::{
    MigrateTarget, Op, Placement, ProgEnv, Program, Resume, SysResult, SyscallReq,
};
use popcorn_kernel::types::VAddr;
use popcorn_msg::KernelId;
use popcorn_workloads::micro;
use popcorn_workloads::npb::{self, NpbConfig};
use popcorn_workloads::team::{Team, TeamConfig};

fn os(kernels: u16) -> PopcornOs {
    PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(kernels)
        .build()
}

/// Writes a value on the home kernel, migrates, and verifies the value is
/// visible on the target kernel — the core address-space-consistency
/// promise of the paper.
#[derive(Debug)]
struct WriteMigrateRead {
    state: u8,
    addr: VAddr,
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
                assert_eq!(env.kernel, KernelId(1), "running on the target kernel");
                self.state = 4;
                Op::Load(self.addr)
            }
            4 => {
                let Resume::Value(v) = r else { panic!("load") };
                assert_eq!(v, 0xBEEF, "memory travelled with the thread");
                Op::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn memory_values_survive_migration() {
    let mut os = os(2);
    os.load(Box::new(WriteMigrateRead {
        state: 0,
        addr: VAddr(0),
    }));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(r.metric("segv"), 0.0);
    assert_eq!(r.metric("migrations_first"), 1.0);
    // The read on kernel 1 required a remote page fetch.
    assert!(r.metric("faults_remote_read") + r.metric("faults_remote_write") >= 1.0);
}

/// getpid returns the same value on every kernel (single-system image).
#[derive(Debug)]
struct PidProbe {
    state: u8,
    pid_home: u64,
}

impl Program for PidProbe {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Syscall(SyscallReq::GetPid)
            }
            1 => {
                let Resume::Sys(res) = r else { panic!() };
                self.pid_home = res.expect_val("getpid");
                self.state = 2;
                Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(1))))
            }
            2 => {
                self.state = 3;
                Op::Syscall(SyscallReq::GetPid)
            }
            3 => {
                let Resume::Sys(res) = r else { panic!() };
                assert_eq!(
                    res.expect_val("getpid"),
                    self.pid_home,
                    "pid identical across kernels (SSI)"
                );
                Op::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn getpid_is_identical_across_kernels() {
    let mut os = os(2);
    os.load(Box::new(PidProbe {
        state: 0,
        pid_home: 0,
    }));
    assert!(os.run().is_clean());
}

#[test]
fn back_migration_is_cheaper_than_first_visit() {
    let mut os = os(2);
    os.load(Box::new(micro::MigrationPingPong::new(10)));
    let r = os.run();
    assert!(r.is_clean());
    assert_eq!(
        r.metric("migrations_first"),
        1.0,
        "one first visit to kernel 1"
    );
    assert_eq!(r.metric("migrations_back"), 9.0);
    let first = os.stats().migration_first_lat.mean();
    let back = os.stats().migration_back_lat.mean();
    assert!(
        back < first,
        "shadow revival ({back:.0}ns) should beat first visit ({first:.0}ns)"
    );
}

/// Mutual exclusion across kernels: every worker increments a *data* word
/// (page-protocol-coherent memory) under a futex mutex; the total must be
/// exact. This exercises page ownership transfer + distributed futexes
/// together.
#[derive(Debug)]
struct LockedIncrement {
    lock_word: VAddr,
    cell: VAddr,
    iters: u32,
    phase: u8,
    lock: Option<popcorn_workloads::ulib::MutexLock>,
    unlock: Option<popcorn_workloads::ulib::MutexUnlock>,
    scratch: u64,
}

impl LockedIncrement {
    fn new(lock_word: VAddr, cell: VAddr, iters: u32) -> Self {
        LockedIncrement {
            lock_word,
            cell,
            iters,
            phase: 0,
            lock: None,
            unlock: None,
            scratch: 0,
        }
    }
}

impl Program for LockedIncrement {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        use popcorn_workloads::ulib::{Flow, MutexLock, MutexUnlock, Poll};
        loop {
            match self.phase {
                0 => {
                    if self.iters == 0 {
                        return Op::Exit(0);
                    }
                    self.iters -= 1;
                    let mut l = MutexLock::new(self.lock_word);
                    let first = l.step(Resume::Start);
                    self.lock = Some(l);
                    self.phase = 1;
                    match first {
                        Poll::Op(op) => return op,
                        Poll::Done => unreachable!(),
                    }
                }
                1 => match self.lock.as_mut().expect("locking").step(r) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        self.phase = 2;
                        return Op::Load(self.cell);
                    }
                },
                2 => {
                    let Resume::Value(v) = r else { panic!("load") };
                    self.scratch = v;
                    self.phase = 3;
                    return Op::Store(self.cell, self.scratch + 1);
                }
                3 => {
                    let mut u = MutexUnlock::new(self.lock_word);
                    let first = u.step(Resume::Start);
                    self.unlock = Some(u);
                    self.phase = 4;
                    match first {
                        Poll::Op(op) => return op,
                        Poll::Done => unreachable!(),
                    }
                }
                4 => match self.unlock.as_mut().expect("unlocking").step(r) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        self.phase = 0;
                        continue;
                    }
                },
                _ => unreachable!(),
            }
        }
    }
}

/// Waits on a join counter, then reads the cell and asserts the exact
/// total — proving no update was lost across kernels.
#[derive(Debug)]
struct CellChecker {
    join: Option<popcorn_workloads::ulib::JoinWait>,
    cell: VAddr,
    expected: u64,
    reading: bool,
}

impl Program for CellChecker {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        use popcorn_workloads::ulib::{Flow, Poll};
        if self.reading {
            let Resume::Value(v) = r else { panic!("load") };
            assert_eq!(v, self.expected, "lost update under cross-kernel mutex");
            return Op::Exit(0);
        }
        match self.join.as_mut().expect("waiting").step(r) {
            Poll::Op(op) => op,
            Poll::Done => {
                self.reading = true;
                Op::Load(self.cell)
            }
        }
    }
}

#[test]
fn cross_kernel_mutex_protects_shared_page_data() {
    use popcorn_workloads::team::SignalingWorker;
    use popcorn_workloads::ulib::JoinWait;
    let threads = 6usize;
    let iters = 8u32;
    let mut os = os(2);
    os.load(Team::boxed(
        TeamConfig::new(threads + 1, 4096),
        Box::new(move |i, shared| {
            // Slot 1: the mutex. Slot 2: the incrementers' own join word
            // gating the checker. Slot 0 remains the team join word.
            if i < threads {
                let inc = Box::new(LockedIncrement::new(
                    shared.sync_slot(1),
                    shared.data,
                    iters,
                ));
                Box::new(SignalingWorker::new(inc, shared.sync_slot(2)))
            } else {
                Box::new(CellChecker {
                    join: Some(JoinWait::new(shared.sync_slot(2), threads as u64)),
                    cell: shared.data,
                    expected: threads as u64 * iters as u64,
                    reading: false,
                })
            }
        }),
    ));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(r.metric("rmw_local") + r.metric("rmw_remote") >= (threads as f64) * iters as f64);
    assert_eq!(r.metric("segv"), 0.0);
}

#[test]
fn on_demand_vma_retrieval_serves_remote_threads() {
    // Leader maps data on kernel 0; workers forced onto other kernels
    // access it — their kernels have no VMA until fetched on fault.
    let mut cfg = TeamConfig::new(4, 4 * 4096);
    cfg.placement = Placement::Auto;
    let mut os = os(4);
    os.load(Team::boxed(
        cfg,
        Box::new(|i, shared| Box::new(micro::PageBounceWorker::new(shared.data, 4, 6, i as u64))),
    ));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(r.metric("segv"), 0.0);
    assert!(
        r.metric("vma_fetches") >= 1.0,
        "remote kernels must fetch VMAs on demand: {:?}",
        r.metrics
    );
    assert!(
        r.metric("invalidations") >= 1.0,
        "writes must bounce ownership"
    );
}

#[test]
fn eager_vma_replication_ablation_removes_fetches() {
    let params = PopcornParams {
        eager_vma_replication: true,
        ..PopcornParams::default()
    };
    let build = |p: PopcornParams| {
        PopcornOs::builder()
            .topology(Topology::new(2, 4))
            .kernels(2)
            .popcorn_params(p)
            .build()
    };
    // MigrationPingPong with memory: map, write, migrate, read.
    let mut eager = build(params);
    eager.load(Box::new(WriteMigrateRead {
        state: 0,
        addr: VAddr(0),
    }));
    let re = eager.run();
    assert!(re.is_clean());
    assert_eq!(
        re.metric("vma_fetches"),
        0.0,
        "eager replication ships VMAs with the migration"
    );

    let mut lazy = build(PopcornParams::default());
    lazy.load(Box::new(WriteMigrateRead {
        state: 0,
        addr: VAddr(0),
    }));
    let rl = lazy.run();
    assert!(rl.is_clean());
    assert!(
        rl.metric("vma_fetches") >= 1.0,
        "lazy mode fetches on fault"
    );
}

#[test]
fn remote_clone_allocates_tid_in_target_pid_space() {
    #[derive(Debug)]
    struct Prober {
        asked: bool,
    }
    impl Program for Prober {
        fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
            if !self.asked {
                self.asked = true;
                return Op::Syscall(SyscallReq::Clone {
                    child: micro::compute_worker(100),
                    placement: Placement::Core(popcorn_hw::CoreId(4)), // kernel 1
                });
            }
            let Resume::Sys(SysResult::Val(tid)) = r else {
                panic!("clone failed: {r:?}")
            };
            let child = popcorn_kernel::types::Tid(tid as u32);
            assert_eq!(
                child.origin(),
                KernelId(1),
                "remote child's tid comes from the target kernel's PID range"
            );
            Op::Exit(0)
        }
    }
    let mut os = os(2);
    os.load(Box::new(Prober { asked: false }));
    let r = os.run();
    assert!(r.is_clean());
    assert_eq!(r.metric("clone_remote"), 1.0);
}

/// Spins until killed.
#[derive(Debug)]
struct Spinner;

impl Program for Spinner {
    fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
        Op::Compute(10_000)
    }
}

/// Sleeps `ns`, then calls `exit_group(7)`.
#[derive(Debug)]
struct Killer {
    ns: u64,
    slept: bool,
}

impl Program for Killer {
    fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
        if !self.slept {
            self.slept = true;
            return Op::Syscall(SyscallReq::Nanosleep { ns: self.ns });
        }
        Op::Syscall(SyscallReq::ExitGroup { code: 7 })
    }
}

/// Asserts that the run drained with every thread dead and counted: no
/// stuck task, no live task on any kernel, and as many exits as spawns.
fn assert_group_gone(os: &PopcornOs, r: &popcorn_kernel::osmodel::RunReport, case: &str) {
    assert!(
        r.stuck_tasks.is_empty(),
        "{case}: stuck {:?}",
        r.stuck_tasks
    );
    for k in os.kernels() {
        assert_eq!(k.live_tasks(), 0, "{case}: live tasks on {:?}", k.id());
    }
    let spawned: u64 = os.kernels().iter().map(|k| k.stats.spawned.get()).sum();
    assert_eq!(r.exited_tasks, spawned, "{case}: exited vs spawned");
}

#[test]
fn exit_group_kills_members_on_all_kernels() {
    // The leader spawns 8 spinning workers round-robin across the kernels
    // (workers 0 and 4 share the home, kernel 0, with the leader); the
    // listed workers call exit_group at 200 µs, alone or at once from
    // several kernels. Everything must terminate, the leader (blocked in
    // join) included, and each run's message count is pinned.
    let cases: [(&'static [usize], [f64; 2]); 5] = [
        (&[5], [14.0, 20.0]),
        (&[0], [15.0, 27.0]),
        (&[4], [15.0, 27.0]),
        (&[3, 6], [14.0, 20.0]),
        (&[1, 2, 3], [14.0, 20.0]),
    ];
    for (killers, messages) in cases {
        for (kernels, expected) in [2u16, 4].into_iter().zip(messages) {
            let mut cfg = TeamConfig::new(8, 0);
            cfg.placement = Placement::Auto;
            let mut os = os(kernels);
            os.load(Team::boxed(
                cfg,
                Box::new(move |i, _| {
                    if killers.contains(&i) {
                        Box::new(Killer {
                            ns: 200_000,
                            slept: false,
                        }) as Box<dyn Program>
                    } else {
                        Box::new(Spinner) as Box<dyn Program>
                    }
                }),
            ));
            let r = os.run_with(popcorn_sim::SimTime::from_secs(5), 20_000_000);
            let case = format!("{kernels} kernels, killers {killers:?}");
            assert_group_gone(&os, &r, &case);
            assert_eq!(r.metric("messages"), expected, "{case}: messages");
        }
    }
}

#[test]
fn thread_reaching_the_home_during_exit_group_is_killed() {
    // Three kernels, home = kernel 0. A migrator on kernel 1 moves to the
    // home while a killer on kernel 2 calls exit_group at 50 µs. Swept
    // over the migrate delay, the arrival lands before, during and after
    // the home's own kill; one that lands during it must be killed as a
    // straggler, not reaped while still live.
    #[derive(Debug)]
    struct Leader {
        migrate_after: u64,
        cloned: u8,
    }
    impl Program for Leader {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            self.cloned += 1;
            let (child, core): (Box<dyn Program>, u16) = match self.cloned {
                1 => (
                    Box::new(Migrator {
                        after: self.migrate_after,
                        step: 0,
                    }),
                    4,
                ),
                2 => (
                    Box::new(Killer {
                        ns: 50_000,
                        slept: false,
                    }),
                    8,
                ),
                _ => return Op::Compute(10_000),
            };
            Op::Syscall(SyscallReq::Clone {
                child,
                placement: Placement::Core(popcorn_hw::CoreId(core)),
            })
        }
    }
    #[derive(Debug)]
    struct Migrator {
        after: u64,
        step: u8,
    }
    impl Program for Migrator {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            self.step += 1;
            match self.step {
                1 => Op::Syscall(SyscallReq::Nanosleep { ns: self.after }),
                2 => Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(0)))),
                _ => Op::Compute(10_000),
            }
        }
    }
    for migrate_after in (30_000..80_000).step_by(250) {
        let mut os = PopcornOs::builder()
            .topology(Topology::new(3, 4))
            .kernels(3)
            .build();
        os.load(Box::new(Leader {
            migrate_after,
            cloned: 0,
        }));
        let r = os.run_with(popcorn_sim::SimTime::from_secs(1), 1_000_000);
        let case = format!("migrate after {migrate_after} ns");
        assert_group_gone(&os, &r, &case);
        assert_eq!(r.exited_tasks, 3, "{case}");
    }
}

#[test]
fn distributed_futex_wakes_remote_waiters() {
    // Workers on several kernels block on a barrier; completion proves
    // remote futex wake-ups work.
    let mut os = os(4);
    os.load(npb::cg_benchmark(NpbConfig::class_s(8)));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert!(r.metric("futex_remote") >= 1.0, "metrics: {:?}", r.metrics);
    assert_eq!(r.exited_tasks, 9);
}

#[test]
fn npb_suite_completes_on_many_kernels() {
    for (name, program) in [
        ("is", npb::is_benchmark(NpbConfig::class_s(8))),
        ("cg", npb::cg_benchmark(NpbConfig::class_s(8))),
        ("ft", npb::ft_benchmark(NpbConfig::class_s(8))),
    ] {
        let mut os = os(4);
        os.load(program);
        let r = os.run();
        assert!(r.is_clean(), "{name} stuck: {:?}", r.stuck_tasks);
        assert_eq!(r.exited_tasks, 9, "{name}");
        assert_eq!(r.metric("segv"), 0.0, "{name}");
    }
}

#[test]
fn page_ownership_writes_invalidate_all_readers() {
    // All workers read a page (building a copyset), then one writes.
    let mut os = os(4);
    os.load(micro::page_bounce(8, 2, 12));
    let r = os.run();
    assert!(r.is_clean());
    assert!(r.metric("invalidations") >= 2.0);
    assert!(r.metric("page_transfers") >= 2.0);
}

#[test]
fn single_kernel_popcorn_behaves_like_plain_kernel() {
    // Degenerate configuration: one kernel. Everything is the local fast
    // path; no messages at all.
    let mut os = PopcornOs::builder()
        .topology(Topology::single_socket(4))
        .kernels(1)
        .build();
    os.load(micro::mmap_storm(4, 4, 8192));
    let r = os.run();
    assert!(r.is_clean());
    assert_eq!(r.metric("messages"), 0.0, "no kernels to talk to");
    assert_eq!(r.metric("faults_remote_read"), 0.0);
    assert_eq!(r.metric("faults_remote_write"), 0.0);
}

#[test]
fn hierarchical_barriers_with_first_touch_homing_are_correct_and_local() {
    use popcorn_workloads::npb::{cg_benchmark, NpbConfig};
    let params = PopcornParams {
        sync_first_touch_homing: true,
        ..PopcornParams::default()
    };
    let mut os_hier = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(4)
        .popcorn_params(params.clone())
        .build();
    let cfg = NpbConfig {
        threads: 8,
        iterations: 6,
        pages_per_thread: 1,
        compute_cycles: 10_000,
        barrier_groups: 4,
    };
    os_hier.load(cg_benchmark(cfg));
    let r = os_hier.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(r.exited_tasks, 9);
    // Most sync ops are served locally under first-touch homing.
    assert!(
        r.metric("rmw_local") > r.metric("rmw_remote"),
        "expected mostly-local sync, got local={} remote={}",
        r.metric("rmw_local"),
        r.metric("rmw_remote")
    );

    // The same configuration under paper (origin) homing is mostly remote.
    let mut os_origin = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(4)
        .build();
    os_origin.load(cg_benchmark(cfg));
    let r2 = os_origin.run();
    assert!(r2.is_clean());
    assert!(
        r2.metric("rmw_remote") > r2.metric("rmw_local"),
        "origin homing should be mostly remote"
    );
}
