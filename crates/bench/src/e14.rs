//! E14 — crash-timing sweep: a kernel dies in the middle of each
//! protocol's critical window (migration handoff, page transfer, futex
//! sleep, group barrier) and the survivors must detect the death, recover
//! the orphaned state, and finish the workload.
//!
//! Each scenario runs twice — fault-free and with a planned crash — and
//! the table reports recovery latency (crash instant to declaration),
//! work lost (progress units the baseline achieved but the crashed run
//! did not), and goodput (crashed progress as a percent of baseline).
//!
//! Progress is counted by the programs themselves through a shared host
//! counter: a worker bumps it once per completed work unit (a successful
//! hop, a finished memory access, an observed rendezvous, a completed
//! barrier round). The counter lives outside simulated memory, so the
//! instrumentation cannot perturb virtual time.
//!
//! The workloads are written the way robust applications must be written
//! on a crash-surviving OS: the launcher never joins (a dead worker can
//! never signal), sleepers revalidate on `EOWNERDEAD` instead of assuming
//! forward progress, and the barrier poisons its arrival counter so that
//! an episode some participants will never reach drains instead of
//! wedging. The global invariant audit (`popcorn_core::invariants`) runs
//! on every cell and would panic the experiment on any lost thread,
//! stale directory entry, or wedged waiter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use popcorn_kernel::program::{
    FutexOp, MigrateTarget, Op, Placement, ProgEnv, Program, Resume, RmwOp, SysResult, SyscallReq,
};
use popcorn_kernel::types::{Errno, VAddr};
use popcorn_msg::{FaultPlan, KernelId};
use popcorn_sim::SimTime;

use crate::rig::{Cell, CellOut, OsKind, Plan, Rig};
use crate::table::Table;

/// Host-side progress counter shared between the harness and the
/// programs it loads (it migrates with them).
type Progress = Arc<AtomicU64>;

/// Barrier arrival counts at or above this mark mean a participant died
/// mid-episode and the barrier can never fill again: arrivals drain out
/// instead of parking.
const POISON: u64 = 1 << 32;

/// What each spawned worker runs; built by the leader once the shared
/// addresses exist.
#[derive(Debug, Clone)]
enum WorkerSpec {
    /// Ring migration with compute between hops (the handoff window).
    Hop {
        /// Hops each worker attempts.
        hops: u32,
        /// Compute between hops.
        compute: u64,
    },
    /// Strided load/store traffic over a shared pool (the page-transfer
    /// window).
    Bounce {
        /// Pages in the shared pool.
        pages: u64,
        /// Memory accesses per worker.
        iters: u32,
    },
    /// Park on the stamp word until the leader's wake (the futex-sleep
    /// window).
    Sleep,
    /// Rounds of a poison-tolerant counter barrier (the group-barrier
    /// window). Worker 0 is the sentinel: it arrives almost instantly
    /// each round and spends the episode parked, so a crash-time sweep
    /// always finds a waiter to turn into the poisoner.
    Barrier {
        /// Barrier width (all workers participate).
        n: u64,
        /// Rounds each worker attempts.
        rounds: u32,
        /// Per-index compute stagger (worker i computes i × this).
        stagger: u64,
    },
}

impl WorkerSpec {
    fn build(&self, i: usize, sync: VAddr, data: VAddr, progress: &Progress) -> Box<dyn Program> {
        match *self {
            WorkerSpec::Hop { hops, compute } => Box::new(HopWorker {
                hops_left: hops,
                compute,
                kernels: 4,
                dead: None,
                last_target: 0,
                migrating: false,
                credit: false,
                progress: progress.clone(),
            }),
            WorkerSpec::Bounce { pages, iters } => Box::new(BounceWorker {
                data,
                pages,
                stride: 2 * i as u64 + 1,
                iters,
                seq: 0,
                started: false,
                progress: progress.clone(),
            }),
            WorkerSpec::Sleep => Box::new(SleepWorker {
                word: sync,
                progress: progress.clone(),
            }),
            WorkerSpec::Barrier { n, rounds, stagger } => Box::new(BarrierWorker {
                count: sync.add(64),
                gen: sync.add(72),
                n,
                rounds_left: rounds,
                compute: if i == 0 { 5_000 } else { i as u64 * stagger },
                my_gen: 0,
                dying: false,
                state: BarState::Init,
                progress: progress.clone(),
            }),
        }
    }
}

/// Maps the shared areas, spawns the fleet, and exits **without
/// joining**: recovery may kill any worker, and a robust launcher must
/// not wedge on a join counter a dead thread can never bump. With
/// `wake_after` set it instead computes, stamps the sync word, and
/// wakes every sleeper before exiting (the futex-rendezvous shape).
#[derive(Debug)]
struct FleetLeader {
    spec: WorkerSpec,
    workers: usize,
    data_pages: u64,
    wake_after: u64,
    progress: Progress,
    state: u8,
    sync: VAddr,
    data: VAddr,
    spawned: usize,
}

impl FleetLeader {
    /// Builds the leader plus the shared progress cell its fleet reports to.
    fn launch(
        spec: WorkerSpec,
        workers: usize,
        data_pages: u64,
        wake_after: u64,
    ) -> (Box<dyn Program>, Progress) {
        let progress = Progress::new(AtomicU64::new(0));
        let leader = FleetLeader {
            spec,
            workers,
            data_pages,
            wake_after,
            progress: progress.clone(),
            state: 0,
            sync: VAddr(0),
            data: VAddr(0),
            spawned: 0,
        };
        (Box::new(leader), progress)
    }

    fn spawn_next(&mut self) -> Op {
        if self.spawned < self.workers {
            let child = self
                .spec
                .build(self.spawned, self.sync, self.data, &self.progress);
            self.spawned += 1;
            return Op::Syscall(SyscallReq::Clone {
                child,
                placement: Placement::Auto,
            });
        }
        if self.wake_after > 0 {
            self.state = 4;
            return Op::Compute(self.wake_after);
        }
        Op::Exit(0)
    }
}

impl Program for FleetLeader {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Syscall(SyscallReq::Mmap { len: 4096 })
            }
            1 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.sync = VAddr(res.expect_val("sync mmap"));
                if self.data_pages > 0 {
                    self.state = 2;
                    Op::Syscall(SyscallReq::Mmap {
                        len: self.data_pages * 4096,
                    })
                } else {
                    self.state = 3;
                    self.spawn_next()
                }
            }
            2 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.data = VAddr(res.expect_val("data mmap"));
                self.state = 3;
                self.spawn_next()
            }
            3 => self.spawn_next(),
            4 => {
                // Rendezvous epilogue: stamp the word, then wake everyone.
                self.state = 5;
                Op::AtomicRmw(self.sync, RmwOp::Xchg(1))
            }
            5 => {
                self.state = 6;
                Op::Syscall(SyscallReq::Futex(FutexOp::Wake {
                    uaddr: self.sync,
                    count: u32::MAX,
                }))
            }
            _ => Op::Exit(0),
        }
    }
}

/// Migrates around the kernel ring with compute between hops, crediting
/// one unit per successful hop. A failed hop (`EIO` after the target
/// died) marks the target dead and the ring routes around it from then
/// on — application-level ring repair.
#[derive(Debug)]
struct HopWorker {
    hops_left: u32,
    compute: u64,
    kernels: u16,
    dead: Option<u16>,
    last_target: u16,
    migrating: bool,
    credit: bool,
    progress: Progress,
}

impl Program for HopWorker {
    fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
        if self.migrating {
            self.migrating = false;
            if matches!(r, Resume::Sys(SysResult::Err(_))) {
                self.dead = Some(self.last_target);
            } else {
                self.credit = true;
            }
            return Op::Compute(self.compute);
        }
        if self.credit {
            self.credit = false;
            self.progress.fetch_add(1, Ordering::Relaxed);
        }
        if self.hops_left == 0 {
            return Op::Exit(0);
        }
        self.hops_left -= 1;
        let mut next = (env.kernel.0 + 1) % self.kernels;
        if Some(next) == self.dead {
            next = (next + 1) % self.kernels;
        }
        self.last_target = next;
        self.migrating = true;
        Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(next))))
    }
}

/// Strided load/store traffic over a shared page pool, crediting one
/// unit per completed access. A worker that faults on a page whose only
/// copy died is killed by the kernel (SIGBUS) — its partial credit
/// stands.
#[derive(Debug)]
struct BounceWorker {
    data: VAddr,
    pages: u64,
    stride: u64,
    iters: u32,
    seq: u64,
    started: bool,
    progress: Progress,
}

impl Program for BounceWorker {
    fn step(&mut self, _r: Resume, _env: &ProgEnv) -> Op {
        if self.started {
            self.progress.fetch_add(1, Ordering::Relaxed);
        } else {
            self.started = true;
        }
        if self.iters == 0 {
            return Op::Exit(0);
        }
        self.iters -= 1;
        let page = (self.seq * self.stride) % self.pages;
        self.seq += 1;
        let addr = self.data.add(page * 4096);
        if self.seq.is_multiple_of(2) {
            Op::Load(addr)
        } else {
            Op::Store(addr, self.seq)
        }
    }
}

/// Parks on the stamp word until the leader's wake, crediting one unit
/// when the rendezvous is observed. On `EOWNERDEAD` (the crash-recovery
/// sweep) it revalidates by re-waiting: the expected-value gate catches
/// a stamp that landed while it was being swept, and the leader — which
/// recovery never kills here — still owes the wake.
#[derive(Debug)]
struct SleepWorker {
    word: VAddr,
    progress: Progress,
}

impl Program for SleepWorker {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match r {
            Resume::Start | Resume::Sys(SysResult::Err(Errno::OwnerDead)) => {
                Op::Syscall(SyscallReq::Futex(FutexOp::Wait {
                    uaddr: self.word,
                    expected: 0,
                }))
            }
            Resume::Sys(SysResult::Val(_)) | Resume::Sys(SysResult::Err(Errno::Again)) => {
                self.progress.fetch_add(1, Ordering::Relaxed);
                Op::Exit(0)
            }
            _ => Op::Exit(1),
        }
    }
}

/// Which op a [`BarrierWorker`] just issued (its resume is `r`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum BarState {
    Init,
    Computing,
    ReadingGen,
    Arriving,
    Resetting,
    Restoring,
    Bumping,
    Waking,
    Parking,
    Rechecking,
}

/// One participant of a poison-tolerant counter barrier, crediting one
/// unit per completed round.
///
/// The fault-free protocol is the classic generation barrier (read gen,
/// add to count, last arrival resets the count, bumps gen and wakes).
/// Crash tolerance adds one rule: a waiter woken with `EOWNERDEAD` (the
/// recovery sweep — some participant died parked) stamps `POISON` into
/// the arrival counter, bumps the generation, wakes everyone, and exits.
/// Every later arrival sees the poison in its fetch-add result and takes
/// the same release-and-exit path, so an episode that can never fill
/// drains instead of wedging. Parking is always gated on the generation
/// word (`FutexOp::Wait`'s expected-value check), so an arrival racing
/// the poisoner's bump can never sleep through the wake.
#[derive(Debug)]
struct BarrierWorker {
    count: VAddr,
    gen: VAddr,
    n: u64,
    rounds_left: u32,
    compute: u64,
    my_gen: u64,
    dying: bool,
    state: BarState,
    progress: Progress,
}

impl BarrierWorker {
    fn finish_round(&mut self) -> Op {
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.rounds_left -= 1;
        if self.rounds_left == 0 {
            return Op::Exit(0);
        }
        self.state = BarState::Computing;
        Op::Compute(self.compute)
    }

    fn value(r: Resume) -> u64 {
        let Resume::Value(v) = r else {
            panic!("barrier expected a value, got {r:?}")
        };
        v
    }
}

impl Program for BarrierWorker {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match self.state {
            BarState::Init => {
                self.state = BarState::Computing;
                Op::Compute(self.compute)
            }
            BarState::Computing => {
                self.state = BarState::ReadingGen;
                Op::AtomicRmw(self.gen, RmwOp::Add(0))
            }
            BarState::ReadingGen => {
                self.my_gen = Self::value(r);
                self.state = BarState::Arriving;
                Op::AtomicRmw(self.count, RmwOp::Add(1))
            }
            BarState::Arriving => {
                let old = Self::value(r);
                if old >= POISON {
                    // A participant died mid-episode; release and drain.
                    self.dying = true;
                    self.state = BarState::Bumping;
                    Op::AtomicRmw(self.gen, RmwOp::Add(1))
                } else if old == self.n - 1 {
                    self.state = BarState::Resetting;
                    Op::AtomicRmw(self.count, RmwOp::Xchg(0))
                } else {
                    self.state = BarState::Parking;
                    Op::Syscall(SyscallReq::Futex(FutexOp::Wait {
                        uaddr: self.gen,
                        expected: self.my_gen,
                    }))
                }
            }
            BarState::Resetting => {
                let prev = Self::value(r);
                if prev >= POISON {
                    // The reset swallowed a racing poison stamp: restore
                    // it before releasing, then exit like any aborter.
                    self.dying = true;
                    self.state = BarState::Restoring;
                    Op::AtomicRmw(self.count, RmwOp::Add(POISON))
                } else {
                    self.state = BarState::Bumping;
                    Op::AtomicRmw(self.gen, RmwOp::Add(1))
                }
            }
            BarState::Restoring => {
                self.state = BarState::Bumping;
                Op::AtomicRmw(self.gen, RmwOp::Add(1))
            }
            BarState::Bumping => {
                self.state = BarState::Waking;
                Op::Syscall(SyscallReq::Futex(FutexOp::Wake {
                    uaddr: self.gen,
                    count: u32::MAX,
                }))
            }
            BarState::Waking => {
                if self.dying {
                    Op::Exit(1)
                } else {
                    self.finish_round()
                }
            }
            BarState::Parking => {
                if matches!(r, Resume::Sys(SysResult::Err(Errno::OwnerDead))) {
                    // The recovery sweep woke us: poison the counter so
                    // arrivals drain, release any co-waiters, and die.
                    self.dying = true;
                    self.state = BarState::Restoring;
                    Op::AtomicRmw(self.count, RmwOp::Add(POISON))
                } else {
                    self.state = BarState::Rechecking;
                    Op::AtomicRmw(self.gen, RmwOp::Add(0))
                }
            }
            BarState::Rechecking => {
                if Self::value(r) != self.my_gen {
                    self.finish_round()
                } else {
                    self.state = BarState::Parking;
                    Op::Syscall(SyscallReq::Futex(FutexOp::Wait {
                        uaddr: self.gen,
                        expected: self.my_gen,
                    }))
                }
            }
        }
    }
}

/// The four crash windows E14 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Crash while threads are mid-migration around the kernel ring.
    Handoff,
    /// Crash the **home** kernel under page traffic: the successor must
    /// adopt the group and rebuild the directory from survivor scans.
    Pages,
    /// Crash while sleepers are parked on a futex the leader will only
    /// wake after recovery has run.
    Futex,
    /// Crash while a thread group cycles a barrier.
    Barrier,
}

impl Scenario {
    /// All four, in table order.
    const ALL: [Scenario; 4] = [
        Scenario::Handoff,
        Scenario::Pages,
        Scenario::Futex,
        Scenario::Barrier,
    ];

    /// Row label.
    fn name(self) -> &'static str {
        match self {
            Scenario::Handoff => "migration handoff",
            Scenario::Pages => "page transfer (home dies)",
            Scenario::Futex => "futex sleep",
            Scenario::Barrier => "group barrier",
        }
    }

    /// The kernel the crash cell kills.
    fn victim(self) -> KernelId {
        match self {
            // The pages scenario kills the group's HOME kernel, forcing
            // successor adoption and directory rebuild; the others kill a
            // worker kernel.
            Scenario::Pages => KernelId(0),
            _ => KernelId(3),
        }
    }

    /// When the crash cell kills it.
    fn crash_at(self) -> SimTime {
        match self {
            Scenario::Handoff | Scenario::Pages => SimTime::from_millis(1),
            Scenario::Futex | Scenario::Barrier => SimTime::from_millis(2),
        }
    }

    fn program(self) -> (Box<dyn Program>, Progress) {
        match self {
            Scenario::Handoff => FleetLeader::launch(
                WorkerSpec::Hop {
                    hops: 60,
                    compute: 150_000,
                },
                8,
                0,
                0,
            ),
            Scenario::Pages => FleetLeader::launch(
                WorkerSpec::Bounce {
                    pages: 24,
                    iters: 400,
                },
                8,
                24,
                0,
            ),
            // The wake lands *after* the ~14 ms detection sweep, so the
            // crash cell catches every surviving sleeper parked.
            Scenario::Futex => FleetLeader::launch(WorkerSpec::Sleep, 12, 0, 40_000_000),
            Scenario::Barrier => FleetLeader::launch(
                WorkerSpec::Barrier {
                    n: 8,
                    rounds: 40,
                    stagger: 60_000,
                },
                8,
                0,
                0,
            ),
        }
    }
}

/// E14 — the crash-timing sweep table: each scenario fault-free, then
/// with its planned crash, keyed `e14/<scenario>/<none|crash>`. A cell
/// that returns ran clean and passed the invariant audit (either failing
/// panics it), and adds the progress units its workload completed.
pub fn e14_crash_recovery() -> Plan {
    let mut cells = Vec::new();
    for scenario in Scenario::ALL {
        for crash in [false, true] {
            let name = format!("{scenario:?}").to_lowercase();
            let fault = if crash { "crash" } else { "none" };
            cells.push(Cell::new(format!("e14/{name}/{fault}"), move || {
                let faults = if crash {
                    FaultPlan::none().with_crash(scenario.victim(), scenario.crash_at())
                } else {
                    FaultPlan::none()
                };
                let (leader, progress) = scenario.program();
                let rig = Rig {
                    faults,
                    ..Rig::paper()
                };
                CellOut::from(rig.run(OsKind::Popcorn, [leader]))
                    .with("units", progress.load(Ordering::Relaxed) as f64)
            }));
        }
    }
    Plan::new(cells, render)
}

/// Renders E14's table from its cells, baseline then crash per scenario.
fn render(outs: &[CellOut]) -> Table {
    let mut t = Table::new(
        "E14",
        "kernel-crash failover: recovery latency, work lost, and goodput per crash window",
        [
            "scenario",
            "fault",
            "clean",
            "completion_ms",
            "recovery_ms",
            "units",
            "work_lost",
            "goodput_pct",
            "killed",
        ],
    );
    // Tasks recovery killed: orphans on the dead kernel plus survivors
    // hitting unrecoverable state (lost pages, dead-home VMA fetches).
    let killed = |o: &CellOut| o.metric("orphans_killed") + o.metric("fault_kills");
    for (&s, runs) in Scenario::ALL.iter().zip(outs.chunks(2)) {
        let (base, crashed) = (&runs[0], &runs[1]);
        // The recovery mechanisms have no column of their own, so every
        // regeneration asserts them: the fault-free baseline never
        // declares a death, all three survivors declare the victim, and
        // each window's own mechanism fires (migrations aborted back to
        // their origin, directory entries re-owned from a surviving copy
        // or lost with their only one, futex waiters swept with
        // `EOWNERDEAD`).
        let declared = |o: &CellOut| o.metric("kernels_declared_dead");
        assert_eq!(declared(base), 0.0, "E14 {}: baseline declared", s.name());
        assert_eq!(declared(crashed), 3.0, "E14 {}: declarations", s.name());
        let mechanisms: &[&str] = match s {
            Scenario::Handoff => &["migrations_aborted"],
            Scenario::Pages => &["pages_promoted", "pages_lost"],
            Scenario::Futex | Scenario::Barrier => &["futex_recovered"],
        };
        let fired: f64 = mechanisms.iter().map(|m| crashed.metric(m)).sum();
        assert!(fired >= 1.0, "E14 {}: {mechanisms:?} never fired", s.name());
        let (units, crashed_units) = (base.metric("units"), crashed.metric("units"));
        t.row([
            s.name().to_string(),
            "none".to_string(),
            base.clean.to_string(),
            format!("{:.3}", base.ms()),
            "-".to_string(),
            format!("{units:.0}"),
            "0".to_string(),
            "100.0".to_string(),
            format!("{:.0}", killed(base)),
        ]);
        let goodput = if units > 0.0 {
            100.0 * crashed_units / units
        } else {
            0.0
        };
        t.row([
            s.name().to_string(),
            format!(
                "kernel {} crash @{:.0}ms",
                s.victim().0,
                s.crash_at().as_millis_f64()
            ),
            crashed.clean.to_string(),
            format!("{:.3}", crashed.ms()),
            // Mean crash-to-recovery-complete latency at the successor:
            // the detection window plus the modeled cost of the recovery
            // work actually performed (orphan kills, directory scans,
            // futex sweeps, RPC failovers).
            format!("{:.3}", crashed.metric("recovery_ms_mean")),
            format!("{crashed_units:.0}"),
            format!("{:.0}", (units - crashed_units).max(0.0)),
            format!("{goodput:.1}"),
            format!("{:.0}", killed(crashed)),
        ]);
    }
    t.note("expected: every cell completes cleanly and passes the global invariant audit; recovery_ms spans the ack-silence detection window (12 ms) plus the modeled cost of the recovery work itself, so it varies by scenario; goodput degrades by roughly the dead kernel's share of threads plus work stranded behind the detection window; the home-death cell (pages) additionally exercises successor adoption and directory rebuild");
    t
}
