//! The op-script interpreter: the only [`Program`]s the benchmark loads.
//!
//! A workload is generated up front as one script of [`Instr`]s per
//! thread (see `workloads`); the OS model only ever sees the primitive
//! [`Op`]s the interpreter issues for them. Every thread is a closed
//! loop: it issues its next op only when the previous one returned. The
//! interpreter checks each result the model hands back and times each
//! operation in virtual time, from `ProgEnv::now` when the op is issued to
//! `ProgEnv::now` at the thread's next step.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use popcorn_kernel::program::{
    MigrateTarget, Op, ProgEnv, Program, Resume, RmwOp, SysResult, SyscallReq,
};
use popcorn_kernel::types::{GroupId, VAddr};
use popcorn_msg::KernelId;
use popcorn_sim::SimTime;
use popcorn_workloads::ulib::{
    Barrier, BarrierWait, Flow, JoinSignal, JoinWait, MutexLock, MutexUnlock, Poll,
};

use crate::workloads::ProcPlan;

const PAGE: u64 = VAddr::PAGE_SIZE;

/// One step of a thread's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Compute for this many cycles.
    Compute(u64),
    /// This many back-to-back `getpid` calls.
    GetPid(u32),
    /// Map this many pages, store to each, unmap them.
    MapTouchUnmap(u64),
    /// Migrate to kernel `to`, compute `cycles`, then store to and read
    /// back every page of the thread's private working set.
    Hop {
        /// Target kernel (never the current one).
        to: u16,
        /// Compute on arrival.
        cycles: u64,
    },
    /// Load `slot`'s word of shared page `page`.
    Load {
        /// Shared page index.
        page: u32,
        /// Owning thread of the word.
        slot: u32,
    },
    /// Store the thread's next token to its own word of shared page `page`.
    Store {
        /// Shared page index.
        page: u32,
    },
    /// Lock mutex `mutex`, mark its occupancy word, compute `cycles`,
    /// clear the occupancy word, unlock.
    Critical {
        /// Mutex index.
        mutex: u32,
        /// Critical-section compute.
        cycles: u64,
    },
    /// Cross the process-wide barrier.
    Barrier,
    /// Starts a round: the unit of work whose latency is the workload's
    /// end-to-end `round_*` metric (a closed-loop client's request).
    Round,
}

/// The kinds of operation whose virtual latency the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lat {
    /// An `mmap` or `munmap` call.
    Vma = 0,
    /// A `Migrate` syscall until the thread's first step on the target.
    Migrate = 1,
    /// A load or store.
    Mem = 2,
    /// A mutex acquisition, first attempt until acquired.
    Lock = 3,
    /// One round of a thread's script, from its `Round` marker to the next
    /// (or to the end of the script).
    Round = 4,
}

impl Lat {
    /// Every kind, in index order.
    pub const ALL: [Lat; 5] = [Lat::Vma, Lat::Migrate, Lat::Mem, Lat::Lock, Lat::Round];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Lat::Vma => "vma",
            Lat::Migrate => "migrate",
            Lat::Mem => "mem",
            Lat::Lock => "lock",
            Lat::Round => "round",
        }
    }
}

/// What a run's threads handed back: latency samples (virtual ns), op and
/// failure counts.
#[derive(Debug, Default, Clone)]
pub struct Outputs {
    /// Samples per [`Lat`] kind, indexed by its discriminant.
    pub lat: [Vec<u64>; 5],
    /// Primitive ops issued (everything but compute and exit).
    pub attempted: u64,
    /// Checks that failed (each names one op).
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Worker threads that ran their script to the end.
    pub threads_done: u64,
}

impl Outputs {
    /// Counts one failed check, keeping its message if it is among the first few.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn absorb(&mut self, other: Outputs) {
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.threads_done += other.threads_done;
    }
}

/// Where a run's threads deliver their [`Outputs`] when they finish.
pub type Sink = Arc<Mutex<Outputs>>;

thread_local! {
    /// Program-step accounting for the traced run: `(on, steps, nanos)`.
    static STEP_CLOCK: Cell<(bool, u64, u64)> = const { Cell::new((false, 0, 0)) };
}

/// Turns step timing on or off for this host thread and returns the
/// `(steps, nanos)` counted since the last call.
pub fn step_clock(on: bool) -> (u64, u64) {
    STEP_CLOCK.with(|c| {
        let (_, steps, nanos) = c.get();
        c.set((on, 0, 0));
        (steps, nanos)
    })
}

/// Steps counted so far by an active step clock.
pub fn steps_so_far() -> u64 {
    STEP_CLOCK.with(|c| c.get().1)
}

fn timed(f: impl FnOnce() -> Op) -> Op {
    let (on, steps, nanos) = STEP_CLOCK.with(Cell::get);
    if !on {
        return f();
    }
    let t = Instant::now();
    let op = f();
    let dt = t.elapsed().as_nanos() as u64;
    STEP_CLOCK.with(|c| c.set((true, steps + 1, nanos + dt)));
    op
}

/// Addresses the leader hands to every thread of its process.
#[derive(Debug, Clone, Copy)]
struct Layout {
    sync: VAddr,
    data: VAddr,
    pid: u64,
}

impl Layout {
    fn slot(&self, i: u64) -> VAddr {
        self.sync.add(64 * i)
    }
    fn join_word(&self) -> VAddr {
        self.slot(0)
    }
    fn barrier(&self, parties: u64) -> Barrier {
        Barrier::at(self.slot(1), parties)
    }
    fn mutex(&self, m: u32) -> VAddr {
        self.slot(2 + u64::from(m))
    }
    fn occupancy(&self, m: u32) -> VAddr {
        self.slot(2 + crate::workloads::MAX_MUTEXES + u64::from(m))
    }
}

fn mapped(resume: Resume, what: &str) -> VAddr {
    match resume {
        Resume::Sys(SysResult::Val(a)) if a != 0 && a % PAGE == 0 => VAddr(a),
        other => panic!("leader {what} failed: {other:?}"),
    }
}

enum LeaderState {
    MapSync,
    MapData,
    Spawn { next: usize },
    Join(JoinWait),
    Done,
}

/// A process leader: maps the sync page and the data region, clones one
/// interpreter thread per script with its placement, joins them, exits.
pub struct Leader {
    plan: Arc<ProcPlan>,
    sink: Sink,
    layout: Layout,
    state: LeaderState,
}

impl std::fmt::Debug for Leader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Leader")
            .field("threads", &self.plan.threads.len())
            .finish_non_exhaustive()
    }
}

impl Leader {
    /// A leader for `plan` whose threads report into `sink`.
    pub fn boxed(plan: Arc<ProcPlan>, sink: Sink) -> Box<dyn Program> {
        Box::new(Leader {
            plan,
            sink,
            layout: Layout {
                sync: VAddr(0),
                data: VAddr(0),
                pid: 0,
            },
            state: LeaderState::MapSync,
        })
    }

    fn advance(&mut self, resume: Resume, env: &ProgEnv) -> Op {
        loop {
            match &mut self.state {
                LeaderState::MapSync => {
                    self.layout.pid = u64::from(GroupId(env.tid).pid());
                    self.state = LeaderState::MapData;
                    return Op::Syscall(SyscallReq::Mmap { len: PAGE });
                }
                LeaderState::MapData => {
                    self.layout.sync = mapped(resume, "mmap of the sync page");
                    self.state = LeaderState::Spawn { next: 0 };
                    return Op::Syscall(SyscallReq::Mmap {
                        len: self.plan.data_pages.max(1) * PAGE,
                    });
                }
                LeaderState::Spawn { next } => {
                    if *next == 0 {
                        self.layout.data = mapped(resume, "mmap of the data region");
                    } else if !matches!(resume, Resume::Sys(SysResult::Val(_))) {
                        panic!("leader clone failed: {resume:?}");
                    }
                    let i = *next;
                    if i == self.plan.threads.len() {
                        let join = JoinWait::new(self.layout.join_word(), i as u64);
                        self.state = LeaderState::Join(join);
                        continue;
                    }
                    *next += 1;
                    let child = Thread::boxed(&self.plan, i, self.layout, self.sink.clone());
                    return Op::Syscall(SyscallReq::Clone {
                        child,
                        placement: self.plan.threads[i].placement,
                    });
                }
                // JoinWait's first state ignores the resume value, so the
                // last clone's result passes through harmlessly.
                LeaderState::Join(join) => match join.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        self.state = LeaderState::Done;
                        return Op::Exit(0);
                    }
                },
                LeaderState::Done => return Op::Exit(0),
            }
        }
    }
}

impl Program for Leader {
    fn step(&mut self, resume: Resume, env: &ProgEnv) -> Op {
        timed(|| self.advance(resume, env))
    }
}

/// What a thread is waiting for: the result of the op it issued last.
enum Phase {
    Next,
    GetPid {
        left: u32,
    },
    Mmap {
        pages: u64,
    },
    Touch {
        base: VAddr,
        pages: u64,
        next: u64,
    },
    Munmap,
    Migrated {
        to: KernelId,
        cycles: u64,
    },
    Arrived,
    HopStore {
        next: u64,
    },
    HopLoad {
        next: u64,
    },
    SharedLoad {
        page: u32,
        slot: u32,
    },
    SharedStore,
    Locking {
        m: u32,
        cycles: u64,
        lock: MutexLock,
        since: SimTime,
    },
    Occupy {
        m: u32,
        cycles: u64,
    },
    InCritical {
        m: u32,
    },
    Vacate {
        m: u32,
    },
    Unlocking(MutexUnlock),
    Barrier(BarrierWait),
    Joining(JoinSignal),
}

/// One worker thread interpreting its script.
pub struct Thread {
    plan: Arc<ProcPlan>,
    index: usize,
    pc: usize,
    layout: Layout,
    phase: Phase,
    /// The latency sample being timed: its kind and virtual issue time.
    timing: Option<(Lat, SimTime)>,
    /// When the current round started.
    round_start: Option<SimTime>,
    hops: u64,
    /// Last token this thread stored to its own word of each shared page.
    mine: Vec<u64>,
    /// Last value this thread saw in each (shared page, slot) word.
    seen: Vec<u64>,
    tokens: u64,
    out: Outputs,
    sink: Sink,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("index", &self.index)
            .field("pc", &self.pc)
            .finish_non_exhaustive()
    }
}

impl Thread {
    fn boxed(plan: &Arc<ProcPlan>, index: usize, layout: Layout, sink: Sink) -> Box<dyn Program> {
        let pages = plan.shared_pages as usize;
        Box::new(Thread {
            plan: plan.clone(),
            index,
            pc: 0,
            layout,
            phase: Phase::Next,
            timing: None,
            round_start: None,
            hops: 0,
            mine: vec![0; pages],
            seen: vec![0; pages * plan.threads.len()],
            tokens: 0,
            out: Outputs::default(),
            sink,
        })
    }

    fn issue(&mut self, op: Op) -> Op {
        self.out.attempted += 1;
        op
    }

    fn timed_issue(&mut self, lat: Lat, env: &ProgEnv, op: Op) -> Op {
        self.timing = Some((lat, env.now));
        self.issue(op)
    }

    fn sys_ok(&mut self, resume: Resume, what: &str) -> Option<u64> {
        match resume {
            Resume::Sys(SysResult::Val(v)) => Some(v),
            other => {
                let msg = format!("thread {} {what}: {other:?}", self.index);
                self.out.fail(msg);
                None
            }
        }
    }

    fn value(&mut self, resume: Resume, what: &str) -> u64 {
        match resume {
            Resume::Value(v) => v,
            other => {
                let msg = format!("thread {} {what} returned {other:?}", self.index);
                self.out.fail(msg);
                u64::MAX
            }
        }
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            let msg = format!("thread {} {}", self.index, msg());
            self.out.fail(msg);
        }
    }

    fn ws_page(&self, p: u64) -> VAddr {
        self.layout
            .data
            .add((self.index as u64 * self.plan.ws_pages + p) * PAGE)
    }

    fn shared_word(&self, page: u32, slot: u32) -> VAddr {
        self.layout
            .data
            .add(u64::from(page) * PAGE + 8 * u64::from(slot))
    }

    fn hop_token(&self, p: u64) -> u64 {
        ((self.index as u64 + 1) << 40) | (self.hops << 8) | p
    }

    fn advance(&mut self, resume: Resume, env: &ProgEnv) -> Op {
        if let Some((lat, since)) = self.timing.take() {
            self.out.lat[lat as usize].push(env.now.saturating_sub(since).as_nanos());
        }
        loop {
            match &mut self.phase {
                Phase::Next => {
                    let Some(&instr) = self.plan.threads[self.index].script.get(self.pc) else {
                        self.end_round(env);
                        let mut join = JoinSignal::new(self.layout.join_word());
                        let Poll::Op(op) = join.step(Resume::Start) else {
                            unreachable!("join signal starts with an op")
                        };
                        self.phase = Phase::Joining(join);
                        return op;
                    };
                    self.pc += 1;
                    if let Some(op) = self.start(instr, env) {
                        return op;
                    }
                }
                Phase::GetPid { left } => {
                    let left = *left;
                    let pid = self.layout.pid;
                    if let Some(v) = self.sys_ok(resume, "getpid") {
                        self.check(v == pid, || format!("getpid returned {v}, pid is {pid}"));
                    }
                    if left == 0 {
                        self.phase = Phase::Next;
                        continue;
                    }
                    self.phase = Phase::GetPid { left: left - 1 };
                    return self.issue(Op::Syscall(SyscallReq::GetPid));
                }
                Phase::Mmap { pages } => {
                    let pages = *pages;
                    let Some(base) = self.sys_ok(resume, "mmap") else {
                        self.phase = Phase::Next;
                        continue;
                    };
                    self.phase = Phase::Touch {
                        base: VAddr(base),
                        pages,
                        next: 1,
                    };
                    return self.timed_issue(Lat::Mem, env, Op::Store(VAddr(base), 1));
                }
                Phase::Touch { base, pages, next } => {
                    let (base, pages) = (*base, *pages);
                    if *next < pages {
                        let addr = base.add(*next * PAGE);
                        *next += 1;
                        return self.timed_issue(Lat::Mem, env, Op::Store(addr, 1));
                    }
                    self.phase = Phase::Munmap;
                    let len = pages * PAGE;
                    return self.timed_issue(
                        Lat::Vma,
                        env,
                        Op::Syscall(SyscallReq::Munmap { addr: base, len }),
                    );
                }
                Phase::Munmap => {
                    self.sys_ok(resume, "munmap");
                    self.phase = Phase::Next;
                }
                Phase::Migrated { to, cycles } => {
                    let (to, cycles) = (*to, *cycles);
                    self.sys_ok(resume, "migrate");
                    self.check(env.kernel == to, || {
                        format!("migrated to {to} but resumed on {}", env.kernel)
                    });
                    self.phase = Phase::Arrived;
                    return Op::Compute(cycles);
                }
                Phase::Arrived => {
                    self.phase = Phase::HopStore { next: 1 };
                    let (addr, token) = (self.ws_page(0), self.hop_token(0));
                    return self.timed_issue(Lat::Mem, env, Op::Store(addr, token));
                }
                Phase::HopStore { next } => {
                    let p = *next;
                    if p < self.plan.ws_pages {
                        *next += 1;
                        let (addr, token) = (self.ws_page(p), self.hop_token(p));
                        return self.timed_issue(Lat::Mem, env, Op::Store(addr, token));
                    }
                    self.phase = Phase::HopLoad { next: 1 };
                    return self.timed_issue(Lat::Mem, env, Op::Load(self.ws_page(0)));
                }
                Phase::HopLoad { next } => {
                    let p = *next;
                    let got = self.value(resume, "working-set load");
                    let want = self.hop_token(p - 1);
                    self.check(got == want, || {
                        format!(
                            "read back {got:#x} from working-set page {}, stored {want:#x}",
                            p - 1
                        )
                    });
                    if p < self.plan.ws_pages {
                        self.phase = Phase::HopLoad { next: p + 1 };
                        return self.timed_issue(Lat::Mem, env, Op::Load(self.ws_page(p)));
                    }
                    self.hops += 1;
                    self.phase = Phase::Next;
                }
                Phase::SharedLoad { page, slot } => {
                    let (page, slot) = (*page as usize, *slot as usize);
                    let got = self.value(resume, "shared load");
                    let threads = self.plan.threads.len();
                    if slot == self.index {
                        let want = self.mine[page];
                        self.check(got == want, || {
                            format!("read {got} from its own word of page {page}, wrote {want}")
                        });
                    }
                    let last = &mut self.seen[page * threads + slot];
                    let before = *last;
                    *last = got.max(before);
                    self.check(got >= before, || {
                        format!("word ({page}, {slot}) went back from {before} to {got}")
                    });
                    self.phase = Phase::Next;
                }
                Phase::SharedStore => self.phase = Phase::Next,
                Phase::Locking {
                    m,
                    cycles,
                    lock,
                    since,
                } => match lock.step(resume) {
                    Poll::Op(op) => return self.issue(op),
                    Poll::Done => {
                        let (m, cycles) = (*m, *cycles);
                        let waited = env.now.saturating_sub(*since).as_nanos();
                        self.out.lat[Lat::Lock as usize].push(waited);
                        self.phase = Phase::Occupy { m, cycles };
                        let occ = self.layout.occupancy(m);
                        return self.issue(Op::AtomicRmw(occ, RmwOp::Xchg(1)));
                    }
                },
                Phase::Occupy { m, cycles } => {
                    let (m, cycles) = (*m, *cycles);
                    let old = self.value(resume, "occupancy mark");
                    self.check(old == 0, || {
                        format!("entered mutex {m} while occupied ({old})")
                    });
                    self.phase = Phase::InCritical { m };
                    return Op::Compute(cycles);
                }
                Phase::InCritical { m } => {
                    let m = *m;
                    self.phase = Phase::Vacate { m };
                    let occ = self.layout.occupancy(m);
                    return self.issue(Op::AtomicRmw(occ, RmwOp::Xchg(0)));
                }
                Phase::Vacate { m } => {
                    let m = *m;
                    let old = self.value(resume, "occupancy clear");
                    self.check(old == 1, || format!("left mutex {m} with occupancy {old}"));
                    let mut unlock = MutexUnlock::new(self.layout.mutex(m));
                    let Poll::Op(op) = unlock.step(Resume::Start) else {
                        unreachable!("unlock starts with an op")
                    };
                    self.phase = Phase::Unlocking(unlock);
                    return self.issue(op);
                }
                Phase::Unlocking(unlock) => match unlock.step(resume) {
                    Poll::Op(op) => return self.issue(op),
                    Poll::Done => self.phase = Phase::Next,
                },
                Phase::Barrier(b) => match b.step(resume) {
                    Poll::Op(op) => return self.issue(op),
                    Poll::Done => self.phase = Phase::Next,
                },
                Phase::Joining(join) => match join.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        let mut out = std::mem::take(&mut self.out);
                        out.threads_done = 1;
                        self.sink
                            .lock()
                            .expect("a thread panicked while reporting")
                            .absorb(out);
                        return Op::Exit(0);
                    }
                },
            }
        }
    }

    fn end_round(&mut self, env: &ProgEnv) {
        if let Some(since) = self.round_start.take() {
            self.out.lat[Lat::Round as usize].push(env.now.saturating_sub(since).as_nanos());
        }
    }

    /// Starts `instr`: returns its first op, or `None` if it needs none.
    fn start(&mut self, instr: Instr, env: &ProgEnv) -> Option<Op> {
        Some(match instr {
            Instr::Round => {
                self.end_round(env);
                self.round_start = Some(env.now);
                return None;
            }
            Instr::Compute(cycles) => Op::Compute(cycles),
            Instr::GetPid(n) => {
                if n == 0 {
                    return None;
                }
                self.phase = Phase::GetPid { left: n - 1 };
                self.issue(Op::Syscall(SyscallReq::GetPid))
            }
            Instr::MapTouchUnmap(pages) => {
                self.phase = Phase::Mmap { pages };
                self.timed_issue(
                    Lat::Vma,
                    env,
                    Op::Syscall(SyscallReq::Mmap { len: pages * PAGE }),
                )
            }
            Instr::Hop { to, cycles } => {
                let to = KernelId(to);
                self.phase = Phase::Migrated { to, cycles };
                self.timed_issue(
                    Lat::Migrate,
                    env,
                    Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(to))),
                )
            }
            Instr::Load { page, slot } => {
                self.phase = Phase::SharedLoad { page, slot };
                self.timed_issue(Lat::Mem, env, Op::Load(self.shared_word(page, slot)))
            }
            Instr::Store { page } => {
                self.tokens += 1;
                self.mine[page as usize] = self.tokens;
                self.phase = Phase::SharedStore;
                let addr = self.shared_word(page, self.index as u32);
                self.timed_issue(Lat::Mem, env, Op::Store(addr, self.tokens))
            }
            Instr::Critical { mutex, cycles } => {
                let mut lock = MutexLock::new(self.layout.mutex(mutex));
                let Poll::Op(op) = lock.step(Resume::Start) else {
                    unreachable!("lock starts with an op")
                };
                self.phase = Phase::Locking {
                    m: mutex,
                    cycles,
                    lock,
                    since: env.now,
                };
                self.issue(op)
            }
            Instr::Barrier => {
                let mut b = BarrierWait::new(self.layout.barrier(self.plan.threads.len() as u64));
                let Poll::Op(op) = b.step(Resume::Start) else {
                    unreachable!("barrier starts with an op")
                };
                self.phase = Phase::Barrier(b);
                self.issue(op)
            }
        })
    }
}

impl Program for Thread {
    fn step(&mut self, resume: Resume, env: &ProgEnv) -> Op {
        timed(|| self.advance(resume, env))
    }
}
