//! Tests of the shared OS-model dispatch skeleton: a minimal OsMachine
//! that records which hooks fire, driven through a real simulator.

use popcorn_hw::{CoreId, HwParams, Machine, Topology};
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::mm::{Mm, PageState};
use popcorn_kernel::osmodel::{self, OsEvent, OsMachine};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Op, ProgEnv, Program, Resume, RmwOp, SysResult, SyscallReq};
use popcorn_kernel::types::{GroupId, PageNo, Tid, VAddr};
use popcorn_msg::KernelId;
use popcorn_sim::{Handler, Scheduler, SimTime, Simulator};

/// A trivial OS policy: every syscall returns 1, every sync op returns 9,
/// every fault is a local zero-fill. Records hook invocations.
struct TinyOs {
    kernels: Vec<Kernel>,
    group: GroupId,
    hooks: Vec<&'static str>,
}

impl OsMachine for TinyOs {
    type Msg = ();

    fn kernels_mut(&mut self) -> &mut [Kernel] {
        &mut self.kernels
    }

    fn handle_syscall(
        &mut self,
        sched: &mut Scheduler<OsEvent<()>>,
        _ki: usize,
        core: CoreId,
        tid: Tid,
        req: SyscallReq,
        at: SimTime,
    ) {
        self.hooks.push("syscall");
        match req {
            SyscallReq::Nanosleep { ns } => {
                let c = self.kernels[0].block_current(
                    tid,
                    popcorn_kernel::task::BlockReason::Sleep,
                    at,
                );
                osmodel::ensure_core_run(sched, 0, c, at);
                sched.at(
                    at + SimTime::from_nanos(ns),
                    OsEvent::TimerWake { kernel: 0, tid },
                );
            }
            _ => {
                self.kernels[0].finish_syscall(tid, SysResult::Val(1), at);
                osmodel::ensure_core_run(sched, 0, core, at);
            }
        }
    }

    fn handle_sync_op(
        &mut self,
        sched: &mut Scheduler<OsEvent<()>>,
        _ki: usize,
        core: CoreId,
        tid: Tid,
        _addr: VAddr,
        _op: RmwOp,
        at: SimTime,
    ) {
        self.hooks.push("sync");
        self.kernels[0].finish_sync_op(tid, 9, at);
        osmodel::ensure_core_run(sched, 0, core, at);
    }

    fn handle_fault(
        &mut self,
        sched: &mut Scheduler<OsEvent<()>>,
        _ki: usize,
        core: CoreId,
        tid: Tid,
        page: PageNo,
        _write: bool,
        no_vma: bool,
        at: SimTime,
    ) {
        self.hooks.push("fault");
        assert!(!no_vma);
        self.kernels[0]
            .mm_mut(self.group)
            .install_zero_page(page, PageState::Exclusive);
        self.kernels[0].finish_fault_inline(tid, at + SimTime::from_nanos(1_000));
        osmodel::ensure_core_run(sched, 0, core, at + SimTime::from_nanos(1_000));
    }

    fn handle_exit(
        &mut self,
        _sched: &mut Scheduler<OsEvent<()>>,
        _ki: usize,
        _core: CoreId,
        _tid: Tid,
        code: i32,
        _at: SimTime,
    ) {
        assert_eq!(code, 0);
        self.hooks.push("exit");
    }

    fn handle_custom(&mut self, _sched: &mut Scheduler<OsEvent<()>>, _msg: (), _now: SimTime) {
        self.hooks.push("custom");
    }
}

impl Handler<OsEvent<()>> for TinyOs {
    fn handle(&mut self, now: SimTime, ev: OsEvent<()>, sched: &mut Scheduler<OsEvent<()>>) {
        osmodel::dispatch(self, now, ev, sched);
    }
}

/// Exercises every hook: syscall, sleep+timer, sync op, fault, exit.
#[derive(Debug)]
struct Everything {
    addr: VAddr,
    state: u8,
}

impl Program for Everything {
    fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
        let s = self.state;
        self.state += 1;
        match s {
            0 => Op::Syscall(SyscallReq::GetPid),
            1 => {
                assert!(matches!(r, Resume::Sys(SysResult::Val(1))));
                Op::Syscall(SyscallReq::Nanosleep { ns: 5_000 })
            }
            2 => Op::AtomicRmw(VAddr(0x9000), RmwOp::Add(1)),
            3 => {
                assert!(matches!(r, Resume::Value(9)));
                Op::Store(self.addr, 77)
            }
            4 => Op::Load(self.addr),
            5 => {
                assert!(matches!(r, Resume::Value(77)));
                Op::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}

/// Stores to each of `pages` pages once, then exits: every store faults,
/// so the core is busy for back-to-back fault resolutions.
#[derive(Debug)]
struct PageWalker {
    base: VAddr,
    pages: u64,
    next: u64,
}

impl Program for PageWalker {
    fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
        if self.next == self.pages {
            return Op::Exit(0);
        }
        let addr = self.base.add(self.next * VAddr::PAGE_SIZE);
        self.next += 1;
        Op::Store(addr, self.next)
    }
}

/// Runs the program `make` builds over a fresh `pages`-page mapping to
/// completion, with one `CoreRun` kick at time zero plus one extra kick at
/// each of `extra_kicks`. Returns the hooks that fired, the final virtual
/// time and the events processed.
fn run_tiny(
    pages: u64,
    make: impl FnOnce(VAddr) -> Box<dyn Program>,
    extra_kicks: &[SimTime],
) -> (Vec<&'static str>, SimTime, u64) {
    let machine = Machine::new(Topology::single_socket(2), HwParams::default());
    let mut kernel = Kernel::new(
        KernelId(0),
        vec![CoreId(0), CoreId(1)],
        OsParams::default(),
        machine,
    );
    let leader = kernel.alloc_tid();
    let group = GroupId(leader);
    kernel.adopt_mm(Mm::new(group));
    let addr = kernel
        .mm_mut(group)
        .map_anon(pages * VAddr::PAGE_SIZE)
        .unwrap();
    let core = kernel.spawn(leader, group, make(addr), None, SimTime::ZERO);
    let mut os = TinyOs {
        kernels: vec![kernel],
        group,
        hooks: Vec::new(),
    };
    let mut sim = Simulator::new();
    sim.schedule(SimTime::ZERO, OsEvent::CoreRun { kernel: 0, core });
    for &at in extra_kicks {
        sim.schedule(at, OsEvent::CoreRun { kernel: 0, core });
    }
    sim.run(&mut os);
    assert_eq!(os.kernels[0].live_tasks(), 0);
    (os.hooks, sim.now(), sim.events_processed())
}

#[test]
fn dispatch_routes_every_outcome_to_its_hook() {
    let everything = |addr| -> Box<dyn Program> { Box::new(Everything { addr, state: 0 }) };
    let (hooks, end, _) = run_tiny(1, everything, &[]);
    assert_eq!(
        hooks,
        vec!["syscall", "syscall", "sync", "fault", "exit"],
        "each mechanism outcome must reach exactly its policy hook"
    );
    // The sleep's timer really advanced virtual time.
    assert!(end >= SimTime::from_nanos(5_000));
}

#[test]
fn extra_kicks_of_a_busy_core_merge_into_its_one_repoll() {
    let pages = 16;
    let walker = |base| -> Box<dyn Program> {
        Box::new(PageWalker {
            base,
            pages,
            next: 0,
        })
    };
    let (hooks, end, events) = run_tiny(pages, walker, &[]);
    assert_eq!(
        hooks.len() as u64,
        pages + 1,
        "one fault per page, one exit"
    );
    // K kicks spread over the whole run, so most land on a busy core.
    let k = 200u64;
    let kicks: Vec<SimTime> = (0..k)
        .map(|i| SimTime::from_nanos(end.as_nanos() * i / k))
        .collect();
    let (kicked_hooks, kicked_end, kicked_events) = run_tiny(pages, walker, &kicks);
    assert_eq!(kicked_hooks, hooks, "extra kicks changed what ran");
    assert_eq!(kicked_end, end, "extra kicks changed virtual time");
    // Each kick costs its own event plus at most one re-poll; a chain per
    // kick would re-poll through every later busy period.
    assert!(
        kicked_events <= events + 2 * k,
        "{k} extra kicks added {} events",
        kicked_events - events
    );
}
