//! Protocol-level tests for the transport module (`machine/transport.rs`):
//! how injected duplicates are scheduled and suppressed, and how
//! `KernelCtx::post` routes a step. A scripted machine is driven by a
//! handler that posts one message from kernel 0 itself (a send when it is
//! addressed to another kernel), so each test controls exactly what
//! crosses the fabric.

use popcorn_core::machine::{PopEvent, PopcornMachine};
use popcorn_core::proto::{ProtoMsg, Protocol, TaskMigrateMsg};
use popcorn_core::PopcornParams;
use popcorn_hw::{HwParams, Topology};
use popcorn_kernel::mm::Mm;
use popcorn_kernel::osmodel::{self, OsEvent, OsMachine};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Op, ProgEnv, Program, Resume};
use popcorn_kernel::task::TaskStats;
use popcorn_kernel::types::{CpuContext, GroupId, Tid};
use popcorn_msg::{ChannelFaults, Delivery, FaultPlan, KernelId, MsgParams, RpcId};
use popcorn_sim::{Handler, Scheduler, SimTime, Simulator};

/// Two kernels on a fabric that duplicates every send, with the
/// reliability layer on (the default).
fn duplicating_machine() -> PopcornMachine {
    two_kernels(FaultPlan {
        seed: 5,
        uniform: Some(ChannelFaults {
            drop_p: 0.0,
            dup_p: 1.0,
            delay_p: 0.0,
            delay_max_ns: 0,
        }),
        ..FaultPlan::none()
    })
}

/// Two kernels on a fabric with fault plan `faults`.
fn two_kernels(faults: FaultPlan) -> PopcornMachine {
    let (machine, kernels, fabric) = osmodel::partition_machine(
        Topology::new(2, 4),
        2,
        HwParams::default(),
        OsParams::default(),
        MsgParams {
            faults,
            ..MsgParams::default()
        },
    );
    PopcornMachine::new(kernels, fabric, machine, PopcornParams::default())
}

/// Consumes the first event by posting `msg` from kernel 0 to `to`, then
/// either stops (leaving the scheduled arrivals queued) or hands every
/// later event to the machine.
struct PostFirst {
    m: PopcornMachine,
    msg: Option<ProtoMsg>,
    to: KernelId,
    stop: bool,
}

impl Handler<PopEvent> for PostFirst {
    fn handle(&mut self, now: SimTime, event: PopEvent, sched: &mut Scheduler<'_, PopEvent>) {
        match self.msg.take() {
            Some(msg) => {
                self.m.ctx(sched).post(now, 0, self.to, msg);
                if self.stop {
                    sched.request_stop();
                }
            }
            None => self.m.handle(now, event, sched),
        }
    }
}

/// Runs one send to kernel 1 through the duplicating machine; returns
/// the machine and the number of events left queued (all of them when
/// `stop`).
fn send_one(msg: ProtoMsg, stop: bool) -> (PopcornMachine, usize) {
    post_one(duplicating_machine(), msg, KernelId(1), stop)
}

/// Posts `msg` from kernel 0 to `to` on machine `m`; returns the machine
/// and the number of events left queued (all of them when `stop`).
fn post_one(m: PopcornMachine, msg: ProtoMsg, to: KernelId, stop: bool) -> (PopcornMachine, usize) {
    let mut h = PostFirst {
        m,
        msg: Some(msg),
        to,
        stop,
    };
    let mut sim = Simulator::new();
    let kick = Delivery::local(KernelId(0), SimTime::ZERO, ProtoMsg::PolicyTick);
    sim.schedule(SimTime::ZERO, OsEvent::Custom(kick));
    let _ = sim.run(&mut h);
    let pending = sim.pending();
    (h.m, pending)
}

#[derive(Debug)]
struct Nop;
impl Program for Nop {
    fn step(&mut self, _r: Resume, _env: &ProgEnv) -> Op {
        Op::Exit(0)
    }
}

#[test]
fn program_bearing_message_gets_no_duplicate_arrival() {
    let tid = Tid::new(KernelId(0), 1);
    let migrate = ProtoMsg::TaskMigrate(Box::new(TaskMigrateMsg {
        tid,
        group: GroupId(tid),
        program: Box::new(Nop),
        ctx: CpuContext::default(),
        stats: TaskStats::default(),
        started: SimTime::ZERO,
        vmas: vec![],
        resume: None,
        pending: None,
    }));
    let (m, queued) = send_one(migrate, true);
    assert_eq!(
        m.fabric().fault_counters().dups,
        1,
        "the fabric duplicated it"
    );
    assert_eq!(queued, 1, "only the original arrival is scheduled");
    // A control message's duplicate is scheduled as a second arrival.
    let (_, queued) = send_one(
        ProtoMsg::RmwResp {
            rpc: RpcId(1),
            old: 0,
        },
        true,
    );
    assert_eq!(queued, 2);
}

#[test]
fn sequenced_ghost_is_suppressed() {
    // A response nobody waits for: dispatching it is a no-op, so the
    // counters below see only the transport's work.
    let (m, queued) = send_one(
        ProtoMsg::RmwResp {
            rpc: RpcId(1),
            old: 0,
        },
        false,
    );
    assert_eq!(queued, 0);
    assert_eq!(
        m.stats.dup_suppressed.get(),
        1,
        "the ghost died at accept_seq"
    );
    assert_eq!(m.stats.acks_sent.get(), 1, "the original alone was acked");
    assert_eq!(m.stats.proto.get(Protocol::Futex).msgs_in.get(), 1);
    // The ghost, the channel ack and the ack's own (unsequenced) ghost.
    assert_eq!(m.stats.proto.get(Protocol::Transport).msgs_in.get(), 3);
}

#[test]
fn post_to_the_running_kernel_handles_inline() {
    // A group replica at each kernel, with no thread: `GroupReap` drops it.
    let group = GroupId(Tid::new(KernelId(0), 1));
    let machine_with_replicas = || {
        let mut m = two_kernels(FaultPlan::none());
        for k in m.kernels_mut() {
            k.adopt_mm(Mm::new(group));
        }
        m
    };
    let reap = || ProtoMsg::GroupReap { group };
    // Addressed to kernel 0 itself: the handler runs inside `post`.
    let (m, queued) = post_one(machine_with_replicas(), reap(), KernelId(0), true);
    assert!(!m.kernels()[0].has_mm(group), "handled inline");
    assert!(m.kernels()[1].has_mm(group));
    assert_eq!(m.fabric().total_sends(), 0, "nothing crossed the fabric");
    assert_eq!(queued, 0, "nothing was scheduled");
    let group_in = |m: &PopcornMachine| m.stats.proto.get(Protocol::Group).msgs_in.get();
    assert_eq!(group_in(&m), 0, "a local step is not an arrival");
    // Addressed to kernel 1: an ordinary send, handled on arrival.
    let (m, queued) = post_one(machine_with_replicas(), reap(), KernelId(1), true);
    assert_eq!(m.fabric().total_sends(), 1);
    assert_eq!(queued, 1, "the arrival is scheduled");
    assert!(m.kernels()[1].has_mm(group), "not handled yet");
    let (m, _) = post_one(machine_with_replicas(), reap(), KernelId(1), false);
    assert!(m.kernels()[0].has_mm(group));
    assert!(!m.kernels()[1].has_mm(group), "handled at kernel 1");
    assert_eq!(group_in(&m), 1, "one arrival");
}

#[test]
fn pop_event_fits_in_88_bytes() {
    // The sequence number rides in the delivery header's padding: a
    // 64-byte payload and a 20-byte header round up to 88.
    assert!(std::mem::size_of::<PopEvent>() <= 88);
}
