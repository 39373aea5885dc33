//! Protocol-level tests for the futex module (`machine/futex.rs`), driven
//! by a scripted fabric: hand-crafted protocol messages injected directly
//! as deliveries, with no user programs in the loop. They pin down the
//! message-level behaviour of the futex server independently of the
//! syscall layer (which `tests/protocols.rs` covers end to end).

use popcorn_core::machine::{PopEvent, PopcornMachine};
use popcorn_core::proto::{ProtoMsg, Protocol};
use popcorn_core::PopcornParams;
use popcorn_hw::{HwParams, Topology};
use popcorn_kernel::osmodel::{self, OsEvent};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{FutexOp, Op, ProgEnv, Program, Resume, RmwOp};
use popcorn_kernel::types::{Tid, VAddr};
use popcorn_msg::{Delivery, KernelId, MsgParams, RpcId};
use popcorn_sim::{SimTime, Simulator};

/// A bare machine with `n` kernels and a fault-free fabric, assembled
/// without the OS builder so tests can poke protocol internals.
fn scripted_machine(n: u16) -> PopcornMachine {
    let (machine, kernels, fabric) = osmodel::partition_machine(
        Topology::new(2, 4),
        n,
        HwParams::default(),
        OsParams::default(),
        MsgParams::default(),
    );
    PopcornMachine::new(kernels, fabric, machine, PopcornParams::default())
}

/// A leader that never runs (its core is never kicked); it only exists so
/// the group is registered at its home kernel.
#[derive(Debug)]
struct Idle;
impl Program for Idle {
    fn step(&mut self, _r: Resume, _env: &ProgEnv) -> Op {
        Op::Exit(0)
    }
}

/// A hand-crafted fabric delivery, as the transport layer would hand it to
/// dispatch on the plain (fault-free) path.
fn deliver(at_ns: u64, from: u16, to: u16, payload: ProtoMsg) -> PopEvent {
    OsEvent::Custom(Delivery {
        from: KernelId(from),
        to: KernelId(to),
        deliver_at: SimTime::from_nanos(at_ns),
        send_busy: SimTime::ZERO,
        seq: 0,
        payload,
    })
}

#[test]
fn scripted_wait_then_wake_answers_and_notifies() {
    let mut m = scripted_machine(2);
    let (group, _core) = m.create_group(0, Box::new(Idle), SimTime::ZERO);
    let uaddr = VAddr(0x4000);
    let mut sim = Simulator::new();
    // A remote waiter on kernel 1 parks at the home server...
    sim.schedule(
        SimTime::from_nanos(1_000),
        deliver(
            1_000,
            1,
            0,
            ProtoMsg::FutexReq {
                rpc: RpcId(1),
                origin: KernelId(1),
                group,
                tid: Tid(7),
                op: FutexOp::Wait { uaddr, expected: 0 },
            },
        ),
    );
    // ...and a second remote caller wakes it.
    sim.schedule(
        SimTime::from_nanos(50_000),
        deliver(
            50_000,
            1,
            0,
            ProtoMsg::FutexReq {
                rpc: RpcId(2),
                origin: KernelId(1),
                group,
                tid: Tid(8),
                op: FutexOp::Wake {
                    uaddr,
                    count: u32::MAX,
                },
            },
        ),
    );
    let _ = sim.run(&mut m);
    let futex = m.stats.proto.get(Protocol::Futex);
    // Out: FutexResp(Parked), FutexResp(Woken(1)), FutexWakeTask.
    assert_eq!(futex.msgs_out.get(), 3);
    // In: the two injected requests plus those three replies dispatched
    // back at kernel 1.
    assert_eq!(futex.msgs_in.get(), 5);
    // Both requests were serialized at the home futex server.
    assert_eq!(futex.service.count(), 2);
    // Everything the machine sent went through the shared fabric, and the
    // plain path charges nothing to the transport family.
    assert_eq!(m.fabric().total_sends(), 3);
    assert_eq!(m.stats.proto.get(Protocol::Transport).msgs_out.get(), 0);
}

#[test]
fn scripted_stale_wait_is_rejected_not_parked() {
    let mut m = scripted_machine(2);
    let (group, _core) = m.create_group(0, Box::new(Idle), SimTime::ZERO);
    let mut sim = Simulator::new();
    // The word holds 0 but the waiter expects 5: the server must answer
    // Mismatch immediately rather than park a waiter no wake will find.
    sim.schedule(
        SimTime::from_nanos(1_000),
        deliver(
            1_000,
            1,
            0,
            ProtoMsg::FutexReq {
                rpc: RpcId(1),
                origin: KernelId(1),
                group,
                tid: Tid(7),
                op: FutexOp::Wait {
                    uaddr: VAddr(0x4000),
                    expected: 5,
                },
            },
        ),
    );
    let _ = sim.run(&mut m);
    let futex = m.stats.proto.get(Protocol::Futex);
    assert_eq!(futex.msgs_out.get(), 1, "exactly one FutexResp(Mismatch)");
    assert_eq!(futex.msgs_in.get(), 2);
    assert_eq!(futex.service.count(), 1);
    assert_eq!(m.fabric().total_sends(), 1);
}

#[test]
fn scripted_rmw_requests_are_served_and_answered() {
    let mut m = scripted_machine(2);
    let (group, _core) = m.create_group(0, Box::new(Idle), SimTime::ZERO);
    let addr = VAddr(0x8000);
    let mut sim = Simulator::new();
    sim.schedule(
        SimTime::from_nanos(1_000),
        deliver(
            1_000,
            1,
            0,
            ProtoMsg::RmwReq {
                rpc: RpcId(1),
                origin: KernelId(1),
                group,
                addr,
                op: RmwOp::Add(5),
            },
        ),
    );
    sim.schedule(
        SimTime::from_nanos(2_000),
        deliver(
            2_000,
            1,
            0,
            ProtoMsg::RmwReq {
                rpc: RpcId(2),
                origin: KernelId(1),
                group,
                addr,
                op: RmwOp::Xchg(9),
            },
        ),
    );
    let _ = sim.run(&mut m);
    let futex = m.stats.proto.get(Protocol::Futex);
    assert_eq!(futex.msgs_out.get(), 2, "one RmwResp per request");
    assert_eq!(futex.msgs_in.get(), 4);
    assert_eq!(m.fabric().total_sends(), 2);
    // Responses landed at a kernel with no matching pending RPC (the test
    // never registered one), which must be ignored, not completed.
    assert_eq!(futex.rpcs_completed.get(), 0);
}
