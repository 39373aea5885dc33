//! Protocol-level tests for the VMA module (`machine/vma.rs`), driven by a
//! scripted fabric: hand-crafted protocol messages injected directly as
//! deliveries. They assert on the observable address-space state of the
//! kernels and the per-protocol accounting, independently of the syscall
//! layer (which `tests/protocols.rs` covers end to end).

use popcorn_core::machine::{PopEvent, PopcornMachine};
use popcorn_core::proto::{ProtoMsg, Protocol, VmaChange, VmaOp};
use popcorn_core::PopcornParams;
use popcorn_hw::{HwParams, Topology};
use popcorn_kernel::mm::Mm;
use popcorn_kernel::osmodel::{self, OsEvent, OsMachine};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Op, ProgEnv, Program, Resume};
use popcorn_kernel::types::{GroupId, Tid, VAddr};
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

/// A leader that never runs; it only exists so the group is registered.
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
fn scripted_map_at_home_installs_and_answers() {
    let mut m = scripted_machine(2);
    let (group, _core) = m.create_group(0, Box::new(Idle), SimTime::ZERO);
    let before = m.kernels()[0].mm(group).vmas().len();
    let mut sim = Simulator::new();
    // Kernel 1 asks the home to serialize an mmap on its behalf.
    sim.schedule(
        SimTime::from_nanos(1_000),
        deliver(
            1_000,
            1,
            0,
            ProtoMsg::VmaOpReq {
                rpc: RpcId(3),
                origin: KernelId(1),
                group,
                op: VmaOp::Map { len: 8192 },
            },
        ),
    );
    let _ = sim.run(&mut m);
    assert_eq!(
        m.kernels()[0].mm(group).vmas().len(),
        before + 1,
        "the home's authoritative layout gained the mapping"
    );
    let vma = m.stats.proto.get(Protocol::Vma);
    assert_eq!(vma.msgs_out.get(), 1, "one VmaOpDone back to kernel 1");
    assert_eq!(vma.msgs_in.get(), 2);
    assert_eq!(vma.service.count(), 1);
    assert_eq!(m.fabric().total_sends(), 1);
}

#[test]
fn scripted_vma_op_for_unknown_group_fails_cleanly() {
    let mut m = scripted_machine(2);
    // A real group pins down the home kernel's tid range; the doomed
    // request targets a neighbouring id that was never created (e.g. a
    // group already reaped while the request was in flight).
    let (group, _core) = m.create_group(0, Box::new(Idle), SimTime::ZERO);
    let GroupId(leader) = group;
    let dead = GroupId(Tid(leader.0 + 1));
    assert_eq!(dead.home(), KernelId(0), "same home as the live group");
    let mut sim = Simulator::new();
    sim.schedule(
        SimTime::from_nanos(1_000),
        deliver(
            1_000,
            1,
            0,
            ProtoMsg::VmaOpReq {
                rpc: RpcId(4),
                origin: KernelId(1),
                group: dead,
                op: VmaOp::Map { len: 4096 },
            },
        ),
    );
    let _ = sim.run(&mut m);
    let vma = m.stats.proto.get(Protocol::Vma);
    assert_eq!(vma.msgs_out.get(), 1, "ESRCH answer still goes out");
    assert_eq!(
        vma.service.count(),
        0,
        "a dead group's request is rejected before the serialized section"
    );
}

#[test]
fn scripted_replica_update_installs_then_unmaps_and_acks() {
    let mut m = scripted_machine(2);
    let (group, _core) = m.create_group(0, Box::new(Idle), SimTime::ZERO);
    // Kernel 1 already hosts a member of the group (empty replica).
    m.kernels_mut()[1].adopt_mm(Mm::new(group));
    // The home has a mapping the replica will mirror.
    let addr = m.kernels_mut()[0]
        .mm_mut(group)
        .map_anon(4096)
        .expect("map");
    let vma = *m.kernels()[0]
        .mm(group)
        .vma_covering(addr)
        .expect("just mapped");
    let home_vmas = m.kernels()[0].mm(group).vmas().len();
    let mut sim = Simulator::new();
    // A member lands on kernel 1, so the home tracks it as a replica and
    // every later unmap must run an ack barrier across it.
    sim.schedule(
        SimTime::from_nanos(1_000),
        deliver(
            1_000,
            1,
            0,
            ProtoMsg::MemberAt {
                group,
                tid: Tid(99),
                joined: true,
            },
        ),
    );
    // The home pushes the mapping to the replica (no ack needed for maps).
    sim.schedule(
        SimTime::from_nanos(1_500),
        deliver(
            1_500,
            0,
            1,
            ProtoMsg::VmaUpdate {
                group,
                change: VmaChange::Map(vma),
                ack: None,
            },
        ),
    );
    // Kernel 1 then asks the home to unmap: the home drops its own copy,
    // opens a barrier, and the replica must ack before the op completes.
    sim.schedule(
        SimTime::from_nanos(2_000),
        deliver(
            2_000,
            1,
            0,
            ProtoMsg::VmaOpReq {
                rpc: RpcId(9),
                origin: KernelId(1),
                group,
                op: VmaOp::Unmap { addr, len: 4096 },
            },
        ),
    );
    let _ = sim.run(&mut m);
    assert!(
        m.kernels()[1].mm(group).vmas().is_empty(),
        "replica installed the mapping and then dropped it"
    );
    assert_eq!(
        m.kernels()[0].mm(group).vmas().len(),
        home_vmas - 1,
        "the home's authoritative layout dropped the mapping too"
    );
    let vma_stats = m.stats.proto.get(Protocol::Vma);
    // Out: VmaUpdate(Unmap, ack) to the replica, its VmaUpdateAck back,
    // and the VmaOpDone answering kernel 1's request.
    assert_eq!(vma_stats.msgs_out.get(), 3);
    assert_eq!(m.fabric().total_sends(), 3);
    // In: the injected update and request plus those three on the wire
    // (MemberAt is charged to the group family, not vma).
    assert_eq!(vma_stats.msgs_in.get(), 5);
    // The answer reached a kernel with no matching pending RPC, which is
    // ignored — nothing completes.
    assert_eq!(vma_stats.rpcs_completed.get(), 0);
}

#[test]
fn scripted_vma_fetch_served_from_home_layout() {
    let mut m = scripted_machine(2);
    let (group, _core) = m.create_group(0, Box::new(Idle), SimTime::ZERO);
    // Give the home a mapping to serve.
    let addr = m.kernels_mut()[0]
        .mm_mut(group)
        .map_anon(4096)
        .expect("map");
    let mut sim = Simulator::new();
    // One fetch for a covered address, one for a hole in the layout.
    sim.schedule(
        SimTime::from_nanos(1_000),
        deliver(
            1_000,
            1,
            0,
            ProtoMsg::VmaFetchReq {
                rpc: RpcId(1),
                origin: KernelId(1),
                group,
                addr,
            },
        ),
    );
    sim.schedule(
        SimTime::from_nanos(2_000),
        deliver(
            2_000,
            1,
            0,
            ProtoMsg::VmaFetchReq {
                rpc: RpcId(2),
                origin: KernelId(1),
                group,
                addr: VAddr(0xDEAD_0000),
            },
        ),
    );
    let _ = sim.run(&mut m);
    let vma = m.stats.proto.get(Protocol::Vma);
    assert_eq!(
        vma.msgs_out.get(),
        2,
        "both fetches are answered, hit or miss"
    );
    assert_eq!(vma.service.count(), 2);
    assert_eq!(m.fabric().total_sends(), 2);
}
