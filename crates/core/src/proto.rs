//! The inter-kernel protocol messages of the replicated-kernel OS.
//!
//! Every cross-kernel interaction in the paper flows through these
//! messages: thread migration, remote thread creation, VMA replication,
//! page consistency, distributed futexes, and group exit. Message sizes
//! ([`Wire`]) drive the fabric's transmit-time model; a page transfer
//! always costs a full 4 KiB on the wire regardless of how sparse its
//! simulated contents are, matching the real system.

use popcorn_kernel::kernel::ThreadImage;
use popcorn_kernel::mm::{PageContents, PageState, Vma};
use popcorn_kernel::policy::KernelLoad;
use popcorn_kernel::program::{FutexOp, Program, RmwOp};
use popcorn_kernel::types::{Errno, GroupId, PageNo, Tid, VAddr};
use popcorn_msg::{KernelId, RpcId, Wire};
use popcorn_sim::SimTime;

/// The protocol family a message (or parked RPC) belongs to, mirroring the
/// `machine/` module tree. Used to attribute per-protocol traffic and
/// service-time statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Protocol {
    /// Context migration (`TaskMigrate`).
    Migrate,
    /// Thread-group membership, creation and exit.
    Group,
    /// VMA replication and on-demand retrieval.
    Vma,
    /// Page-coherence (directory) protocol.
    Page,
    /// Distributed futex and sync-word RMW.
    Futex,
    /// Reliability-layer overhead (acks, retransmissions, timers).
    Transport,
}

impl Protocol {
    /// All families, in display order.
    pub const ALL: [Protocol; 6] = [
        Protocol::Migrate,
        Protocol::Group,
        Protocol::Vma,
        Protocol::Page,
        Protocol::Futex,
        Protocol::Transport,
    ];

    /// Stable lowercase name for metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Migrate => "migrate",
            Protocol::Group => "group",
            Protocol::Vma => "vma",
            Protocol::Page => "page",
            Protocol::Futex => "futex",
            Protocol::Transport => "transport",
        }
    }
}

/// A VMA operation requested of the home kernel (the group-wide
/// serialization point for address-space layout changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaOp {
    /// Map `len` bytes of anonymous memory.
    Map {
        /// Requested length in bytes.
        len: u64,
    },
    /// Unmap an exact previously mapped range.
    Unmap {
        /// Start address.
        addr: VAddr,
        /// Length in bytes.
        len: u64,
    },
    /// Grow the heap.
    Brk {
        /// Bytes to extend by.
        grow: u64,
    },
}

/// A layout change pushed from the home kernel to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaChange {
    /// A new mapping (or heap growth expressed as its covering VMA).
    Map(Vma),
    /// A removed range; replicas drop covered VMAs and resident pages.
    Unmap {
        /// Start address.
        addr: VAddr,
        /// Length in bytes.
        len: u64,
    },
}

/// What the home futex server did with a forwarded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FutexOutcome {
    /// Wait accepted: the caller stays asleep until a
    /// [`ProtoMsg::FutexWakeTask`] arrives.
    Parked,
    /// Wait rejected: the word no longer holds the expected value
    /// (`EAGAIN` to the caller).
    Mismatch,
    /// Wake completed; this many waiters were woken.
    Woken(u64),
}

/// A migrating thread: its image (program state, context, accounting,
/// resume value and parked op) and where it belongs. Boxed inside
/// [`ProtoMsg::TaskMigrate`] — see the enum docs for why.
#[derive(Debug)]
pub struct TaskMigrateMsg {
    /// The thread.
    pub tid: Tid,
    /// Its group.
    pub group: GroupId,
    /// The thread as extracted at the origin.
    pub thread: ThreadImage,
    /// When the move started (latency measurement).
    pub started: SimTime,
    /// VMAs pushed eagerly (ablation; empty = on-demand retrieval).
    pub vmas: Vec<Vma>,
    /// The thread called `migrate`: it resumes with the syscall's result
    /// (success at the destination, `EIO` if the move is abandoned). A
    /// policy move shifts a thread that never asked, so it resumes with
    /// its own value from `thread`, verbatim.
    pub scripted: bool,
}

/// The protocol message set.
///
/// The enum's size is the size of its largest variant, and every message
/// is moved through the event queue inside an `OsEvent` — so one fat
/// variant taxes every push and pop of *every* event with its full-width
/// copy. The migration payload (register file + accounting, ~200 bytes) is
/// therefore boxed: migrations are orders of magnitude rarer than the
/// core-run and page-protocol events whose copies they would inflate.
/// (`wire_size` models the on-the-wire bytes independently of the host
/// representation, so boxing changes no simulated cost.)
#[derive(Debug)]
pub enum ProtoMsg {
    /// A migrating thread: context, program state, accounting.
    TaskMigrate(Box<TaskMigrateMsg>),
    /// Membership/location update to the home kernel: `tid` now runs on
    /// the sending kernel (sent on clone arrival and migration arrival).
    MemberAt {
        /// The group.
        group: GroupId,
        /// The member.
        tid: Tid,
        /// Whether this is a brand-new member (clone) vs a move (migration).
        joined: bool,
    },

    /// Remote thread creation request (distributed thread group creation).
    CloneReq {
        /// Correlation id at the origin.
        rpc: RpcId,
        /// Requesting kernel (for the response).
        origin: KernelId,
        /// The group the child joins.
        group: GroupId,
        /// The child's program.
        child: Box<dyn Program>,
        /// VMAs pushed eagerly (ablation; empty = on-demand retrieval).
        vmas: Vec<Vma>,
    },
    /// Remote thread creation response.
    CloneResp {
        /// Correlation id.
        rpc: RpcId,
        /// The new thread's id (allocated by the target kernel).
        tid: Tid,
    },

    /// VMA operation request to the home kernel.
    VmaOpReq {
        /// Correlation id at the origin.
        rpc: RpcId,
        /// Requesting kernel.
        origin: KernelId,
        /// The group.
        group: GroupId,
        /// The operation.
        op: VmaOp,
    },
    /// VMA operation completion (home → origin).
    VmaOpDone {
        /// Correlation id.
        rpc: RpcId,
        /// mmap: address; brk: old break; unmap: 0.
        result: Result<u64, Errno>,
    },
    /// Layout change pushed to a replica.
    VmaUpdate {
        /// The group.
        group: GroupId,
        /// The change.
        change: VmaChange,
        /// Ack token (unmap waits for replica acknowledgements).
        ack: Option<u64>,
    },
    /// Replica acknowledgement of an unmap update.
    VmaUpdateAck {
        /// The group.
        group: GroupId,
        /// Token from the update.
        token: u64,
    },
    /// On-demand VMA retrieval (fault on an address with no local VMA).
    VmaFetchReq {
        /// Correlation id at the origin.
        rpc: RpcId,
        /// Requesting kernel.
        origin: KernelId,
        /// The group.
        group: GroupId,
        /// Faulting address.
        addr: VAddr,
    },
    /// VMA retrieval response (`None` = genuine segfault).
    VmaFetchResp {
        /// Correlation id.
        rpc: RpcId,
        /// The covering VMA at the home kernel, if any.
        vma: Option<Vma>,
    },

    /// Page fault request to the home kernel's directory.
    PageReq {
        /// Correlation id at the origin.
        rpc: RpcId,
        /// Faulting kernel.
        origin: KernelId,
        /// The group.
        group: GroupId,
        /// The page.
        page: PageNo,
        /// Write access required.
        write: bool,
    },
    /// Home asks the current owner for a copy (read fault; owner
    /// downgrades to read-shared).
    PageFetch {
        /// The group.
        group: GroupId,
        /// The page.
        page: PageNo,
    },
    /// Owner's copy back to the home kernel.
    PageFetched {
        /// The group.
        group: GroupId,
        /// The page.
        page: PageNo,
        /// The data.
        contents: PageContents,
    },
    /// Home tells a holder to drop its copy (write fault elsewhere).
    PageInval {
        /// The group.
        group: GroupId,
        /// The page.
        page: PageNo,
    },
    /// Holder's acknowledgement; the owner attaches the data.
    PageInvalAck {
        /// The group.
        group: GroupId,
        /// The page.
        page: PageNo,
        /// Data, from the previous owner only.
        contents: Option<PageContents>,
    },
    /// The grant completing a page fault.
    PageGrant {
        /// Correlation id.
        rpc: RpcId,
        /// The group.
        group: GroupId,
        /// The page.
        page: PageNo,
        /// Granted local state.
        state: PageState,
        /// Version to record locally.
        version: u64,
        /// Data (`None` = zero-fill grant or ownership upgrade in place).
        contents: Option<PageContents>,
    },
    /// Requester confirms installation; home unblocks queued requests.
    PageDone {
        /// The group.
        group: GroupId,
        /// The page.
        page: PageNo,
    },

    /// Per-page page-table update pushed by the serving home to every
    /// page-table replica holder (page-table replication on). Carries the
    /// new directory version so holders' shadows converge; applied
    /// monotonically at the receiver (a retransmission-reordered stale
    /// push is ignored).
    PtReplicaUpdate {
        /// The group.
        group: GroupId,
        /// The re-mapped page.
        page: PageNo,
        /// Its new directory version.
        version: u64,
    },
    /// A kernel asks the group's home for a page-table replica (the
    /// replica-aware policy's "replicate toward the threads" arm).
    PtReplicaReq {
        /// The requesting kernel.
        origin: KernelId,
        /// The group whose tables to replicate.
        group: GroupId,
    },
    /// Home's bulk answer: the full page→version map, installed as the
    /// requester's initial shadow (the requester pays a per-page install
    /// cost on receipt).
    PtReplicaGrant {
        /// The group.
        group: GroupId,
        /// Every page the directory currently tracks, with its version.
        pages: Vec<(PageNo, u64)>,
    },

    /// Futex operation forwarded to the group's home (futex server).
    FutexReq {
        /// Correlation id at the origin.
        rpc: RpcId,
        /// Requesting kernel.
        origin: KernelId,
        /// The group.
        group: GroupId,
        /// The calling thread (parked on a wait).
        tid: Tid,
        /// The operation.
        op: FutexOp,
    },
    /// Futex response.
    FutexResp {
        /// Correlation id.
        rpc: RpcId,
        /// What the server did.
        outcome: FutexOutcome,
        /// Wake-locality hint: the kernel hosting the plurality of the
        /// waiters this wake released, and how many were woken. Only
        /// populated when a migration policy is active; `ScriptedOnly`
        /// runs never compute it.
        hint: Option<(KernelId, u32)>,
    },
    /// Home wakes a parked remote waiter.
    FutexWakeTask {
        /// The group.
        group: GroupId,
        /// The sleeping thread.
        tid: Tid,
    },
    /// Atomic RMW on a sync word, forwarded to the home.
    RmwReq {
        /// Correlation id at the origin.
        rpc: RpcId,
        /// Requesting kernel.
        origin: KernelId,
        /// The group.
        group: GroupId,
        /// Word address.
        addr: VAddr,
        /// The operation.
        op: RmwOp,
    },
    /// RMW response: the old value.
    RmwResp {
        /// Correlation id.
        rpc: RpcId,
        /// Value before the op.
        old: u64,
    },

    /// A member exited (kernel → home accounting).
    TaskExited {
        /// The group.
        group: GroupId,
        /// The member.
        tid: Tid,
    },
    /// A kernel killed its members of an exiting group (the `exit_group`
    /// caller's kernel, or one answering a `GroupKill`) and reports them
    /// to the home. The first report to reach the home starts the exit
    /// there; every report retires its killed members, and the last one
    /// awaited reaps the group.
    GroupExitReq {
        /// The group.
        group: GroupId,
        /// Exit status.
        code: i32,
        /// Members the sender killed (shadows excluded).
        killed: Vec<Tid>,
    },
    /// Home orders a kernel to kill its local members; the kernel answers
    /// with a `GroupExitReq`.
    GroupKill {
        /// The group.
        group: GroupId,
        /// Exit status.
        code: i32,
    },
    /// Home orders replicas to drop all remaining group state.
    GroupReap {
        /// The group.
        group: GroupId,
    },

    /// Self-addressed telemetry/policy timer: publish this kernel's load
    /// snapshot, disseminate it, and run the policy's periodic hooks.
    /// Never crosses the fabric; never scheduled under `ScriptedOnly`.
    PolicyTick,
    /// One kernel's load snapshot, forwarded to a peer — the modeled
    /// fabric cost of telemetry dissemination (the snapshot itself also
    /// piggybacks on regular traffic at no extra cost).
    LoadReport {
        /// The sender's snapshot.
        load: KernelLoad,
    },
    /// A work-stealing policy's pull request: the idle `thief` asks this
    /// kernel for one queued thread. Advisory — the victim re-checks its
    /// own load before granting, so stale telemetry (or an injected
    /// duplicate) cannot over-drain it.
    StealReq {
        /// The idle kernel asking for work.
        thief: KernelId,
    },

    /// An injected duplicate's arrival: the fabric header of a delivered
    /// message (its sequence number included) with no payload. The
    /// original always arrives first on the same FIFO channel, so the
    /// receiver only counts and discards it; messages carrying a live
    /// program (`TaskMigrate`, `CloneReq`) get no duplicate at all.
    Duplicate,
    /// Receiver acknowledgement of one sequenced message. Functionally
    /// inert (the simulated sender observes delivery directly) but sent —
    /// and itself subject to fault injection — so the reliability layer's
    /// bandwidth/latency overhead is modelled honestly.
    ChanAck {
        /// The acknowledged sequence number.
        seq: u32,
    },
    /// Self-addressed timer: retransmit the buffered message under
    /// `token`. Never crosses the fabric.
    RetxTimer {
        /// Retransmit-buffer key at the scheduling kernel.
        token: u64,
    },
    /// Self-addressed timer: if `rpc` is still pending when this fires,
    /// complete it with a failure. Never crosses the fabric.
    RpcDeadline {
        /// The request to check.
        rpc: RpcId,
    },
    /// Self-addressed crash-detection timer, scheduled at load time for
    /// every scripted crash × surviving kernel at `crash.at +
    /// crash_detect_ns` (the modeled ack-silence window). When it fires the
    /// kernel declares `victim` dead, advances its membership epoch, and
    /// runs recovery for every group it is (now) responsible for. Never
    /// crosses the fabric.
    CrashDetect {
        /// The kernel to declare dead.
        victim: KernelId,
    },
    /// Home's negative reply to a [`ProtoMsg::PageReq`]: the page's only
    /// copy died with a crashed kernel, so the fault cannot be served. The
    /// requester fails the faulting threads with an explicit error instead
    /// of silently resurrecting a zero page.
    PageNack {
        /// The request being answered.
        rpc: RpcId,
        /// The faulting group.
        group: GroupId,
        /// The unrecoverable page.
        page: PageNo,
    },
    /// Crash recovery's robust-futex sweep waking a remote survivor: the
    /// waiter's wait is completed with `EOWNERDEAD` (programs treat it as a
    /// spurious wake and revalidate the word).
    FutexWakeErr {
        /// The swept group.
        group: GroupId,
        /// The waiter to wake with the error.
        tid: Tid,
    },
}

impl ProtoMsg {
    /// The protocol family handling this message.
    pub fn protocol(&self) -> Protocol {
        use ProtoMsg::*;
        match self {
            TaskMigrate(_) | StealReq { .. } => Protocol::Migrate,
            MemberAt { .. }
            | CloneReq { .. }
            | CloneResp { .. }
            | TaskExited { .. }
            | GroupExitReq { .. }
            | GroupKill { .. }
            | GroupReap { .. } => Protocol::Group,
            VmaOpReq { .. }
            | VmaOpDone { .. }
            | VmaUpdate { .. }
            | VmaUpdateAck { .. }
            | VmaFetchReq { .. }
            | VmaFetchResp { .. } => Protocol::Vma,
            PageReq { .. }
            | PageFetch { .. }
            | PageFetched { .. }
            | PageInval { .. }
            | PageInvalAck { .. }
            | PageGrant { .. }
            | PageDone { .. }
            | PageNack { .. }
            | PtReplicaUpdate { .. }
            | PtReplicaReq { .. }
            | PtReplicaGrant { .. } => Protocol::Page,
            FutexReq { .. }
            | FutexResp { .. }
            | FutexWakeTask { .. }
            | RmwReq { .. }
            | RmwResp { .. }
            | FutexWakeErr { .. } => Protocol::Futex,
            ChanAck { .. }
            | Duplicate
            | RetxTimer { .. }
            | RpcDeadline { .. }
            | PolicyTick
            | CrashDetect { .. }
            | LoadReport { .. } => Protocol::Transport,
        }
    }
}

/// Fixed header bytes per protocol message.
const HDR: usize = 48;
/// Bytes of a full page on the wire.
const PAGE_BYTES: usize = 4096;
/// Bytes per VMA descriptor.
const VMA_BYTES: usize = 24;

fn contents_bytes(c: &Option<PageContents>) -> usize {
    match c {
        Some(_) => PAGE_BYTES,
        None => 0,
    }
}

impl Wire for ProtoMsg {
    fn wire_size(&self) -> usize {
        match self {
            ProtoMsg::TaskMigrate(m) => {
                let t = &m.thread;
                HDR + t.ctx.wire_size() + t.program.migration_payload() + m.vmas.len() * VMA_BYTES
            }
            ProtoMsg::CloneReq { vmas, .. } => HDR + 208 + vmas.len() * VMA_BYTES,
            ProtoMsg::PageFetched { .. } => HDR + PAGE_BYTES,
            ProtoMsg::PageInvalAck { contents, .. } => HDR + contents_bytes(contents),
            ProtoMsg::PageGrant { contents, .. } => HDR + contents_bytes(contents),
            ProtoMsg::VmaFetchResp { vma, .. } => HDR + vma.map_or(0, |_| VMA_BYTES),
            ProtoMsg::VmaUpdate { .. } => HDR + VMA_BYTES,
            ProtoMsg::GroupExitReq { killed, .. } => HDR + killed.len() * 8,
            // Bulk shadow install: (page, version) pairs.
            ProtoMsg::PtReplicaGrant { pages, .. } => HDR + pages.len() * 8,
            // Telemetry snapshot: four counters plus two rates.
            ProtoMsg::LoadReport { .. } => HDR + 32,
            // Small fixed-size control messages.
            _ => HDR + 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_kernel::program::{Op, ProgEnv, Resume};
    use popcorn_kernel::task::TaskStats;
    use popcorn_kernel::types::CpuContext;

    #[derive(Debug)]
    struct Nop;
    impl Program for Nop {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            Op::Exit(0)
        }
    }

    #[test]
    fn page_bearing_messages_cost_a_full_page() {
        let grant_with = ProtoMsg::PageGrant {
            rpc: RpcId(1),
            group: GroupId(Tid::new(KernelId(0), 1)),
            page: PageNo(1),
            state: PageState::Exclusive,
            version: 1,
            contents: Some(PageContents::default()),
        };
        let grant_without = ProtoMsg::PageGrant {
            rpc: RpcId(1),
            group: GroupId(Tid::new(KernelId(0), 1)),
            page: PageNo(1),
            state: PageState::Exclusive,
            version: 1,
            contents: None,
        };
        assert_eq!(grant_with.wire_size() - grant_without.wire_size(), 4096);
    }

    #[test]
    fn migration_message_scales_with_context_and_payload() {
        let migrate = |ctx: CpuContext, vmas: Vec<Vma>| {
            ProtoMsg::TaskMigrate(Box::new(TaskMigrateMsg {
                tid: Tid::new(KernelId(0), 1),
                group: GroupId(Tid::new(KernelId(0), 1)),
                thread: ThreadImage {
                    program: Box::new(Nop),
                    ctx,
                    stats: TaskStats::default(),
                    resume: Resume::Start,
                    pending: None,
                },
                started: SimTime::ZERO,
                vmas,
                scripted: true,
            }))
        };
        let lean = migrate(CpuContext::default(), vec![]);
        let fpu_ctx = CpuContext {
            fpu_used: true,
            ..CpuContext::default()
        };
        let vma = Vma {
            start: VAddr(0x7f00_0000_0000),
            len: 4096,
        };
        let heavy = migrate(fpu_ctx, vec![vma; 3]);
        assert_eq!(heavy.wire_size() - lean.wire_size(), 512 + 3 * 24);
    }

    #[test]
    fn control_messages_are_small() {
        let m = ProtoMsg::PageDone {
            group: GroupId(Tid::new(KernelId(0), 1)),
            page: PageNo(5),
        };
        assert!(m.wire_size() <= 128);
    }
}
