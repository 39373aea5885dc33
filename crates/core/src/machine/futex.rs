//! Distributed futexes and remote sync-word RMWs.
//!
//! Each synchronization word is served at one kernel — the group's origin
//! (the paper's global futex server) or, under the first-touch extension,
//! whichever kernel used it first. Syscalls at the serving kernel take the
//! local fast path; everyone else runs a `FutexReq`/`RmwReq` RPC. Woken
//! waiters get a `FutexWakeTask`, posted (inline for a waiter parked at
//! the serving kernel itself).

use std::collections::BTreeMap;

use popcorn_hw::LockSite;
use popcorn_kernel::futex::Waiter;
use popcorn_kernel::policy::{Decision, PolicyView};
use popcorn_kernel::program::{FutexOp, Resume, RmwOp, SysResult};
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{Errno, GroupId, Tid, VAddr};
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::SimTime;

use crate::proto::{FutexOutcome, ProtoMsg, Protocol};

use super::{CoreId, KernelCtx, Pending};

/// A thread waiting on the futex server.
#[derive(Debug)]
pub enum FutexPending {
    /// Waiting for a futex server response.
    Futex {
        /// The calling thread.
        tid: Tid,
    },
    /// Waiting for a remote sync-word RMW.
    Rmw {
        /// The calling thread.
        tid: Tid,
    },
}

impl KernelCtx<'_, '_> {
    /// The kernel serving a synchronization word: the group's origin (the
    /// paper's global futex server) or, with the first-touch extension,
    /// whichever kernel used the word first.
    pub(super) fn sync_word_home(
        &mut self,
        group: GroupId,
        addr: VAddr,
        requester: KernelId,
    ) -> KernelId {
        if !self.params.sync_first_touch_homing {
            return self.home_of(group);
        }
        match self.groups.get_mut(&group) {
            Some(h) => *h.sync_home.entry(addr.0).or_insert(requester),
            None => requester,
        }
    }

    /// Acquires sync word `addr`'s contention site from `loc`, creating the
    /// site on first use; returns when the word is released.
    fn acquire_sync_site(
        &mut self,
        group: GroupId,
        addr: VAddr,
        loc: CoreId,
        at: SimTime,
    ) -> SimTime {
        let machine = self.machine;
        let new_site = || LockSite::new("syncword", machine.params());
        let site = match self.groups.get_mut(&group) {
            Some(h) => h.sync_sites.entry(addr.0).or_insert_with(new_site),
            None => &mut new_site(),
        };
        site.acquire(at, loc, SimTime::ZERO, machine.interconnect())
            .released_at
    }

    /// Serializes a request behind the group's futex server, recording the
    /// service time against the futex protocol.
    fn serve_futex(&mut self, group: GroupId, now: SimTime, cost: SimTime) -> SimTime {
        self.stats
            .proto
            .of(Protocol::Futex)
            .service
            .record_time(cost);
        self.serve(group, now, cost, |h| &mut h.servers().futex)
    }

    /// Serves a futex operation at the word's serving kernel `serve_ki`
    /// (the group origin, or the first-toucher under the extension);
    /// `caller` is where the syscall originated (possibly `serve_ki`).
    ///
    /// The third return is the wake-locality hint for the waker's policy:
    /// the kernel hosting the plurality of the waiters a `Wake` released,
    /// and how many were woken. Only computed under an active migration
    /// policy; always `None` (at zero cost) for `ScriptedOnly`.
    pub fn futex_at_home(
        &mut self,
        group: GroupId,
        op: FutexOp,
        caller: Waiter,
        serve_ki: usize,
        at: SimTime,
    ) -> (FutexOutcome, SimTime, Option<(KernelId, u32)>) {
        let serving = self.kid(serve_ki);
        let base = self.kernels[serve_ki].params().futex_base_ns;
        let extra = if caller.kernel == serving {
            0
        } else {
            self.params.futex_remote_service_ns
        };
        let done = self.serve_futex(group, at, SimTime::from_nanos(base + extra));
        match op {
            FutexOp::Wait { uaddr, expected } => {
                if self.futex.wait_if(group, uaddr, expected, caller) {
                    (FutexOutcome::Parked, done, None)
                } else {
                    (FutexOutcome::Mismatch, done, None)
                }
            }
            FutexOp::Wake { uaddr, count } => {
                let woken = self.futex.wake(group, uaddr, count);
                let n = woken.len() as u64;
                let hint = if self.policy_active() {
                    Self::wake_majority(&woken)
                } else {
                    None
                };
                let wakeup = SimTime::from_nanos(self.kernels[serve_ki].params().wakeup_ns);
                let mut t = done;
                for w in woken {
                    t += wakeup;
                    self.post(
                        t,
                        serve_ki,
                        w.kernel,
                        ProtoMsg::FutexWakeTask { group, tid: w.tid },
                    );
                }
                (FutexOutcome::Woken(n), t, hint)
            }
        }
    }

    /// The kernel hosting the plurality of `woken` waiters (ties broken
    /// toward the lowest kernel id for determinism), with the woken count.
    fn wake_majority(woken: &[Waiter]) -> Option<(KernelId, u32)> {
        if woken.is_empty() {
            return None;
        }
        let mut by_kernel: BTreeMap<u16, u32> = BTreeMap::new();
        for w in woken {
            *by_kernel.entry(w.kernel.0).or_insert(0) += 1;
        }
        let (&k, _) = by_kernel
            .iter()
            .max_by_key(|&(&k, &c)| (c, std::cmp::Reverse(k)))?;
        Some((KernelId(k), woken.len() as u32))
    }

    /// The futex syscall: local fast path at the word's serving kernel,
    /// RPC to it from everywhere else.
    pub(super) fn futex_syscall(
        &mut self,
        ki: usize,
        core: CoreId,
        tid: Tid,
        group: GroupId,
        op: FutexOp,
        at: SimTime,
    ) {
        let me = self.kid(ki);
        let caller = Waiter { kernel: me, tid };
        let word = match op {
            FutexOp::Wait { uaddr, .. } | FutexOp::Wake { uaddr, .. } => uaddr,
        };
        let word_home = self.sync_word_home(group, word, me);
        if me == word_home {
            self.stats.futex_local.incr();
            let (outcome, done, hint) = self.futex_at_home(group, op, caller, ki, at);
            match outcome {
                FutexOutcome::Parked => {
                    let uaddr = match op {
                        FutexOp::Wait { uaddr, .. } => uaddr,
                        FutexOp::Wake { .. } => unreachable!("wake cannot park"),
                    };
                    let c = self.kernels[ki].block_current(tid, BlockReason::Futex(uaddr), done);
                    self.kick(ki, c, done);
                }
                FutexOutcome::Mismatch => {
                    self.kernels[ki].finish_syscall(tid, SysResult::Err(Errno::Again), done);
                    self.kick(ki, core, done);
                }
                FutexOutcome::Woken(n) => {
                    // Wake-locality chase: the waker is still in its futex
                    // syscall, so it can migrate toward the waiters it
                    // just woke, carrying the syscall's result with it.
                    if self.chase_wake(ki, tid, hint, n, done) {
                        return;
                    }
                    self.kernels[ki].finish_syscall(tid, SysResult::Val(n), done);
                    self.kick(ki, core, done);
                }
            }
        } else {
            self.stats.futex_remote.incr();
            let rpc = self.register_rpc(
                ki,
                Pending::Futex(FutexPending::Futex { tid }),
                at,
                word_home,
            );
            let reason = match op {
                FutexOp::Wait { uaddr, .. } => BlockReason::Futex(uaddr),
                FutexOp::Wake { .. } => BlockReason::Remote("futex"),
            };
            let c = self.kernels[ki].block_current(tid, reason, at);
            self.kick(ki, c, at);
            self.send(
                at,
                ki,
                word_home,
                ProtoMsg::FutexReq {
                    rpc,
                    origin: me,
                    group,
                    tid,
                    op,
                },
            );
        }
    }

    /// The sync-word (RMW) hook: lock-site fast path at the serving
    /// kernel, RPC from everywhere else.
    pub fn sync_op(
        &mut self,
        ki: usize,
        core: CoreId,
        tid: Tid,
        addr: VAddr,
        op: RmwOp,
        at: SimTime,
    ) {
        self.note_activity(at);
        let me = self.kid(ki);
        let group = self.group_of(ki, tid);
        let home = self.sync_word_home(group, addr, me);
        if me == home && self.params.futex_local_fastpath {
            self.stats.rmw_local.incr();
            let released = self.acquire_sync_site(group, addr, core, at);
            let old = self.futex.rmw(group, addr, op);
            self.kernels[ki].finish_sync_op(tid, old, released);
            self.kick(ki, core, released);
        } else if me == home {
            // Ablation: fast path disabled — even home-local ops pay the
            // RPC-shaped service cost, serialized at the futex server.
            self.stats.rmw_remote.incr();
            let extra = SimTime::from_nanos(self.params.futex_remote_service_ns);
            let svc = self.machine.params().atomic_op() + extra + extra;
            let done = self.serve_futex(group, at, svc);
            let old = self.futex.rmw(group, addr, op);
            self.kernels[ki].finish_sync_op(tid, old, done);
            self.kick(ki, core, done);
        } else {
            self.stats.rmw_remote.incr();
            let rpc = self.register_rpc(ki, Pending::Futex(FutexPending::Rmw { tid }), at, home);
            let c = self.kernels[ki].block_current(tid, BlockReason::Remote("rmw"), at);
            self.kick(ki, c, at);
            self.send(
                at,
                ki,
                home,
                ProtoMsg::RmwReq {
                    rpc,
                    origin: me,
                    group,
                    addr,
                    op,
                },
            );
        }
    }

    /// `FutexReq` at the serving kernel: run the operation and answer.
    pub(super) fn on_futex_req(
        &mut self,
        ki: usize,
        rpc: RpcId,
        origin: KernelId,
        group: GroupId,
        tid: Tid,
        op: FutexOp,
        now: SimTime,
    ) {
        let caller = Waiter {
            kernel: origin,
            tid,
        };
        let (outcome, done, hint) = self.futex_at_home(group, op, caller, ki, now);
        self.send(done, ki, origin, ProtoMsg::FutexResp { rpc, outcome, hint });
    }

    /// `FutexResp` at the caller: wake (or keep parked) accordingly.
    pub(super) fn on_futex_resp(
        &mut self,
        ki: usize,
        rpc: RpcId,
        outcome: FutexOutcome,
        hint: Option<(KernelId, u32)>,
        now: SimTime,
    ) {
        if let Some(Pending::Futex(FutexPending::Futex { tid })) = self.complete_rpc(ki, rpc) {
            match outcome {
                FutexOutcome::Parked => {} // stays asleep until FutexWakeTask
                FutexOutcome::Mismatch => {
                    self.wake_with(ki, tid, SysResult::Err(Errno::Again), now);
                }
                FutexOutcome::Woken(n) => {
                    // A remote waker is parked `Blocked(Remote)`; a chase
                    // moves it from there, carrying `Val(n)` as its
                    // in-flight resume so it returns from the syscall at
                    // the destination.
                    if self.chase_wake(ki, tid, hint, n, now) {
                        return;
                    }
                    self.wake_with(ki, tid, SysResult::Val(n), now);
                }
            }
        }
    }

    /// Runs the policy's wake-locality hook for a waker that just woke
    /// `n` waiters; migrates the waker toward them when the policy says
    /// so. Returns whether the waker was migrated (the caller must then
    /// not resume it locally).
    fn chase_wake(
        &mut self,
        ki: usize,
        tid: Tid,
        hint: Option<(KernelId, u32)>,
        n: u64,
        at: SimTime,
    ) -> bool {
        let Some((majority, woken)) = hint else {
            return false;
        };
        if !self.policy_active() || !self.task_alive(ki, tid) {
            return false;
        }
        let me = self.kid(ki);
        if majority == me {
            return false;
        }
        let loads = self.policy_view(ki, at);
        let view = PolicyView {
            me,
            now: at,
            loads: &loads,
        };
        let Decision::Migrate(target) = self.policy.wake_locality(&view, majority, woken) else {
            return false;
        };
        if target == me {
            return false;
        }
        // The waker returns from its futex syscall at the destination,
        // whether it is still on its core or parked awaiting the remote
        // server's response.
        if let Some(task) = self.kernels[ki].task_mut(tid) {
            task.resume = Resume::Sys(SysResult::Val(n));
        }
        let moved = self.migrate_out(ki, tid, target, true, at);
        if moved {
            self.stats.wake_chases.incr();
        }
        moved
    }

    /// `RmwReq` at the serving kernel: acquire the word's contention site,
    /// apply the RMW, answer with the old value.
    pub(super) fn on_rmw_req(
        &mut self,
        to: KernelId,
        ki: usize,
        rpc: RpcId,
        origin: KernelId,
        group: GroupId,
        addr: VAddr,
        op: RmwOp,
        now: SimTime,
    ) {
        let loc = self.net.fabric().location(to);
        let released = self.acquire_sync_site(group, addr, loc, now);
        let extra = SimTime::from_nanos(self.params.futex_remote_service_ns);
        let old = self.futex.rmw(group, addr, op);
        self.send(released + extra, ki, origin, ProtoMsg::RmwResp { rpc, old });
    }

    /// `RmwResp` at the caller: resume with the old value.
    pub(super) fn on_rmw_resp(&mut self, ki: usize, rpc: RpcId, old: u64, now: SimTime) {
        if let Some(Pending::Futex(FutexPending::Rmw { tid })) = self.complete_rpc(ki, rpc) {
            self.wake_live(ki, tid, Some(Resume::Value(old)), now);
        }
    }
}
