//! Transport glue: the OS-model side of the shared reliable-delivery
//! substrate ([`popcorn_msg::ReliableFabric`] / [`popcorn_msg::RpcTable`]).
//!
//! The substrate decides *what* happens to a send (deliver, retransmit
//! backoff, abandonment) and returns a [`SendPlan`]; this module
//! maps each plan onto scheduler events, runs the self-addressed timers
//! (retransmits, RPC deadlines), performs receive-side duplicate
//! suppression plus channel acks, and unwinds sender state for traffic
//! that can never be delivered. Retransmissions and acks are charged to
//! [`Protocol::Transport`], so per-family `msgs_out` totals sum to the
//! fabric's send count.
//!
//! Two unwinds live here, each the only one of its kind: every payload
//! that cannot be delivered (abandoned after its last retransmit, frozen
//! at a crashed kernel's door, or orphaned toward a dead kernel) goes
//! through `fail_undeliverable`, and every RPC that will never complete
//! (deadline, abandoned request, crash failover, lost page) through
//! `fail_pending`, with the errno its caller sees.

use popcorn_kernel::osmodel::OsEvent;
use popcorn_kernel::program::SysResult;
use popcorn_kernel::types::{Errno, Tid};
use popcorn_msg::{Delivery, KernelId, RpcId, SendOutcome, SendPlan};
use popcorn_sim::SimTime;

use crate::proto::{ProtoMsg, Protocol};

use super::{futex::FutexPending, vma::VmaPending, KernelCtx, Pending, PopMsg};

impl KernelCtx<'_, '_> {
    /// Sends a protocol message from kernel `from`, charging it to its
    /// protocol family and applying whatever the reliability substrate
    /// decides.
    pub fn send(&mut self, at: SimTime, from: usize, to: KernelId, msg: ProtoMsg) {
        let at = at.max(self.sched.now());
        // Telemetry piggybacks on regular traffic: any send refreshes the
        // sender's instantaneous load fields for free. Gated so the
        // default `ScriptedOnly` configuration does no work here at all.
        if self.policy_active() && !matches!(msg, ProtoMsg::LoadReport { .. }) {
            self.piggyback_load(from);
        }
        let family = msg.protocol();
        self.stats.proto.of(family).msgs_out.incr();
        let kid = self.kid(from);
        // Attribute crash drops (sends into a dead kernel) to the family
        // that suffered them; the fabric only knows the aggregate.
        let faults = self.net.fabric().faults_active();
        let before = if faults {
            self.net.fabric().fault_counters().crash_drops
        } else {
            0
        };
        let plan = self.net.send(at, kid, to, msg);
        if faults {
            let after = self.net.fabric().fault_counters().crash_drops;
            self.stats.proto.of(family).crash_drops.add(after - before);
        }
        self.apply_plan(from, at, plan);
    }

    /// Maps a [`SendPlan`] onto scheduler events and statistics. `from` is
    /// the sending kernel (where a retransmit timer must fire).
    pub(super) fn apply_plan(&mut self, from: usize, at: SimTime, plan: SendPlan<ProtoMsg>) {
        match plan {
            SendPlan::Deliver {
                delivery,
                duplicate_at,
            } => self.schedule_delivery(delivery, duplicate_at),
            SendPlan::Backoff {
                token,
                fire_at,
                backoff,
            } => {
                self.stats.retx_backoff_ns.add(backoff.as_nanos());
                self.schedule_self(from, fire_at, ProtoMsg::RetxTimer { token });
            }
            SendPlan::Abandoned { to, payload, .. } => {
                self.stats.msgs_abandoned.incr();
                self.fail_undeliverable(from, to, payload, at);
            }
        }
    }

    /// Schedules a fabric delivery — and, when the fault injector produced
    /// one, its duplicate — as receive events. The duplicate is a
    /// [`ProtoMsg::Duplicate`] arrival carrying only the header; messages
    /// carrying a live program get none (a duplicated thread would be a
    /// correctness bug, not an overhead model).
    pub(super) fn schedule_delivery(
        &mut self,
        delivery: Delivery<ProtoMsg>,
        duplicate_at: Option<SimTime>,
    ) {
        let carries_program = matches!(
            delivery.payload,
            ProtoMsg::TaskMigrate(_) | ProtoMsg::CloneReq { .. }
        );
        if let Some(dup_at) = duplicate_at.filter(|_| !carries_program) {
            self.sched.at(
                dup_at,
                OsEvent::Custom(Delivery {
                    deliver_at: dup_at,
                    payload: ProtoMsg::Duplicate,
                    ..delivery
                }),
            );
        }
        self.sched
            .at(delivery.deliver_at, OsEvent::Custom(delivery));
    }

    /// Schedules a kernel-local timer as a self-addressed event; it never
    /// touches the fabric (no cost, no fault exposure).
    pub(super) fn schedule_self(&mut self, ki: usize, at: SimTime, payload: ProtoMsg) {
        let local = Delivery::local(self.kid(ki), at, payload);
        self.sched.at(at, OsEvent::Custom(local));
    }

    /// Registers a pending RPC at kernel `ki`'s RPC table, charging the
    /// issue to its protocol family. Under active fault injection a
    /// response-deadline timer is scheduled, so a lost conversation fails
    /// its caller cleanly instead of wedging it.
    pub(super) fn register_rpc(
        &mut self,
        ki: usize,
        pending: Pending,
        at: SimTime,
        dest: KernelId,
    ) -> RpcId {
        self.stats.proto.of(pending.protocol()).rpcs_issued.incr();
        let rpc = self.rpcs[ki].register(pending);
        if !self.net.is_reliable() {
            return rpc;
        }
        let deadline = at + SimTime::from_nanos(self.params.rpc_deadline_ns);
        self.schedule_self(ki, deadline, ProtoMsg::RpcDeadline { rpc });
        // Under planned crashes, remember who each conversation is with so
        // detection can fail over exactly the ones aimed at the victim.
        if self.recovery.scheduled {
            self.recovery.rpc_dest[ki].insert(rpc, dest);
        }
        rpc
    }

    /// Completes a pending RPC (idempotent), charging the completion to
    /// its protocol family.
    pub(super) fn complete_rpc(&mut self, ki: usize, rpc: RpcId) -> Option<Pending> {
        let pending = self.rpcs[ki].complete(rpc)?;
        if self.recovery.scheduled {
            self.recovery.rpc_dest[ki].remove(&rpc);
        }
        self.stats
            .proto
            .of(pending.protocol())
            .rpcs_completed
            .incr();
        Some(pending)
    }

    /// Fails a request that will never complete: callers on paths with an
    /// error return get `errno` (`EIO` for a deadline expiry or an
    /// abandoned send, `EOWNERDEAD` when its server crashed); fault paths
    /// with no error return (page faults, sync words, VMA retrieval) are
    /// killed. The one place a pending RPC is failed.
    pub(super) fn fail_pending(
        &mut self,
        ki: usize,
        rpc: RpcId,
        pending: Pending,
        errno: Errno,
        at: SimTime,
    ) {
        match pending {
            Pending::Page(w) => {
                self.clear_inflight(ki, w.group, w.page, rpc);
                for (tid, _) in w.waiters {
                    self.fail_task(ki, tid, at);
                }
            }
            Pending::Vma(VmaPending::Fetch { tid, .. })
            | Pending::Futex(FutexPending::Rmw { tid }) => {
                self.fail_task(ki, tid, at);
            }
            Pending::Vma(VmaPending::Op { tid })
            | Pending::Futex(FutexPending::Futex { tid })
            | Pending::Clone(super::group::CloneWait { tid, .. }) => {
                self.stats.ops_failed.incr();
                self.wake_with(ki, tid, SysResult::Err(errno), at);
            }
        }
    }

    /// Kills a task that cannot make progress after an unrecoverable
    /// message loss on a path with no error return (page faults, sync
    /// words). Exit code 135 = 128+SIGBUS, the hardware-error death a real
    /// kernel delivers when backing memory goes away.
    pub(super) fn fail_task(&mut self, ki: usize, tid: Tid, at: SimTime) {
        if !self.task_alive(ki, tid) {
            return;
        }
        let group = self.group_of(ki, tid);
        self.stats.fault_kills.incr();
        if let Some(core) = self.kernels[ki].kill_task(tid, 135, at) {
            self.kick(ki, core, at);
        }
        self.note_task_exited(ki, group, tid, at);
    }

    /// Sender-side failure handling once every transmission attempt of a
    /// message has been lost. The abandoned payload is back in the
    /// sender's hands, so whatever local state expected the send to
    /// succeed is unwound here; remote kernels are never touched (their
    /// blocked parties are covered by their own RPC deadlines).
    pub(super) fn fail_undeliverable(
        &mut self,
        from: usize,
        to: KernelId,
        msg: ProtoMsg,
        at: SimTime,
    ) {
        match msg {
            ProtoMsg::TaskMigrate(m) => self.abort_migration(from, *m, at),
            // Requests: the sender is the origin, so its own pending state
            // is failed directly (faster than waiting for the deadline).
            ProtoMsg::CloneReq { rpc, .. }
            | ProtoMsg::VmaOpReq { rpc, .. }
            | ProtoMsg::VmaFetchReq { rpc, .. }
            | ProtoMsg::PageReq { rpc, .. }
            | ProtoMsg::FutexReq { rpc, .. }
            | ProtoMsg::RmwReq { rpc, .. } => {
                if let Some(pending) = self.complete_rpc(from, rpc) {
                    self.fail_pending(from, rpc, pending, Errno::Io, at);
                }
            }
            // The home gives up on a requester it cannot reach: unblock the
            // directory so other kernels can keep using the page (the
            // requester's own deadline cleans up its side).
            ProtoMsg::PageGrant { group, page, .. } => {
                self.page_done_at_home(group, page, self.kid(from), at);
            }
            // An unmap barrier update to an unreachable replica: treat it
            // as acknowledged so the unmap completes for everyone else.
            ProtoMsg::VmaUpdate {
                group,
                ack: Some(token),
                ..
            } => self.on_vma_update_ack(to, group, token, at),
            // Home-addressed notifications carry state transitions the home
            // must eventually observe (a member's exit, its new location, a
            // barrier ack): losing one to an exhausted retransmit chain
            // would leave the group's bookkeeping wrong forever — the
            // invariant audit catches exactly this. Restart the chain
            // toward the *current* home: if the destination is a crashed
            // kernel awaiting detection the new chain abandons again after
            // the home has moved, and the resend converges on the
            // successor.
            // Responses: nothing to unwind at the sender; the blocked
            // requester is covered by its own deadline.
            msg => self.resend_to_home(from, msg, at),
        }
    }

    /// The receive side of the event loop: consumes reliability-layer
    /// traffic (timers, acks, duplicates, header sequence numbers) and
    /// hands everything else to [`KernelCtx::dispatch`].
    pub fn receive(&mut self, msg: PopMsg, now: SimTime) {
        let from = msg.from;
        let to = msg.to;
        let ki = self.ki(to);
        // Epoch fence: once this kernel has declared the sender dead, late
        // traffic from it belongs to a previous membership epoch and must
        // not touch recovered state.
        if self.recovery.scheduled && from != to && self.recovery.declared[ki].contains(&from) {
            self.stats.fenced_msgs.incr();
            return;
        }
        if msg.seq != 0 {
            if !self.net.accept_seq(to, from, msg.seq) {
                // An injected duplicate (always a payload-free ghost: its
                // original arrived first on this FIFO channel).
                self.stats.dup_suppressed.incr();
                self.stats.proto.of(Protocol::Transport).msgs_in.incr();
                return;
            }
            self.note_activity(now);
            // Ack the sequence (unsequenced itself; a lost ack is
            // harmless — see the ChanAck arm below).
            self.stats.acks_sent.incr();
            self.stats.proto.of(Protocol::Transport).msgs_out.incr();
            let before = self.net.fabric().fault_counters().crash_drops;
            let ack = ProtoMsg::ChanAck { seq: msg.seq };
            if let SendOutcome::Delivered {
                delivery,
                duplicate_at,
            } = self.net.fabric_mut().send(now, to, from, ack)
            {
                self.schedule_delivery(delivery, duplicate_at);
            }
            self.stats
                .proto
                .of(Protocol::Transport)
                .crash_drops
                .add(self.net.fabric().fault_counters().crash_drops - before);
            self.dispatch(from, to, ki, msg.payload, now);
            return;
        }
        match msg.payload {
            ProtoMsg::RetxTimer { token } => {
                let before = self.net.fabric().fault_counters().crash_drops;
                let Some(plan) = self.net.retransmit(now, token) else {
                    return; // already drained (e.g. the channel recovered)
                };
                self.note_activity(now);
                self.stats.retransmits.incr();
                let proto = self.stats.proto.of(Protocol::Transport);
                proto.msgs_out.incr();
                proto
                    .crash_drops
                    .add(self.net.fabric().fault_counters().crash_drops - before);
                self.apply_plan(ki, now, plan);
            }
            // Detection timers are consumed here, before dispatch, like
            // every other self-addressed timer.
            ProtoMsg::CrashDetect { victim } => self.on_crash_detect(ki, victim, now),
            ProtoMsg::RpcDeadline { rpc } => {
                // Only fires for requests still pending at their deadline;
                // `complete` is None when the response arrived in time (the
                // moot timer then also doesn't count as activity).
                if let Some(pending) = self.complete_rpc(ki, rpc) {
                    self.note_activity(now);
                    self.stats.rpc_timeouts.incr();
                    self.fail_pending(ki, rpc, pending, Errno::Io, now);
                }
            }
            // Channel acks model the reliability layer's wire overhead;
            // the simulated sender observes delivery directly, so nothing
            // to do on receipt beyond counting it. The same goes for a
            // duplicate of unsequenced traffic (an ack).
            ProtoMsg::ChanAck { .. } | ProtoMsg::Duplicate => {
                self.stats.proto.of(Protocol::Transport).msgs_in.incr();
            }
            // The policy tick is a self-addressed timer: it must not count
            // as activity (a trailing tick after the workload drains would
            // inflate the reported completion time), and like the other
            // timers it is consumed here, before dispatch.
            ProtoMsg::PolicyTick => self.on_policy_tick(ki, now),
            // Telemetry dissemination and advisory steal requests cross
            // the fabric but are not workload progress either; dispatch
            // them without noting activity (an actual granted steal notes
            // activity itself).
            payload @ (ProtoMsg::LoadReport { .. } | ProtoMsg::StealReq { .. }) => {
                self.dispatch(from, to, ki, payload, now);
            }
            payload => {
                self.note_activity(now);
                self.dispatch(from, to, ki, payload, now);
            }
        }
    }
}
