//! Load telemetry and the active-policy machinery.
//!
//! When [`PopcornParams::policy`](crate::params::PopcornParams::policy) is
//! anything but `ScriptedOnly`, every kernel runs a periodic **policy
//! tick**: it publishes a load snapshot ([`KernelLoad`]) on the shared
//! telemetry board, forwards the snapshot to one peer on the fabric (the
//! modeled dissemination cost — a `LoadReport` per tick, round-robin
//! around the ring), and runs the policy's `balance` and `steal` hooks.
//! Regular protocol sends additionally piggyback a cheap refresh of the
//! sender's instantaneous fields at no fabric cost, mirroring how Popcorn
//! piggybacks load hints on existing messenger traffic.
//!
//! The board itself is a single-process shortcut: decisions consume
//! whatever was *published*, which can be stale by up to one tick period —
//! exactly the staleness a real distributed load balancer sees. Policies
//! are therefore written to be advisory (victims re-check before granting
//! a steal; `FaultAware` falls back when its view is entirely unhealthy).
//!
//! Under the default `ScriptedOnly` policy, none of this runs: no tick is
//! ever scheduled, no snapshot published, no message sent — scripted
//! experiments stay byte-identical with builds that predate this module.

use popcorn_kernel::policy::{Decision, KernelLoad, PolicyView, ReplicaDecision};
use popcorn_msg::KernelId;
use popcorn_sim::{SimTime, TimeSeries};

use crate::proto::ProtoMsg;

use super::{KernelCtx, PopMsg, PopcornMachine};

/// The shared load-telemetry board plus per-kernel series.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Latest snapshot published by each kernel (policies read this).
    pub published: Vec<KernelLoad>,
    /// Per-kernel runqueue-depth series, sampled at every policy tick.
    /// Samples are step-function points, so depth statistics use
    /// [`TimeSeries::time_weighted_mean`], not the point-weighted mean.
    pub depth: Vec<TimeSeries>,
    /// Each kernel's fault counter at its previous tick (for the rate).
    last_faults: Vec<u64>,
    /// Each kernel's previous tick time (for the rate denominator).
    last_tick: Vec<SimTime>,
    /// Whether the initial staggered ticks have been scheduled.
    pub ticks_started: bool,
}

impl Telemetry {
    /// An empty board for `n` kernels.
    pub fn new(n: usize) -> Self {
        Telemetry {
            published: (0..n)
                .map(|i| KernelLoad::empty(KernelId(i as u16)))
                .collect(),
            depth: (0..n).map(|_| TimeSeries::new()).collect(),
            last_faults: vec![0; n],
            last_tick: vec![SimTime::ZERO; n],
            ticks_started: false,
        }
    }

    /// Mean time-weighted runqueue depth across all kernels (0 when no
    /// tick ever sampled).
    pub fn mean_depth_tw(&self) -> f64 {
        if self.depth.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.depth.iter().map(TimeSeries::time_weighted_mean).sum();
        sum / self.depth.len() as f64
    }
}

impl PopcornMachine {
    /// The initial staggered policy ticks, one per kernel, as ready-made
    /// self-addressed deliveries for the harness to schedule. Flips
    /// `ticks_started`; returns nothing on later calls or under
    /// `ScriptedOnly` (no tick is ever scheduled then).
    pub fn policy_tick_starts(&mut self, now: SimTime) -> Vec<(SimTime, PopMsg)> {
        if !self.policy_active() || self.telemetry.ticks_started {
            return Vec::new();
        }
        self.telemetry.ticks_started = true;
        let n = self.kernels.len();
        let period = self.params.telemetry_period_ns;
        (0..n)
            .map(|ki| {
                // Stagger the kernels across one period so their ticks
                // (and LoadReports) don't synchronize.
                let at = now + SimTime::from_nanos(period + ki as u64 * period / n as u64);
                (
                    at,
                    PopMsg::local(KernelId(ki as u16), at, ProtoMsg::PolicyTick),
                )
            })
            .collect()
    }
}

impl KernelCtx<'_, '_> {
    /// Whether a migration policy (anything but `ScriptedOnly`) is active.
    /// Every policy/telemetry code path is gated on this, so the default
    /// configuration does no extra work at all.
    pub(super) fn policy_active(&self) -> bool {
        !self.policy.is_scripted_only()
    }

    /// Cheap piggyback refresh of kernel `ki`'s instantaneous load fields,
    /// hung off regular protocol traffic (no fabric cost, no series
    /// sample). Timestamped with the scheduler clock — charged send times
    /// can run ahead of it non-monotonically.
    pub(super) fn piggyback_load(&mut self, ki: usize) {
        let now = self.sched.now();
        let runq = self.kernels[ki].total_load() as u32;
        let waiters = self.futex.resident_waiters(self.kid(ki)) as u32;
        let slot = &mut self.telemetry.published[ki];
        slot.runq = runq;
        slot.futex_waiters = waiters;
        slot.at = now;
    }

    /// Full snapshot publication at kernel `ki`'s policy tick: samples the
    /// depth series, recomputes the time-weighted mean and the fault rate
    /// over the last period, and replaces the published entry.
    pub(super) fn publish_load(&mut self, ki: usize, now: SimTime) {
        let kid = self.kid(ki);
        let runq = self.kernels[ki].total_load() as u32;
        let faults_now = self.kernels[ki].stats.faults.get();
        let waiters = self.futex.resident_waiters(kid) as u32;
        let t = &mut self.telemetry;
        t.depth[ki].push(now, f64::from(runq));
        let dt = now.saturating_sub(t.last_tick[ki]).as_nanos();
        let df = faults_now.saturating_sub(t.last_faults[ki]);
        // Faults per millisecond over the last tick period.
        let fault_rate = if dt > 0 {
            df as f64 * 1e6 / dt as f64
        } else {
            0.0
        };
        t.published[ki] = KernelLoad {
            kernel: kid,
            runq,
            runq_tw: t.depth[ki].time_weighted_mean(),
            fault_rate,
            futex_waiters: waiters,
            healthy: true, // health is judged by the *reader* (it knows `now`)
            at: now,
        };
        t.last_faults[ki] = faults_now;
        t.last_tick[ki] = now;
    }

    /// Assembles kernel `ki`'s view of the board: the published snapshots
    /// with `healthy` filled in from the fault plan as seen *from* `ki`
    /// (a crashed peer, or one unreachable in either direction, is
    /// unhealthy).
    pub(super) fn policy_view(&self, ki: usize, now: SimTime) -> Vec<KernelLoad> {
        let me = self.kid(ki);
        let fabric = self.net.fabric();
        self.telemetry
            .published
            .iter()
            .map(|l| {
                let k = l.kernel;
                let healthy = !fabric.is_crashed(k, now)
                    && !fabric.is_blacked_out(me, k, now)
                    && !fabric.is_blacked_out(k, me, now);
                KernelLoad { healthy, ..*l }
            })
            .collect()
    }

    /// One policy tick at kernel `ki`: publish, disseminate, run the
    /// balance and steal hooks, and reschedule while work remains.
    pub(super) fn on_policy_tick(&mut self, ki: usize, now: SimTime) {
        if !self.policy_active() {
            return;
        }
        self.publish_load(ki, now);
        let me = self.kid(ki);
        let n = self.kernels.len();
        if n > 1 {
            // The modeled dissemination cost: one LoadReport per tick,
            // round-robin to the next kernel on the ring.
            let peer = KernelId(((ki + 1) % n) as u16);
            let load = self.telemetry.published[ki];
            self.stats.telemetry_reports.incr();
            self.send(now, ki, peer, ProtoMsg::LoadReport { load });
        }
        let loads = self.policy_view(ki, now);
        let view = PolicyView {
            me,
            now,
            loads: &loads,
        };
        if let Decision::Migrate(target) = self.policy.balance(&view) {
            if target != me {
                if let Some(tid) = self.kernels[ki].pick_queued_task() {
                    if self.migrate_out(ki, tid, target, true, now) {
                        self.stats.policy_migrations.incr();
                    }
                }
            }
        }
        if let Some(victim) = self.policy.steal_from(&view) {
            if victim != me {
                self.stats.steal_reqs.incr();
                self.send(now, ki, victim, ProtoMsg::StealReq { thief: me });
            }
        }
        // Replica-aware co-placement (extension): for each group with live
        // members here, ask the policy whether to pull a page-table
        // replica toward the threads or push a thread toward a replica.
        // The holder set is read off the shared group state — the same
        // kind of board shortcut as the telemetry above, and equally
        // advisory (a duplicate replica request is ignored at the home).
        if self.params.page_table_replication {
            for g in self.kernels[ki].live_groups() {
                let Some(h) = self.groups.get(&g) else {
                    continue;
                };
                let holders = h.pt_holders();
                let local_threads = self.kernels[ki].group_members(g).len() as u32;
                match self.policy.co_place(&view, local_threads, &holders) {
                    ReplicaDecision::Stay => {}
                    ReplicaDecision::Replicate => {
                        let home = self.home_of(g);
                        self.post(
                            now,
                            ki,
                            home,
                            ProtoMsg::PtReplicaReq {
                                origin: me,
                                group: g,
                            },
                        );
                    }
                    ReplicaDecision::MigrateToward(k) => {
                        if k != me {
                            if let Some(tid) = self.kernels[ki].pick_queued_task_in(g) {
                                if self.migrate_out(ki, tid, k, true, now) {
                                    self.stats.policy_migrations.incr();
                                }
                            }
                        }
                    }
                }
            }
        }
        // Keep ticking while any kernel still has live work; otherwise let
        // the run drain (`finished_at` uses last-activity under an active
        // policy, so a final moot tick costs nothing).
        if self.kernels.iter().any(|k| k.live_tasks() > 0) {
            let at = now + SimTime::from_nanos(self.params.telemetry_period_ns);
            self.schedule_self(ki, at, ProtoMsg::PolicyTick);
        }
    }

    /// `LoadReport` at a peer: merge the snapshot if it is fresher than
    /// what the board already holds.
    pub(super) fn on_load_report(&mut self, _ki: usize, load: KernelLoad) {
        if !self.policy_active() {
            return;
        }
        let slot = &mut self.telemetry.published[load.kernel.0 as usize];
        if load.at >= slot.at {
            *slot = load;
        }
    }

    /// `StealReq` at the victim: advisory — grant one queued thread only
    /// if there really is surplus *now* (telemetry the thief acted on may
    /// be stale, and an injected duplicate must not over-drain us).
    pub(super) fn on_steal_req(&mut self, ki: usize, thief: KernelId, now: SimTime) {
        if !self.policy_active() || thief == self.kid(ki) {
            return;
        }
        if self.kernels[ki].total_load() < 2 {
            return;
        }
        let Some(tid) = self.kernels[ki].pick_queued_task() else {
            return;
        };
        if self.migrate_out(ki, tid, thief, true, now) {
            self.stats.policy_migrations.incr();
            self.stats.policy_steals.incr();
        }
    }
}
