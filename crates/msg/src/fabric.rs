//! The message fabric: per-ordered-pair FIFO channels between kernels.

use std::collections::HashMap;
use std::fmt;

use popcorn_hw::{CoreId, Machine};
use popcorn_sim::stats::Summary;
use popcorn_sim::{Counter, Histogram, SimTime};

use crate::fault::{Crash, FaultCounters, FaultRuntime, Verdict};
use crate::params::MsgParams;

/// Identifier of a kernel instance within one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KernelId(pub u16);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel{}", self.0)
    }
}

/// Byte-size accounting for payloads: how many bytes the message occupies on
/// the shared-memory ring, which drives the transmit-time cost.
pub trait Wire {
    /// Serialized size in bytes (headers excluded; the fabric adds a fixed
    /// 64-byte envelope line).
    fn wire_size(&self) -> usize;
}

/// A message accepted by the fabric: the payload plus the virtual time at
/// which the receiving kernel's handler runs. The OS model schedules a
/// simulation event at `deliver_at`.
#[must_use = "an unscheduled Delivery is a silently lost message"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Sender.
    pub from: KernelId,
    /// Receiver.
    pub to: KernelId,
    /// When the receive-side handler completes demux and may act.
    pub deliver_at: SimTime,
    /// Time the sending CPU was busy in the send path.
    pub send_busy: SimTime,
    /// The payload, returned by value for the OS model to route.
    pub payload: P,
}

/// What the fabric did with a send.
///
/// With the default [`FaultPlan::none()`](crate::fault::FaultPlan::none)
/// every send is `Delivered` with no duplicate; [`SendOutcome::expect_delivered`]
/// is the ergonomic unwrap for code that runs fault-free. Under an active
/// fault plan a message may be `Dropped` — the sender has still paid the
/// full send cost, and gets the payload back so a reliability layer can
/// retransmit it.
#[must_use = "ignoring a SendOutcome loses the message (and its payload) silently"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome<P> {
    /// The message will arrive.
    Delivered {
        /// The delivery record whose `deliver_at` the OS model schedules.
        delivery: Delivery<P>,
        /// When fault injection duplicated the message: the (later) arrival
        /// time of the second copy. The OS model schedules a second event
        /// with a clone of the payload.
        duplicate_at: Option<SimTime>,
    },
    /// Fault injection lost the message in flight; the payload comes back
    /// to the sender for possible retransmission.
    Dropped {
        /// The payload, returned to the sender.
        payload: P,
        /// Time the sending CPU was busy (the send cost is paid either way).
        send_busy: SimTime,
    },
}

impl<P> SendOutcome<P> {
    /// Unwraps the delivery, discarding any duplicate arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the message was dropped — only call this on fabrics with
    /// no active fault plan.
    pub fn expect_delivered(self) -> Delivery<P> {
        match self {
            SendOutcome::Delivered { delivery, .. } => delivery,
            SendOutcome::Dropped { .. } => {
                panic!("message dropped by fault injection; caller assumed reliable fabric")
            }
        }
    }

    /// The delivery record, if the message was not dropped.
    pub fn delivered(self) -> Option<Delivery<P>> {
        match self {
            SendOutcome::Delivered { delivery, .. } => Some(delivery),
            SendOutcome::Dropped { .. } => None,
        }
    }

    /// Whether the message will arrive.
    pub fn was_delivered(&self) -> bool {
        matches!(self, SendOutcome::Delivered { .. })
    }

    /// Send-side CPU busy time (paid whether or not the message survives).
    pub fn send_busy(&self) -> SimTime {
        match self {
            SendOutcome::Delivered { delivery, .. } => delivery.send_busy,
            SendOutcome::Dropped { send_busy, .. } => *send_busy,
        }
    }
}

/// Per-ordered-pair channel state.
#[derive(Debug, Clone, Default)]
struct Channel {
    /// When the ring accepts the next message (transmit serialization).
    tx_free_at: SimTime,
    /// FIFO guarantee: no later message may be delivered before this.
    last_delivery: SimTime,
    sends: Counter,
    bytes: Counter,
    queue_delay: Histogram,
}

/// The inter-kernel message fabric.
///
/// Channels are created lazily per ordered kernel pair. Messages on one
/// channel are FIFO; channels are independent (per-pair rings, as in
/// Popcorn's implementation). See the [crate-level example](crate).
///
/// A [`FaultPlan`](crate::fault::FaultPlan) in [`MsgParams`] makes the
/// fabric lossy: sends may be dropped, delayed or duplicated,
/// deterministically from the plan's seed. The default plan injects nothing
/// and adds no work to the send path.
#[derive(Debug, Clone)]
pub struct Fabric {
    params: MsgParams,
    /// Representative core of each kernel (where its message handler runs);
    /// indexes by `KernelId`.
    locations: Vec<CoreId>,
    /// Hop latency between kernel pairs, precomputed from the interconnect.
    hop: Vec<SimTime>,
    /// Minimum hop latency over all distinct kernel pairs, cached at
    /// construction (single-kernel fabrics have no pairs: zero).
    min_hop: SimTime,
    /// IPI notification latency (or expected polling delay).
    notify: SimTime,
    channels: HashMap<(KernelId, KernelId), Channel>,
    total_sends: Counter,
    latency_hist: Histogram,
    /// Present iff the fault plan is active.
    faults: Option<FaultRuntime>,
}

impl Fabric {
    /// Builds a fabric for kernels whose message handlers run on the given
    /// representative cores (one per kernel, indexed by [`KernelId`]).
    ///
    /// # Panics
    ///
    /// Panics if `locations` is empty, contains an out-of-range core, or the
    /// parameters fail validation.
    pub fn new(machine: &Machine, locations: Vec<CoreId>, params: MsgParams) -> Self {
        assert!(!locations.is_empty(), "need at least one kernel location");
        params.validate().expect("invalid message parameters");
        let topo = machine.topology();
        for &c in &locations {
            assert!(topo.contains(c), "kernel location {c} not in topology");
        }
        let n = locations.len();
        let mut hop = vec![SimTime::ZERO; n * n];
        let mut min_hop = SimTime::MAX;
        for (i, &a) in locations.iter().enumerate() {
            for (j, &b) in locations.iter().enumerate() {
                hop[i * n + j] = machine.interconnect().core_to_core(a, b);
                if i != j {
                    min_hop = min_hop.min(hop[i * n + j]);
                }
            }
        }
        if n == 1 {
            min_hop = SimTime::ZERO;
        }
        let notify = if params.ipi_notify {
            machine.shootdown().ipi_latency() + machine.shootdown().ipi_handler_cost()
        } else {
            SimTime::from_nanos(params.poll_interval_ns / 2)
        };
        let faults = if params.faults.is_active() {
            Some(FaultRuntime::new(params.faults.clone()))
        } else {
            None
        };
        Fabric {
            params,
            locations,
            hop,
            min_hop,
            notify,
            channels: HashMap::new(),
            total_sends: Counter::new(),
            latency_hist: Histogram::new(),
            faults,
        }
    }

    /// Number of kernels the fabric connects.
    pub fn num_kernels(&self) -> usize {
        self.locations.len()
    }

    /// The representative core of a kernel.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn location(&self, k: KernelId) -> CoreId {
        self.locations[k.0 as usize]
    }

    fn hop_latency(&self, from: KernelId, to: KernelId) -> SimTime {
        let n = self.locations.len();
        self.hop[from.0 as usize * n + to.0 as usize]
    }

    /// Minimum hop latency over all distinct kernel pairs, cached at
    /// construction. Zero for single-kernel fabrics (no pairs).
    pub fn min_hop_latency(&self) -> SimTime {
        self.min_hop
    }

    /// Sends `payload` from `from` to `to` at virtual time `now`; returns
    /// what the (possibly faulty) fabric did with it. Send-side costs —
    /// transmit serialization, ring bytes, CPU busy time — are paid whether
    /// or not the message survives; faults strike in flight.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (kernels do not message themselves — local
    /// operations take the function-call path) or either id is out of range.
    pub fn send<P: Wire>(
        &mut self,
        now: SimTime,
        from: KernelId,
        to: KernelId,
        payload: P,
    ) -> SendOutcome<P> {
        assert_ne!(from, to, "kernel cannot message itself");
        assert!(
            (from.0 as usize) < self.locations.len(),
            "{from} out of range"
        );
        assert!((to.0 as usize) < self.locations.len(), "{to} out of range");

        let size = payload.wire_size();
        // One envelope line plus the payload, rounded up to cache lines.
        let lines = 1 + (size as u64).div_ceil(64);
        let tx_time = SimTime::from_nanos(self.params.send_sw_ns + lines * self.params.per_line_ns);
        let hop = self.hop_latency(from, to);
        let recv = SimTime::from_nanos(self.params.recv_sw_ns);
        let notify = self.notify;

        let ch = self.channels.entry((from, to)).or_default();
        let tx_start = now.max(ch.tx_free_at);
        let queue_delay = tx_start - now;
        let tx_done = tx_start + tx_time;
        ch.tx_free_at = tx_done;
        ch.sends.incr();
        ch.bytes.add(lines * 64);
        ch.queue_delay.record_time(queue_delay);
        self.total_sends.incr();

        // Fault verdict. `None` (the default plan) does no work at all, so
        // the zero-fault path is identical to a fabric without injection.
        let verdict = match self.faults.as_mut() {
            Some(rt) => rt.judge(now, from, to, ch.sends.get()),
            None => Verdict::Deliver {
                extra_delay: SimTime::ZERO,
                duplicate: false,
            },
        };
        let (extra_delay, duplicate) = match verdict {
            Verdict::Drop => {
                // Lost in flight: no delivery, no FIFO floor update — the
                // receiver never sees it.
                return SendOutcome::Dropped {
                    payload,
                    send_busy: tx_done - now,
                };
            }
            Verdict::Deliver {
                extra_delay,
                duplicate,
            } => (extra_delay, duplicate),
        };

        // Notification, flight and receive processing; FIFO per channel.
        let deliver_at = (tx_done + hop + notify + recv + extra_delay).max(ch.last_delivery);
        ch.last_delivery = deliver_at;
        // A duplicate is re-delivered one receive-path later; it extends the
        // channel's FIFO floor so later messages stay ordered behind it.
        let duplicate_at = if duplicate {
            let dup_at = deliver_at + recv;
            ch.last_delivery = dup_at;
            Some(dup_at)
        } else {
            None
        };
        self.latency_hist.record_time(deliver_at - now);

        SendOutcome::Delivered {
            delivery: Delivery {
                from,
                to,
                deliver_at,
                send_busy: tx_done - now,
                payload,
            },
            duplicate_at,
        }
    }

    /// Sends a clone of `payload` to every other kernel (the payload itself
    /// is moved into the final send: N−1 clones for N−1 recipients);
    /// returns outcomes in kernel-id order.
    pub fn broadcast<P: Wire + Clone>(
        &mut self,
        now: SimTime,
        from: KernelId,
        payload: P,
    ) -> Vec<SendOutcome<P>> {
        let targets: Vec<KernelId> = (0..self.locations.len() as u16)
            .map(KernelId)
            .filter(|&k| k != from)
            .collect();
        let mut payload = Some(payload);
        let last = targets.len().saturating_sub(1);
        targets
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let p = if i == last {
                    payload.take().expect("payload moved before final send")
                } else {
                    payload.as_ref().expect("payload still held").clone()
                };
                self.send(now, from, k, p)
            })
            .collect()
    }

    /// Total messages sent across all channels (including dropped ones —
    /// the send happened; the loss was in flight).
    pub fn total_sends(&self) -> u64 {
        self.total_sends.get()
    }

    /// Distribution of end-to-end message latency (send call to handler
    /// completion) over messages that were actually delivered.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Per-channel totals `(from, to, sends, bytes)` in deterministic order.
    pub fn channel_stats(&self) -> Vec<(KernelId, KernelId, u64, u64)> {
        let mut rows: Vec<_> = self
            .channels
            .iter()
            .map(|(&(f, t), ch)| (f, t, ch.sends.get(), ch.bytes.get()))
            .collect();
        rows.sort_unstable_by_key(|&(f, t, _, _)| (f, t));
        rows
    }

    /// Per-channel transmit-queue delay summaries `(from, to, summary)` in
    /// deterministic order: how long sends waited for the ring behind
    /// earlier transmissions.
    pub fn queue_delay_stats(&self) -> Vec<(KernelId, KernelId, Summary)> {
        let mut rows: Vec<_> = self
            .channels
            .iter()
            .map(|(&(f, t), ch)| (f, t, ch.queue_delay.summary()))
            .collect();
        rows.sort_unstable_by_key(|&(f, t, _)| (f, t));
        rows
    }

    /// Transmit-queue delay over all channels merged into one histogram.
    pub fn queue_delay_histogram(&self) -> Histogram {
        let mut all = Histogram::new();
        let mut keys: Vec<_> = self.channels.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            all.merge(&self.channels[&k].queue_delay);
        }
        all
    }

    /// Injected-fault tallies (all zero when no plan is active).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|rt| rt.counters)
            .unwrap_or_default()
    }

    /// Whether a fault plan is active on this fabric.
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// Whether the fault plan says `kernel` has crashed by `now`. Always
    /// false without an active plan.
    pub fn is_crashed(&self, kernel: KernelId, now: SimTime) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|rt| rt.plan.is_crashed(kernel, now))
    }

    /// The fault plan's scripted kernel crashes (empty without an active
    /// plan). Recovery layers use this to schedule detection timers.
    pub fn planned_crashes(&self) -> &[Crash] {
        self.faults
            .as_ref()
            .map_or(&[], |rt| rt.plan.crashes.as_slice())
    }

    /// Whether the fault plan blacks out the directed channel `from → to`
    /// at `now`. Always false without an active plan.
    pub fn is_blacked_out(&self, from: KernelId, to: KernelId, now: SimTime) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|rt| rt.plan.is_blacked_out(from, to, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use popcorn_hw::{HwParams, Topology};

    struct Blob(usize);
    impl Wire for Blob {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    fn fabric(kernels: u16) -> Fabric {
        fabric_with(kernels, MsgParams::default())
    }

    fn fabric_with(kernels: u16, params: MsgParams) -> Fabric {
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        // Spread kernels across cores 0, 4 (cross-socket for k=2).
        let locs: Vec<CoreId> = match kernels {
            2 => vec![CoreId(0), CoreId(4)],
            4 => vec![CoreId(0), CoreId(2), CoreId(4), CoreId(6)],
            _ => (0..kernels).map(CoreId).collect(),
        };
        Fabric::new(&machine, locs, params)
    }

    #[test]
    fn small_message_is_microsecond_scale() {
        let mut f = fabric(2);
        let d = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        let us = d.deliver_at.as_micros_f64();
        assert!(
            (1.0..10.0).contains(&us),
            "latency {us}us out of expected band"
        );
    }

    #[test]
    fn bigger_payloads_take_longer() {
        let mut f = fabric(2);
        let small = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        let mut f2 = fabric(2);
        let big = f2
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(4096))
            .expect_delivered();
        assert!(big.deliver_at > small.deliver_at);
    }

    #[test]
    fn channel_serializes_sends_fifo() {
        let mut f = fabric(2);
        let d1 = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(4096))
            .expect_delivered();
        let d2 = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        assert!(d2.deliver_at >= d1.deliver_at, "FIFO violated");
        // The second message queued behind the first's transmission.
        assert!(d2.send_busy > SimTime::ZERO);
    }

    #[test]
    fn independent_channels_do_not_interfere() {
        let mut f = fabric(4);
        let d1 = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(4096))
            .expect_delivered();
        let d2 = f
            .send(SimTime::ZERO, KernelId(2), KernelId(3), Blob(4096))
            .expect_delivered();
        // Same shape, started simultaneously on disjoint pairs.
        assert_eq!(d1.deliver_at.as_nanos() > 0, d2.deliver_at.as_nanos() > 0);
        let d3 = f
            .send(SimTime::ZERO, KernelId(1), KernelId(0), Blob(64))
            .expect_delivered();
        // Reverse direction is a separate ring: no queueing behind 0→1.
        let mut fresh = fabric(4);
        let base = fresh
            .send(SimTime::ZERO, KernelId(1), KernelId(0), Blob(64))
            .expect_delivered();
        assert_eq!(d3.deliver_at, base.deliver_at);
    }

    #[test]
    #[should_panic(expected = "cannot message itself")]
    fn self_send_rejected() {
        let _ = fabric(2).send(SimTime::ZERO, KernelId(0), KernelId(0), Blob(1));
    }

    #[derive(Clone)]
    struct B;
    impl Wire for B {
        fn wire_size(&self) -> usize {
            32
        }
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let mut f = fabric(4);
        let ds = f.broadcast(SimTime::ZERO, KernelId(1), B);
        let tos: Vec<u16> = ds.into_iter().map(|o| o.expect_delivered().to.0).collect();
        assert_eq!(tos, vec![0, 2, 3]);
        assert_eq!(f.total_sends(), 3);
    }

    #[test]
    fn broadcast_matches_individual_sends_exactly() {
        // The move-the-last-payload restructuring must not change delivery
        // order or timing relative to sending one clone per recipient.
        let mut a = fabric(4);
        let via_broadcast: Vec<Delivery<B>> = a
            .broadcast(SimTime::ZERO, KernelId(1), B)
            .into_iter()
            .map(SendOutcome::expect_delivered)
            .collect();
        let mut b = fabric(4);
        let via_sends: Vec<Delivery<B>> = [0u16, 2, 3]
            .iter()
            .map(|&k| {
                b.send(SimTime::ZERO, KernelId(1), KernelId(k), B)
                    .expect_delivered()
            })
            .collect();
        for (x, y) in via_broadcast.iter().zip(&via_sends) {
            assert_eq!(x.to, y.to);
            assert_eq!(x.deliver_at, y.deliver_at);
            assert_eq!(x.send_busy, y.send_busy);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric(2);
        let _ = f.send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64));
        let _ = f.send(SimTime::ZERO, KernelId(1), KernelId(0), Blob(64));
        assert_eq!(f.total_sends(), 2);
        assert_eq!(f.latency_histogram().count(), 2);
        let rows = f.channel_stats();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, KernelId(0));
        assert_eq!(rows[0].2, 1);
    }

    #[test]
    fn queue_delay_is_exposed() {
        let mut f = fabric(2);
        // Two back-to-back sends: the second waits for the ring.
        let _ = f.send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(4096));
        let _ = f.send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64));
        let rows = f.queue_delay_stats();
        assert_eq!(rows.len(), 1);
        let (from, to, s) = &rows[0];
        assert_eq!((*from, *to), (KernelId(0), KernelId(1)));
        assert_eq!(s.count, 2);
        assert!(s.max > 0, "second send should have queued");
        let merged = f.queue_delay_histogram();
        assert_eq!(merged.count(), 2);
    }

    #[test]
    fn polling_mode_uses_poll_delay() {
        let machine = Machine::new(Topology::new(1, 2), HwParams::default());
        let params = MsgParams {
            ipi_notify: false,
            poll_interval_ns: 100_000,
            ..MsgParams::default()
        };
        let mut f = Fabric::new(&machine, vec![CoreId(0), CoreId(1)], params);
        let d = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        // Expected poll delay (50us) dominates.
        assert!(d.deliver_at.as_nanos() > 50_000);
    }

    #[test]
    fn send_busy_is_send_side_only() {
        let mut f = fabric(2);
        let d = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        assert!(d.send_busy < d.deliver_at);
        assert!(d.send_busy >= SimTime::from_nanos(MsgParams::default().send_sw_ns));
    }

    #[test]
    fn zero_fault_plan_is_byte_identical() {
        let mut plain = fabric(2);
        let mut none_plan = fabric_with(
            2,
            MsgParams {
                faults: FaultPlan::none(),
                ..MsgParams::default()
            },
        );
        assert!(!none_plan.faults_active());
        for i in 0..50u64 {
            let now = SimTime::from_nanos(i * 700);
            let a = plain.send(now, KernelId(0), KernelId(1), Blob(64 + i as usize));
            let b = none_plan.send(now, KernelId(0), KernelId(1), Blob(64 + i as usize));
            let (a, b) = (a.expect_delivered(), b.expect_delivered());
            assert_eq!(a.deliver_at, b.deliver_at);
            assert_eq!(a.send_busy, b.send_busy);
        }
        assert_eq!(
            plain.latency_histogram().count(),
            none_plan.latency_histogram().count()
        );
    }

    #[test]
    fn scripted_drop_returns_payload_and_pays_send_cost() {
        let params = MsgParams {
            faults: FaultPlan::none().with_drop_nth(KernelId(0), KernelId(1), 2),
            ..MsgParams::default()
        };
        let mut f = fabric_with(2, params);
        let _ = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        match f.send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64)) {
            SendOutcome::Dropped { payload, send_busy } => {
                assert_eq!(payload.0, 64);
                assert!(send_busy > SimTime::ZERO);
            }
            SendOutcome::Delivered { .. } => panic!("second send should drop"),
        }
        // The send happened (counters), the delivery did not (latency).
        assert_eq!(f.total_sends(), 2);
        assert_eq!(f.latency_histogram().count(), 1);
        assert_eq!(f.fault_counters().drops, 1);
        // The channel is not wedged: the third send goes through.
        let _ = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
    }

    #[test]
    fn duplicate_arrives_later_and_keeps_fifo() {
        use crate::fault::ChannelFaults;
        let params = MsgParams {
            faults: FaultPlan {
                seed: 3,
                uniform: Some(ChannelFaults {
                    drop_p: 0.0,
                    dup_p: 1.0,
                    delay_p: 0.0,
                    delay_max_ns: 0,
                }),
                ..FaultPlan::none()
            },
            ..MsgParams::default()
        };
        let mut f = fabric_with(2, params);
        let (first_at, dup_at) = match f.send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64)) {
            SendOutcome::Delivered {
                delivery,
                duplicate_at,
            } => (delivery.deliver_at, duplicate_at.expect("dup_p = 1")),
            SendOutcome::Dropped { .. } => panic!("drop_p = 0"),
        };
        assert!(dup_at > first_at);
        // A later message on the channel stays FIFO behind the duplicate.
        let next = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        assert!(next.deliver_at >= dup_at);
        // Both sends duplicated (dup_p = 1).
        assert_eq!(f.fault_counters().dups, 2);
    }

    #[test]
    fn crashed_kernel_loses_all_traffic() {
        let params = MsgParams {
            faults: FaultPlan::none().with_crash(KernelId(1), SimTime::from_nanos(1_000)),
            ..MsgParams::default()
        };
        let mut f = fabric_with(2, params);
        // Before the crash: fine.
        let _ = f
            .send(SimTime::ZERO, KernelId(0), KernelId(1), Blob(64))
            .expect_delivered();
        // After: both directions dead.
        let at = SimTime::from_nanos(2_000);
        assert!(!f
            .send(at, KernelId(0), KernelId(1), Blob(64))
            .was_delivered());
        assert!(!f
            .send(at, KernelId(1), KernelId(0), Blob(64))
            .was_delivered());
        assert!(f.is_crashed(KernelId(1), at));
        assert!(!f.is_crashed(KernelId(0), at));
        assert_eq!(f.fault_counters().crash_drops, 2);
    }

    #[test]
    fn cached_min_hop_equals_brute_force_on_asymmetric_interconnect() {
        // Three kernels spread unevenly over two sockets: 0 and 2 share a
        // socket (short hop), 4 sits across the interconnect (long hop) —
        // the hop matrix is non-uniform, so the cached minimum must be the
        // true minimum over all ordered pairs, not just any entry.
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let locs = vec![CoreId(0), CoreId(2), CoreId(4)];
        let f = Fabric::new(&machine, locs.clone(), MsgParams::default());
        let mut brute = SimTime::MAX;
        let mut distinct = std::collections::BTreeSet::new();
        for &a in &locs {
            for &b in &locs {
                if a != b {
                    let h = machine.interconnect().core_to_core(a, b);
                    brute = brute.min(h);
                    distinct.insert(h.as_nanos());
                }
            }
        }
        assert!(distinct.len() > 1, "interconnect should be asymmetric");
        assert_eq!(f.min_hop_latency(), brute);
    }

    #[test]
    fn single_kernel_fabric_has_zero_min_hop() {
        let machine = Machine::new(Topology::new(1, 2), HwParams::default());
        let f = Fabric::new(&machine, vec![CoreId(0)], MsgParams::default());
        assert_eq!(f.min_hop_latency(), SimTime::ZERO);
    }

    #[test]
    fn injection_is_deterministic_across_fabrics() {
        let params = MsgParams {
            faults: FaultPlan::uniform_drop(99, 0.3),
            ..MsgParams::default()
        };
        let run = || {
            let mut f = fabric_with(2, params.clone());
            (0..200u64)
                .map(|i| {
                    f.send(
                        SimTime::from_nanos(i * 911),
                        KernelId(0),
                        KernelId(1),
                        Blob(64),
                    )
                    .was_delivered()
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|&d| d) && a.iter().any(|&d| !d));
    }
}
