//! Reliable delivery as a reusable substrate.
//!
//! Every OS model that talks across kernels needs the same plumbing on top
//! of the raw [`Fabric`]: turning a [`SendOutcome`] into scheduled receive
//! events and, under fault injection, sequence numbers, duplicate
//! suppression and retransmission with exponential backoff.
//! Request/response correlation is the separate
//! [`RpcTable`](crate::RpcTable).
//!
//! - [`ReliableFabric`] wraps a [`Fabric`] and owns the sequence-number /
//!   retransmit state. Its [`ReliableFabric::send`] returns a [`SendPlan`]
//!   describing what the *caller* must schedule — the crate stays free of
//!   any event-type dependency, so models with different event alphabets
//!   can all use it.
//! - [`RetxPolicy`] owns the backoff arithmetic.
//!
//! The reliability state is allocated only when the fabric's fault plan is
//! active *and* the model supplied a retransmit policy; zero-fault runs
//! carry no state and take the plain send path, which keeps their results
//! byte-identical to a model using the fabric directly.

use std::collections::BTreeMap;

use popcorn_sim::SimTime;

use crate::fabric::{Delivery, Fabric, KernelId, SendOutcome, Wire};

/// A payload type that can carry a sequence-number envelope.
///
/// The reliability layer wraps every payload in a sequence envelope (one
/// variant of the model's message enum) so the receive side can suppress
/// injected duplicates. The envelope must account for its own wire
/// overhead in the payload's [`Wire`] impl.
pub trait SeqEnvelope: Wire + Sized {
    /// Wraps `inner` in a sequence envelope carrying `seq`.
    fn wrap_seq(seq: u64, inner: Self) -> Self;

    /// Unwraps a sequence envelope; `Err` returns a non-envelope payload
    /// unchanged.
    fn unwrap_seq(self) -> Result<(u64, Self), Self>;
}

/// Retransmission policy: exponential backoff from `base_ns`, clamped at
/// `cap_ns`, giving up after `max_attempts` total transmissions.
#[derive(Debug, Clone, Copy)]
pub struct RetxPolicy {
    /// Backoff before the first retransmission, in ns.
    pub base_ns: u64,
    /// Backoff ceiling, in ns.
    pub cap_ns: u64,
    /// Total transmissions (first try included) before giving up.
    pub max_attempts: u32,
}

impl RetxPolicy {
    /// Validates the policy's bounds: a zero base backoff, an inverted
    /// `base_ns > cap_ns` range, or zero `max_attempts` would all make the
    /// retransmit loop silently misbehave (hot-spin, non-monotone backoff,
    /// or a "reliable" layer that never transmits at all).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_ns == 0 {
            return Err("retx base_ns must be positive".into());
        }
        if self.base_ns > self.cap_ns {
            return Err(format!(
                "retx base_ns ({}) exceeds cap_ns ({})",
                self.base_ns, self.cap_ns
            ));
        }
        if self.max_attempts == 0 {
            return Err("retx max_attempts must be at least 1".into());
        }
        Ok(())
    }

    /// Backoff before retransmit number `attempt` (1-based: the delay
    /// scheduled after the `attempt`-th failed transmission).
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1);
        // `<<` drops overflowing bits silently (and panics past 63 in
        // debug), so saturate once the doubling leaves the u64 range.
        if exp >= self.base_ns.leading_zeros() {
            return self.cap_ns;
        }
        (self.base_ns << exp).min(self.cap_ns)
    }
}

/// A lost message parked in the retransmit buffer.
#[derive(Debug)]
struct Stashed<P> {
    from: KernelId,
    to: KernelId,
    /// Transmissions attempted so far (all lost).
    attempts: u32,
    payload: P,
}

/// Sequence-number and retransmit state, allocated only under active fault
/// injection (see module docs). All maps are ordered: nothing iterates
/// them today, but a `HashMap` here would be a latent nondeterminism
/// hazard for any future code that does.
#[derive(Debug)]
struct SeqState<P> {
    /// How lost messages are retried.
    policy: RetxPolicy,
    /// Next sequence number per directed channel `(sender, receiver)`.
    next_seq: BTreeMap<(u16, u16), u64>,
    /// Highest sequence seen per directed channel `(receiver, sender)`.
    /// Channels are FIFO and retransmissions take *fresh* sequence numbers
    /// (the receiver never saw the lost original), so arrivals are
    /// strictly monotone in `seq` and anything at or below the high-water
    /// mark is an injected duplicate.
    last_seen: BTreeMap<(u16, u16), u64>,
    /// Lost messages awaiting their retransmit timer, by token.
    retx: BTreeMap<u64, Stashed<P>>,
    next_token: u64,
}

impl<P> SeqState<P> {
    fn new(policy: RetxPolicy) -> Self {
        SeqState {
            policy,
            next_seq: BTreeMap::new(),
            last_seen: BTreeMap::new(),
            retx: BTreeMap::new(),
            next_token: 0,
        }
    }

    fn alloc_seq(&mut self, from: KernelId, to: KernelId) -> u64 {
        let c = self.next_seq.entry((from.0, to.0)).or_insert(0);
        *c += 1;
        *c
    }

    fn stash(&mut self, s: Stashed<P>) -> u64 {
        self.next_token += 1;
        self.retx.insert(self.next_token, s);
        self.next_token
    }
}

/// What the caller must do after a send — the endpoint's side of the
/// bargain that keeps this crate independent of any event type. The OS
/// model maps each variant onto its own scheduler/event machinery.
#[derive(Debug)]
#[must_use = "a send plan describes events the caller must schedule"]
pub enum SendPlan<P> {
    /// The fabric delivered: schedule a receive at `delivery.deliver_at`
    /// (and, if the fault injector produced one, a duplicate at
    /// `duplicate_at`).
    Deliver {
        /// The delivery to schedule.
        delivery: Delivery<P>,
        /// Injected-duplicate delivery time, if any.
        duplicate_at: Option<SimTime>,
    },
    /// The message was lost and the reliability layer is off: raw loss,
    /// nothing to schedule.
    LostRaw,
    /// The transmission was lost; the payload is parked in the retransmit
    /// buffer under `token`. Schedule a retransmit timer at `fire_at` and
    /// call [`ReliableFabric::retransmit`] when it fires.
    Backoff {
        /// Retransmit-buffer token to pass back to `retransmit`.
        token: u64,
        /// When the retransmit timer must fire.
        fire_at: SimTime,
        /// The backoff delay itself (for accounting).
        backoff: SimTime,
    },
    /// Every transmission attempt was lost; the sender must unwind
    /// whatever local state expected the send to succeed.
    Abandoned {
        /// The sending kernel.
        from: KernelId,
        /// The unreachable destination.
        to: KernelId,
        /// The undeliverable payload, back in the sender's hands.
        payload: P,
    },
}

/// A [`Fabric`] with reliable delivery layered on top (see module docs).
#[derive(Debug)]
pub struct ReliableFabric<P: SeqEnvelope> {
    fabric: Fabric,
    /// `None` on the plain path (no faults or reliability disabled).
    seq: Option<SeqState<P>>,
}

impl<P: SeqEnvelope> ReliableFabric<P> {
    /// Wraps `fabric`. Reliability state is allocated only when the
    /// fabric's fault plan is active and a retransmit `policy` is given
    /// (`None` disables the reliability layer).
    pub fn new(fabric: Fabric, policy: Option<RetxPolicy>) -> Self {
        let seq = policy.filter(|_| fabric.faults_active()).map(SeqState::new);
        ReliableFabric { fabric, seq }
    }

    /// The wrapped fabric (read access for reports).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable access to the wrapped fabric, for sends that must bypass
    /// sequencing (channel acks) and for fault bookkeeping.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// True when the reliability layer is active.
    pub fn is_reliable(&self) -> bool {
        self.seq.is_some()
    }

    /// Sends `payload`, sequenced when the reliability layer is active.
    pub fn send(&mut self, now: SimTime, from: KernelId, to: KernelId, payload: P) -> SendPlan<P> {
        if self.seq.is_none() {
            return match self.fabric.send(now, from, to, payload) {
                SendOutcome::Delivered {
                    delivery,
                    duplicate_at,
                } => SendPlan::Deliver {
                    delivery,
                    duplicate_at,
                },
                SendOutcome::Dropped { .. } => SendPlan::LostRaw,
            };
        }
        self.transmit(now, from, to, payload, 1)
    }

    /// Retransmits the stashed message under `token`; `None` if the token
    /// is unknown (the stash was already drained). The retransmission
    /// takes a *fresh* sequence number, which is what lets the receiver
    /// treat anything at or below its high-water mark as a duplicate (see
    /// [`ReliableFabric::accept_seq`]).
    pub fn retransmit(&mut self, now: SimTime, token: u64) -> Option<SendPlan<P>> {
        let s = self.seq.as_mut()?.retx.remove(&token)?;
        Some(self.transmit(now, s.from, s.to, s.payload, s.attempts + 1))
    }

    /// One sequenced transmission; `attempt` is its 1-based ordinal.
    fn transmit(
        &mut self,
        now: SimTime,
        from: KernelId,
        to: KernelId,
        payload: P,
        attempt: u32,
    ) -> SendPlan<P> {
        let state = self
            .seq
            .as_mut()
            .expect("sequenced transmit without reliability state");
        let wrapped = P::wrap_seq(state.alloc_seq(from, to), payload);
        match self.fabric.send(now, from, to, wrapped) {
            SendOutcome::Delivered {
                delivery,
                duplicate_at,
            } => SendPlan::Deliver {
                delivery,
                duplicate_at,
            },
            SendOutcome::Dropped { payload, .. } => {
                let Ok((_, inner)) = payload.unwrap_seq() else {
                    unreachable!("the fabric returns the payload it was given");
                };
                if attempt >= state.policy.max_attempts {
                    return SendPlan::Abandoned {
                        from,
                        to,
                        payload: inner,
                    };
                }
                let backoff = SimTime::from_nanos(state.policy.backoff_ns(attempt));
                let token = state.stash(Stashed {
                    from,
                    to,
                    attempts: attempt,
                    payload: inner,
                });
                SendPlan::Backoff {
                    token,
                    fire_at: now + backoff,
                    backoff,
                }
            }
        }
    }

    /// Drains every stashed retransmission on the directed channel
    /// `from → to`, returning the payloads in stash order (monotone tokens,
    /// so oldest first). Pending retransmit timers for the drained tokens
    /// become no-ops ([`ReliableFabric::retransmit`] returns `None`).
    ///
    /// A crash-recovery layer calls this when `to` is declared dead: the
    /// messages would never be acknowledged, and the sender must unwind the
    /// state that expected them to arrive (exactly as for
    /// [`SendPlan::Abandoned`]).
    pub fn abandon_to(&mut self, from: KernelId, to: KernelId) -> Vec<P> {
        let Some(state) = self.seq.as_mut() else {
            return Vec::new();
        };
        let tokens: Vec<u64> = state
            .retx
            .iter()
            .filter(|(_, s)| s.from == from && s.to == to)
            .map(|(&t, _)| t)
            .collect();
        tokens
            .into_iter()
            .map(|t| state.retx.remove(&t).expect("token listed above").payload)
            .collect()
    }

    /// Receive-side duplicate suppression: records `seq` as seen on the
    /// directed channel `sender → receiver` and returns true when it is
    /// fresh (deliver + ack) or false for an injected duplicate (drop).
    pub fn accept_seq(&mut self, receiver: KernelId, sender: KernelId, seq: u64) -> bool {
        let Some(state) = self.seq.as_mut() else {
            debug_assert!(false, "sequenced message without reliability state");
            return false;
        };
        let last = state.last_seen.entry((receiver.0, sender.0)).or_insert(0);
        if seq <= *last {
            return false;
        }
        *last = seq;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::params::MsgParams;
    use popcorn_hw::{CoreId, HwParams, Machine, Topology};

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping,
        Seq { seq: u64, inner: Box<Msg> },
    }

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            match self {
                Msg::Ping => 64,
                Msg::Seq { inner, .. } => 8 + inner.wire_size(),
            }
        }
    }

    impl SeqEnvelope for Msg {
        fn wrap_seq(seq: u64, inner: Self) -> Self {
            Msg::Seq {
                seq,
                inner: Box::new(inner),
            }
        }

        fn unwrap_seq(self) -> Result<(u64, Self), Self> {
            match self {
                Msg::Seq { seq, inner } => Ok((seq, *inner)),
                other => Err(other),
            }
        }
    }

    fn fabric(plan: Option<FaultPlan>) -> Fabric {
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let params = MsgParams {
            faults: plan.unwrap_or_else(FaultPlan::none),
            ..MsgParams::default()
        };
        Fabric::new(&machine, vec![CoreId(0), CoreId(4)], params)
    }

    fn policy() -> RetxPolicy {
        RetxPolicy {
            base_ns: 50_000,
            cap_ns: 2_000_000,
            max_attempts: 10,
        }
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let p = policy();
        assert_eq!(p.backoff_ns(1), 50_000);
        assert_eq!(p.backoff_ns(2), 100_000);
        assert_eq!(p.backoff_ns(5), 800_000);
        assert_eq!(p.backoff_ns(7), 2_000_000); // clamped
        assert_eq!(p.backoff_ns(63), 2_000_000); // shift would overflow
    }

    #[test]
    fn plain_path_without_faults() {
        let mut net: ReliableFabric<Msg> = ReliableFabric::new(fabric(None), Some(policy()));
        assert!(!net.is_reliable());
        match net.send(SimTime::ZERO, KernelId(0), KernelId(1), Msg::Ping) {
            SendPlan::Deliver { delivery, .. } => {
                assert_eq!(delivery.payload, Msg::Ping); // no envelope
                assert!(delivery.deliver_at > SimTime::ZERO);
            }
            other => panic!("expected Deliver, got {other:?}"),
        }
    }

    #[test]
    fn sequenced_sends_wrap_with_monotone_seq() {
        let plan = FaultPlan::uniform_drop(1, 0.0); // active but lossless
        let mut net: ReliableFabric<Msg> = ReliableFabric::new(fabric(Some(plan)), Some(policy()));
        assert!(net.is_reliable());
        for expect in 1..=3u64 {
            match net.send(SimTime::ZERO, KernelId(0), KernelId(1), Msg::Ping) {
                SendPlan::Deliver { delivery, .. } => match delivery.payload {
                    Msg::Seq { seq, inner } => {
                        assert_eq!(seq, expect);
                        assert_eq!(*inner, Msg::Ping);
                    }
                    other => panic!("expected Seq envelope, got {other:?}"),
                },
                other => panic!("expected Deliver, got {other:?}"),
            }
        }
    }

    #[test]
    fn lost_send_backs_off_then_retransmits_with_fresh_seq() {
        let plan = FaultPlan::uniform_drop(7, 1.0); // lose everything
        let mut net: ReliableFabric<Msg> = ReliableFabric::new(fabric(Some(plan)), Some(policy()));
        let now = SimTime::from_nanos(1_000);
        let SendPlan::Backoff {
            token,
            fire_at,
            backoff,
        } = net.send(now, KernelId(0), KernelId(1), Msg::Ping)
        else {
            panic!("expected Backoff");
        };
        assert_eq!(backoff, SimTime::from_nanos(50_000));
        assert_eq!(fire_at, now + backoff);
        // Second transmission (also lost) doubles the backoff and consumed
        // sequence number 2.
        let SendPlan::Backoff {
            token: token2,
            backoff: backoff2,
            ..
        } = net.retransmit(fire_at, token).expect("token is stashed")
        else {
            panic!("expected Backoff on retransmit");
        };
        assert_eq!(backoff2, SimTime::from_nanos(100_000));
        assert_ne!(token, token2);
        // The token was consumed: replaying it is a no-op.
        assert!(net.retransmit(fire_at, token).is_none());
    }

    #[test]
    fn abandoned_after_max_attempts() {
        let plan = FaultPlan::uniform_drop(7, 1.0);
        let mut net: ReliableFabric<Msg> = ReliableFabric::new(
            fabric(Some(plan)),
            Some(RetxPolicy {
                max_attempts: 2,
                ..policy()
            }),
        );
        let SendPlan::Backoff { token, fire_at, .. } =
            net.send(SimTime::ZERO, KernelId(0), KernelId(1), Msg::Ping)
        else {
            panic!("expected Backoff");
        };
        match net.retransmit(fire_at, token).expect("stashed") {
            SendPlan::Abandoned { from, to, payload } => {
                assert_eq!(from, KernelId(0));
                assert_eq!(to, KernelId(1));
                assert_eq!(payload, Msg::Ping); // unwrapped, back in hand
            }
            other => panic!("expected Abandoned, got {other:?}"),
        }
    }

    #[test]
    fn retx_policy_validation_rejects_degenerate_bounds() {
        assert_eq!(policy().validate(), Ok(()));
        let zero_base = RetxPolicy {
            base_ns: 0,
            ..policy()
        };
        assert!(zero_base.validate().is_err());
        let inverted = RetxPolicy {
            base_ns: 3_000_000,
            cap_ns: 2_000_000,
            max_attempts: 10,
        };
        assert!(inverted.validate().unwrap_err().contains("exceeds cap_ns"));
        let no_attempts = RetxPolicy {
            max_attempts: 0,
            ..policy()
        };
        assert!(no_attempts.validate().is_err());
        // Degenerate-but-legal: base == cap is a constant backoff.
        let flat = RetxPolicy {
            base_ns: 2_000_000,
            cap_ns: 2_000_000,
            max_attempts: 1,
        };
        assert_eq!(flat.validate(), Ok(()));
    }

    #[test]
    fn abandon_to_drains_only_the_dead_channel() {
        let plan = FaultPlan::uniform_drop(7, 1.0); // lose everything
        let mut net: ReliableFabric<Msg> = ReliableFabric::new(fabric(Some(plan)), Some(policy()));
        let (a, b) = (KernelId(0), KernelId(1));
        // Two stashed a→b losses and one b→a loss.
        let SendPlan::Backoff { token, .. } = net.send(SimTime::ZERO, a, b, Msg::Ping) else {
            panic!("expected Backoff");
        };
        assert!(matches!(
            net.send(SimTime::ZERO, a, b, Msg::Ping),
            SendPlan::Backoff { .. }
        ));
        let SendPlan::Backoff { token: rev, .. } = net.send(SimTime::ZERO, b, a, Msg::Ping) else {
            panic!("expected Backoff");
        };
        let drained = net.abandon_to(a, b);
        assert_eq!(drained, vec![Msg::Ping, Msg::Ping]);
        // The drained tokens' timers are now no-ops …
        assert!(net.retransmit(SimTime::from_nanos(1), token).is_none());
        // … while the reverse channel's stash is untouched.
        assert!(net.retransmit(SimTime::from_nanos(1), rev).is_some());
        assert!(net.abandon_to(a, b).is_empty());
    }

    #[test]
    fn accept_seq_suppresses_duplicates_per_channel() {
        let plan = FaultPlan::uniform_drop(1, 0.0);
        let mut net: ReliableFabric<Msg> = ReliableFabric::new(fabric(Some(plan)), Some(policy()));
        let (a, b) = (KernelId(0), KernelId(1));
        assert!(net.accept_seq(b, a, 1));
        assert!(!net.accept_seq(b, a, 1)); // duplicate
        assert!(net.accept_seq(b, a, 2));
        assert!(!net.accept_seq(b, a, 1)); // stale duplicate
                                           // Directions are independent channels.
        assert!(net.accept_seq(a, b, 1));
    }
}
