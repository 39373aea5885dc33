//! The event loop: a time-ordered queue with stable FIFO tie-breaking and a
//! [`Handler`] trait implemented by whole-machine models.
//!
//! Design note: instead of per-component actors with message mailboxes, the
//! engine dispatches every event to a single handler (the whole OS-model
//! "machine"). This sidesteps shared-mutability issues entirely — the machine
//! borrows itself mutably for the duration of one event — and matches how the
//! OS models are written: kernels never call each other directly, they only
//! exchange events through the queue, exactly like kernels on real hardware
//! exchange interrupts and shared-memory messages.

use crate::queue::CalendarQueue;
use crate::time::SimTime;

/// Scheduling interface handed to a [`Handler`] while it processes an event.
///
/// Events scheduled through it go straight into the simulator's queue — no
/// staging buffer, no allocation — except a *chain fast-path candidate*: a
/// first staged event that fires strictly before everything queued is held
/// in a one-slot buffer, and if it stays the only staged event the engine
/// dispatches it next without any queue traffic at all. Sequence numbers
/// are assigned in staging order either way, so the firing order is
/// identical to a buffered implementation.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut CalendarQueue<E>,
    seq: &'a mut u64,
    /// The chain fast-path candidate: the first staged event, held only
    /// when it fires before everything queued, and flushed to the queue as
    /// soon as a second event is staged.
    first: Option<(SimTime, u64, E)>,
    /// True once the first staged event has been routed to the queue (or
    /// flushed from the slot) — the fast path is off for this dispatch and
    /// later stages push straight through.
    overflowed: bool,
    stop: bool,
}

impl<E> Scheduler<'_, E> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    fn stage(&mut self, at: SimTime, event: E) {
        let seq = *self.seq;
        *self.seq += 1;
        if !self.overflowed {
            if self.first.is_none() {
                // First staged event of this dispatch: hold it as the chain
                // fast-path candidate only when it fires strictly before
                // everything queued (ties lose on purpose — queued events
                // carry smaller seqs). Nothing else can change the queue
                // minimum before the handler returns, so deciding here is
                // equivalent to deciding at end-of-dispatch and skips the
                // slot round-trip for the common schedule-for-later case.
                match self.queue.peek() {
                    Some((qat, _)) if qat <= at => {
                        self.overflowed = true;
                        self.queue.push(at, seq, event);
                    }
                    _ => self.first = Some((at, seq, event)),
                }
                return;
            }
            // A second staged event revokes the candidate: flush it, then
            // everything (including later stages) goes straight to the
            // queue, preserving seq order.
            self.overflowed = true;
            if let Some((a, s, e)) = self.first.take() {
                self.queue.push(a, s, e);
            }
        }
        self.queue.push(at, seq, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    #[inline]
    pub fn after(&mut self, delay: SimTime, event: E) {
        self.stage(self.now + delay, event);
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `at` is in the past: the simulation clock
    /// is monotonic, events cannot fire before the current time.
    #[inline]
    pub fn at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.stage(at.max(self.now), event);
    }

    /// Schedules `event` to fire immediately (at the current time, after all
    /// previously scheduled same-time events).
    #[inline]
    pub fn immediately(&mut self, event: E) {
        self.stage(self.now, event);
    }

    /// Requests that the simulation stop after the current event completes.
    /// Remaining queued events are preserved (inspectable via
    /// [`Simulator::pending`]).
    pub fn request_stop(&mut self) {
        self.stop = true;
    }
}

/// A model that reacts to events. Implemented by whole OS-model machines.
pub trait Handler<E> {
    /// Processes one event at virtual time `now`, scheduling any follow-up
    /// events through `sched`.
    fn handle(&mut self, now: SimTime, event: E, sched: &mut Scheduler<'_, E>);
}

/// Why [`Simulator::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// The event queue drained.
    QueueEmpty,
    /// The configured horizon was reached before the queue drained.
    HorizonReached,
    /// A handler called [`Scheduler::request_stop`].
    Requested,
    /// The configured event budget was exhausted (livelock guard).
    EventBudgetExhausted,
}

/// The discrete-event simulator: a virtual clock plus an event queue.
///
/// See the [crate-level example](crate) for usage. Internals: events wait in
/// a two-tier [`CalendarQueue`] (near-future bucket ring over a far-future
/// overflow heap; see [`crate::queue`]), handlers stage follow-ups directly
/// into that queue with no intermediate buffer, and a staged event that
/// fires strictly before everything queued is dispatched directly without a
/// queue round-trip — the self-rescheduling chain pattern that dominates
/// the OS models' tick loops. None of this changes the firing order: events
/// fire in `(time, seq)` order exactly as a sorted list would.
#[derive(Debug)]
pub struct Simulator<E> {
    queue: CalendarQueue<E>,
    now: SimTime,
    seq: u64,
    events_processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            queue: CalendarQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            events_processed: 0,
        }
    }

    /// The current virtual time (the fire time of the last event processed).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event at absolute time `at` (clamped to now).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, event);
    }

    /// Runs until the queue drains. Returns the stop condition (which is
    /// [`StopCondition::QueueEmpty`] unless a handler requested a stop).
    pub fn run<H: Handler<E>>(&mut self, handler: &mut H) -> StopCondition {
        self.run_until(handler, SimTime::MAX, u64::MAX)
    }

    /// Runs until the queue drains, virtual time would pass `horizon`, a
    /// handler requests a stop, or `event_budget` events have been processed
    /// (a guard against accidental livelock in protocol code).
    ///
    /// Events scheduled at exactly `horizon` still fire. A horizon earlier
    /// than the current time never rewinds the clock: the run stops
    /// immediately and `now` is unchanged.
    pub fn run_until<H: Handler<E>>(
        &mut self,
        handler: &mut H,
        horizon: SimTime,
        event_budget: u64,
    ) -> StopCondition {
        let mut budget = event_budget;
        // A staged event proven to fire before everything queued — the chain
        // fast path holds it here instead of round-tripping the queue. Must
        // be flushed back on every return so `pending()` and later runs see
        // it.
        let mut inline: Option<(SimTime, u64, E)> = None;
        loop {
            // Peek first so an over-horizon event stays queued.
            let next_at = match inline.as_ref() {
                Some((at, _, _)) => Some(*at),
                None => self.queue.peek().map(|(at, _)| at),
            };
            match next_at {
                None => return StopCondition::QueueEmpty,
                Some(at) if at > horizon => {
                    if let Some((at, seq, ev)) = inline {
                        self.queue.push(at, seq, ev);
                    }
                    // Clamp: a horizon in the past must not rewind the clock.
                    self.now = horizon.max(self.now);
                    return StopCondition::HorizonReached;
                }
                Some(_) => {}
            }
            if budget == 0 {
                if let Some((at, seq, ev)) = inline {
                    self.queue.push(at, seq, ev);
                }
                return StopCondition::EventBudgetExhausted;
            }
            budget -= 1;
            // `is_some` before `take`: a blind `take` copies the full
            // (time, seq, event) slot even when it holds `None`, and event
            // payloads are large.
            let (at, _seq, event) = if inline.is_some() {
                inline.take().expect("just checked")
            } else {
                self.queue.pop().expect("peeked non-empty")
            };
            debug_assert!(at >= self.now, "event queue went backwards in time");
            self.now = at;
            self.events_processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                seq: &mut self.seq,
                first: None,
                overflowed: false,
                stop: false,
            };
            handler.handle(self.now, event, &mut sched);
            let stop = sched.stop;
            if sched.first.is_some() {
                // Chain fast path: the scheduler proved this event fires
                // before everything queued and it stayed the only staged
                // event — dispatch it on the next iteration without
                // touching the queue (unless the handler asked to stop, in
                // which case it must be preserved as pending).
                let (at, seq, ev) = sched.first.take().expect("just checked");
                if stop {
                    sched.queue.push(at, seq, ev);
                } else {
                    inline = Some((at, seq, ev));
                }
            }
            if stop {
                debug_assert!(inline.is_none(), "fast path is skipped on stop");
                return StopCondition::Requested;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Tag(u32),
    }

    struct Recorder {
        order: Vec<(u64, u32)>,
        chain: u32,
        stop_at: Option<u32>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                order: Vec::new(),
                chain: 0,
                stop_at: None,
            }
        }
    }

    impl Handler<Ev> for Recorder {
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            let Ev::Tag(n) = ev;
            self.order.push((now.as_nanos(), n));
            if self.stop_at == Some(n) {
                sched.request_stop();
            }
            if self.chain > 0 {
                self.chain -= 1;
                sched.after(SimTime::from_nanos(10), Ev::Tag(n + 1));
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(30), Ev::Tag(3));
        sim.schedule(SimTime::from_nanos(10), Ev::Tag(1));
        sim.schedule(SimTime::from_nanos(20), Ev::Tag(2));
        let mut r = Recorder::new();
        assert_eq!(sim.run(&mut r), StopCondition::QueueEmpty);
        assert_eq!(r.order, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(sim.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim = Simulator::new();
        for n in 0..100 {
            sim.schedule(SimTime::from_nanos(5), Ev::Tag(n));
        }
        let mut r = Recorder::new();
        sim.run(&mut r);
        let tags: Vec<u32> = r.order.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handler_scheduled_events_chain() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, Ev::Tag(0));
        let mut r = Recorder::new();
        r.chain = 4;
        sim.run(&mut r);
        assert_eq!(r.order.len(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(40));
    }

    #[test]
    fn horizon_stops_but_preserves_future_events() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), Ev::Tag(1));
        sim.schedule(SimTime::from_nanos(100), Ev::Tag(2));
        let mut r = Recorder::new();
        let st = sim.run_until(&mut r, SimTime::from_nanos(50), u64::MAX);
        assert_eq!(st, StopCondition::HorizonReached);
        assert_eq!(r.order, vec![(10, 1)]);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        // Resuming with a later horizon picks the event back up.
        let st = sim.run_until(&mut r, SimTime::MAX, u64::MAX);
        assert_eq!(st, StopCondition::QueueEmpty);
        assert_eq!(r.order, vec![(10, 1), (100, 2)]);
    }

    #[test]
    fn event_at_exact_horizon_fires() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(50), Ev::Tag(1));
        let mut r = Recorder::new();
        let st = sim.run_until(&mut r, SimTime::from_nanos(50), u64::MAX);
        assert_eq!(st, StopCondition::QueueEmpty);
        assert_eq!(r.order, vec![(50, 1)]);
    }

    #[test]
    fn requested_stop_halts_immediately() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(1), Ev::Tag(1));
        sim.schedule(SimTime::from_nanos(2), Ev::Tag(2));
        let mut r = Recorder::new();
        r.stop_at = Some(1);
        let st = sim.run(&mut r);
        assert_eq!(st, StopCondition::Requested);
        assert_eq!(r.order, vec![(1, 1)]);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn event_budget_guards_against_livelock() {
        // A handler that reschedules itself forever at the same instant.
        struct Livelock;
        impl Handler<Ev> for Livelock {
            fn handle(&mut self, _now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
                sched.immediately(Ev::Tag(0));
            }
        }
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, Ev::Tag(0));
        let st = sim.run_until(&mut Livelock, SimTime::MAX, 1000);
        assert_eq!(st, StopCondition::EventBudgetExhausted);
        assert_eq!(sim.events_processed(), 1000);
    }

    #[test]
    fn past_horizon_does_not_rewind_the_clock() {
        // Regression: `run_until` with a horizon earlier than `now` used to
        // set `self.now = horizon`, rewinding the virtual clock.
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(100), Ev::Tag(1));
        sim.schedule(SimTime::from_nanos(200), Ev::Tag(2));
        let mut r = Recorder::new();
        let st = sim.run_until(&mut r, SimTime::from_nanos(150), u64::MAX);
        assert_eq!(st, StopCondition::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_nanos(150));
        // Back-to-back run with a *smaller* second horizon: nothing fires
        // and the clock stays where it was.
        let st = sim.run_until(&mut r, SimTime::from_nanos(40), u64::MAX);
        assert_eq!(st, StopCondition::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_nanos(150));
        assert_eq!(sim.pending(), 1);
        // Same with an empty queue.
        let st = sim.run_until(&mut r, SimTime::MAX, u64::MAX);
        assert_eq!(st, StopCondition::QueueEmpty);
        assert_eq!(sim.now(), SimTime::from_nanos(200));
        let st = sim.run_until(&mut r, SimTime::from_nanos(10), u64::MAX);
        assert_eq!(st, StopCondition::QueueEmpty);
        assert_eq!(sim.now(), SimTime::from_nanos(200));
        assert_eq!(r.order, vec![(100, 1), (200, 2)]);
    }

    #[test]
    fn budget_stop_preserves_inline_chain_event() {
        // The chain fast path must flush its held event back into the queue
        // when the budget runs out, so resuming continues the chain.
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, Ev::Tag(0));
        let mut r = Recorder::new();
        r.chain = 9;
        let st = sim.run_until(&mut r, SimTime::MAX, 4);
        assert_eq!(st, StopCondition::EventBudgetExhausted);
        assert_eq!(sim.pending(), 1);
        let st = sim.run(&mut r);
        assert_eq!(st, StopCondition::QueueEmpty);
        assert_eq!(r.order.len(), 10);
        assert_eq!(sim.now(), SimTime::from_nanos(90));
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), Ev::Tag(1));
        let mut r = Recorder::new();
        sim.run(&mut r);
        // now == 10; scheduling at 3 must clamp to 10, not go backwards.
        sim.schedule(SimTime::from_nanos(3), Ev::Tag(2));
        sim.run(&mut r);
        assert_eq!(r.order, vec![(10, 1), (10, 2)]);
    }
}
