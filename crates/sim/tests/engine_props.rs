//! Randomized property tests for the simulation engine and metric
//! primitives, driven by the crate's own deterministic [`SimRng`] (the
//! build is offline, so no external property-testing framework): each test
//! replays many generated cases from a fixed seed, keeping runs
//! reproducible bit-for-bit.

use popcorn_sim::{
    CalendarQueue, Handler, Histogram, Scheduler, SimRng, SimTime, Simulator, StopCondition,
    TimeSeries,
};

#[derive(Debug)]
struct Tagged {
    at: u64,
    seq: usize,
}

struct Collector {
    fired: Vec<(u64, usize)>,
}

impl Handler<Tagged> for Collector {
    fn handle(&mut self, now: SimTime, ev: Tagged, _sched: &mut Scheduler<Tagged>) {
        assert_eq!(now.as_nanos(), ev.at, "event fired at its scheduled time");
        self.fired.push((ev.at, ev.seq));
    }
}

/// Draws a random schedule of `1..max_len` event times below `bound`.
fn random_times(rng: &mut SimRng, max_len: u64, bound: u64) -> Vec<u64> {
    let len = rng.range_u64(1, max_len) as usize;
    (0..len).map(|_| rng.range_u64(0, bound)).collect()
}

/// Events fire in nondecreasing time order with FIFO tie-breaking, for any
/// schedule.
#[test]
fn events_fire_in_order_with_fifo_ties() {
    let mut rng = SimRng::new(0x5EED_0001);
    for _ in 0..256 {
        let times = random_times(&mut rng, 200, 1_000);
        let mut sim = Simulator::new();
        for (seq, &at) in times.iter().enumerate() {
            sim.schedule(SimTime::from_nanos(at), Tagged { at, seq });
        }
        let mut c = Collector { fired: Vec::new() };
        sim.run(&mut c);
        assert_eq!(c.fired.len(), times.len());
        for w in c.fired.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }
}

/// Splitting a run at an arbitrary horizon produces the same firing
/// sequence as one uninterrupted run.
#[test]
fn horizon_split_is_transparent() {
    let mut rng = SimRng::new(0x5EED_0002);
    for _ in 0..256 {
        let times = random_times(&mut rng, 100, 1_000);
        let split = rng.range_u64(0, 1_000);
        let run_once = |split: Option<u64>| {
            let mut sim = Simulator::new();
            for (seq, &at) in times.iter().enumerate() {
                sim.schedule(SimTime::from_nanos(at), Tagged { at, seq });
            }
            let mut c = Collector { fired: Vec::new() };
            if let Some(h) = split {
                sim.run_until(&mut c, SimTime::from_nanos(h), u64::MAX);
            }
            sim.run(&mut c);
            c.fired
        };
        assert_eq!(run_once(None), run_once(Some(split)));
    }
}

/// Histogram quantiles are always within [min, max], monotone in q, and
/// the mean is exact.
#[test]
fn histogram_quantiles_are_sane() {
    let mut rng = SimRng::new(0x5EED_0003);
    for _ in 0..256 {
        let len = rng.range_u64(1, 300) as usize;
        let samples: Vec<u64> = (0..len).map(|_| rng.range_u64(0, 10_000_000)).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let min = *samples.iter().min().expect("nonempty");
        let max = *samples.iter().max().expect("nonempty");
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert_eq!(h.min(), min);
        assert_eq!(h.max(), max);
        assert!((h.mean() - mean).abs() < 1e-6);
        let mut prev = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= min && v <= max, "quantile {q} out of range");
            assert!(v >= prev, "quantiles not monotone");
            prev = v;
        }
        // Median has bounded relative error vs the exact one.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = sorted[(sorted.len() - 1) / 2];
        let got = h.quantile(0.5) as f64;
        if exact > 0 {
            let err = (got - exact as f64).abs() / exact as f64;
            assert!(
                err <= 0.0783,
                "median error {err} > 2^-4 + slack (got {got}, exact {exact})"
            );
        }
    }
}

/// The point-list series `TimeSeries` kept before it streamed: every point
/// stored (out-of-order times clamped to the last one), every statistic
/// recomputed from the list.
#[derive(Default)]
struct PointSeries {
    points: Vec<(SimTime, f64)>,
}

impl PointSeries {
    fn push(&mut self, at: SimTime, value: f64) {
        let at = self.points.last().map_or(at, |&(t, _)| at.max(t));
        self.points.push((at, value));
    }

    fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    fn max(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn time_weighted_mean(&self) -> f64 {
        let (Some(&(first, _)), Some(&(last, _))) = (self.points.first(), self.points.last())
        else {
            return 0.0;
        };
        let span = last.saturating_sub(first).as_nanos();
        if span == 0 {
            return self.mean();
        }
        let mut acc = 0.0;
        for w in self.points.windows(2) {
            acc += w[0].1 * w[1].0.saturating_sub(w[0].0).as_nanos() as f64;
        }
        acc / span as f64
    }
}

/// The streaming `TimeSeries` matches the point list bit for bit after
/// every push: point and time-weighted means (including the zero-span
/// fallback, which a quarter of the cases stay in), max, and in release
/// builds the clamping of out-of-order pushes.
#[test]
fn time_series_streams_the_point_list_bit_for_bit() {
    let mut rng = SimRng::new(0x5EED_0007);
    let mut total_clamped = 0;
    for case in 0..64 {
        let zero_span = case % 4 == 0;
        let integral = rng.chance(0.5);
        let mut ts = TimeSeries::new();
        let mut reference = PointSeries::default();
        let mut now = rng.range_u64(0, 1_000_000);
        let mut clamped = 0;
        for _ in 0..rng.range_u64(0, 400) {
            let mut at = now;
            if !zero_span {
                now += rng.range_u64(0, 5) * rng.range_u64(0, 10_000);
                at = now;
                // Debug builds panic on an out-of-order push instead.
                if cfg!(not(debug_assertions)) && rng.chance(0.05) {
                    at = now.saturating_sub(rng.range_u64(1, 50_000));
                }
            }
            let at = SimTime::from_nanos(at);
            clamped += u64::from(reference.points.last().is_some_and(|&(t, _)| at < t));
            let value = if integral {
                rng.range_u64(0, 64) as f64
            } else {
                (rng.f64() - 0.5) * 1e4
            };
            ts.push(at, value);
            reference.push(at, value);
            assert_eq!(ts.len(), reference.points.len());
            assert_eq!(
                ts.mean().to_bits(),
                reference.mean().to_bits(),
                "case {case}"
            );
            assert_eq!(ts.max().to_bits(), reference.max().to_bits(), "case {case}");
            assert_eq!(
                ts.time_weighted_mean().to_bits(),
                reference.time_weighted_mean().to_bits(),
                "case {case}"
            );
        }
        assert_eq!(ts.disorder(), clamped, "case {case}");
        assert_eq!(ts.is_empty(), reference.points.is_empty());
        total_clamped += clamped;
    }
    assert!(cfg!(debug_assertions) || total_clamped > 0);
}

/// The RNG's range draws are uniform enough: each of 8 buckets of a large
/// sample is within 30% of the expected share, across many seeds.
#[test]
fn rng_range_is_roughly_uniform() {
    let mut seeder = SimRng::new(0x5EED_0004);
    for _ in 0..64 {
        let seed = seeder.next_u64();
        let mut rng = SimRng::new(seed);
        let mut buckets = [0u32; 8];
        let n = 8_000;
        for _ in 0..n {
            buckets[rng.index(8)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            let share = b as f64 / n as f64;
            assert!(
                (share - 0.125).abs() < 0.04,
                "seed {seed:#x} bucket {i} share {share}"
            );
        }
    }
}

/// Naive sorted-`Vec` priority queue: the test-only oracle the calendar
/// queue is differential-tested against. Everything is kept sorted by
/// `(at, seq)` and popped from the front — obviously correct, gloriously
/// slow.
struct ReferenceQueue<E> {
    items: Vec<(u64, u64, E)>,
}

impl<E> ReferenceQueue<E> {
    fn new() -> Self {
        ReferenceQueue { items: Vec::new() }
    }

    fn push(&mut self, at: u64, seq: u64, event: E) {
        let idx = self.items.partition_point(|&(a, s, _)| (a, s) <= (at, seq));
        self.items.insert(idx, (at, seq, event));
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.items.first().map(|&(a, s, _)| (a, s))
    }

    fn pop(&mut self) -> Option<(u64, u64, E)> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }
}

/// The calendar queue agrees op-for-op with the sorted-reference oracle
/// over randomized push/peek/pop interleavings: same-time bursts (some
/// larger than the entire ring of buckets), far-future times that route
/// through the overflow heap, and pushes earlier than everything still
/// queued (the retreat / head-spill paths).
#[test]
fn calendar_queue_matches_sorted_reference() {
    let mut rng = SimRng::new(0x5EED_0006);
    for case in 0..256 {
        let mut real: CalendarQueue<u64> = CalendarQueue::new();
        let mut oracle: ReferenceQueue<u64> = ReferenceQueue::new();
        let mut seq = 0u64;
        let mut push =
            |real: &mut CalendarQueue<u64>, oracle: &mut ReferenceQueue<u64>, at: u64| {
                real.push(SimTime::from_nanos(at), seq, seq);
                oracle.push(at, seq, seq);
                seq += 1;
            };

        // A same-time tie group larger than one ring of buckets, every
        // eighth case: 1300 events at a single instant (the ring has 1024
        // buckets), so extraction must stay seq-ordered across a group
        // that dwarfs any single-bucket assumption.
        if case % 8 == 0 {
            let at = rng.range_u64(0, 4_096);
            for _ in 0..1_300 {
                push(&mut real, &mut oracle, at);
            }
        }

        let ops = rng.range_u64(50, 600);
        let mut burst_at = rng.range_u64(0, 2_048);
        for _ in 0..ops {
            match rng.index(8) {
                // Near-future push (inside the ring window).
                0 | 1 => {
                    let at = rng.range_u64(0, 4_096);
                    push(&mut real, &mut oracle, at);
                }
                // Same-time burst: several events at one sticky instant.
                2 => {
                    for _ in 0..rng.range_u64(2, 40) {
                        push(&mut real, &mut oracle, burst_at);
                    }
                    if rng.index(4) == 0 {
                        burst_at = rng.range_u64(0, 8_192);
                    }
                }
                // Far-future push (beyond the 8192 ns ring window).
                3 => {
                    let at = rng.range_u64(8_192, 100_000);
                    push(&mut real, &mut oracle, at);
                }
                // Push earlier than the current minimum (retreat/spill).
                4 => {
                    let at = oracle
                        .peek()
                        .map(|(a, _)| a.saturating_sub(rng.range_u64(1, 512)))
                        .unwrap_or(0);
                    push(&mut real, &mut oracle, at);
                }
                // Pop.
                5 | 6 => {
                    let got = real.pop().map(|(a, s, e)| (a.as_nanos(), s, e));
                    assert_eq!(got, oracle.pop(), "pop diverged (case {case})");
                }
                // Peek (non-destructive).
                _ => {
                    assert_eq!(real.peek().map(|(a, s)| (a.as_nanos(), s)), oracle.peek());
                    assert_eq!(real.peek().map(|(a, s)| (a.as_nanos(), s)), oracle.peek());
                }
            }
        }

        // Drain both to empty; the tails must agree too.
        loop {
            let got = real.pop().map(|(a, s, e)| (a.as_nanos(), s, e));
            let want = oracle.pop();
            assert_eq!(got, want, "drain diverged (case {case})");
            if want.is_none() {
                break;
            }
        }
        assert!(real.is_empty());
        assert_eq!(real.len(), 0);
    }
}

/// Chain workload for the engine-level oracle: every event may stage
/// follow-ups, derived purely from `(case_seed, id, depth)` so the real
/// engine and the reference executor make identical staging decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chained {
    id: u64,
    depth: u8,
}

/// Deterministic follow-up schedule for one handled event: up to three
/// children at delays that exercise `immediately()` chains at one instant,
/// short hops within a bucket, hops across the ring, and far-future jumps
/// through the overflow heap.
fn reactions(case_seed: u64, ev: Chained) -> Vec<(u64, Chained)> {
    if ev.depth >= 3 {
        return Vec::new();
    }
    let mut r = SimRng::new(
        case_seed ^ ev.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((ev.depth as u64) << 56),
    );
    (0..r.index(4))
        .map(|i| {
            let delay = match r.index(4) {
                0 => 0,
                1 => r.range_u64(1, 16),
                2 => r.range_u64(16, 4_096),
                _ => r.range_u64(8_192, 32_768),
            };
            let child = Chained {
                id: ev.id.wrapping_mul(8).wrapping_add(i as u64 + 1),
                depth: ev.depth + 1,
            };
            (delay, child)
        })
        .collect()
}

struct Chainer {
    case_seed: u64,
    fired: Vec<(u64, Chained)>,
}

impl Handler<Chained> for Chainer {
    fn handle(&mut self, now: SimTime, ev: Chained, sched: &mut Scheduler<Chained>) {
        self.fired.push((now.as_nanos(), ev));
        for (delay, child) in reactions(self.case_seed, ev) {
            if delay == 0 {
                sched.immediately(child);
            } else {
                sched.after(SimTime::from_nanos(delay), child);
            }
        }
    }
}

/// Executes the same chain workload on the sorted-reference queue alone —
/// no engine, no fast paths — producing the ground-truth firing order.
fn reference_run(case_seed: u64, initial: &[(u64, Chained)]) -> Vec<(u64, Chained)> {
    let mut q = ReferenceQueue::new();
    let mut seq = 0u64;
    for &(at, ev) in initial {
        q.push(at, seq, ev);
        seq += 1;
    }
    let mut fired = Vec::new();
    while let Some((at, _, ev)) = q.pop() {
        fired.push((at, ev));
        for (delay, child) in reactions(case_seed, ev) {
            q.push(at + delay, seq, child);
            seq += 1;
        }
    }
    fired
}

/// The full engine — calendar queue, inline chain fast path, and all —
/// fires handler-staged chains in exactly the order the sorted-reference
/// executor predicts, both uninterrupted and when chopped into arbitrary
/// event-budget slices that land mid-tie-group.
#[test]
fn engine_matches_reference_executor_on_staged_chains() {
    let mut rng = SimRng::new(0x5EED_0007);
    for case in 0..256u64 {
        let case_seed = rng.next_u64();
        // Initial schedule: random singles plus a same-time burst so that
        // tie groups are routinely bigger than any budget slice. Case 0
        // seeds a burst larger than the whole 1024-bucket ring.
        let mut initial: Vec<(u64, Chained)> = Vec::new();
        let mut id = 1_000_000;
        for _ in 0..rng.range_u64(1, 48) {
            initial.push((rng.range_u64(0, 16_384), Chained { id, depth: 0 }));
            id += 1;
        }
        let burst_at = rng.range_u64(0, 8_192);
        let burst_len = if case == 0 {
            1_300
        } else {
            rng.range_u64(2, 64)
        };
        for _ in 0..burst_len {
            initial.push((burst_at, Chained { id, depth: 0 }));
            id += 1;
        }

        let want = reference_run(case_seed, &initial);

        let schedule = |sim: &mut Simulator<Chained>| {
            for &(at, ev) in &initial {
                sim.schedule(SimTime::from_nanos(at), ev);
            }
        };

        // One uninterrupted run.
        let mut sim = Simulator::new();
        schedule(&mut sim);
        let mut h = Chainer {
            case_seed,
            fired: Vec::new(),
        };
        sim.run(&mut h);
        assert_eq!(h.fired, want, "uninterrupted run diverged (case {case})");

        // The same workload chopped into tiny event-budget slices, which
        // routinely interrupt mid-tie-group (and mid-inline-chain).
        let mut sim = Simulator::new();
        schedule(&mut sim);
        let mut h = Chainer {
            case_seed,
            fired: Vec::new(),
        };
        loop {
            let budget = rng.range_u64(1, 20);
            match sim.run_until(&mut h, SimTime::MAX, budget) {
                StopCondition::EventBudgetExhausted => continue,
                StopCondition::QueueEmpty => break,
                other => panic!("unexpected stop: {other:?} (case {case})"),
            }
        }
        assert_eq!(h.fired, want, "budget-sliced run diverged (case {case})");
    }
}

/// Two simulators fed the same schedule agree event-for-event (engine
/// determinism).
#[test]
fn engine_is_deterministic() {
    let mut rng = SimRng::new(0x5EED_0005);
    for _ in 0..256 {
        let times = random_times(&mut rng, 100, 500);
        let run = || {
            let mut sim = Simulator::new();
            for (seq, &at) in times.iter().enumerate() {
                sim.schedule(SimTime::from_nanos(at), Tagged { at, seq });
            }
            let mut c = Collector { fired: Vec::new() };
            sim.run(&mut c);
            (c.fired, sim.now(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }
}
