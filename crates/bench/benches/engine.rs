//! Criterion benches for the simulation substrate itself: event queue,
//! RNG, histogram, lock-site model, fabric and the id-keyed tables the
//! protocol handlers look up on every step. These bound how large an
//! experiment the harness can afford.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use popcorn_hw::{CoreId, HwParams, Interconnect, LockSite, Machine, RwLockSite, Topology};
use popcorn_msg::{Fabric, KernelId, MsgParams, RpcTable, Wire};
use popcorn_sim::{Handler, Histogram, Scheduler, SimRng, SimTime, Simulator};

#[derive(Debug)]
enum Ev {
    Tick(u32),
}

struct Chain {
    remaining: u32,
}

impl Handler<Ev> for Chain {
    fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let Ev::Tick(n) = ev;
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(SimTime::from_nanos(7), Ev::Tick(n + 1));
        }
    }
}

fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("engine/event_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            sim.schedule(SimTime::ZERO, Ev::Tick(0));
            let mut h = Chain { remaining: 100_000 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });

    c.bench_function("engine/queue_fanout_10k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            for i in 0..10_000u32 {
                sim.schedule(SimTime::from_nanos((i % 977) as u64), Ev::Tick(i));
            }
            let mut h = Chain { remaining: 0 };
            sim.run(&mut h);
            black_box(sim.now())
        })
    });
}

/// Zero-delay chain: every event stages its successor at the same instant
/// via `immediately()`, the pattern the engine's inline fast path serves
/// without touching the queue at all.
struct ImmediateChain {
    remaining: u32,
}

impl Handler<Ev> for ImmediateChain {
    fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let Ev::Tick(n) = ev;
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.immediately(Ev::Tick(n + 1));
        }
    }
}

/// Chain alternating between a short hop inside the calendar ring window
/// and a far-future jump through the overflow heap, so both tiers (and the
/// migration between them) stay on the measured path.
struct NearFarChain {
    remaining: u32,
}

impl Handler<Ev> for NearFarChain {
    fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let Ev::Tick(n) = ev;
        if self.remaining > 0 {
            self.remaining -= 1;
            let delay = if n % 2 == 0 { 3 } else { 50_000 };
            sched.after(SimTime::from_nanos(delay), Ev::Tick(n + 1));
        }
    }
}

/// The three regimes the calendar-queue rework optimizes, measured in
/// isolation: same-time burst fan-out (tie-group extraction), the
/// self-rescheduling chain (inline fast path), and mixed near/far-future
/// schedules (ring ↔ overflow traffic).
fn bench_queue_regimes(c: &mut Criterion) {
    // All 10k events at one instant: a single tie group far larger than a
    // ring bucket, drained in FIFO seq order.
    c.bench_function("engine/same_time_burst_10k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            for i in 0..10_000u32 {
                sim.schedule(SimTime::from_micros(5), Ev::Tick(i));
            }
            let mut h = Chain { remaining: 0 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });

    c.bench_function("engine/immediate_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            sim.schedule(SimTime::ZERO, Ev::Tick(0));
            let mut h = ImmediateChain { remaining: 100_000 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });

    c.bench_function("engine/mixed_near_far_100k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            // A standing population in both tiers while the chain runs.
            for i in 0..64u32 {
                sim.schedule(SimTime::from_nanos(i as u64 * 1_009), Ev::Tick(i));
            }
            sim.schedule(SimTime::ZERO, Ev::Tick(0));
            let mut h = NearFarChain { remaining: 100_000 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("engine/rng_100k_draws", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(42);
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(rng.range_u64(0, 1_000_000));
            }
            black_box(acc)
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("engine/histogram_100k_records", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            let mut x = 88172645463325252u64;
            for _ in 0..100_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.record(x % 10_000_000);
            }
            black_box(h.quantile(0.99))
        })
    });
}

fn bench_lock_sites(c: &mut Criterion) {
    let params = HwParams::default();
    let ic = Interconnect::new(Topology::new(4, 16), &params);
    c.bench_function("engine/lock_site_100k_acquires", |b| {
        b.iter(|| {
            let mut site = LockSite::new("bench", &params);
            let mut t = SimTime::ZERO;
            for i in 0..100_000u32 {
                let a = site.acquire(t, CoreId((i % 64) as u16), SimTime::from_nanos(100), &ic);
                t = a.released_at.saturating_sub(SimTime::from_nanos(50));
            }
            black_box(site.acquires())
        })
    });
    c.bench_function("engine/rwlock_site_100k_reads", |b| {
        b.iter(|| {
            let mut site = RwLockSite::new("bench", &params);
            let mut t = SimTime::ZERO;
            for i in 0..100_000u32 {
                let a =
                    site.read_acquire(t, CoreId((i % 64) as u16), SimTime::from_nanos(400), &ic);
                t = a.acquired_at;
            }
            black_box(site.read_acquires())
        })
    });
}

struct Ping;

impl Wire for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

/// The per-step table lookups of the protocol layer: an RPC's register
/// and complete (one insert and one remove in the kernel's pending table,
/// with 64 requests in flight as under a busy futex server), and a fabric
/// send (one lookup in the per-channel map).
fn bench_tables(c: &mut Criterion) {
    c.bench_function("tables/rpc_register_complete_100k", |b| {
        b.iter(|| {
            let mut rpcs: RpcTable<u64> = RpcTable::new();
            let mut window: Vec<_> = (0..64u64).map(|i| rpcs.register(i)).collect();
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                let slot = (i % 64) as usize;
                acc = acc.wrapping_add(rpcs.complete(window[slot]).expect("in flight"));
                window[slot] = rpcs.register(i);
            }
            black_box((acc, rpcs.outstanding()))
        })
    });

    // 4 kernels, one per socket, and every one of the 12 ordered channels.
    let machine = Machine::new(Topology::new(4, 16), HwParams::default());
    let locations: Vec<CoreId> = (0..4).map(|k| CoreId(k * 16)).collect();
    let pairs: Vec<(KernelId, KernelId)> = (0..4u16)
        .flat_map(|a| (0..4u16).filter(move |&b| b != a).map(move |b| (a, b)))
        .map(|(a, b)| (KernelId(a), KernelId(b)))
        .collect();
    c.bench_function("tables/fabric_send_100k", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(&machine, locations.clone(), MsgParams::default());
            let mut last = SimTime::ZERO;
            for i in 0..100_000u64 {
                let (from, to) = pairs[(i % 12) as usize];
                let d = fabric
                    .send(SimTime::from_nanos(i * 200), from, to, Ping)
                    .expect_delivered();
                last = last.max(d.deliver_at);
            }
            black_box((last, fabric.total_sends()))
        })
    });
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_queue_regimes,
    bench_rng,
    bench_histogram,
    bench_lock_sites,
    bench_tables
);
criterion_main!(benches);
