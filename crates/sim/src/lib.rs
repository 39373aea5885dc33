#![warn(missing_docs)]
//! Deterministic discrete-event simulation engine for the Popcorn
//! replicated-kernel OS reproduction.
//!
//! Everything in the reproduction — kernels, message channels, hardware —
//! advances on a single virtual clock measured in nanoseconds. The engine is
//! deliberately minimal: a time-ordered event queue with stable FIFO
//! tie-breaking, a [`Handler`] trait implemented by whole-machine models, a
//! seeded pseudo-random number generator, and metric primitives
//! (counters, histograms, time series).
//!
//! The simulation is single-threaded and fully deterministic: running the
//! same model with the same seed produces bit-identical results, which is
//! what lets the benchmark harness regenerate every figure of the paper
//! reproducibly.
//!
//! # Example
//!
//! ```
//! use popcorn_sim::{Simulator, Handler, Scheduler, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! struct Counter { seen: u32 }
//! impl Handler<Ev> for Counter {
//!     fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         let Ev::Ping(n) = ev;
//!         self.seen = n;
//!         if n < 3 {
//!             sched.after(SimTime::from_micros(5), Ev::Ping(n + 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! sim.schedule(SimTime::ZERO, Ev::Ping(1));
//! let mut h = Counter { seen: 0 };
//! sim.run(&mut h);
//! assert_eq!(h.seen, 3);
//! assert_eq!(sim.now(), SimTime::from_micros(10));
//! ```

pub mod engine;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Handler, Scheduler, Simulator, StopCondition};
pub use queue::CalendarQueue;
pub use rng::SimRng;
pub use stats::{Counter, Histogram, TimeSeries};
pub use time::SimTime;
