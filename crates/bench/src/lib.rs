#![warn(missing_docs)]
//! Experiment harness for the replicated-kernel OS reproduction.
//!
//! - [`table`] — result tables (text + JSON rendering);
//! - [`rig`] — [`Rig`], the only code in this crate that builds an OS
//!   model (its fault plan applies to Popcorn only); the experiment data
//!   model ([`rig::Experiment`], [`rig::Plan`], [`rig::Cell`],
//!   [`rig::CellOut`]); and [`rig::run`], the one runner, which sends every
//!   cell of the selected experiments through a single deterministic
//!   [`rig::parallel_map`];
//! - [`experiments`] — E1–E13 and the ablations, one plan-building
//!   function per reconstructed table/figure of the paper's evaluation,
//!   plus [`experiments::all_experiments`], the id → plan list `repro`
//!   runs;
//! - [`e14`], [`e15`], [`e16`] — the crash-failover, page-table
//!   replication and hierarchical-home experiments, one module each;
//! - [`check`] — the claims, as predicates over those experiments' tables;
//! - [`cli`] — argument parsing for the `repro` binary.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run --release -p popcorn-bench --bin repro -- all
//! cargo run --release -p popcorn-bench --bin repro -- e5 e8 --json out/
//! cargo run --release -p popcorn-bench --bin repro -- all --jobs 8
//! cargo run --release -p popcorn-bench --bin repro -- check --jobs 1
//! ```
//!
//! Every simulation is single-threaded and deterministic; `--jobs N`
//! only spreads *independent* cells over N host threads (never more
//! simulations at once than that), so results are byte-identical to
//! `--jobs 1` runs.
//!
//! `repro check` ([`check`]) regenerates each experiment a claim reads and
//! asserts the claimed result *shapes* on its table — a regression suite
//! for the reproduction itself, evaluated on the published numbers.

pub mod check;
pub mod cli;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod experiments;
pub mod rig;
pub mod table;

pub use rig::{OsKind, Rig};
pub use table::Table;
