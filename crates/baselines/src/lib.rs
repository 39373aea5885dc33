#![warn(missing_docs)]
//! Comparison OS models for the replicated-kernel evaluation.
//!
//! The paper compares Popcorn against **SMP Linux** and **Barrelfish**; this
//! crate provides both as simulation models on the same kernel mechanism:
//!
//! - [`SmpOs`] ([`smp`]) — one kernel shared by every core; each shared
//!   data structure is a contended lock site, so scalability collapses
//!   exactly where the paper says SMP Linux's does;
//! - [`MultikernelOs`] ([`multikernel`]) — Barrelfish-like per-partition
//!   kernels with message passing and *no* single-system image: perfect
//!   memory-management scalability, but no transparent shared memory and
//!   no thread migration.
//!
//! Both implement [`OsModel`](popcorn_kernel::osmodel::OsModel), so every
//! workload and experiment runs unchanged against all three systems.

pub mod multikernel;
pub mod params;
pub mod smp;

pub use multikernel::MultikernelOs;
pub use params::{MultikernelParams, SmpParams};
pub use smp::SmpOs;
