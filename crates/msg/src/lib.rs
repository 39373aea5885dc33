#![warn(missing_docs)]
//! Popcorn's inter-kernel message layer, as a simulation model.
//!
//! In Popcorn Linux, kernel instances on one machine communicate through a
//! kernel-level message layer built on shared-memory rings with IPI
//! notification. Every protocol in the paper — thread migration, address
//! space consistency, distributed futexes — rides on it, so its latency and
//! throughput shape every result.
//!
//! This crate models that layer:
//!
//! - [`KernelId`] — a kernel instance identifier;
//! - [`Wire`] — payload size accounting (bytes on the ring);
//! - [`Fabric`] — per-ordered-pair FIFO channels with a
//!   setup + per-byte + notification cost model, transmit serialization
//!   (a channel is busy while a message is being written), and delivery
//!   timestamps the OS model turns into simulation events;
//! - [`RpcTable`] — request/response correlation for the protocol layers;
//! - [`ReliableFabric`] — reliable delivery over a faulty fabric: sequence
//!   numbers in the [`Delivery`] header, acks and retransmission;
//! - [`MsgParams`] — the calibrated cost constants;
//! - [`FaultPlan`] — deterministic fault injection (drop / delay /
//!   duplicate / blackout / kernel crash); inactive by default.
//!
//! # Example
//!
//! ```
//! use popcorn_msg::{Fabric, KernelId, MsgParams, Wire};
//! use popcorn_hw::{Machine, Topology, HwParams, CoreId};
//! use popcorn_sim::SimTime;
//!
//! struct Ping;
//! impl Wire for Ping {
//!     fn wire_size(&self) -> usize { 64 }
//! }
//!
//! let machine = Machine::new(Topology::new(2, 4), HwParams::default());
//! // Kernel 0 lives on socket 0 (core 0), kernel 1 on socket 1 (core 4).
//! let mut fabric = Fabric::new(&machine, vec![CoreId(0), CoreId(4)], MsgParams::default());
//! let d = fabric.send(SimTime::ZERO, KernelId(0), KernelId(1), Ping).expect_delivered();
//! assert!(d.deliver_at > SimTime::ZERO);
//! ```

pub mod endpoint;
pub mod fabric;
pub mod fault;
pub mod params;
pub mod rpc;

pub use endpoint::{ReliableFabric, RetxPolicy, SendPlan};
pub use fabric::{Delivery, Fabric, KernelId, SendOutcome, Wire};
pub use fault::{Blackout, ChannelFaults, Crash, FaultCounters, FaultPlan};
pub use params::MsgParams;
pub use rpc::{RpcId, RpcTable};
