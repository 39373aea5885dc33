#![warn(missing_docs)]
//! Simulated multicore x86 machine for the Popcorn replicated-kernel OS
//! reproduction.
//!
//! The paper's evaluation ran on multi-socket x86 hardware; its results are
//! dominated by a handful of hardware-mediated OS costs: cache-line transfer
//! on contended kernel locks, inter-processor interrupts (IPIs), and TLB
//! shootdowns. This crate models exactly those, in virtual time:
//!
//! - [`Topology`] — sockets × cores, optionally split into CCXs ([`topo`]);
//! - [`HwParams`] — every latency constant, overridable per experiment ([`params`]);
//! - [`Interconnect`] — core↔core and page-table-walk latency ([`interconnect`]);
//! - [`LockSite`] / [`RwLockSite`] — queuing models that turn concurrent
//!   acquires of a simulated kernel lock into waiting time and cache-line
//!   ping-pong cost ([`lock`]) — the mechanism behind the SMP baseline's
//!   scalability collapse;
//! - [`ShootdownModel`] — IPI broadcast and TLB-shootdown completion time
//!   ([`coherence`]).
//!
//! # Example
//!
//! ```
//! use popcorn_hw::{Machine, Topology, HwParams, CoreId};
//!
//! let machine = Machine::new(Topology::new(4, 16), HwParams::default());
//! let a = CoreId(0);
//! let b = CoreId(17); // second socket
//! assert!(machine.interconnect().core_to_core(a, b)
//!         > machine.interconnect().core_to_core(a, CoreId(1)));
//! ```

pub mod coherence;
pub mod interconnect;
pub mod lock;
pub mod params;
pub mod topo;

pub use coherence::ShootdownModel;
pub use interconnect::Interconnect;
pub use lock::{LockAcquire, LockSite, RwLockSite};
pub use params::HwParams;
pub use topo::{CoreId, SocketId, Topology};

use popcorn_sim::SimTime;

/// The assembled machine model: topology plus calibrated cost parameters.
///
/// `Machine` is shared read-only by every kernel instance in an OS model;
/// all mutable contention state lives in [`LockSite`]s owned by the kernels
/// themselves.
#[derive(Debug, Clone)]
pub struct Machine {
    topology: Topology,
    params: HwParams,
    interconnect: Interconnect,
    shootdown: ShootdownModel,
}

impl Machine {
    /// Builds a machine from a topology and parameters.
    pub fn new(topology: Topology, params: HwParams) -> Self {
        let interconnect = Interconnect::new(topology, &params);
        let shootdown = ShootdownModel::new(&params);
        Machine {
            topology,
            params,
            interconnect,
            shootdown,
        }
    }

    /// The core/socket layout.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The calibrated cost constants.
    pub fn params(&self) -> &HwParams {
        &self.params
    }

    /// Core↔core and core↔memory latency model.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// IPI / TLB-shootdown cost model.
    pub fn shootdown(&self) -> &ShootdownModel {
        &self.shootdown
    }

    /// Converts CPU cycles to virtual time at this machine's clock.
    pub fn cycles(&self, n: u64) -> SimTime {
        SimTime::from_cycles(n, self.params.clock_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(Topology::new(2, 4), HwParams::default())
    }

    #[test]
    fn cycles_convert_at_configured_clock() {
        let m = machine();
        // 2400 cycles at 2.4 GHz = 1 µs.
        assert_eq!(m.cycles(2400), SimTime::from_micros(1));
        assert_eq!(m.cycles(0), SimTime::ZERO);
    }

    #[test]
    fn accessors_expose_consistent_views() {
        let m = machine();
        assert_eq!(m.topology().num_cores(), 8);
        assert_eq!(m.interconnect().topology(), m.topology());
        assert_eq!(m.params().ipi_latency(), m.shootdown().ipi_latency());
    }

    #[test]
    fn clone_preserves_the_model() {
        let a = machine();
        let b = a.clone();
        assert_eq!(a.topology(), b.topology());
        assert_eq!(a.params(), b.params());
        assert_eq!(
            a.interconnect().core_to_core(CoreId(0), CoreId(5)),
            b.interconnect().core_to_core(CoreId(0), CoreId(5))
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn interconnect_rejects_foreign_cores() {
        machine().interconnect().core_to_core(CoreId(0), CoreId(99));
    }
}
