//! Core↔core and page-table-walk latency model.
//!
//! Latency between cores is two-tier (same socket / cross socket), which is
//! what the QPI-style interconnects of the paper era look like to software.

use popcorn_sim::SimTime;

use crate::params::HwParams;
use crate::topo::{CoreId, Topology};

/// Precomputed latency tiers for a given topology and parameter set.
///
/// # Example
///
/// ```
/// use popcorn_hw::{Interconnect, Topology, HwParams, CoreId};
///
/// let ic = Interconnect::new(Topology::new(2, 2), &HwParams::default());
/// assert!(ic.core_to_core(CoreId(0), CoreId(0)).is_zero());
/// assert!(ic.core_to_core(CoreId(0), CoreId(3)) > ic.core_to_core(CoreId(0), CoreId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Interconnect {
    topology: Topology,
    same_socket: SimTime,
    cross_socket: SimTime,
    local_replica_walk: SimTime,
    remote_page_walk: SimTime,
    pt_replica_update: SimTime,
}

impl Interconnect {
    /// Builds the latency model.
    pub fn new(topology: Topology, params: &HwParams) -> Self {
        Interconnect {
            topology,
            same_socket: SimTime::from_nanos(params.line_transfer_same_socket_ns),
            cross_socket: SimTime::from_nanos(params.line_transfer_cross_socket_ns),
            local_replica_walk: SimTime::from_nanos(params.local_replica_walk_ns),
            remote_page_walk: SimTime::from_nanos(params.remote_page_walk_ns),
            pt_replica_update: SimTime::from_nanos(params.pt_replica_update_ns),
        }
    }

    /// One cache-line transfer between two cores (zero if they are the same
    /// core — the line is already local).
    pub fn core_to_core(&self, from: CoreId, to: CoreId) -> SimTime {
        if from == to {
            SimTime::ZERO
        } else if self.topology.same_socket(from, to) {
            self.same_socket
        } else {
            self.cross_socket
        }
    }

    /// A page-table walk, charged by replica locality: against a local
    /// replica of the tables, or against tables living on another kernel's
    /// memory (every level a remote access).
    pub fn page_walk(&self, local_replica: bool) -> SimTime {
        if local_replica {
            self.local_replica_walk
        } else {
            self.remote_page_walk
        }
    }

    /// Applying one pushed page-table-entry update at a replica holder.
    pub fn pt_replica_update(&self) -> SimTime {
        self.pt_replica_update
    }

    /// The topology this model was built for.
    pub fn topology(&self) -> Topology {
        self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ic() -> Interconnect {
        Interconnect::new(Topology::new(2, 4), &HwParams::default())
    }

    #[test]
    fn self_transfer_is_free() {
        assert_eq!(ic().core_to_core(CoreId(2), CoreId(2)), SimTime::ZERO);
    }

    #[test]
    fn cross_socket_costs_more() {
        let ic = ic();
        let near = ic.core_to_core(CoreId(0), CoreId(3));
        let far = ic.core_to_core(CoreId(0), CoreId(4));
        assert!(far > near);
        assert!(near > SimTime::ZERO);
    }

    #[test]
    fn transfer_is_symmetric() {
        let ic = ic();
        for a in 0..8u16 {
            for b in 0..8u16 {
                assert_eq!(
                    ic.core_to_core(CoreId(a), CoreId(b)),
                    ic.core_to_core(CoreId(b), CoreId(a))
                );
            }
        }
    }

    #[test]
    fn page_walk_tiers_match_params() {
        let p = HwParams::default();
        let ic = Interconnect::new(Topology::new(2, 4), &p);
        assert_eq!(ic.page_walk(true).as_nanos(), p.local_replica_walk_ns);
        assert_eq!(ic.page_walk(false).as_nanos(), p.remote_page_walk_ns);
        assert!(ic.page_walk(false) > ic.page_walk(true));
        assert_eq!(ic.pt_replica_update().as_nanos(), p.pt_replica_update_ns);
    }
}
