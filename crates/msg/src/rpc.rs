//! Request/response correlation for the protocol layers.
//!
//! The migration, address-space and futex protocols are all
//! request/response: a kernel sends a request carrying an [`RpcId`] and
//! parks some continuation state until the matching response arrives. The
//! [`RpcTable`] owns that state; it is deliberately dumb — allocation,
//! matching and cancellation — so protocol logic stays in the protocol
//! crates.

use std::collections::HashMap;
use std::fmt;

/// Correlation identifier carried inside request/response payloads. Unique
/// per [`RpcTable`] (i.e. per kernel), never reused within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RpcId(pub u64);

impl fmt::Display for RpcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpc#{}", self.0)
    }
}

/// Outstanding-request table: maps an [`RpcId`] to the caller-defined
/// continuation value that the response handler needs.
///
/// # Example
///
/// ```
/// use popcorn_msg::RpcTable;
///
/// let mut table: RpcTable<&'static str> = RpcTable::new();
/// let id = table.register("waiting-for-page");
/// assert_eq!(table.outstanding(), 1);
/// assert_eq!(table.complete(id), Some("waiting-for-page"));
/// assert_eq!(table.complete(id), None); // already completed
/// ```
#[derive(Debug, Clone)]
pub struct RpcTable<C> {
    next: u64,
    pending: HashMap<RpcId, C>,
}

impl<C> Default for RpcTable<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> RpcTable<C> {
    /// Creates an empty table.
    pub fn new() -> Self {
        RpcTable {
            next: 1,
            pending: HashMap::new(),
        }
    }

    /// Allocates a fresh id and parks `continuation` under it.
    pub fn register(&mut self, continuation: C) -> RpcId {
        let id = RpcId(self.next);
        self.next += 1;
        self.pending.insert(id, continuation);
        id
    }

    /// Completes a request, yielding its continuation; `None` if the id is
    /// unknown or already completed (duplicate response). Duplicate
    /// responses are therefore inherently idempotent: the first wins, the
    /// rest see `None` and must do nothing — which also makes a response
    /// deadline timer that fires after completion a no-op.
    pub fn complete(&mut self, id: RpcId) -> Option<C> {
        self.pending.remove(&id)
    }

    /// Mutable peek at a pending continuation (for multi-response protocols
    /// that accumulate state before completing).
    pub fn get_mut(&mut self, id: RpcId) -> Option<&mut C> {
        self.pending.get_mut(&id)
    }

    /// Number of in-flight requests.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut t: RpcTable<u32> = RpcTable::new();
        let a = t.register(1);
        let b = t.register(2);
        let c = t.register(3);
        assert!(a < b && b < c);
    }

    #[test]
    fn complete_returns_continuation_once() {
        let mut t = RpcTable::new();
        let id = t.register("x");
        assert_eq!(t.complete(id), Some("x"));
        assert_eq!(t.complete(id), None);
    }

    #[test]
    fn unknown_id_completes_to_none() {
        let mut t: RpcTable<()> = RpcTable::new();
        assert_eq!(t.complete(RpcId(999)), None);
    }

    #[test]
    fn get_mut_allows_accumulation() {
        let mut t = RpcTable::new();
        let id = t.register(vec![1]);
        t.get_mut(id).unwrap().push(2);
        assert_eq!(t.complete(id), Some(vec![1, 2]));
    }

    #[test]
    fn ids_not_reused_after_completion() {
        let mut t: RpcTable<()> = RpcTable::new();
        let a = t.register(());
        t.complete(a);
        let b = t.register(());
        assert_ne!(a, b);
    }
}
