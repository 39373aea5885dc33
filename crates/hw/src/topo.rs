//! Core and socket identifiers and the machine topology.

use std::fmt;

/// A hardware core (hyperthreading is not modelled; one core = one logical
/// CPU as in the paper's setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u16);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A NUMA socket (one memory controller per socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SocketId(pub u16);

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

/// The machine layout: `sockets × cores_per_socket` cores, numbered
/// socket-major (cores 0..c-1 on socket 0, c..2c-1 on socket 1, ...), which
/// matches how Popcorn's evaluation partitioned kernels along socket
/// boundaries.
///
/// # Example
///
/// ```
/// use popcorn_hw::{Topology, CoreId, SocketId};
///
/// let t = Topology::new(4, 16);
/// assert_eq!(t.num_cores(), 64);
/// assert_eq!(t.socket_of(CoreId(17)), SocketId(1));
/// assert!(t.same_socket(CoreId(0), CoreId(15)));
/// assert!(!t.same_socket(CoreId(15), CoreId(16)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    sockets: u16,
    cores_per_socket: u16,
    /// Core-complex (CCX) groups per socket: the intermediate sharing
    /// domain between a core and its socket (an L3 complex on AMD-style
    /// parts). `1` means the socket is one undivided complex, which is the
    /// behaviour of every constructor that predates the CCX dimension.
    ccx_per_socket: u16,
}

impl Topology {
    /// Creates a topology (each socket is a single CCX).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(sockets: u16, cores_per_socket: u16) -> Self {
        Topology::with_ccx(sockets, 1, cores_per_socket)
    }

    /// Creates a topology with an explicit CCX layer: `sockets ×
    /// ccx_per_socket × cores_per_ccx` cores, numbered socket-major then
    /// CCX-major.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn with_ccx(sockets: u16, ccx_per_socket: u16, cores_per_ccx: u16) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(ccx_per_socket > 0, "need at least one CCX per socket");
        assert!(cores_per_ccx > 0, "need at least one core per CCX");
        Topology {
            sockets,
            cores_per_socket: ccx_per_socket * cores_per_ccx,
            ccx_per_socket,
        }
    }

    /// A single-socket topology with `cores` cores.
    pub fn single_socket(cores: u16) -> Self {
        Topology::new(1, cores)
    }

    /// The 4-socket × 16-core layout used as the reproduction's default
    /// 64-core machine (matching the paper-era evaluation scale).
    pub fn paper_default() -> Self {
        Topology::new(4, 16)
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> u16 {
        self.sockets
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> u16 {
        self.cores_per_socket
    }

    /// CCX groups per socket (1 when the CCX layer is not modelled).
    pub fn ccx_per_socket(&self) -> u16 {
        self.ccx_per_socket
    }

    /// Cores per CCX.
    pub fn cores_per_ccx(&self) -> u16 {
        self.cores_per_socket / self.ccx_per_socket
    }

    /// Total CCX count across the machine.
    pub fn num_ccx(&self) -> u16 {
        self.sockets * self.ccx_per_socket
    }

    /// The machine-wide CCX index a core belongs to (socket-major).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn ccx_of(&self, core: CoreId) -> u16 {
        assert!(self.contains(core), "{core} out of range for {self:?}");
        core.0 / self.cores_per_ccx()
    }

    /// Total core count.
    pub fn num_cores(&self) -> u16 {
        self.sockets * self.cores_per_socket
    }

    /// The socket a core lives on.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        assert!(self.contains(core), "{core} out of range for {self:?}");
        SocketId(core.0 / self.cores_per_socket)
    }

    /// Whether two cores share a socket.
    pub fn same_socket(&self, a: CoreId, b: CoreId) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }

    /// Whether the core id is valid for this topology.
    pub fn contains(&self, core: CoreId) -> bool {
        core.0 < self.num_cores()
    }

    /// Iterates all cores in id order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }

    /// Splits the cores into `n` contiguous, near-equal partitions — how the
    /// replicated-kernel and multikernel OS models assign cores to kernels.
    /// Earlier partitions receive the remainder cores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the core count.
    pub fn partition(&self, n: u16) -> Vec<Vec<CoreId>> {
        assert!(n > 0, "cannot partition into zero parts");
        let total = self.num_cores();
        assert!(n <= total, "more partitions ({n}) than cores ({total})");
        let base = total / n;
        let extra = total % n;
        let mut parts = Vec::with_capacity(n as usize);
        let mut next = 0u16;
        for i in 0..n {
            let len = base + u16::from(i < extra);
            parts.push((next..next + len).map(CoreId).collect());
            next += len;
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_major_numbering() {
        let t = Topology::new(2, 4);
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(3)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(4)), SocketId(1));
        assert_eq!(t.socket_of(CoreId(7)), SocketId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_of_rejects_out_of_range() {
        Topology::new(2, 4).socket_of(CoreId(8));
    }

    #[test]
    fn cores_iterates_all() {
        let t = Topology::new(2, 3);
        let cores: Vec<_> = t.cores().collect();
        assert_eq!(cores.len(), 6);
        assert_eq!(cores[0], CoreId(0));
        assert_eq!(cores[5], CoreId(5));
    }

    #[test]
    fn partition_even() {
        let t = Topology::new(2, 4);
        let parts = t.partition(4);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.len() == 2));
        // Contiguous and covering.
        let flat: Vec<_> = parts.iter().flatten().copied().collect();
        assert_eq!(flat, t.cores().collect::<Vec<_>>());
    }

    #[test]
    fn partition_uneven_front_loads_remainder() {
        let t = Topology::new(1, 7);
        let parts = t.partition(3);
        let lens: Vec<_> = parts.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![3, 2, 2]);
    }

    #[test]
    fn partition_one_per_core() {
        let t = Topology::new(1, 5);
        let parts = t.partition(5);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    #[should_panic(expected = "more partitions")]
    fn partition_rejects_too_many() {
        Topology::new(1, 2).partition(3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoreId(3).to_string(), "cpu3");
        assert_eq!(SocketId(1).to_string(), "socket1");
    }

    #[test]
    fn default_constructors_model_one_ccx_per_socket() {
        let t = Topology::new(2, 4);
        assert_eq!(t.ccx_per_socket(), 1);
        assert_eq!(t.cores_per_ccx(), 4);
        assert_eq!(t.num_ccx(), 2);
        assert_eq!(t.ccx_of(CoreId(3)), 0);
        assert_eq!(t.ccx_of(CoreId(4)), 1);
        // The CCX field participates in Eq, so legacy constructors must
        // stay comparable across call sites.
        assert_eq!(Topology::new(2, 4), Topology::with_ccx(2, 1, 4));
    }

    #[test]
    fn ccx_layer_nests_inside_sockets() {
        let t = Topology::with_ccx(4, 8, 8); // the 256-core E16 box
        assert_eq!(t.num_cores(), 256);
        assert_eq!(t.cores_per_socket(), 64);
        assert_eq!(t.num_ccx(), 32);
        assert_eq!(t.ccx_of(CoreId(0)), 0);
        assert_eq!(t.ccx_of(CoreId(7)), 0);
        assert_eq!(t.ccx_of(CoreId(8)), 1);
        assert_eq!(t.ccx_of(CoreId(64)), 8);
        assert_eq!(t.ccx_of(CoreId(0)), t.ccx_of(CoreId(7)));
        assert_ne!(t.ccx_of(CoreId(7)), t.ccx_of(CoreId(8)));
        // Every CCX nests in exactly one socket.
        for c in t.cores() {
            let ccx = t.ccx_of(c);
            assert_eq!(SocketId(ccx / t.ccx_per_socket()), t.socket_of(c));
        }
        // Contiguous partitioning by CCX count lands on CCX boundaries.
        let parts = t.partition(t.num_ccx());
        for (i, p) in parts.iter().enumerate() {
            assert!(p.iter().all(|&c| t.ccx_of(c) as usize == i));
        }
    }
}
