//! The recursive Fred_m(P) interconnect structure (Fig 7b–d).
//!
//! FRED's interconnect is a Clos (m, n = 2, r) network built recursively:
//! an *even* network with P = 2r ports has r input units (2×m) and r
//! output units (m×2) around m middle subnetworks Fred_m(r); an *odd*
//! network with P = 2r + 1 ports additionally connects its last port to
//! every middle subnetwork through a demux (input side) and mux (output
//! side), with middles Fred_m(r + 1) — following Chang & Melhem's
//! arbitrary-size Benes construction. The recursion terminates at the
//! base switches Fred_m(2) (one RD-μSwitch, Fig 7c) and Fred_m(3)
//! (Fig 7d).
//!
//! [`Interconnect`] is the static structure; routing state lives in
//! [`crate::routing::RoutedNetwork`].

use std::fmt;

/// Where a port attaches at one recursion level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortUnit {
    /// The port belongs to full input/output unit `k` (ports 2k, 2k+1).
    Unit(usize),
    /// The port is the odd tail port, attached via the demux/mux.
    Tail,
}

/// A Fred_m(P) interconnect.
///
/// ```
/// use fred_core::interconnect::Interconnect;
/// let net = Interconnect::new(2, 8)?;
/// assert_eq!(net.ports(), 8);
/// assert_eq!(net.m(), 2);
/// // Fred2(8) = 4+4 units around 2 x Fred2(4); Fred2(4) = 2+2 units
/// // around 2 x Fred2(2). 2x2-equivalent uSwitch count: see stats().
/// assert!(net.stats().micro_switches > 0);
/// # Ok::<(), fred_core::interconnect::InterconnectError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interconnect {
    m: usize,
    ports: usize,
    kind: NetKind,
}

/// The shape of one recursion level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetKind {
    /// Base Fred_m(2): a single RD-μSwitch.
    Leaf2,
    /// Base Fred_m(3): a 3×3 base switch with full R/D capability.
    Leaf3,
    /// A recursive stage with `r` full input/output units around `m`
    /// identical middle subnetworks (`odd` adds the tail port).
    Stage {
        /// Number of full 2-port input (and output) units.
        r: usize,
        /// Whether the tail port (number 2r) exists.
        odd: bool,
        /// The shared structure of the m middle subnetworks.
        middle: Box<Interconnect>,
    },
}

/// Aggregate structural statistics, used by the area/power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterconnectStats {
    /// Total 2×2-equivalent μSwitches (stage units count as m−1
    /// 2×2-equivalents per 2×m unit; Leaf3 counts as 3).
    pub micro_switches: usize,
    /// Demuxes added by odd levels.
    pub demuxes: usize,
    /// Muxes added by odd levels.
    pub muxes: usize,
    /// Stage depth (number of unit columns a worst-case path crosses).
    pub depth: usize,
}

/// Errors constructing an interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterconnectError {
    /// m must be at least 2 for a Clos-style network.
    MiddleCountTooSmall {
        /// The offending m.
        m: usize,
    },
    /// A switch needs at least 2 ports.
    TooFewPorts {
        /// The offending port count.
        ports: usize,
    },
}

impl fmt::Display for InterconnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterconnectError::MiddleCountTooSmall { m } => {
                write!(f, "fred requires m >= 2 middle subnetworks, got {m}")
            }
            InterconnectError::TooFewPorts { ports } => {
                write!(f, "fred requires at least 2 ports, got {ports}")
            }
        }
    }
}

impl std::error::Error for InterconnectError {}

impl Interconnect {
    /// Builds Fred_m(`ports`).
    ///
    /// # Errors
    ///
    /// Returns an error if `m < 2` or `ports < 2`.
    pub fn new(m: usize, ports: usize) -> Result<Interconnect, InterconnectError> {
        if m < 2 {
            return Err(InterconnectError::MiddleCountTooSmall { m });
        }
        if ports < 2 {
            return Err(InterconnectError::TooFewPorts { ports });
        }
        Ok(Self::build(m, ports))
    }

    fn build(m: usize, ports: usize) -> Interconnect {
        let kind = match ports {
            2 => NetKind::Leaf2,
            3 => NetKind::Leaf3,
            p if p % 2 == 0 => {
                let r = p / 2;
                NetKind::Stage {
                    r,
                    odd: false,
                    middle: Box::new(Self::build(m, r)),
                }
            }
            p => {
                let r = (p - 1) / 2;
                NetKind::Stage {
                    r,
                    odd: true,
                    middle: Box::new(Self::build(m, r + 1)),
                }
            }
        };
        Interconnect { m, ports, kind }
    }

    /// Number of external input (equivalently output) ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of middle subnetworks per stage.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The shape of the top recursion level.
    pub fn kind(&self) -> &NetKind {
        &self.kind
    }

    /// Maps an external port to its input/output unit at this level.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range or this is a leaf.
    pub fn unit_of_port(&self, port: usize) -> PortUnit {
        assert!(
            port < self.ports,
            "port {port} out of range (P={})",
            self.ports
        );
        match &self.kind {
            NetKind::Leaf2 | NetKind::Leaf3 => {
                panic!("unit_of_port is not defined on a base switch")
            }
            NetKind::Stage { r, odd, .. } => {
                if *odd && port == 2 * r {
                    PortUnit::Tail
                } else {
                    PortUnit::Unit(port / 2)
                }
            }
        }
    }

    /// Structural statistics for the area/power model.
    pub fn stats(&self) -> InterconnectStats {
        match &self.kind {
            NetKind::Leaf2 => InterconnectStats {
                micro_switches: 1,
                demuxes: 0,
                muxes: 0,
                depth: 1,
            },
            // A 3x3 base switch is built from three 2x2 uSwitches
            // (Chang-Melhem), crossing two columns.
            NetKind::Leaf3 => InterconnectStats {
                micro_switches: 3,
                demuxes: 0,
                muxes: 0,
                depth: 2,
            },
            NetKind::Stage { r, odd, middle } => {
                let inner = middle.stats();
                // A 2×m unit decomposes into (m-1) 2×2-equivalent
                // uSwitches (binary fan-out tree), same for m×2.
                let unit_eq = self.m - 1;
                InterconnectStats {
                    micro_switches: 2 * r * unit_eq + self.m * inner.micro_switches,
                    demuxes: inner.demuxes * self.m + usize::from(*odd),
                    muxes: inner.muxes * self.m + usize::from(*odd),
                    depth: inner.depth + 2,
                }
            }
        }
    }
}

impl fmt::Display for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fred{}({})", self.m, self.ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_cases() {
        assert_eq!(*Interconnect::new(2, 2).unwrap().kind(), NetKind::Leaf2);
        assert_eq!(*Interconnect::new(3, 3).unwrap().kind(), NetKind::Leaf3);
    }

    #[test]
    fn even_recursion_halves_ports() {
        let net = Interconnect::new(2, 8).unwrap();
        match net.kind() {
            NetKind::Stage { r, odd, middle } => {
                assert_eq!(*r, 4);
                assert!(!odd);
                assert_eq!(middle.ports(), 4);
                match middle.kind() {
                    NetKind::Stage { r, odd, middle } => {
                        assert_eq!(*r, 2);
                        assert!(!odd);
                        assert_eq!(*middle.kind(), NetKind::Leaf2);
                    }
                    _ => panic!("expected inner stage"),
                }
            }
            _ => panic!("expected stage"),
        }
    }

    #[test]
    fn odd_recursion_adds_tail() {
        // Fred3(11): r = 5, middles Fred3(6).
        let net = Interconnect::new(3, 11).unwrap();
        match net.kind() {
            NetKind::Stage { r, odd, middle } => {
                assert_eq!(*r, 5);
                assert!(odd);
                assert_eq!(middle.ports(), 6);
            }
            _ => panic!("expected stage"),
        }
        assert_eq!(net.unit_of_port(10), PortUnit::Tail);
        assert_eq!(net.unit_of_port(9), PortUnit::Unit(4));
        assert_eq!(net.unit_of_port(0), PortUnit::Unit(0));
    }

    #[test]
    fn five_ports_bottoms_out_at_leaf3() {
        let net = Interconnect::new(2, 5).unwrap();
        match net.kind() {
            NetKind::Stage { r, odd, middle } => {
                assert_eq!(*r, 2);
                assert!(odd);
                assert_eq!(*middle.kind(), NetKind::Leaf3);
            }
            _ => panic!("expected stage"),
        }
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Interconnect::new(1, 8).is_err());
        assert!(Interconnect::new(2, 1).is_err());
        assert!(Interconnect::new(0, 0).is_err());
    }

    #[test]
    fn benes_microswitch_count_matches_closed_form() {
        // For m=2 and P=2^k, the construction is the Benes network:
        // P/2 * (2*log2(P) - 1) 2x2 switches.
        for k in 1..=5usize {
            let p = 1 << k;
            let expected = (p / 2) * (2 * k - 1);
            let got = Interconnect::new(2, p).unwrap().stats().micro_switches;
            assert_eq!(got, expected, "P={p}");
        }
    }

    #[test]
    fn stats_count_muxes_on_odd_levels() {
        let s = Interconnect::new(3, 11).unwrap().stats();
        // Top level odd: 1 demux + 1 mux; middles Fred3(6) are even,
        // their middles Fred3(3) are leaves.
        assert_eq!(s.demuxes, 1);
        assert_eq!(s.muxes, 1);
        let s12 = Interconnect::new(3, 12).unwrap().stats();
        assert_eq!(s12.demuxes, 0);
    }

    #[test]
    fn display_formats_family_name() {
        assert_eq!(Interconnect::new(3, 12).unwrap().to_string(), "Fred3(12)");
    }

    #[test]
    fn depth_grows_logarithmically() {
        let d8 = Interconnect::new(2, 8).unwrap().stats().depth;
        let d16 = Interconnect::new(2, 16).unwrap().stats().depth;
        assert_eq!(d8, 5); // 2 + 2 + 1
        assert_eq!(d16, 7);
    }

    #[test]
    fn arbitrary_sizes_construct() {
        for p in 2..=33 {
            for m in 2..=3 {
                let net = Interconnect::new(m, p).unwrap();
                assert_eq!(net.ports(), p);
            }
        }
    }
}
