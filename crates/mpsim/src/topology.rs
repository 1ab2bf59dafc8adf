//! Interconnect topologies.
//!
//! The topology contributes per-hop latency to message arrival times. The
//! paper's discussion of DD (Section III-B) notes that "on all realistic
//! parallel computers, the processors are connected via sparser networks
//! (such as 2D, 3D or hypercube)": the simulator provides those, plus the
//! idealized fully-connected network, so the DD-vs-IDD contrast can be
//! studied under different routing distances.

/// An interconnect shape; determines the hop count between ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Direct link between every pair (hop count 1).
    FullyConnected,
    /// Bidirectional ring: distance is the shorter way round.
    Ring,
    /// 2-D mesh (no wraparound), row-major rank layout.
    Mesh2D {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// 3-D torus (wraparound in all dimensions) — the Cray T3E's network.
    Torus3D {
        /// X dimension.
        x: usize,
        /// Y dimension.
        y: usize,
        /// Z dimension.
        z: usize,
    },
    /// Hypercube: distance is the Hamming distance of the rank ids.
    Hypercube,
}

impl Topology {
    /// Number of network hops between two ranks (0 for self).
    pub(crate) fn hops(&self, from: usize, to: usize, size: usize) -> usize {
        if from == to {
            return 0;
        }
        match *self {
            Topology::FullyConnected => 1,
            Topology::Ring => {
                let d = from.abs_diff(to);
                d.min(size - d)
            }
            Topology::Mesh2D { cols, .. } => {
                let (r1, c1) = (from / cols, from % cols);
                let (r2, c2) = (to / cols, to % cols);
                r1.abs_diff(r2) + c1.abs_diff(c2)
            }
            Topology::Torus3D { x, y, .. } => {
                let coords = |r: usize| (r % x, (r / x) % y, r / (x * y));
                let (x1, y1, z1) = coords(from);
                let (x2, y2, z2) = coords(to);
                let wrap = |a: usize, b: usize, dim: usize| {
                    let d = a.abs_diff(b);
                    d.min(dim - d)
                };
                let zdim = size / (x * y).max(1);
                wrap(x1, x2, x) + wrap(y1, y2, y) + wrap(z1, z2, zdim.max(1))
            }
            Topology::Hypercube => (from ^ to).count_ones() as usize,
        }
    }

    /// A torus sized to hold `p` ranks, mimicking T3E partitioning: the
    /// most cubic x·y·z ≥ p factorization of the next power of two.
    pub fn torus_for(p: usize) -> Topology {
        let mut dims = [1usize; 3];
        let mut total = 1;
        let mut axis = 0;
        while total < p {
            dims[axis] *= 2;
            total *= 2;
            axis = (axis + 1) % 3;
        }
        Topology::Torus3D {
            x: dims[0],
            y: dims[1],
            z: dims[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_distance_is_zero() {
        for t in [
            Topology::FullyConnected,
            Topology::Ring,
            Topology::Mesh2D { rows: 2, cols: 4 },
            Topology::Hypercube,
        ] {
            assert_eq!(t.hops(3, 3, 8), 0);
        }
    }

    #[test]
    fn ring_wraps_both_ways() {
        let r = Topology::Ring;
        assert_eq!(r.hops(0, 1, 8), 1);
        assert_eq!(r.hops(0, 7, 8), 1, "wraparound is one hop");
        assert_eq!(r.hops(0, 4, 8), 4);
        assert_eq!(r.hops(6, 2, 8), 4);
    }

    #[test]
    fn mesh_is_manhattan() {
        let m = Topology::Mesh2D { rows: 3, cols: 4 };
        // rank 0 = (0,0), rank 11 = (2,3).
        assert_eq!(m.hops(0, 11, 12), 5);
        assert_eq!(m.hops(1, 2, 12), 1);
    }

    #[test]
    fn hypercube_is_hamming() {
        let h = Topology::Hypercube;
        assert_eq!(h.hops(0b000, 0b111, 8), 3);
        assert_eq!(h.hops(0b101, 0b100, 8), 1);
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::Torus3D { x: 4, y: 4, z: 2 };
        // x-neighbours across the wrap.
        assert_eq!(t.hops(0, 3, 32), 1);
    }

    #[test]
    fn torus_for_covers_p() {
        for p in [1, 2, 7, 16, 128] {
            if let Topology::Torus3D { x, y, z } = Topology::torus_for(p) {
                assert!(x * y * z >= p, "torus too small for {p}");
            } else {
                panic!("expected torus");
            }
        }
    }

    #[test]
    fn symmetric_distances() {
        for t in [
            Topology::Ring,
            Topology::Mesh2D { rows: 4, cols: 4 },
            Topology::Hypercube,
            Topology::Torus3D { x: 4, y: 2, z: 2 },
        ] {
            for a in 0..16 {
                for b in 0..16 {
                    assert_eq!(t.hops(a, b, 16), t.hops(b, a, 16), "{t:?} {a}->{b}");
                }
            }
        }
    }
}
