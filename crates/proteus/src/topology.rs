//! Machine topology: a 2-D mesh of processors.
//!
//! Proteus simulated k-ary n-cube networks; the experiments in the paper ran
//! on machines of 24–88 processors. We model a 2-D mesh with dimension-order
//! (Manhattan) routing, which is what determines per-message hop counts and
//! therefore both latency and word-hop bandwidth accounting.

use crate::ids::ProcId;

/// A 2-D mesh of `width × height` processors, row-major numbered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mesh {
    width: u32,
    height: u32,
}

impl Mesh {
    /// A mesh with explicit dimensions. Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Mesh {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// The most-square mesh holding at least `n` processors.
    ///
    /// E.g. `for_processors(24)` is 5×5, `for_processors(64)` is 8×8,
    /// `for_processors(88)` is 10×9.
    pub fn for_processors(n: u32) -> Mesh {
        assert!(n > 0, "machine must have at least one processor");
        let mut w = 1u32;
        while w * w < n {
            w += 1;
        }
        let h = n.div_ceil(w);
        Mesh::new(w, h)
    }

    /// Grid coordinates of a processor.
    pub fn coords(&self, p: ProcId) -> (u32, u32) {
        (p.0 % self.width, p.0 / self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, LAUNCH, PER_HOP};
    use crate::time::Cycles;

    /// Hops from `a` to `b` on `net`, read off an empty message's latency.
    fn hops(net: &mut Network, a: u32, b: u32) -> u64 {
        let latency = net.send(ProcId(a), ProcId(b), 0).unwrap();
        if a == b {
            assert_eq!(latency, Cycles::ZERO, "a message to self is free");
            return 0;
        }
        (latency - LAUNCH).get() / PER_HOP.get()
    }

    #[test]
    fn for_processors_is_square_ish() {
        assert_eq!(Mesh::for_processors(24), Mesh::new(5, 5));
        assert_eq!(Mesh::for_processors(64), Mesh::new(8, 8));
        assert_eq!(Mesh::for_processors(88), Mesh::new(10, 9));
        assert_eq!(Mesh::for_processors(1), Mesh::new(1, 1));
    }

    #[test]
    fn capacity_covers_request() {
        for n in 1..200 {
            let m = Mesh::for_processors(n);
            let (x, y) = m.coords(ProcId(n - 1));
            assert!(x < m.width && y < m.height, "n={n}");
        }
    }

    #[test]
    fn coords_row_major() {
        let m = Mesh::new(4, 3);
        assert_eq!(m.coords(ProcId(0)), (0, 0));
        assert_eq!(m.coords(ProcId(3)), (3, 0));
        assert_eq!(m.coords(ProcId(4)), (0, 1));
        assert_eq!(m.coords(ProcId(11)), (3, 2));
    }

    #[test]
    fn hops_is_manhattan() {
        // 16 processors sit on a 4x4 mesh.
        let mut net = Network::new(16);
        assert_eq!(hops(&mut net, 0, 0), 0);
        assert_eq!(hops(&mut net, 0, 3), 3);
        assert_eq!(hops(&mut net, 0, 15), 6);
        assert_eq!(hops(&mut net, 5, 10), 2);
    }

    #[test]
    fn hops_symmetric() {
        let mut net = Network::new(25);
        for a in 0..25 {
            for b in 0..25 {
                assert_eq!(hops(&mut net, a, b), hops(&mut net, b, a));
            }
        }
    }

    #[test]
    fn mean_hops_reasonable() {
        // For an 8x8 mesh the mean pairwise Manhattan distance is 16/3 ~ 5.33.
        let mut net = Network::new(64);
        let mut total = 0;
        for a in 0..64 {
            for b in (0..64).filter(|&b| b != a) {
                total += hops(&mut net, a, b);
            }
        }
        let mean = total as f64 / (64 * 63) as f64;
        assert!((mean - 16.0 / 3.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn single_processor_mesh() {
        assert_eq!(Mesh::for_processors(1), Mesh::new(1, 1));
        assert_eq!(hops(&mut Network::new(1), 0, 0), 0);
    }
}
