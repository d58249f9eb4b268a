//! Privacy amplification: condensing partially-leaked shared packets into
//! fewer, fully-secret ones.
//!
//! This is the algebraic heart of the paper's §3.1. Alice and a terminal
//! share `k` packets; an eavesdropper knows *some* `k - m` of them (which
//! ones is unknown). Multiplying the shared packets by an `m x k`
//! *superregular* matrix produces `m` outputs that are jointly uniform
//! given any `k - m` of the inputs: writing the output as
//! `y = G_K x_K + G_U x_U` with `U` the `m` unknown inputs, the `m x m`
//! block `G_U` is invertible (superregularity), so `y` is a bijective
//! function of the unknown uniform `x_U` for every fixing of `x_K`.
//!
//! The paper's §3.1 counter-example (`y' = x1+x3+x5, y'2 = x7+x9`) is a
//! matrix whose column support misses this property — reproduced as a test
//! below.

use crate::cauchy::{cauchy_matrix, CauchyError};
use thinair_gf::{Matrix, PayloadPlane};

/// A privacy-amplification extractor: maps `k` partially-leaked shared
/// packets to `m` secret packets.
///
/// ```
/// use thinair_mds::Extractor;
///
/// // 5 shared packets, adversary misses at least 2 of them (unknown
/// // which): extract 2 packets she knows nothing about.
/// let e = Extractor::new(2, 5).unwrap();
/// for a in 0..5usize {
///     for b in (a + 1)..5 {
///         let known: Vec<usize> = (0..5).filter(|&i| i != a && i != b).collect();
///         assert_eq!(e.secrecy_given(&known), 2);
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Extractor {
    matrix: Matrix,
}

impl Extractor {
    /// Builds an `m x k` extractor. Requires `m <= k` and `m + k <= 256`.
    pub fn new(m: usize, k: usize) -> Result<Self, CauchyError> {
        assert!(m <= k, "cannot extract more secrets than shared packets");
        Ok(Extractor { matrix: cauchy_matrix(m, k)? })
    }

    /// Number of secret outputs.
    pub fn outputs(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of shared inputs.
    pub fn inputs(&self) -> usize {
        self.matrix.cols()
    }

    /// The coefficient matrix (public; only the input *contents* are
    /// secret).
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Applies the extractor to `k` shared packets, producing `m` secret
    /// packets: `k × width` in, `m × width` out.
    ///
    /// # Panics
    /// Panics when `shared.rows() != self.inputs()`.
    pub fn extract_plane(&self, shared: &PayloadPlane) -> PayloadPlane {
        self.matrix.mul_plane(shared)
    }

    /// Verifies the secrecy property against a *known* adversary
    /// column-knowledge set: returns the number of output packets that
    /// remain uniform given the adversary knows the inputs in `known`.
    ///
    /// For a superregular matrix this is `min(m, k - |known|)` — the method
    /// exists so tests and the evaluation harness can confirm it.
    pub fn secrecy_given(&self, known: &[usize]) -> usize {
        let k = self.inputs();
        let unknown: Vec<usize> = (0..k).filter(|i| !known.contains(i)).collect();
        self.matrix.select_columns(&unknown).rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use thinair_gf::Gf256;

    #[test]
    fn dimensions() {
        let e = Extractor::new(2, 5).unwrap();
        assert_eq!(e.outputs(), 2);
        assert_eq!(e.inputs(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot extract more")]
    fn m_greater_than_k_panics() {
        let _ = Extractor::new(6, 5);
    }

    #[test]
    fn extraction_is_linear_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Extractor::new(2, 4).unwrap();
        let shared: Vec<Vec<Gf256>> =
            (0..4).map(|_| (0..8).map(|_| Gf256(rng.gen())).collect()).collect();
        let out = e.extract_plane(&PayloadPlane::from_payloads(&shared)).to_payloads();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 8);
    }

    #[test]
    fn full_secrecy_when_adversary_misses_m() {
        let e = Extractor::new(3, 8).unwrap();
        // Adversary knows any 5 of the 8: outputs stay fully secret.
        for known in [vec![0usize, 1, 2, 3, 4], vec![3, 4, 5, 6, 7], vec![0, 2, 4, 6, 7]] {
            assert_eq!(e.secrecy_given(&known), 3, "known {known:?}");
        }
    }

    #[test]
    fn graceful_degradation_when_adversary_knows_more() {
        let e = Extractor::new(3, 8).unwrap();
        // Adversary knows 6 -> only 2 outputs remain uniform; 7 -> 1; 8 -> 0.
        assert_eq!(e.secrecy_given(&[0, 1, 2, 3, 4, 5]), 2);
        assert_eq!(e.secrecy_given(&[0, 1, 2, 3, 4, 5, 6]), 1);
        assert_eq!(e.secrecy_given(&(0..8).collect::<Vec<_>>()), 0);
    }

    #[test]
    fn papers_counterexample_leaks() {
        // Paper §3.1: with shared packets (x1, x3, x5, x7, x9) and Eve
        // missing {x7, x9}, the combinations y'1 = x1+x3+x5 and
        // y'2 = x7+x9 leak y'1 entirely. Columns: 0:x1 1:x3 2:x5 3:x7 4:x9.
        let bad = Matrix::from_rows(&[
            vec![Gf256(1), Gf256(1), Gf256(1), Gf256(0), Gf256(0)],
            vec![Gf256(0), Gf256(0), Gf256(0), Gf256(1), Gf256(1)],
        ]);
        // Eve knows x1, x3, x5 (columns 0, 1, 2); unknown columns 3 and 4.
        let unknown = bad.select_columns(&[3, 4]);
        // Rank 1 < 2: exactly one of the two outputs leaks.
        assert_eq!(unknown.rank(), 1);

        // The paper's *good* combinations y1 = x1+x5+x9, y2 = x3+x7 keep
        // both outputs secret for this particular Eve.
        let good = Matrix::from_rows(&[
            vec![Gf256(1), Gf256(0), Gf256(1), Gf256(0), Gf256(1)],
            vec![Gf256(0), Gf256(1), Gf256(0), Gf256(1), Gf256(0)],
        ]);
        assert_eq!(good.select_columns(&[3, 4]).rank(), 2);

        // Our Cauchy extractor achieves this for *every* 2-subset Eve
        // might miss, not just the realized one.
        let e = Extractor::new(2, 5).unwrap();
        for a in 0..5 {
            for b in a + 1..5 {
                let known: Vec<usize> = (0..5).filter(|&i| i != a && i != b).collect();
                assert_eq!(e.secrecy_given(&known), 2, "Eve misses {{{a},{b}}}");
            }
        }
    }

    #[test]
    fn statistical_uniformity_smoke() {
        // Empirical sanity check of the secrecy argument: fix the packets
        // Eve knows, vary the ones she misses, and confirm the extractor
        // output takes many distinct values (it is a bijection of the
        // unknowns).
        let e = Extractor::new(1, 3).unwrap();
        let known = [vec![Gf256(7)], vec![Gf256(9)]]; // x0, x1 fixed
        let mut outputs = std::collections::BTreeSet::new();
        for v in 0..=255u8 {
            let shared = vec![known[0].clone(), known[1].clone(), vec![Gf256(v)]];
            let out = e.extract_plane(&PayloadPlane::from_payloads(&shared)).to_payloads();
            outputs.insert(out[0][0].value());
        }
        assert_eq!(outputs.len(), 256, "output must be a bijection of the unknown symbol");
    }
}
