//! Polynomials over GF(2^8).
//!
//! Used by the Reed–Solomon code in `thinair-mds`: generator-polynomial
//! construction, evaluation (Horner), and Lagrange interpolation for
//! erasure decoding.

use crate::gf256::Gf256;

/// A polynomial with coefficients in GF(2^8), lowest degree first.
///
/// The zero polynomial is represented by an empty coefficient vector;
/// non-zero polynomials keep a non-zero leading coefficient (enforced by
/// `Poly::normalize` after every operation).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Poly {
    coeffs: Vec<Gf256>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly { coeffs: vec![Gf256::ONE] }
    }

    /// Builds a polynomial from coefficients, lowest degree first.
    pub fn from_coeffs(coeffs: Vec<Gf256>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// The monomial `c * x^d`.
    pub fn monomial(c: Gf256, d: usize) -> Self {
        if c.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Gf256::ZERO; d + 1];
        coeffs[d] = c;
        Poly { coeffs }
    }

    fn normalize(&mut self) {
        while self.coeffs.last().is_some_and(|c| c.is_zero()) {
            self.coeffs.pop();
        }
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Coefficients, lowest degree first (empty for zero).
    pub fn coeffs(&self) -> &[Gf256] {
        &self.coeffs
    }

    /// Coefficient of `x^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> Gf256 {
        self.coeffs.get(i).copied().unwrap_or(Gf256::ZERO)
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: Gf256) -> Gf256 {
        let mut acc = Gf256::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = Vec::with_capacity(n);
        for i in 0..n {
            coeffs.push(self.coeff(i) + other.coeff(i));
        }
        Poly::from_coeffs(coeffs)
    }

    /// Polynomial multiplication (schoolbook; degrees here are tiny).
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Gf256::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Poly::from_coeffs(coeffs)
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, c: Gf256) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&a| a * c).collect())
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q * divisor + r`, `deg r < deg divisor`.
    ///
    /// # Panics
    /// Panics when `divisor` is zero.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "division by zero polynomial");
        let dd = divisor.degree().unwrap();
        let lead_inv = divisor.coeffs[dd].inv();
        let mut rem = self.coeffs.clone();
        if rem.len() <= dd {
            return (Poly::zero(), self.clone());
        }
        let mut quot = vec![Gf256::ZERO; rem.len() - dd];
        for i in (dd..rem.len()).rev() {
            let c = rem[i];
            if c.is_zero() {
                continue;
            }
            let q = c * lead_inv;
            quot[i - dd] = q;
            for (j, &dcoef) in divisor.coeffs.iter().enumerate() {
                rem[i - dd + j] -= q * dcoef;
            }
        }
        (Poly::from_coeffs(quot), Poly::from_coeffs(rem))
    }

    /// Lagrange interpolation: the unique polynomial of degree `< points.len()`
    /// passing through all `(x, y)` pairs.
    ///
    /// # Panics
    /// Panics when two points share an x-coordinate.
    pub fn interpolate(points: &[(Gf256, Gf256)]) -> Poly {
        let mut acc = Poly::zero();
        for (i, &(xi, yi)) in points.iter().enumerate() {
            if yi.is_zero() {
                continue;
            }
            // Basis polynomial l_i(x) = prod_{j!=i} (x - x_j)/(x_i - x_j).
            let mut num = Poly::one();
            let mut denom = Gf256::ONE;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert!(xi != xj, "interpolation nodes must be distinct");
                num = num.mul(&Poly::from_coeffs(vec![xj, Gf256::ONE])); // (x + xj) == (x - xj)
                denom *= xi - xj;
            }
            acc = acc.add(&num.scale(yi * denom.inv()));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(coeffs: &[u8]) -> Poly {
        Poly::from_coeffs(coeffs.iter().map(|&c| Gf256(c)).collect())
    }

    #[test]
    fn normalization_strips_leading_zeros() {
        assert_eq!(p(&[1, 2, 0, 0]).degree(), Some(1));
        assert!(p(&[0, 0]).is_zero());
        assert_eq!(Poly::zero().degree(), None);
    }

    #[test]
    fn eval_horner_matches_naive() {
        let f = p(&[3, 1, 4, 1, 5]);
        for x in [Gf256(0), Gf256(1), Gf256(2), Gf256(0x53)] {
            let naive: Gf256 = f.coeffs().iter().enumerate().map(|(i, &c)| c * x.pow(i)).sum();
            assert_eq!(f.eval(x), naive);
        }
    }

    #[test]
    fn mul_degree_adds() {
        let a = p(&[1, 1]); // x + 1
        let b = p(&[2, 0, 1]); // x^2 + 2
        let c = a.mul(&b);
        assert_eq!(c.degree(), Some(3));
        // Evaluate-and-compare at several points (sound since deg < field size).
        for x in Gf256::all().take(10) {
            assert_eq!(c.eval(x), a.eval(x) * b.eval(x));
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..20 {
            let a_coeffs: Vec<Gf256> = (0..rng.gen_range(1..8)).map(|_| Gf256(rng.gen())).collect();
            let mut b_coeffs: Vec<Gf256> =
                (0..rng.gen_range(1..5)).map(|_| Gf256(rng.gen())).collect();
            // Force non-zero divisor.
            if b_coeffs.iter().all(|c| c.is_zero()) {
                b_coeffs[0] = Gf256::ONE;
            }
            let a = Poly::from_coeffs(a_coeffs);
            let b = Poly::from_coeffs(b_coeffs);
            let (q, r) = a.div_rem(&b);
            assert_eq!(q.mul(&b).add(&r), a);
            if let (Some(rd), Some(bd)) = (r.degree(), b.degree()) {
                assert!(rd < bd);
            }
        }
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..10 {
            let deg = rng.gen_range(0..6);
            let f = Poly::from_coeffs((0..=deg).map(|_| Gf256(rng.gen())).collect());
            // Sample at deg+1 distinct points.
            let points: Vec<(Gf256, Gf256)> = (0..=deg as u8)
                .map(|i| {
                    let x = Gf256(i + 1);
                    (x, f.eval(x))
                })
                .collect();
            let g = Poly::interpolate(&points);
            // Same evaluations everywhere => same polynomial of bounded degree.
            for x in Gf256::all().take(20) {
                assert_eq!(f.eval(x), g.eval(x));
            }
        }
    }

    #[test]
    fn monomial_shape() {
        let m = Poly::monomial(Gf256(7), 3);
        assert_eq!(m.degree(), Some(3));
        assert_eq!(m.coeff(3), Gf256(7));
        assert_eq!(m.coeff(0), Gf256::ZERO);
        assert!(Poly::monomial(Gf256::ZERO, 5).is_zero());
    }
}
