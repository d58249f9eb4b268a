//! Dense row-major matrices over GF(2^8).
//!
//! The protocol's coefficient matrices are small (tens to a few hundred
//! rows), so a straightforward dense representation with in-place Gaussian
//! elimination is both the simplest and the fastest reasonable choice.
//! Elimination is fraction-free in spirit — every operation is exact field
//! arithmetic, there is no pivoting-for-stability concern, only
//! pivoting-for-nonzero.

use crate::gf256::Gf256;
use crate::kernel::Doubles;
use crate::plane::PayloadPlane;
use crate::vector::{add_assign_scaled, dot, scale_in_place};
use rand::Rng;
use std::fmt;
use std::ops::{Index, IndexMut, Mul};

/// A dense `rows x cols` matrix over GF(2^8), stored row-major.
///
/// ```
/// use thinair_gf::{Gf256, Matrix};
///
/// let a = Matrix::from_rows(&[
///     vec![Gf256(1), Gf256(2)],
///     vec![Gf256(3), Gf256(4)],
/// ]);
/// let inv = a.inverse().expect("non-singular");
/// assert_eq!(&a * &inv, Matrix::identity(2));
/// let x = vec![Gf256(7), Gf256(9)];
/// assert_eq!(a.solve(&a.mul_vec(&x)), Some(x));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// The all-zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![Gf256::ZERO; rows * cols] }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from complete rows.
    ///
    /// # Panics
    /// Panics when the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<Gf256>]) -> Self {
        if rows.is_empty() {
            return Matrix::zero(0, 0);
        }
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// A matrix with independently uniform entries, drawn from `rng`.
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| Gf256(rng.gen::<u8>()))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True iff the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Gf256] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Gf256] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over the rows, each as a slice.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[Gf256]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Copies column `c` out into a vector.
    pub fn col(&self, c: usize) -> Vec<Gf256> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Appends a row; the matrix must be empty or have matching width.
    pub fn push_row(&mut self, row: &[Gf256]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "pushing row of wrong width");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// A new matrix keeping only the listed columns, in order.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, cols.len(), |r, c| self[(r, cols[c])])
    }

    /// A new matrix keeping only the listed rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        Matrix::from_fn(rows.len(), self.cols, |r, c| self[(rows[r], c)])
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics when the widths differ (unless one side is empty).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        if self.rows == 0 {
            return other.clone();
        }
        if other.rows == 0 {
            return self.clone();
        }
        assert_eq!(self.cols, other.cols, "vstack of mismatched widths");
        let mut out = self.clone();
        out.data.extend_from_slice(&other.data);
        out.rows += other.rows;
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn mul_vec(&self, v: &[Gf256]) -> Vec<Gf256> {
        assert_eq!(v.len(), self.cols, "mul_vec dimension mismatch");
        self.rows_iter().map(|row| dot(row, v)).collect()
    }

    /// `self * payloads` over a contiguous payload plane
    /// (`cols × width` in, `rows × width` out).
    ///
    /// This is how y/z/s-packets are produced from x-packets: the same
    /// coefficient row acts on every symbol position of the payloads.
    ///
    /// Each input row's eight doublings are materialized once
    /// ([`Doubles`]) and shared by every output row, so one coefficient
    /// costs `popcount` vectorized XOR passes instead of a full
    /// multiply.
    ///
    /// # Panics
    /// Panics when `payloads.rows() != self.cols()`.
    pub fn mul_plane(&self, payloads: &PayloadPlane) -> PayloadPlane {
        assert_eq!(payloads.rows(), self.cols, "payload count mismatch");
        let mut out = PayloadPlane::zero(self.rows, payloads.width());
        let mut doubles = Doubles::new();
        for c in 0..self.cols {
            if (0..self.rows).all(|r| self[(r, c)].is_zero()) {
                continue;
            }
            doubles.set_from(payloads.row(c));
            for r in 0..self.rows {
                let coeff = self[(r, c)];
                if !coeff.is_zero() {
                    doubles.accumulate(out.row_mut(r), coeff.value());
                }
            }
        }
        out
    }

    /// Reduces `self` in place to *reduced row echelon form* and returns
    /// the pivot column of each pivot row (so `pivots.len()` is the rank).
    pub fn rref_in_place(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut pr = 0; // next pivot row
        for pc in 0..self.cols {
            // Find a row at or below pr with a non-zero entry in column pc.
            let Some(sel) = (pr..self.rows).find(|&r| !self[(r, pc)].is_zero()) else {
                continue;
            };
            self.swap_rows(pr, sel);
            let inv = self[(pr, pc)].inv();
            scale_in_place(self.row_mut(pr), inv);
            for r in 0..self.rows {
                if r != pr {
                    let factor = self[(r, pc)];
                    if !factor.is_zero() {
                        // row_r -= factor * row_pr, via split borrows.
                        let (dst, src) = self.two_rows_mut(r, pr);
                        add_assign_scaled(dst, src, factor);
                    }
                }
            }
            pivots.push(pc);
            pr += 1;
            if pr == self.rows {
                break;
            }
        }
        pivots
    }

    /// The rank of the matrix (leaves `self` untouched).
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.rref_in_place().len()
    }

    /// The inverse of a square matrix, or `None` when singular.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        // Augment with the identity and row-reduce.
        let mut aug = Matrix::zero(n, 2 * n);
        for r in 0..n {
            for c in 0..n {
                aug[(r, c)] = self[(r, c)];
            }
            aug[(r, n + r)] = Gf256::ONE;
        }
        let pivots = aug.rref_in_place();
        if pivots.len() < n || pivots.iter().enumerate().any(|(i, &p)| p != i) {
            return None;
        }
        Some(Matrix::from_fn(n, n, |r, c| aug[(r, n + c)]))
    }

    /// Solves `self * x = b` for a *uniquely determined* `x`.
    ///
    /// Returns `None` when the system is inconsistent or under-determined.
    /// `self` may be rectangular (over-determined systems are fine as long
    /// as they are consistent and have full column rank).
    pub fn solve(&self, b: &[Gf256]) -> Option<Vec<Gf256>> {
        assert_eq!(b.len(), self.rows, "solve rhs length mismatch");
        let mut aug = Matrix::zero(self.rows, self.cols + 1);
        for r in 0..self.rows {
            for c in 0..self.cols {
                aug[(r, c)] = self[(r, c)];
            }
            aug[(r, self.cols)] = b[r];
        }
        let pivots = aug.rref_in_place();
        // Inconsistent if some pivot lands in the augmented column.
        if pivots.contains(&self.cols) {
            return None;
        }
        // Under-determined if fewer pivots than unknowns.
        if pivots.len() < self.cols {
            return None;
        }
        let mut x = vec![Gf256::ZERO; self.cols];
        for (r, &p) in pivots.iter().enumerate() {
            x[p] = aug[(r, self.cols)];
        }
        Some(x)
    }

    /// Solves `self * X = B` where `B` is a payload plane with one row
    /// per equation; returns the `cols × width` solution plane, or
    /// `None` when the system is inconsistent or under-determined.
    ///
    /// Elimination runs in place on a scratch copy of the coefficients
    /// with the row operations mirrored onto a scratch copy of the
    /// plane — no per-row clones, and the pivot row's doublings are
    /// shared across all eliminations below and above it.
    ///
    /// # Panics
    /// Panics when `b.rows() != self.rows()`.
    pub fn solve_plane(&self, b: &PayloadPlane) -> Option<PayloadPlane> {
        assert_eq!(b.rows(), self.rows, "solve_plane rhs count mismatch");
        let mut a = self.clone();
        let mut rhs = b.clone();
        let mut pivots: Vec<usize> = Vec::new();
        let mut doubles = Doubles::new();
        let mut pr = 0usize;
        for pc in 0..a.cols {
            let Some(sel) = (pr..a.rows).find(|&r| !a[(r, pc)].is_zero()) else {
                continue;
            };
            a.swap_rows(pr, sel);
            rhs.swap_rows(pr, sel);
            let inv = a[(pr, pc)].inv();
            scale_in_place(a.row_mut(pr), inv);
            rhs.scale_row(pr, inv);
            // The doublings hold a copy of the pivot's rhs row, so the
            // mirrored update borrows the plane mutably without splits.
            doubles.set_from(rhs.row(pr));
            for r in 0..a.rows {
                if r == pr {
                    continue;
                }
                let factor = a[(r, pc)];
                if factor.is_zero() {
                    continue;
                }
                let (dst, src) = a.two_rows_mut(r, pr);
                add_assign_scaled(dst, src, factor);
                doubles.accumulate(rhs.row_mut(r), factor.value());
            }
            pivots.push(pc);
            pr += 1;
            if pr == a.rows {
                break;
            }
        }
        if pivots.len() < self.cols {
            return None; // under-determined
        }
        // Inconsistent if any eliminated (all-zero) row keeps a nonzero
        // right-hand side in some symbol position.
        for r in pr..a.rows {
            if rhs.row(r).iter().any(|&x| x != 0) {
                return None;
            }
        }
        let mut x = PayloadPlane::zero(self.cols, b.width());
        for (r, &p) in pivots.iter().enumerate() {
            x.row_mut(p).copy_from_slice(rhs.row(r));
        }
        Some(x)
    }

    /// Borrows rows `dst` and `src` simultaneously as slices.
    ///
    /// # Panics
    /// Panics when `dst == src`.
    #[inline]
    pub(crate) fn two_rows_mut(&mut self, dst: usize, src: usize) -> (&mut [Gf256], &[Gf256]) {
        assert_ne!(dst, src, "two_rows_mut needs distinct rows");
        let w = self.cols;
        if dst < src {
            let (head, tail) = self.data.split_at_mut(src * w);
            (&mut head[dst * w..(dst + 1) * w], &tail[..w])
        } else {
            let (head, tail) = self.data.split_at_mut(dst * w);
            (&mut tail[..w], &head[src * w..(src + 1) * w])
        }
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let cols = self.cols;
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * cols);
        head[a * cols..(a + 1) * cols].swap_with_slice(&mut tail[..cols]);
    }

    /// True iff every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|x| x.is_zero())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix product dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if !a.is_zero() {
                    let dst = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                    add_assign_scaled(dst, rhs.row(k), a);
                }
            }
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self[(r, c)].value())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: &[&[u8]]) -> Matrix {
        Matrix::from_rows(
            &rows.iter().map(|r| r.iter().map(|&v| Gf256(v)).collect()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(4, 4, &mut rng);
        let i = Matrix::identity(4);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn product_matches_manual_small() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[5, 6], &[7, 8]]);
        let c = &a * &b;
        for r in 0..2 {
            for col in 0..2 {
                let expect = a[(r, 0)] * b[(0, col)] + a[(r, 1)] * b[(1, col)];
                assert_eq!(c[(r, col)], expect);
            }
        }
    }

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(Matrix::identity(5).rank(), 5);
        assert_eq!(Matrix::zero(3, 7).rank(), 0);
    }

    #[test]
    fn rank_detects_dependent_rows() {
        // Third row = first + second.
        let a = m(&[&[1, 2, 3], &[4, 5, 6], &[1 ^ 4, 2 ^ 5, 3 ^ 6]]);
        assert_eq!(a.rank(), 2);
    }

    #[test]
    fn inverse_round_trip_random() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut found = 0;
        while found < 5 {
            let a = Matrix::random(6, 6, &mut rng);
            if let Some(inv) = a.inverse() {
                assert_eq!(&a * &inv, Matrix::identity(6));
                assert_eq!(&inv * &a, Matrix::identity(6));
                found += 1;
            }
        }
    }

    #[test]
    fn singular_has_no_inverse() {
        let a = m(&[&[1, 2], &[1, 2]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn solve_unique_system() {
        let mut rng = StdRng::seed_from_u64(3);
        loop {
            let a = Matrix::random(5, 5, &mut rng);
            if a.rank() < 5 {
                continue;
            }
            let x: Vec<Gf256> = (0..5).map(|_| Gf256(rng.gen())).collect();
            let b = a.mul_vec(&x);
            assert_eq!(a.solve(&b), Some(x));
            break;
        }
    }

    #[test]
    fn solve_underdetermined_returns_none() {
        let a = m(&[&[1, 2, 3]]);
        assert!(a.solve(&[Gf256(9)]).is_none());
    }

    #[test]
    fn solve_inconsistent_returns_none() {
        let a = m(&[&[1, 0], &[1, 0]]);
        assert!(a.solve(&[Gf256(1), Gf256(2)]).is_none());
    }

    #[test]
    fn solve_overdetermined_consistent() {
        // 3 equations, 2 unknowns, consistent.
        let a = m(&[&[1, 0], &[0, 1], &[1, 1]]);
        let x = vec![Gf256(5), Gf256(9)];
        let b = a.mul_vec(&x);
        assert_eq!(a.solve(&b), Some(x));
    }

    #[test]
    fn select_and_stack() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        let cols = a.select_columns(&[2, 0]);
        assert_eq!(cols, m(&[&[3, 1], &[6, 4]]));
        let rows = a.select_rows(&[1]);
        assert_eq!(rows, m(&[&[4, 5, 6]]));
        let stacked = a.vstack(&rows);
        assert_eq!(stacked.rows(), 3);
        assert_eq!(stacked.row(2), a.row(1));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = Matrix::random(3, 5, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn rref_idempotent() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut a = Matrix::random(4, 6, &mut rng);
        let p1 = a.rref_in_place();
        let snapshot = a.clone();
        let p2 = a.rref_in_place();
        assert_eq!(p1, p2);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn push_row_grows() {
        let mut a = Matrix::zero(0, 0);
        a.push_row(&[Gf256(1), Gf256(2)]);
        a.push_row(&[Gf256(3), Gf256(4)]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
        assert_eq!(a[(1, 0)], Gf256(3));
    }

    #[test]
    fn swap_rows_works() {
        let mut a = m(&[&[1, 2], &[3, 4], &[5, 6]]);
        a.swap_rows(0, 2);
        assert_eq!(a, m(&[&[5, 6], &[3, 4], &[1, 2]]));
        a.swap_rows(1, 1);
        assert_eq!(a.row(1), &[Gf256(3), Gf256(4)]);
    }
}
