//! The field GF(2^8) = GF(2)\[x\] / (x^8 + x^4 + x^3 + x^2 + 1).
//!
//! Elements are bytes; addition is XOR; multiplication uses compile-time
//! exp/log tables over the primitive element `α = 2`. The reduction
//! polynomial `0x11D` is the one conventionally used by Reed–Solomon
//! implementations, for which 2 is a primitive root, so
//! `exp[i] = α^i` enumerates all 255 non-zero elements.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Reduction polynomial for the field, as the low 9 bits of `x^8 + x^4 +
/// x^3 + x^2 + 1`.
pub const POLY: u16 = 0x11D;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group (`FIELD_SIZE - 1`).
pub const GROUP_ORDER: usize = 255;

const fn build_exp() -> [u8; 512] {
    // exp is doubled in length so that `exp[log a + log b]` never needs a
    // modular reduction (log a + log b <= 508).
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 512 {
        exp[i] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    exp
}

const fn build_log(exp: &[u8; 512]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    // log[0] is never consulted by correct code paths (multiplication by
    // zero short-circuits); leave it 0.
    log
}

/// `EXP[i] = 2^i` in the field, for `i` in `0..512` (wraps at 255).
pub const EXP: [u8; 512] = build_exp();

/// `LOG[a] = log_2 a` for non-zero `a`; `LOG[0]` is unspecified.
pub const LOG: [u8; 256] = build_log(&EXP);

/// An element of GF(2^8).
///
/// The wrapper is `#[repr(transparent)]`, so slices of `Gf256` and slices
/// of `u8` have identical layout; conversions between them are
/// nevertheless done safely via iteration because this crate forbids
/// `unsafe`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The conventional primitive element (generator of the multiplicative
    /// group).
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Constructs an element from its byte representation.
    #[inline]
    pub const fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// Returns the byte representation.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// True iff this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `α^i` for the primitive element α = 2. The exponent is reduced mod
    /// 255.
    #[inline]
    pub fn alpha_pow(i: usize) -> Self {
        Gf256(EXP[i % GROUP_ORDER])
    }

    /// Discrete log base α of a non-zero element.
    ///
    /// # Panics
    /// Panics in debug builds when `self` is zero (log of zero is
    /// undefined).
    #[inline]
    pub fn log(self) -> u8 {
        debug_assert!(!self.is_zero(), "log of zero");
        LOG[self.0 as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics when `self` is zero.
    #[inline]
    pub fn inv(self) -> Self {
        assert!(!self.is_zero(), "inverse of zero in GF(256)");
        Gf256(EXP[GROUP_ORDER - LOG[self.0 as usize] as usize])
    }

    /// `self` raised to the `e`-th power (with `0^0 = 1`).
    pub fn pow(self, e: usize) -> Self {
        if e == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let l = LOG[self.0 as usize] as usize;
        Gf256(EXP[(l * e) % GROUP_ORDER])
    }

    /// Iterator over all 256 field elements in byte order.
    pub fn all() -> impl Iterator<Item = Gf256> {
        (0u16..256).map(|v| Gf256(v as u8))
    }

    /// Iterator over the 255 non-zero elements in byte order.
    pub fn all_nonzero() -> impl Iterator<Item = Gf256> {
        (1u16..256).map(|v| Gf256(v as u8))
    }
}

#[inline]
fn mul_bytes(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // GF(2^8) addition IS xor
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // GF(2^8) addition IS xor
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // characteristic 2
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // characteristic 2
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256(mul_bytes(self.0, rhs.0))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        self.0 = mul_bytes(self.0, rhs.0);
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division = mul by inverse
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inv()
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |a, b| a + b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |a, b| a * b)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(v: Gf256) -> u8 {
        v.0
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // exp/log are mutually inverse on the non-zero elements.
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
        // exp has period 255.
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn generator_is_primitive() {
        // 2^i for i in 0..255 hits every non-zero element exactly once.
        let mut seen = [false; 256];
        for (i, &e) in EXP.iter().enumerate().take(255) {
            let v = e as usize;
            assert!(!seen[v], "2^{i} repeats value {v}");
            seen[v] = true;
        }
        assert!(!seen[0]);
        assert_eq!(seen.iter().filter(|s| **s).count(), 255);
    }

    #[test]
    fn add_is_xor() {
        assert_eq!(Gf256(0x53) + Gf256(0xCA), Gf256(0x53 ^ 0xCA));
        assert_eq!(Gf256(0xFF) - Gf256(0x0F), Gf256(0xF0));
    }

    #[test]
    fn known_products() {
        // Hand-checked products under 0x11D.
        assert_eq!(Gf256(2) * Gf256(2), Gf256(4));
        assert_eq!(Gf256(0x80) * Gf256(2), Gf256(0x1D));
        assert_eq!(Gf256(0xFF) * Gf256(1), Gf256(0xFF));
        assert_eq!(Gf256(0xAB) * Gf256(0), Gf256(0));
    }

    #[test]
    fn inverse_round_trip() {
        for a in Gf256::all_nonzero() {
            assert_eq!(a * a.inv(), Gf256::ONE, "a = {a:?}");
            assert_eq!(a / a, Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_has_no_inverse() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [Gf256(0), Gf256(1), Gf256(2), Gf256(0x53), Gf256(0xFE)] {
            let mut acc = Gf256::ONE;
            for e in 0..20 {
                assert_eq!(a.pow(e), acc, "a={a:?} e={e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn pow_zero_exponent_is_one_even_for_zero_base() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
    }

    #[test]
    fn pow_large_exponents_reduce_mod_group_order() {
        for a in [Gf256(3), Gf256(0x9C)] {
            assert_eq!(a.pow(255), Gf256::ONE);
            assert_eq!(a.pow(256), a);
            assert_eq!(a.pow(510), Gf256::ONE);
        }
    }

    #[test]
    fn alpha_pow_wraps() {
        assert_eq!(Gf256::alpha_pow(0), Gf256::ONE);
        assert_eq!(Gf256::alpha_pow(1), Gf256::GENERATOR);
        assert_eq!(Gf256::alpha_pow(255), Gf256::ONE);
        assert_eq!(Gf256::alpha_pow(256), Gf256::GENERATOR);
    }

    #[test]
    fn distributivity_exhaustive_slice() {
        // Spot an algebra error early with a dense (but fast) sweep over a
        // structured subset of triples.
        for a in 0..=255u8 {
            for (b, c) in [(3u8, 7u8), (0x1D, 0xF0), (0xAA, 0x55)] {
                let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
                assert_eq!(a * (b + c), a * b + a * c);
            }
        }
    }

    #[test]
    fn all_iterators() {
        assert_eq!(Gf256::all().count(), 256);
        assert_eq!(Gf256::all_nonzero().count(), 255);
        assert!(Gf256::all_nonzero().all(|x| !x.is_zero()));
    }
}
