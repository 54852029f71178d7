//! 256-bit vector type of the SW26010 CPE and its shuffle instruction.
//!
//! Each CPE has 256-bit wide vector registers holding four `f64` lanes. The
//! Athread redesign in the paper relies on two properties of these registers:
//! fused multiply-add throughput (8 flops/cycle) and the `Shuffle(a, b, mask)`
//! instruction used to transpose 4x4 blocks entirely in registers
//! (paper Section 7.5, Figure 3).

use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// Four-lane double-precision vector register.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct V4F64(pub [f64; 4]);

impl V4F64 {
    /// All lanes set to `x`.
    #[inline]
    pub fn splat(x: f64) -> Self {
        V4F64([x; 4])
    }

    /// Zero register.
    #[inline]
    pub fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Load four consecutive values from a slice.
    ///
    /// # Panics
    /// Panics if `src.len() < 4`.
    #[inline]
    pub fn load(src: &[f64]) -> Self {
        V4F64([src[0], src[1], src[2], src[3]])
    }

    /// Store the four lanes into the first four slots of `dst`.
    ///
    /// # Panics
    /// Panics if `dst.len() < 4`.
    #[inline]
    pub fn store(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Fused multiply-add: `self * b + c`, one instruction on the CPE.
    #[inline]
    pub fn fma(self, b: Self, c: Self) -> Self {
        V4F64([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
    }

    /// Horizontal sum of the four lanes.
    #[inline]
    pub fn hsum(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }

    /// Lane-wise maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        V4F64([
            self.0[0].max(other.0[0]),
            self.0[1].max(other.0[1]),
            self.0[2].max(other.0[2]),
            self.0[3].max(other.0[3]),
        ])
    }

    /// Lane-wise minimum.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        V4F64([
            self.0[0].min(other.0[0]),
            self.0[1].min(other.0[1]),
            self.0[2].min(other.0[2]),
            self.0[3].min(other.0[3]),
        ])
    }

    /// Lane-wise natural logarithm. The CPE has no vector `ln`; the host
    /// blocked kernels use this for the geopotential scan, and because it
    /// applies scalar `f64::ln` per lane the result is bitwise identical
    /// to the scalar code path.
    #[inline]
    pub fn ln(self) -> Self {
        V4F64([self.0[0].ln(), self.0[1].ln(), self.0[2].ln(), self.0[3].ln()])
    }

    /// Broadcast lane `lane` to all four lanes.
    ///
    /// # Panics
    /// Panics if `lane >= 4`.
    #[inline]
    pub fn splat_lane(self, lane: usize) -> Self {
        Self::splat(self.0[lane])
    }

    /// The SW26010 `Shuffle(a, b, mask)` instruction.
    ///
    /// The result takes two lanes from `a` and two lanes from `b`:
    /// lanes 0-1 of the result are `a[mask.a0]`, `a[mask.a1]`; lanes 2-3 are
    /// `b[mask.b0]`, `b[mask.b1]` (matching the instruction sketch in the
    /// paper's Figure 3, where the first two numbers come from `a` and the
    /// other two from `b`).
    #[inline]
    pub fn shuffle(a: Self, b: Self, mask: ShuffleMask) -> Self {
        V4F64([
            a.0[mask.a0 as usize],
            a.0[mask.a1 as usize],
            b.0[mask.b0 as usize],
            b.0[mask.b1 as usize],
        ])
    }
}

/// Lane-selection mask for [`V4F64::shuffle`]. Each field is a lane index
/// 0..4: `a0`/`a1` select from the first operand, `b0`/`b1` from the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleMask {
    pub a0: u8,
    pub a1: u8,
    pub b0: u8,
    pub b1: u8,
}

impl ShuffleMask {
    /// Build a mask, validating lane indices.
    ///
    /// # Panics
    /// Panics if any index is >= 4.
    pub fn new(a0: u8, a1: u8, b0: u8, b1: u8) -> Self {
        assert!(a0 < 4 && a1 < 4 && b0 < 4 && b1 < 4, "lane index out of range");
        ShuffleMask { a0, a1, b0, b1 }
    }
}

impl Add for V4F64 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        V4F64([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }
}

impl Sub for V4F64 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        V4F64([
            self.0[0] - o.0[0],
            self.0[1] - o.0[1],
            self.0[2] - o.0[2],
            self.0[3] - o.0[3],
        ])
    }
}

impl Mul for V4F64 {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        V4F64([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }
}

impl Div for V4F64 {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        V4F64([
            self.0[0] / o.0[0],
            self.0[1] / o.0[1],
            self.0[2] / o.0[2],
            self.0[3] / o.0[3],
        ])
    }
}

impl Neg for V4F64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        V4F64([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

impl Mul<f64> for V4F64 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        self * V4F64::splat(s)
    }
}

impl Index<usize> for V4F64 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for V4F64 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

/// Transpose a 4x4 block held in four vector registers using 8 shuffles,
/// exactly the register-level scheme of the paper's Figure 3 (two rounds of
/// pairwise lane interleaving).
///
/// Row `i` of the input becomes column `i` of the output.
#[inline]
pub fn transpose4x4(rows: [V4F64; 4]) -> [V4F64; 4] {
    // Round 1: interleave 2x2 sub-blocks.
    let t0 = V4F64::shuffle(rows[0], rows[1], ShuffleMask::new(0, 2, 0, 2)); // a0 a2 b0 b2
    let t1 = V4F64::shuffle(rows[0], rows[1], ShuffleMask::new(1, 3, 1, 3)); // a1 a3 b1 b3
    let t2 = V4F64::shuffle(rows[2], rows[3], ShuffleMask::new(0, 2, 0, 2)); // c0 c2 d0 d2
    let t3 = V4F64::shuffle(rows[2], rows[3], ShuffleMask::new(1, 3, 1, 3)); // c1 c3 d1 d3
    // Round 2: gather matching lanes into final columns.
    let c0 = V4F64::shuffle(t0, t2, ShuffleMask::new(0, 2, 0, 2)); // a0 b0 c0 d0
    let c1 = V4F64::shuffle(t1, t3, ShuffleMask::new(0, 2, 0, 2)); // a1 b1 c1 d1
    let c2 = V4F64::shuffle(t0, t2, ShuffleMask::new(1, 3, 1, 3)); // a2 b2 c2 d2
    let c3 = V4F64::shuffle(t1, t3, ShuffleMask::new(1, 3, 1, 3)); // a3 b3 c3 d3
    [c0, c1, c2, c3]
}

/// Number of shuffle instructions used by [`transpose4x4`], for cost
/// accounting (the paper: "a 4 by 4 matrix transposition by using 8 shuffle
/// operations").
pub const TRANSPOSE4X4_SHUFFLES: usize = 8;

/// Cache-blocked out-of-place transposition of a row-major `rows x cols`
/// matrix: `dst[c * rows + r] = src[r * cols + c]`.
///
/// The bulk runs over 4x4 tiles through [`transpose4x4`] — the host
/// analogue of the paper's register shuffle transposition (Section 7.5) —
/// with a scalar loop for the ragged edges. Pure data movement: every
/// value is copied, never recomputed, so the result is bitwise exact.
///
/// # Panics
/// Panics if `src.len()` or `dst.len()` differ from `rows * cols`.
pub fn transpose_blocked(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    assert_eq!(src.len(), rows * cols, "transpose_blocked: bad src length");
    assert_eq!(dst.len(), rows * cols, "transpose_blocked: bad dst length");
    let r4 = rows & !3;
    let c4 = cols & !3;
    for r0 in (0..r4).step_by(4) {
        for c0 in (0..c4).step_by(4) {
            let tile = transpose4x4([
                V4F64::load(&src[r0 * cols + c0..]),
                V4F64::load(&src[(r0 + 1) * cols + c0..]),
                V4F64::load(&src[(r0 + 2) * cols + c0..]),
                V4F64::load(&src[(r0 + 3) * cols + c0..]),
            ]);
            for (j, t) in tile.iter().enumerate() {
                t.store(&mut dst[(c0 + j) * rows + r0..]);
            }
        }
        // Remaining columns of this row band.
        for c in c4..cols {
            for r in r0..r0 + 4 {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
    }
    // Remaining rows.
    for r in r4..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_lanewise() {
        let a = V4F64([1.0, 2.0, 3.0, 4.0]);
        let b = V4F64::splat(2.0);
        assert_eq!((a + b).0, [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a - b).0, [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a * b).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a / b).0, [0.5, 1.0, 1.5, 2.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!((a * 3.0).0, [3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn fma_matches_mul_add() {
        let a = V4F64([1.0, 2.0, 3.0, 4.0]);
        let b = V4F64([5.0, 6.0, 7.0, 8.0]);
        let c = V4F64([0.5, 0.5, 0.5, 0.5]);
        let r = a.fma(b, c);
        for i in 0..4 {
            assert_eq!(r[i], a[i].mul_add(b[i], c[i]));
        }
    }

    #[test]
    fn hsum_and_minmax() {
        let a = V4F64([1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.hsum(), -2.0);
        let b = V4F64::zero();
        assert_eq!(a.max(b).0, [1.0, 0.0, 3.0, 0.0]);
        assert_eq!(a.min(b).0, [0.0, -2.0, 0.0, -4.0]);
    }

    #[test]
    fn shuffle_picks_requested_lanes() {
        let a = V4F64([10.0, 11.0, 12.0, 13.0]);
        let b = V4F64([20.0, 21.0, 22.0, 23.0]);
        // The paper's example: positions 0 and 2 of a, positions 0 and 1 of b.
        let r = V4F64::shuffle(a, b, ShuffleMask::new(0, 2, 0, 1));
        assert_eq!(r.0, [10.0, 12.0, 20.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "lane index")]
    fn shuffle_mask_rejects_bad_lane() {
        let _ = ShuffleMask::new(0, 4, 0, 0);
    }

    #[test]
    fn transpose4x4_is_a_transpose() {
        let rows = [
            V4F64([0.0, 1.0, 2.0, 3.0]),
            V4F64([4.0, 5.0, 6.0, 7.0]),
            V4F64([8.0, 9.0, 10.0, 11.0]),
            V4F64([12.0, 13.0, 14.0, 15.0]),
        ];
        let cols = transpose4x4(rows);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(cols[j][i], rows[i][j]);
            }
        }
    }

    #[test]
    fn transpose4x4_involutive() {
        let rows = [
            V4F64([1.5, -2.0, 0.25, 9.0]),
            V4F64([3.0, 7.0, -1.0, 2.0]),
            V4F64([0.0, 4.5, 6.0, -8.0]),
            V4F64([5.0, 1.0, 2.5, 3.5]),
        ];
        assert_eq!(transpose4x4(transpose4x4(rows)), rows);
    }

    #[test]
    fn ln_is_lanewise_scalar_ln() {
        let a = V4F64([1.0, 2.5, 10.0, 0.125]);
        let r = a.ln();
        for i in 0..4 {
            assert_eq!(r[i].to_bits(), a[i].ln().to_bits());
        }
    }

    #[test]
    fn transpose_blocked_matches_naive_for_odd_shapes() {
        for &(rows, cols) in &[(1, 1), (3, 5), (4, 4), (16, 26), (26, 16), (7, 128), (128, 16)] {
            let src: Vec<f64> = (0..rows * cols).map(|i| i as f64 * 0.5 - 3.0).collect();
            let mut dst = vec![0.0; rows * cols];
            transpose_blocked(&src, rows, cols, &mut dst);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(dst[c * rows + r].to_bits(), src[r * cols + c].to_bits());
                }
            }
        }
    }

    #[test]
    fn transpose_blocked_involutive() {
        let (rows, cols) = (6, 10);
        let src: Vec<f64> = (0..rows * cols).map(|i| (i as f64).sin()).collect();
        let mut once = vec![0.0; rows * cols];
        let mut twice = vec![0.0; rows * cols];
        transpose_blocked(&src, rows, cols, &mut once);
        transpose_blocked(&once, cols, rows, &mut twice);
        assert_eq!(src, twice);
    }

    #[test]
    fn splat_lane_broadcasts() {
        let a = V4F64([1.0, -2.5, 3.25, 4.0]);
        for lane in 0..4 {
            assert_eq!(a.splat_lane(lane).0, [a[lane]; 4]);
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = V4F64::load(&src);
        let mut dst = [0.0; 4];
        v.store(&mut dst);
        assert_eq!(dst, [1.0, 2.0, 3.0, 4.0]);
    }
}
