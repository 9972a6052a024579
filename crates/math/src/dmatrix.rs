//! Dynamically sized matrices.
//!
//! These back the VIO filter's state covariance and Jacobians, whose sizes
//! change at run time as features are added and marginalized. Storage is
//! row-major `Vec<f64>`.

use core::fmt;
use core::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::Real;

/// A dynamically sized dense matrix (row-major); a vector is a
/// `DMatrix` with one column.
///
/// # Examples
///
/// ```
/// use illixr_math::DMatrix;
/// let a = DMatrix::identity(3);
/// let b = DMatrix::from_fn(3, 3, |r, c| (r + c) as f64);
/// let c = &a * &b;
/// assert_eq!(c[(1, 2)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Real>,
}

impl DMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for each element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Real) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_row_slice(rows: usize, cols: usize, data: &[Real]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data: data.to_vec() }
    }

    /// Creates a column vector from a slice.
    pub fn column(data: &[Real]) -> Self {
        Self::from_row_slice(data.len(), 1, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Copies `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics when the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &DMatrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols, "block out of range");
        for r in 0..block.rows {
            for c in 0..block.cols {
                self[(r0 + r, c0 + c)] = block[(r, c)];
            }
        }
    }

    /// Extracts the `rows × cols` block whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics when the block does not fit.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> DMatrix {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "block out of range");
        DMatrix::from_fn(rows, cols, |r, c| self[(r0 + r, c0 + c)])
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: Real) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|v| v * s).collect() }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> Real {
        self.data.iter().map(|v| v * v).sum::<Real>().sqrt()
    }

    /// Dot product between two vectors (matrices treated as flat arrays).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn dot(&self, other: &Self) -> Real {
        assert_eq!(self.data.len(), other.data.len(), "dot: shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn mul_transpose(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "mul_transpose: inner dimension mismatch");
        let mut out = Self::zeros(self.rows, other.rows);
        for r in 0..self.rows {
            for c in 0..other.rows {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.data[r * self.cols + k] * other.data[c * other.cols + k];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// `selfᵀ * other` without materializing the transpose.
    #[cfg(test)]
    pub(crate) fn transpose_mul(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "transpose_mul: inner dimension mismatch");
        let mut out = Self::zeros(self.cols, other.cols);
        for r in 0..self.cols {
            for c in 0..other.cols {
                let mut acc = 0.0;
                for k in 0..self.rows {
                    acc += self.data[k * self.cols + r] * other.data[k * other.cols + c];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ) / 2`. Keeps covariance matrices
    /// numerically symmetric across filter updates.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let avg = (self[(r, c)] + self[(c, r)]) * 0.5;
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }

    /// Removes the given (sorted, unique) row/column indices from a square
    /// matrix — the marginalization primitive of the MSCKF.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or indices are out of range.
    pub fn remove_rows_cols(&self, indices: &[usize]) -> Self {
        assert_eq!(self.rows, self.cols, "remove_rows_cols requires a square matrix");
        let keep: Vec<usize> = (0..self.rows).filter(|i| !indices.contains(i)).collect();
        DMatrix::from_fn(keep.len(), keep.len(), |r, c| self[(keep[r], keep[c])])
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics when the column counts differ.
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut out = Self::zeros(self.rows + other.rows, self.cols);
        out.set_block(0, 0, self);
        out.set_block(self.rows, 0, other);
        out
    }

    /// True when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = Real;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Real {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Real {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Index<usize> for DMatrix {
    type Output = Real;
    /// Flat indexing — natural for vectors.
    #[inline]
    fn index(&self, i: usize) -> &Real {
        &self.data[i]
    }
}

impl IndexMut<usize> for DMatrix {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Real {
        &mut self.data[i]
    }
}

impl Add for &DMatrix {
    type Output = DMatrix;
    fn add(self, rhs: Self) -> DMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add: shape mismatch");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &DMatrix {
    type Output = DMatrix;
    fn sub(self, rhs: Self) -> DMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub: shape mismatch");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul for &DMatrix {
    type Output = DMatrix;
    fn mul(self, rhs: Self) -> DMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "mul: inner dimension mismatch ({}x{} * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = DMatrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order for cache-friendly row-major access.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row_out = i * rhs.cols;
                let row_rhs = k * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[row_out + j] += a * rhs.data[row_rhs + j];
                }
            }
        }
        out
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.4}", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = DMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let id = DMatrix::identity(3);
        assert_eq!(&id * &a, a);
    }

    #[test]
    fn mul_matches_known_product() {
        let a = DMatrix::from_row_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DMatrix::from_row_slice(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = &a * &b;
        assert_eq!(c, DMatrix::from_row_slice(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn transpose_mul_consistency() {
        let a = DMatrix::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.5);
        let b = DMatrix::from_fn(4, 2, |r, c| (r * c) as f64 + 1.0);
        let direct = &a.transpose() * &b;
        assert!((&direct - &a.transpose_mul(&b)).frobenius_norm() < 1e-12);
    }

    #[test]
    fn mul_transpose_consistency() {
        let a = DMatrix::from_fn(3, 4, |r, c| (r + 2 * c) as f64);
        let b = DMatrix::from_fn(2, 4, |r, c| (c as f64) - (r as f64));
        let direct = &a * &b.transpose();
        assert!((&direct - &a.mul_transpose(&b)).frobenius_norm() < 1e-12);
    }

    #[test]
    fn block_roundtrip() {
        let mut m = DMatrix::zeros(5, 5);
        let b = DMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 + 1.0);
        m.set_block(1, 2, &b);
        assert_eq!(m.block(1, 2, 2, 3), b);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn remove_rows_cols_marginalization() {
        let m = DMatrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let out = m.remove_rows_cols(&[1, 2]);
        assert_eq!(out.rows(), 2);
        assert_eq!(out[(0, 0)], 0.0);
        assert_eq!(out[(0, 1)], 3.0);
        assert_eq!(out[(1, 0)], 12.0);
        assert_eq!(out[(1, 1)], 15.0);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut m = DMatrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        m.symmetrize();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], m[(c, r)]);
            }
        }
    }

    #[test]
    fn vstack_shapes() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::identity(3);
        let c = a.vstack(&b);
        assert_eq!((c.rows(), c.cols()), (5, 3));
        assert_eq!(c[(2, 0)], 1.0);
    }

    #[test]
    #[should_panic]
    fn mul_shape_mismatch_panics() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        let _ = &a * &b;
    }
}
