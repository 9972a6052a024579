//! Matrix decompositions: Cholesky, Householder QR, and SVD.
//!
//! These are the numerical kernels highlighted by the paper's task
//! breakdowns (Table VI lists Cholesky, QR, SVD and Gauss-Newton as the
//! compute patterns shared between VIO and scene reconstruction).

use crate::dmatrix::DMatrix;
use crate::Real;

/// Error returned when a decomposition cannot proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompError {
    /// The matrix is not positive definite (Cholesky).
    NotPositiveDefinite,
    /// The input shape is not supported by the decomposition.
    BadShape,
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            Self::BadShape => write!(f, "matrix shape is not supported by this decomposition"),
        }
    }
}

impl std::error::Error for DecompError {}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// # Examples
///
/// ```
/// use illixr_math::{Cholesky, DMatrix};
/// let a = DMatrix::from_row_slice(2, 2, &[4.0, 2.0, 2.0, 3.0]);
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve(&DMatrix::column(&[1.0, 2.0]));
/// let back = &a * &x;
/// assert!((back[(0, 0)] - 1.0).abs() < 1e-12);
/// # Ok::<(), illixr_math::decomp::DecompError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`DecompError::BadShape`] for non-square input and
    /// [`DecompError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &DMatrix) -> Result<Self, DecompError> {
        if a.rows() != a.cols() {
            return Err(DecompError::BadShape);
        }
        let n = a.rows();
        let mut l = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(DecompError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self { l })
    }

    /// Solves `A x = b` for each column of `b`.
    pub fn solve(&self, b: &DMatrix) -> DMatrix {
        let n = self.l.rows();
        assert_eq!(b.rows(), n, "solve: rhs row mismatch");
        let mut x = b.clone();
        for col in 0..b.cols() {
            // Forward substitution: L y = b.
            for i in 0..n {
                let mut sum = x[(i, col)];
                for k in 0..i {
                    sum -= self.l[(i, k)] * x[(k, col)];
                }
                x[(i, col)] = sum / self.l[(i, i)];
            }
            // Back substitution: Lᵀ x = y.
            for i in (0..n).rev() {
                let mut sum = x[(i, col)];
                for k in (i + 1)..n {
                    sum -= self.l[(k, i)] * x[(k, col)];
                }
                x[(i, col)] = sum / self.l[(i, i)];
            }
        }
        x
    }
}

/// Householder QR factorization `A = Q R` of an `m × n` matrix with `m ≥ n`.
///
/// Used by the MSCKF measurement compression and null-space projection.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors stored below the diagonal; `R` on and above it.
    qr: DMatrix,
    /// Householder scalar coefficients.
    tau: Vec<Real>,
}

impl Qr {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`DecompError::BadShape`] when `a` has more columns than rows.
    pub fn new(a: &DMatrix) -> Result<Self, DecompError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(DecompError::BadShape);
        }
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Compute the Householder reflector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalize so v[k] = 1 implicitly.
            for i in (k + 1)..m {
                let v = qr[(i, k)] / v0;
                qr[(i, k)] = v;
            }
            tau[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            // Apply reflector to the remaining columns.
            for j in (k + 1)..n {
                let mut dot = qr[(k, j)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, j)];
                }
                dot *= tau[k];
                qr[(k, j)] -= dot;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= dot * vik;
                }
            }
        }
        Ok(Self { qr, tau })
    }

    /// The upper-triangular factor `R` (thin, `n × n`).
    pub fn r(&self) -> DMatrix {
        let n = self.qr.cols();
        DMatrix::from_fn(n, n, |r, c| if c >= r { self.qr[(r, c)] } else { 0.0 })
    }

    /// Applies `Qᵀ` to `b` in place and returns the result.
    pub fn q_transpose_mul(&self, b: &DMatrix) -> DMatrix {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        assert_eq!(b.rows(), m, "q_transpose_mul: row mismatch");
        let mut out = b.clone();
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            for j in 0..out.cols() {
                let mut dot = out[(k, j)];
                for i in (k + 1)..m {
                    dot += self.qr[(i, k)] * out[(i, j)];
                }
                dot *= self.tau[k];
                out[(k, j)] -= dot;
                for i in (k + 1)..m {
                    let vik = self.qr[(i, k)];
                    out[(i, j)] -= dot * vik;
                }
            }
        }
        out
    }
}

/// One-sided Jacobi singular value decomposition of an `m × n` matrix
/// with `m ≥ n`: `A = U Σ Vᵀ` with orthonormal-column `U` (m × n),
/// non-negative singular values in non-increasing order, and orthogonal
/// `V` (n × n).
///
/// Table VI lists SVD among the compute patterns of VIO's feature
/// initialization and update tasks; this is the workspace's
/// implementation of that kernel.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × n`.
    pub u: DMatrix,
    /// Singular values, non-increasing.
    pub sigma: Vec<Real>,
    /// Right singular vectors, `n × n`.
    pub v: DMatrix,
}

impl Svd {
    /// Computes the SVD by one-sided Jacobi rotations.
    ///
    /// # Errors
    ///
    /// Returns [`DecompError::BadShape`] when `a` has more columns than
    /// rows.
    pub fn new(a: &DMatrix) -> Result<Self, DecompError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(DecompError::BadShape);
        }
        let mut u = a.clone();
        let mut v = DMatrix::identity(n);
        // Sweep until all column pairs are (numerically) orthogonal.
        let tol = 1e-14;
        for _sweep in 0..60 {
            let mut off = 0.0;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Gram entries for columns p, q.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        app += up * up;
                        aqq += uq * uq;
                        apq += up * uq;
                    }
                    off = apq.abs().max(off);
                    if apq.abs() <= tol * (app * aqq).sqrt().max(1e-300) {
                        continue;
                    }
                    // Jacobi rotation zeroing the (p, q) Gram entry.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        u[(i, p)] = c * up - s * uq;
                        u[(i, q)] = s * up + c * uq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
            if off < 1e-13 {
                break;
            }
        }
        // Column norms are the singular values; normalize U's columns.
        let mut order: Vec<usize> = (0..n).collect();
        let mut sigma = vec![0.0; n];
        for (j, s_j) in sigma.iter_mut().enumerate() {
            let mut norm = 0.0;
            for i in 0..m {
                norm += u[(i, j)] * u[(i, j)];
            }
            *s_j = norm.sqrt();
        }
        order.sort_by(|&a_i, &b_i| sigma[b_i].partial_cmp(&sigma[a_i]).expect("finite"));
        let mut u_sorted = DMatrix::zeros(m, n);
        let mut v_sorted = DMatrix::zeros(n, n);
        let mut sigma_sorted = vec![0.0; n];
        for (dst, &src) in order.iter().enumerate() {
            sigma_sorted[dst] = sigma[src];
            let inv = if sigma[src] > 1e-300 { 1.0 / sigma[src] } else { 0.0 };
            for i in 0..m {
                u_sorted[(i, dst)] = u[(i, src)] * inv;
            }
            for i in 0..n {
                v_sorted[(i, dst)] = v[(i, src)];
            }
        }
        Ok(Self { u: u_sorted, sigma: sigma_sorted, v: v_sorted })
    }

    /// Reconstructs `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> DMatrix {
        let n = self.sigma.len();
        let mut us = self.u.clone();
        for j in 0..n {
            for i in 0..us.rows() {
                us[(i, j)] *= self.sigma[j];
            }
        }
        us.mul_transpose(&self.v)
    }

    /// Numerical rank with the given tolerance relative to the largest
    /// singular value.
    pub fn rank(&self, rel_tol: Real) -> usize {
        let max = self.sigma.first().copied().unwrap_or(0.0);
        self.sigma.iter().filter(|&&s| s > rel_tol * max).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> DMatrix {
        // A = B Bᵀ + n I is symmetric positive definite.
        let b = DMatrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 5) as f64 - 2.0);
        let mut a = b.mul_transpose(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn cholesky_reconstruction() {
        let a = spd(6);
        let chol = Cholesky::new(&a).unwrap();
        let recon = chol.l.mul_transpose(&chol.l);
        assert!((&recon - &a).frobenius_norm() < 1e-9);
    }

    #[test]
    fn cholesky_solve_roundtrip() {
        let a = spd(5);
        let x_true = DMatrix::column(&[1.0, -2.0, 0.5, 3.0, -1.5]);
        let b = &a * &x_true;
        let x = Cholesky::new(&a).unwrap().solve(&b);
        assert!((&x - &x_true).frobenius_norm() < 1e-9);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DMatrix::from_row_slice(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert_eq!(Cholesky::new(&a).unwrap_err(), DecompError::NotPositiveDefinite);
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert_eq!(Cholesky::new(&DMatrix::zeros(2, 3)).unwrap_err(), DecompError::BadShape);
    }

    #[test]
    fn qr_r_matches_product_norm() {
        let a = DMatrix::from_fn(6, 3, |r, c| ((r + 1) * (c + 2)) as f64 % 7.0 - 3.0);
        let qr = Qr::new(&a).unwrap();
        // ‖R‖_F == ‖A‖_F because Q is orthogonal.
        assert!((qr.r().frobenius_norm() - a.frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn qr_qt_preserves_norm() {
        let a = DMatrix::from_fn(6, 3, |r, c| (r as f64 * 0.3 - c as f64 * 1.2).sin());
        let qr = Qr::new(&a).unwrap();
        let b = DMatrix::from_fn(6, 1, |r, _| r as f64 + 0.5);
        let qtb = qr.q_transpose_mul(&b);
        assert!((qtb.frobenius_norm() - b.frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn svd_reconstructs_matrix() {
        let a = DMatrix::from_fn(6, 4, |r, c| ((r * 3 + c * 7) % 11) as f64 - 5.0);
        let svd = Svd::new(&a).unwrap();
        assert!((&svd.reconstruct() - &a).frobenius_norm() < 1e-9);
        // Singular values non-increasing and non-negative.
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] && w[1] >= 0.0);
        }
    }

    #[test]
    fn svd_factors_are_orthonormal() {
        let a = DMatrix::from_fn(5, 3, |r, c| (r as f64 * 0.7 - c as f64 * 1.3).sin());
        let svd = Svd::new(&a).unwrap();
        let utu = svd.u.transpose_mul(&svd.u);
        let vtv = svd.v.transpose_mul(&svd.v);
        assert!((&utu - &DMatrix::identity(3)).frobenius_norm() < 1e-9, "UᵀU not I");
        assert!((&vtv - &DMatrix::identity(3)).frobenius_norm() < 1e-9, "VᵀV not I");
    }

    #[test]
    fn svd_detects_rank_deficiency() {
        // Rank-1 matrix: outer product.
        let a = DMatrix::from_fn(4, 3, |r, c| (r as f64 + 1.0) * (c as f64 + 2.0));
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        assert!(svd.sigma[1] < 1e-9 * svd.sigma[0]);
    }

    #[test]
    fn svd_of_diagonal_matrix() {
        let a = DMatrix::from_fn(3, 3, |r, c| if r == c { (3 - r) as f64 } else { 0.0 });
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - 3.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 2.0).abs() < 1e-12);
        assert!((svd.sigma[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_rejects_wide_matrix() {
        assert!(matches!(Svd::new(&DMatrix::zeros(2, 5)), Err(DecompError::BadShape)));
    }
}
