//! Dense and sparse linear-algebra kernels used throughout the `rgae`
//! workspace.
//!
//! The workspace deliberately avoids heavyweight BLAS bindings: the models in
//! the reproduced paper are tiny (two graph-convolution layers, hidden sizes
//! of 16–64), so plain, carefully written `f64` loops are both portable and
//! fast enough. Everything here is deterministic given a seed.
//!
//! The two central types are:
//!
//! * [`Mat`] — a dense, row-major `f64` matrix.
//! * [`Csr`] — a compressed-sparse-row matrix, used for graph adjacencies and
//!   the normalised graph filter Ã.

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

mod csr;
mod decoder;
mod mat;
mod rng;

pub use csr::{Csr, Triplet};
pub use decoder::{
    decoder_tile, fused_panel_bytes, gram_bce_fused, gram_row_fold, gram_row_map, set_decoder_tile,
    FusedGramBce, DEFAULT_DECODER_TILE,
};
pub use mat::Mat;
pub use rng::{glorot_uniform, standard_normal, uniform, Rng64};

/// Errors produced by shape or numeric validation in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// A matrix construction received inconsistent buffer lengths.
    BadConstruction(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in `{op}`: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Error::BadConstruction(what) => write!(f, "bad construction: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Cosine similarity between two equal-length vectors.
///
/// Returns `0.0` when either vector is (numerically) zero, which is the
/// convention the paper's Λ diagnostics need: a vanished gradient carries no
/// directional information.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine: length mismatch");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f64::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Euclidean distance between two equal-length vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Numerically stable `log(1 + exp(x))`, evaluated as `max(x, 0) +
/// ln(1 + e^{−|x|})` so both signs need one `exp` and a `ln(1 + u)` with
/// `u ∈ (0, 1]`. Against the direct `x.exp().ln_1p()`: within 1 ulp for
/// `x < 0` (same `exp`, only the `ln(1 + u)` differs) and within 2 ulp for
/// `x ≥ 0`, where the direct form's own error (the rounding of `eˣ`, up to
/// ≈1.1 ulp of the result) is the larger term.
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.max(0.0) + log1p_unit((-x.abs()).exp())
    }
}

/// `ln(1 + u)` for `u ∈ [0, 1]` (NaN propagates): the fdlibm `log1p`
/// kernel specialised to that range, where the reduction exponent `k` is
/// 0 (`1 + u < √2`, no reduction) or 1 (`(1 + u)/2 ∈ [√2/2, 1]`, with the
/// correction term for the rounding of `1 + u`). Plain arithmetic only, so
/// it is deterministic and inlines into the decoder's inner loops; within
/// 1 ulp of `f64::ln_1p` over the whole range (see the tests).
#[inline]
pub(crate) fn log1p_unit(u: f64) -> f64 {
    // fdlibm's constants, by bit pattern (ln 2 split hi/lo, then the
    // minimax coefficients of R(z) ≈ (ln((1+s)/(1−s)) − 2s)/s).
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // fdlibm's `1 + x < √2` cut, taken on the high word of x (≈ √2 − 1).
    const SQRT2_M1: f64 = f64::from_bits(0x3fda_827a_0000_0000);

    if u < f64::EPSILON / 2.0 {
        // u < 2⁻⁵³ (including 0 and subnormals): ln(1 + u) rounds to u.
        return u;
    }
    let (k, c, f) = if u < SQRT2_M1 {
        (0.0, 0.0, u)
    } else {
        // v ∈ [√2, 2], so `v − 1` and `v/2 − 1` are exact and `c` is the
        // rounding error of `1 + u` relative to v.
        let v = 1.0 + u;
        (1.0, (u - (v - 1.0)) / v, 0.5 * v - 1.0)
    };
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + (k * LN2_LO + c) - hfsq + f + k * LN2_HI
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basic() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn softplus_stable() {
        assert!((softplus(0.0) - 2f64.ln()).abs() < 1e-12);
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) > 0.0);
        assert!(softplus(-100.0) < 1e-40);
    }

    /// Distance in units in the last place between two values of one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// `count` points spread over `[lo, hi]` with full-width mantissas (a
    /// golden-ratio Weyl sequence), so rounding-sensitive inputs are hit.
    fn weyl(lo: f64, hi: f64, count: usize) -> impl Iterator<Item = f64> {
        let step = (5f64.sqrt() - 1.0) / 2.0;
        (0..count).map(move |i| lo + (hi - lo) * (i as f64 * step).fract())
    }

    /// `n` consecutive doubles on each side of `x`.
    fn around(x: f64, n: usize) -> impl Iterator<Item = f64> {
        let mut lo = x;
        for _ in 0..n {
            lo = lo.next_down();
        }
        std::iter::successors(Some(lo), |v| Some(v.next_up())).take(2 * n + 1)
    }

    /// Logits for the softplus/σ bound tests: a dense sweep of `[−40, 40]`
    /// and the neighbourhoods of the `±30` branch edges and of ±0.
    pub(crate) fn softplus_test_grid() -> Vec<f64> {
        let dense = 1usize << 21;
        let mut grid: Vec<f64> = weyl(-40.0, 40.0, dense).collect();
        grid.extend((0..=8000).map(|i| -40.0 + i as f64 / 100.0));
        for edge in [-30.0, 0.0, 30.0] {
            grid.extend(around(edge, 64));
        }
        grid.extend([-0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE]);
        grid
    }

    #[test]
    fn log1p_unit_within_one_ulp_of_libm() {
        let tiny = f64::EPSILON / 2.0; // 2⁻⁵³
        let mut grid: Vec<f64> = vec![0.0, f64::from_bits(1), f64::MIN_POSITIVE / 3.0];
        grid.extend([f64::MIN_POSITIVE, 1e-300, 1e-20]);
        grid.extend(around(tiny, 64));
        grid.extend(around(std::f64::consts::SQRT_2 - 1.0, 512));
        grid.extend(around(f64::from_bits(0x3fda_827a_0000_0000), 512));
        grid.extend(around(1.0, 64).filter(|&u| u <= 1.0));
        // Every binade below 1, subnormals included: 64 mantissas each.
        for biased_exp in 0u64..1023 {
            grid.extend(
                weyl(0.0, 1.0, 64)
                    .map(|m| f64::from_bits(biased_exp << 52 | (m * (1u64 << 52) as f64) as u64)),
            );
        }
        let dense = 1usize << 21;
        grid.extend((0..=dense).map(|i| i as f64 / dense as f64));
        grid.extend(weyl(0.0, 1.0, dense));
        for &u in &grid {
            let (got, want) = (log1p_unit(u), u.ln_1p());
            assert!(
                ulps(got, want) <= 1,
                "log1p_unit({u:e}) = {got:e}, ln_1p = {want:e}"
            );
        }
        assert!(log1p_unit(f64::NAN).is_nan());
    }

    /// The softplus formula before the shared-`exp` rewrite, kept verbatim
    /// as the reference for its error bound.
    fn softplus_libm(x: f64) -> f64 {
        if x > 30.0 {
            x
        } else if x < -30.0 {
            x.exp()
        } else {
            x.exp().ln_1p()
        }
    }

    #[test]
    fn softplus_within_ulp_bound_of_libm_formula() {
        for x in softplus_test_grid() {
            let (got, want) = (softplus(x), softplus_libm(x));
            let bound = if x < 0.0 { 1 } else { 2 };
            assert!(
                ulps(got, want) <= bound,
                "softplus({x:e}) = {got:e} vs {want:e}"
            );
        }
        assert!(softplus(f64::NAN).is_nan());
    }

    #[test]
    fn sigmoid_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn euclidean_basic() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
