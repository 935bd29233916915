//! The sampling operator Ξ (Algorithm 1): a protection mechanism against
//! Feature Randomness.
//!
//! Given soft clustering assignments `P′`, Ξ extracts for each node the
//! first and second high-confidence scores (Eqs. 16–17) and keeps the set Ω
//! of *decidable* nodes (Eq. 18): `λ¹ ≥ α₁` **and** `λ¹ − λ² ≥ α₂`, with
//! `α₂ = α₁ / 2` by default. Complexity O(N·K) given the soft assignments
//! (the paper's O(N·K²·d) includes building Eq. 15, which lives in
//! `rgae_cluster::gaussian_soft_assignments`).

use rgae_linalg::Mat;

use crate::{Error, Result};

/// Configuration of Ξ. The two `use_*` switches implement the Table 8
/// ablations.
#[derive(Clone, Debug)]
pub struct XiConfig {
    /// First confidence threshold α₁ ∈ [0, 1].
    pub alpha1: f64,
    /// Second (margin) threshold α₂; the paper fixes α₂ = α₁/2.
    pub alpha2: f64,
    /// Ablation switch: enforce the λ¹ ≥ α₁ criterion.
    pub use_alpha1: bool,
    /// Ablation switch: enforce the λ¹ − λ² ≥ α₂ criterion.
    pub use_alpha2: bool,
}

impl XiConfig {
    /// The paper's parameterisation: `α₂ = α₁ / 2`, both criteria on.
    pub fn new(alpha1: f64) -> Self {
        XiConfig {
            alpha1,
            alpha2: alpha1 / 2.0,
            use_alpha1: true,
            use_alpha2: true,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.alpha1) || !(0.0..=1.0).contains(&self.alpha2) {
            return Err(Error::Config("xi thresholds must lie in [0,1]"));
        }
        Ok(())
    }
}

/// The output of Ξ: the decidable set and the per-node confidence scores.
#[derive(Clone, Debug)]
pub struct Omega {
    /// Indices of decidable nodes, ascending.
    pub indices: Vec<usize>,
    /// λ¹ per node (first high-confidence score, Eq. 16).
    pub lambda1: Vec<f64>,
    /// λ² per node (second high-confidence score, Eq. 17); equals 0 when
    /// `K = 1`.
    pub lambda2: Vec<f64>,
}

impl Omega {
    /// Ω = 𝒱: every node decidable (λ¹ = 1, λ² = 0), the set while Ξ is
    /// inactive.
    pub(crate) fn full(n: usize) -> Self {
        Omega {
            indices: (0..n).collect(),
            lambda1: vec![1.0; n],
            lambda2: vec![0.0; n],
        }
    }

    /// |Ω|.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether Ω is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Fraction of decidable nodes |Ω| / N.
    pub fn coverage(&self, n: usize) -> f64 {
        self.indices.len() as f64 / n.max(1) as f64
    }

    /// Membership mask over all nodes.
    pub fn mask(&self, n: usize) -> Vec<bool> {
        let mut m = vec![false; n];
        for &i in &self.indices {
            m[i] = true;
        }
        m
    }

    /// Complement 𝒱 − Ω.
    pub fn complement(&self, n: usize) -> Vec<usize> {
        let mask = self.mask(n);
        (0..n).filter(|&i| !mask[i]).collect()
    }
}

/// Apply Ξ to a row-stochastic soft-assignment matrix.
pub fn xi(p_soft: &Mat, cfg: &XiConfig) -> Result<Omega> {
    cfg.validate()?;
    let (n, k) = p_soft.shape();
    if k == 0 {
        return Err(Error::Config("xi: zero clusters"));
    }
    let mut lambda1 = Vec::with_capacity(n);
    let mut lambda2 = Vec::with_capacity(n);
    let mut indices = Vec::new();
    for i in 0..n {
        let row = p_soft.row(i);
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &v in row {
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        if k == 1 {
            second = 0.0;
        }
        lambda1.push(best);
        lambda2.push(second);
        let pass1 = !cfg.use_alpha1 || best >= cfg.alpha1;
        let pass2 = !cfg.use_alpha2 || (best - second) >= cfg.alpha2;
        if pass1 && pass2 {
            indices.push(i);
        }
    }
    Ok(Omega {
        indices,
        lambda1,
        lambda2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Mat {
        Mat::from_rows(&[
            vec![0.90, 0.05, 0.05], // confident, wide margin
            vec![0.50, 0.45, 0.05], // confident-ish, narrow margin
            vec![0.40, 0.35, 0.25], // low confidence
            vec![0.34, 0.33, 0.33], // uniform
        ])
        .unwrap()
    }

    #[test]
    fn selects_confident_wide_margin_nodes() {
        let omega = xi(&p(), &XiConfig::new(0.5)).unwrap();
        // α₁ = 0.5, α₂ = 0.25: node 0 passes both, node 1 fails the margin,
        // nodes 2–3 fail α₁.
        assert_eq!(omega.indices, vec![0]);
    }

    #[test]
    fn alpha2_ablation_admits_narrow_margins() {
        let mut cfg = XiConfig::new(0.5);
        cfg.use_alpha2 = false;
        let omega = xi(&p(), &cfg).unwrap();
        assert_eq!(omega.indices, vec![0, 1]);
    }

    #[test]
    fn alpha1_ablation_admits_low_confidence_with_margin() {
        let q = Mat::from_rows(&[
            vec![0.30, 0.02, 0.68], // margin 0.38 ≥ 0.25 but λ¹ < α₁? λ¹=0.68 ≥ 0.5 actually
            vec![0.40, 0.35, 0.25], // λ¹=0.40 < 0.5, margin 0.05 < 0.25
            vec![0.45, 0.10, 0.45], // λ¹=0.45 < 0.5, margin 0.0
            vec![0.49, 0.17, 0.34], // λ¹=0.49 < 0.5, margin 0.15 < 0.25... use margin 0.25
        ])
        .unwrap();
        let mut cfg = XiConfig::new(0.5);
        cfg.use_alpha1 = false;
        let omega = xi(&q, &cfg).unwrap();
        // Only rows whose margin ≥ 0.25 pass: row 0 (0.68−0.30=0.38).
        assert_eq!(omega.indices, vec![0]);
    }

    #[test]
    fn both_ablated_selects_everything() {
        let mut cfg = XiConfig::new(0.9);
        cfg.use_alpha1 = false;
        cfg.use_alpha2 = false;
        let omega = xi(&p(), &cfg).unwrap();
        assert_eq!(omega.len(), 4);
    }

    #[test]
    fn lambda_scores_are_top_two() {
        let omega = xi(&p(), &XiConfig::new(0.3)).unwrap();
        assert!((omega.lambda1[0] - 0.90).abs() < 1e-12);
        assert!((omega.lambda2[0] - 0.05).abs() < 1e-12);
        assert!((omega.lambda1[1] - 0.50).abs() < 1e-12);
        assert!((omega.lambda2[1] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn high_alpha_gives_empty_omega() {
        let omega = xi(&p(), &XiConfig::new(0.99)).unwrap();
        assert!(omega.is_empty());
        assert_eq!(omega.coverage(4), 0.0);
    }

    #[test]
    fn mask_and_complement_partition() {
        let omega = xi(&p(), &XiConfig::new(0.5)).unwrap();
        let mask = omega.mask(4);
        let comp = omega.complement(4);
        assert_eq!(mask.iter().filter(|&&b| b).count() + comp.len(), 4);
        assert!(comp.iter().all(|&i| !mask[i]));
    }

    #[test]
    fn single_cluster_margin_is_lambda1() {
        let q = Mat::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let omega = xi(&q, &XiConfig::new(0.5)).unwrap();
        // λ² defined as 0 when K = 1 → margin = λ¹ = 1 passes.
        assert_eq!(omega.len(), 2);
    }

    #[test]
    fn rejects_bad_thresholds() {
        assert!(xi(&p(), &XiConfig::new(1.5)).is_err());
        let mut cfg = XiConfig::new(0.5);
        cfg.alpha2 = -0.1;
        assert!(xi(&p(), &cfg).is_err());
    }

    #[test]
    fn monotone_in_alpha1() {
        // Raising α₁ can only shrink Ω.
        let mut prev = usize::MAX;
        for a in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let omega = xi(&p(), &XiConfig::new(a)).unwrap();
            assert!(omega.len() <= prev);
            prev = omega.len();
        }
    }
}
