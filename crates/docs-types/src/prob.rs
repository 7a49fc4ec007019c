//! Numeric helpers shared by the inference and assignment modules.
//!
//! The paper leans on three pieces of information theory:
//!
//! * Shannon entropy `H(s) = -Σ s_j ln s_j` (Section 5, ambiguity of a
//!   probabilistic truth),
//! * KL divergence `D(σ, τ) = Σ σ_i ln(σ_i / τ_i)` (Section 5.2, golden-task
//!   selection objective),
//! * normalization of non-negative weight vectors into distributions
//!   (everywhere).
//!
//! All functions use natural logarithms, matching the paper's formulas.

/// Tolerance used when checking that distributions sum to one.
pub const DIST_EPS: f64 = 1e-6;

/// Shannon entropy of a distribution, in nats: `H(s) = -Σ s_j ln s_j`.
///
/// Zero entries contribute zero (the standard `0 ln 0 = 0` convention), so
/// fully-concentrated distributions have entropy exactly `0.0`.
///
/// ```
/// use docs_types::prob::entropy;
/// assert_eq!(entropy(&[1.0, 0.0]), 0.0);
/// let h = entropy(&[0.5, 0.5]);
/// assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
/// ```
pub fn entropy(dist: &[f64]) -> f64 {
    let mut h = 0.0;
    for &p in dist {
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// KL divergence `D(σ || τ) = Σ σ_i ln(σ_i / τ_i)`, in nats.
///
/// Entries where `σ_i = 0` contribute zero. Entries where `σ_i > 0` but
/// `τ_i = 0` make the divergence infinite, mirroring the mathematical
/// definition; the golden-task solver guards against this by construction.
pub fn kl_divergence(sigma: &[f64], tau: &[f64]) -> f64 {
    debug_assert_eq!(sigma.len(), tau.len());
    let mut d = 0.0;
    for (&s, &t) in sigma.iter().zip(tau) {
        if s > 0.0 {
            if t <= 0.0 {
                return f64::INFINITY;
            }
            d += s * (s / t).ln();
        }
    }
    d
}

/// Normalizes a non-negative weight vector in place into a distribution.
///
/// Returns the original sum. If the sum is zero (all weights zero) the vector
/// is set to the uniform distribution, which is the conventional fallback in
/// the EM-style updates of Section 4 (uniform priors, Eq. 3).
#[inline]
pub fn normalize_in_place(weights: &mut [f64]) -> f64 {
    let sum: f64 = weights.iter().sum();
    if sum > 0.0 {
        for w in weights.iter_mut() {
            *w /= sum;
        }
    } else if !weights.is_empty() {
        let u = 1.0 / weights.len() as f64;
        for w in weights.iter_mut() {
            *w = u;
        }
    }
    sum
}

/// Returns a normalized copy of a weight vector. See [`normalize_in_place`].
pub fn normalized(weights: &[f64]) -> Vec<f64> {
    let mut v = weights.to_vec();
    normalize_in_place(&mut v);
    v
}

/// Checks whether `dist` is a probability distribution within [`DIST_EPS`].
pub fn is_distribution(dist: &[f64]) -> bool {
    if dist.is_empty() {
        return false;
    }
    let mut sum = 0.0;
    for &p in dist {
        if !(0.0..=1.0 + DIST_EPS).contains(&p) || p.is_nan() {
            return false;
        }
        sum += p;
    }
    (sum - 1.0).abs() <= DIST_EPS * dist.len() as f64
}

/// Index of the maximum entry, breaking ties toward the smaller index.
///
/// This implements the paper's truth extraction rule
/// `v*_i = argmax_j s_{i,j}` deterministically.
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Uniform distribution of the given length.
pub fn uniform(len: usize) -> Vec<f64> {
    assert!(len > 0, "uniform distribution needs at least one entry");
    vec![1.0 / len as f64; len]
}

/// L1 distance between two equal-length vectors, `Σ |a_i - b_i|`.
///
/// Used by the convergence measure Δ in Section 6.3.
#[inline]
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_is_ln_len() {
        for len in 2..6 {
            let u = uniform(len);
            assert!((entropy(&u) - (len as f64).ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_eq!(entropy(&[0.0, 1.0, 0.0]), 0.0);
    }

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let d = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&d, &d).abs() < 1e-12);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        assert!(kl_divergence(&[0.9, 0.1], &[0.5, 0.5]) > 0.0);
    }

    #[test]
    fn kl_handles_zero_sigma_entries() {
        let d = kl_divergence(&[0.0, 1.0], &[0.5, 0.5]);
        assert!((d - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn kl_infinite_when_tau_zero() {
        assert!(kl_divergence(&[0.5, 0.5], &[1.0, 0.0]).is_infinite());
    }

    #[test]
    fn normalize_handles_zero_sum() {
        let mut v = vec![0.0, 0.0, 0.0, 0.0];
        let sum = normalize_in_place(&mut v);
        assert_eq!(sum, 0.0);
        assert!(is_distribution(&v));
        assert_eq!(v, vec![0.25; 4]);
    }

    #[test]
    fn normalize_scales_to_one() {
        let mut v = vec![2.0, 6.0];
        normalize_in_place(&mut v);
        assert_eq!(v, vec![0.25, 0.75]);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[0.4, 0.4, 0.2]), 0);
        assert_eq!(argmax(&[0.1, 0.8, 0.1]), 1);
    }

    #[test]
    fn is_distribution_rejects_bad_vectors() {
        assert!(!is_distribution(&[]));
        assert!(!is_distribution(&[0.5, 0.4])); // sums to 0.9
        assert!(!is_distribution(&[1.2, -0.2]));
        assert!(!is_distribution(&[f64::NAN, 1.0]));
        assert!(is_distribution(&[0.25, 0.75]));
    }

    #[test]
    fn l1_distance_basics() {
        assert_eq!(l1_distance(&[1.0, 0.0], &[0.0, 1.0]), 2.0);
        assert_eq!(l1_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
    }
}
