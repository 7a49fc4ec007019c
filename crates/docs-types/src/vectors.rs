//! Domain vectors (Definition 2) and quality vectors (Definition 3).

use crate::prob;
use crate::{Error, Result};
use serde::{Deserialize, Serialize};
use std::ops::Index;

/// A task's domain vector `r^t = [r^t_1, ..., r^t_m]` (Definition 2).
///
/// Each entry lies in `[0, 1]` and the entries sum to one: the vector is the
/// distribution describing how related the task is to each domain of the
/// deployment's [`crate::DomainSet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainVector(Vec<f64>);

impl DomainVector {
    /// Validates and wraps a distribution over domains.
    pub fn new(values: Vec<f64>) -> Result<Self> {
        if !prob::is_distribution(&values) {
            return Err(Error::NotADistribution {
                what: "domain vector",
                sum: values.iter().sum(),
            });
        }
        Ok(DomainVector(values))
    }

    /// Builds a domain vector by normalizing non-negative weights.
    ///
    /// All-zero weights normalize to the uniform distribution, which is how
    /// DVE treats tasks whose entities carry no domain signal.
    pub fn from_weights(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(Error::Empty("domain weight vector"));
        }
        if weights.iter().any(|w| *w < 0.0 || w.is_nan()) {
            return Err(Error::NotADistribution {
                what: "domain weights",
                sum: weights.iter().sum(),
            });
        }
        Ok(DomainVector(prob::normalized(weights)))
    }

    /// A one-hot vector: the task is entirely in domain `k`.
    pub fn one_hot(m: usize, k: usize) -> Self {
        assert!(k < m, "domain index {k} out of range for m={m}");
        let mut v = vec![0.0; m];
        v[k] = 1.0;
        DomainVector(v)
    }

    /// The uniform domain vector over `m` domains.
    pub fn uniform(m: usize) -> Self {
        DomainVector(prob::uniform(m))
    }

    /// Number of domains `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the vector has no entries (never constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw slice access for the numeric kernels.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// The support `{(k, r_k) : r_k ≠ 0}` in ascending `k` — the only rows
    /// of `M^{(i)}` that reach `s_i = r × M^{(i)}` (Eq. 2). DVE leaves one
    /// or two of 26 domains non-zero on a typical task, which is what the
    /// inference kernels exploit.
    #[inline]
    pub fn support(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.0
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, rk)| rk != 0.0)
    }

    /// The domain with the highest probability — the "detected domain" used
    /// by the Figure 3 evaluation.
    pub fn dominant_domain(&self) -> usize {
        prob::argmax(&self.0)
    }
}

impl Index<usize> for DomainVector {
    type Output = f64;
    #[inline]
    fn index(&self, k: usize) -> &f64 {
        &self.0[k]
    }
}

/// A worker's quality vector `q^w = [q^w_1, ..., q^w_m]` (Definition 3).
///
/// `q^w_k ∈ [0, 1]` is the probability that worker `w` answers a task in
/// domain `d_k` correctly. Unlike a [`DomainVector`] this is *not* a
/// distribution — a worker can be an expert in several domains at once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityVector(Vec<f64>);

impl QualityVector {
    /// Validates and wraps per-domain accuracies.
    pub fn new(values: Vec<f64>) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::Empty("quality vector"));
        }
        for &q in &values {
            if !(0.0..=1.0).contains(&q) || q.is_nan() {
                return Err(Error::QualityOutOfRange(q));
            }
        }
        Ok(QualityVector(values))
    }
}

impl Index<usize> for QualityVector {
    type Output = f64;
    #[inline]
    fn index(&self, k: usize) -> &f64 {
        &self.0[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_vector_rejects_non_distribution() {
        assert!(DomainVector::new(vec![0.5, 0.2]).is_err());
        assert!(DomainVector::new(vec![1.1, -0.1]).is_err());
        assert!(DomainVector::new(vec![0.3, 0.7]).is_ok());
    }

    #[test]
    fn from_weights_normalizes() {
        let r = DomainVector::from_weights(&[1.0, 3.0]).unwrap();
        assert_eq!(r.as_slice(), &[0.25, 0.75]);
    }

    #[test]
    fn from_weights_rejects_negative() {
        assert!(DomainVector::from_weights(&[1.0, -1.0]).is_err());
        assert!(DomainVector::from_weights(&[]).is_err());
    }

    #[test]
    fn zero_weights_become_uniform() {
        let r = DomainVector::from_weights(&[0.0, 0.0]).unwrap();
        assert_eq!(r.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn one_hot_and_dominant_domain() {
        let r = DomainVector::one_hot(4, 2);
        assert_eq!(r.dominant_domain(), 2);
        assert_eq!(r[2], 1.0);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn quality_vector_bounds_checked() {
        assert!(QualityVector::new(vec![0.0, 1.0, 0.5]).is_ok());
        assert!(QualityVector::new(vec![1.5]).is_err());
        assert!(QualityVector::new(vec![-0.1]).is_err());
        assert!(QualityVector::new(vec![]).is_err());
    }
}
