//! Per-concept domain indicator vectors `h_{i,j}` (Section 3, Table 2).

use serde::{Deserialize, Serialize};

/// A concept's domain membership: `h_{i,j,k} = 1` iff the `j`-th candidate
/// concept of entity `e_i` is related to domain `d_k`.
///
/// Since the paper deploys with `m = 26` domains (and all simulation
/// experiments use `m ≤ 50`), memberships fit in a single `u64` bitmask.
/// This makes Algorithm 1's hot inner loop — reading `h_{i,j,k}` and the row
/// sum `x_{i,j} = Σ_k h_{i,j,k}` — a shift and a popcount instead of a
/// heap-allocated vector walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndicatorVector {
    mask: u64,
    m: u16,
}

impl IndicatorVector {
    /// Maximum number of domains supported by the packed representation.
    pub const MAX_DOMAINS: usize = 64;

    /// The all-zero indicator over `m` domains — a concept related to no
    /// domain in `D`, like the paper's "Michael I. Jordan" example whose
    /// page maps outside the 26 Yahoo Answers domains.
    pub fn empty(m: usize) -> Self {
        assert!(
            (1..=Self::MAX_DOMAINS).contains(&m),
            "indicator vectors support 1..=64 domains, got {m}"
        );
        IndicatorVector {
            mask: 0,
            m: m as u16,
        }
    }

    /// Builds an indicator from the set of related domain indices.
    ///
    /// # Panics
    /// Panics if `m > 64` or any index is out of range.
    pub fn from_domains(m: usize, domains: &[usize]) -> Self {
        let mut iv = Self::empty(m);
        for &k in domains {
            iv.set(k);
        }
        iv
    }

    /// Builds an indicator from a 0/1 slice, the shape used in Table 2
    /// (e.g. `h_{1,1} = [0, 1, 1]`).
    pub fn from_bits(bits: &[u8]) -> Self {
        let mut iv = Self::empty(bits.len());
        for (k, &b) in bits.iter().enumerate() {
            debug_assert!(b <= 1, "indicator bits must be 0 or 1");
            if b != 0 {
                iv.set(k);
            }
        }
        iv
    }

    /// Marks domain `k` as related.
    pub fn set(&mut self, k: usize) {
        assert!(
            k < self.m as usize,
            "domain {k} out of range (m={})",
            self.m
        );
        self.mask |= 1 << k;
    }

    /// `h_{i,j,k}` as 0/1.
    #[inline]
    pub fn get(&self, k: usize) -> u32 {
        debug_assert!(k < self.m as usize);
        ((self.mask >> k) & 1) as u32
    }

    /// Row sum `x_{i,j} = Σ_k h_{i,j,k}` — a popcount (Algorithm 1, line 1).
    #[inline]
    pub fn count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Number of domains `m` this indicator is defined over.
    #[inline]
    pub fn num_domains(&self) -> usize {
        self.m as usize
    }

    /// The related domains `k` (those with `h_{i,j,k} = 1`), ascending.
    #[inline]
    pub fn ones(&self) -> impl Iterator<Item = usize> {
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_examples() {
        // h_{1,1} = [0, 1, 1] — Michael Jordan the player: sports + films.
        let h11 = IndicatorVector::from_bits(&[0, 1, 1]);
        assert_eq!(h11.get(0), 0);
        assert_eq!(h11.get(1), 1);
        assert_eq!(h11.get(2), 1);
        assert_eq!(h11.count(), 2);

        // h_{1,2} = [0, 0, 0] — Michael I. Jordan: no related domain.
        let h12 = IndicatorVector::empty(3);
        assert_eq!(h12.count(), 0);

        // h_{1,3} = [0, 0, 1] — Michael B. Jordan: films only.
        let h13 = IndicatorVector::from_domains(3, &[2]);
        assert_eq!(h13.count(), 1);
        assert_eq!(h13.get(2), 1);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = [1u8, 0, 1, 1, 0];
        let iv = IndicatorVector::from_bits(&bits);
        for (k, &b) in bits.iter().enumerate() {
            assert_eq!(iv.get(k), b as u32);
        }
        assert_eq!(iv.num_domains(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut iv = IndicatorVector::empty(3);
        iv.set(3);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn too_many_domains_rejected() {
        let _ = IndicatorVector::empty(65);
    }

    #[test]
    fn ones_lists_the_set_domains_ascending() {
        let iv = IndicatorVector::from_domains(64, &[63, 0, 17, 5]);
        assert_eq!(iv.ones().collect::<Vec<_>>(), vec![0, 5, 17, 63]);
        assert_eq!(IndicatorVector::empty(3).ones().next(), None);
        for mask in [0b1011_0110u8, 0, 0xff, 1] {
            let bits: Vec<u8> = (0..8).map(|k| mask >> k & 1).collect();
            let iv = IndicatorVector::from_bits(&bits);
            let expected: Vec<usize> = (0..8).filter(|&k| iv.get(k) == 1).collect();
            assert_eq!(iv.ones().collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn supports_26_yahoo_domains() {
        let iv = IndicatorVector::from_domains(26, &[23, 8]);
        assert_eq!(iv.get(23), 1);
        assert_eq!(iv.get(8), 1);
        assert_eq!(iv.count(), 2);
    }
}
