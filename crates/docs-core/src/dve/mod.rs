//! Domain Vector Estimation (Section 3).
//!
//! A task's domain vector is the *expected normalized indicator vector* over
//! all possible entity→concept linkings (Eq. 1):
//!
//! ```text
//! r^t = Σ_{π ∈ Ω}  ( Σ_i h_{i,π_i} ) / ( Σ_k Σ_i h_{i,π_i,k} ) · Π_i p_{i,π_i}
//! ```
//!
//! `Ω` has `Π_i |p_i|` members, so computing Eq. 1 directly
//! ([`domain_vector_enumeration`]) is exponential. Algorithm 1
//! ([`domain_vector`]) observes that the normalized vector's `k`-th element
//! only depends on two bounded integers — the numerator `nm = Σ_i h_{i,π_i,k}
//! ≤ |E_t|` and the denominator `dm = Σ_k Σ_i h_{i,π_i,k} ≤ m·|E_t|` — and
//! aggregates linking probability mass per `(nm, dm)` pair with a dynamic
//! program, reducing the cost to `O(c · m² · |E_t|³)`.

use docs_kb::LinkedEntity;
use docs_types::DomainVector;
use std::collections::BTreeMap;

/// Pack a `(numerator, denominator)` pair into one `u64` hash-map key.
///
/// `nm ≤ |E_t|` and `dm ≤ m·|E_t|` both comfortably fit in 32 bits; packing
/// them keeps the innermost loop's map key one word.
#[inline]
fn pack(nm: u32, dm: u32) -> u64 {
    ((nm as u64) << 32) | dm as u64
}

#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Computes a task's domain vector `r^t` with **Algorithm 1** — exact and
/// polynomial: `O(c · m² · |E_t|³)` where `c = max_i |p_i|`.
///
/// Tasks whose entities carry no domain signal at all (every linking has an
/// all-zero aggregated indicator) fall back to the uniform domain vector,
/// and so do tasks with no detected entities; both conventions keep
/// downstream inference well-defined.
///
/// ```
/// use docs_kb::{table2_example_kb, EntityLinker, LinkerConfig};
/// use docs_core::dve::domain_vector;
///
/// let kb = table2_example_kb();
/// let linker = EntityLinker::new(&kb, LinkerConfig::default());
/// let entities =
///     linker.link("Does Michael Jordan win more NBA championships than Kobe Bryant?");
/// let r = domain_vector(&entities, 3);
/// // The paper's Table 2 / Figure 2 result: r^t = [0, 0.78, 0.22].
/// assert!(r[0].abs() < 1e-9);
/// assert!((r[1] - 0.78).abs() < 0.005);
/// assert!((r[2] - 0.22).abs() < 0.005);
/// ```
pub fn domain_vector(entities: &[LinkedEntity], m: usize) -> DomainVector {
    if entities.is_empty() {
        return DomainVector::uniform(m);
    }
    // Line 1: pre-compute x_{i,j} = Σ_k h_{i,j,k} (a popcount per candidate).
    let x: Vec<Vec<u32>> = entities
        .iter()
        .map(|e| e.indicators.iter().map(|h| h.count()).collect())
        .collect();

    let mut r = vec![0.0; m];
    // BTreeMaps, not HashMaps: each DP layer *accumulates* linking mass
    // per (nm, dm) cell and float addition is not associative, so the
    // iteration order must be a function of the keys alone. A hash map's
    // per-instance random order would make every task's domain vector
    // differ at ULP level between runs — and through quality estimation
    // and OTA benefit ties, make the whole assignment stream
    // process-random. (The scenario harness pins byte-reproducibility.)
    let mut map: BTreeMap<u64, f64> = BTreeMap::new();
    let mut tmp: BTreeMap<u64, f64> = BTreeMap::new();

    // Lines 4-17: one dynamic program per domain k.
    for (k, rk) in r.iter_mut().enumerate() {
        map.clear();
        map.insert(pack(0, 0), 1.0);
        for (i, e) in entities.iter().enumerate() {
            tmp.clear();
            for (&key, &value) in &map {
                let (nm, dm) = unpack(key);
                for (j, &p) in e.probs.iter().enumerate() {
                    let h = e.indicators[j].get(k);
                    let new_key = pack(nm + h, dm + x[i][j]);
                    *tmp.entry(new_key).or_insert(0.0) += value * p;
                }
            }
            std::mem::swap(&mut map, &mut tmp);
        }
        // Lines 15-17: r_k = Σ (nm/dm) · mass, skipping dm = 0 linkings.
        for (&key, &mass) in &map {
            let (nm, dm) = unpack(key);
            if dm != 0 {
                *rk += nm as f64 / dm as f64 * mass;
            }
        }
    }

    // Linking mass with dm = 0 (no related concept anywhere) contributes to
    // no domain; renormalize so r^t stays a distribution. If *all* mass is
    // domain-free, fall back to uniform.
    DomainVector::from_weights(&r).expect("algorithm 1 produces non-negative weights")
}

/// Computes `r^t` by direct **enumeration** of Eq. 1 — exponential
/// `O(c^{|E_t|} · |E_t| · m)`, the baseline of Table 3.
///
/// Returns `None` when the linking space `|Ω| = Π_i |p_i|` exceeds
/// `max_linkings`, which is how the Table 3 harness reports "> 1 day"
/// configurations without actually burning a day.
pub fn domain_vector_enumeration(
    entities: &[LinkedEntity],
    m: usize,
    max_linkings: u128,
) -> Option<DomainVector> {
    if entities.is_empty() {
        return Some(DomainVector::uniform(m));
    }
    let mut omega: u128 = 1;
    for e in entities {
        omega = omega.checked_mul(e.num_candidates() as u128)?;
        if omega > max_linkings {
            return None;
        }
    }

    let mut r = vec![0.0; m];
    // Odometer over linkings π.
    let mut pi = vec![0usize; entities.len()];
    let mut agg = vec![0u32; m];
    loop {
        // Evaluate this linking.
        let mut prob = 1.0;
        agg.iter_mut().for_each(|a| *a = 0);
        for (i, e) in entities.iter().enumerate() {
            let j = pi[i];
            prob *= e.probs[j];
            let h = &e.indicators[j];
            for (k, slot) in agg.iter_mut().enumerate() {
                *slot += h.get(k);
            }
        }
        let denom: u32 = agg.iter().sum();
        if denom != 0 {
            let d = denom as f64;
            for (k, &a) in agg.iter().enumerate() {
                r[k] += a as f64 / d * prob;
            }
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == entities.len() {
                return Some(
                    DomainVector::from_weights(&r)
                        .expect("enumeration produces non-negative weights"),
                );
            }
            pi[i] += 1;
            if pi[i] < entities[i].num_candidates() {
                break;
            }
            pi[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_kb::{table2_example_kb, ConceptId, EntityLinker, IndicatorVector, LinkerConfig};
    use docs_types::prob;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// An entity over the given `(weight, indicator)` candidates, weights
    /// normalized into `p_i`.
    fn entity(parts: &[(f64, IndicatorVector)]) -> LinkedEntity {
        LinkedEntity {
            candidates: (0..parts.len() as u32).map(ConceptId).collect(),
            probs: prob::normalized(&parts.iter().map(|p| p.0).collect::<Vec<_>>()),
            indicators: parts.iter().map(|p| p.1).collect(),
        }
    }

    /// `n` random entities of `c` candidates each: skewed link
    /// probabilities (as Wikifier emits) and `related` random domains per
    /// candidate.
    fn random_entities(
        m: usize,
        n: usize,
        c: usize,
        related: usize,
        seed: u64,
    ) -> Vec<LinkedEntity> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let parts: Vec<(f64, IndicatorVector)> = (0..c)
                    .map(|j| {
                        let w = 1.0 / (1.0 + j as f64) + rng.gen_range(0.0..0.05);
                        let mut domains = Vec::with_capacity(related);
                        while domains.len() < related {
                            let k = rng.gen_range(0..m);
                            if !domains.contains(&k) {
                                domains.push(k);
                            }
                        }
                        (w, IndicatorVector::from_domains(m, &domains))
                    })
                    .collect();
                entity(&parts)
            })
            .collect()
    }

    fn table2_entities() -> Vec<LinkedEntity> {
        let kb = table2_example_kb();
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        linker.link("Does Michael Jordan win more NBA championships than Kobe Bryant?")
    }

    /// The paper's running example (Table 2 + Figure 2): r^t = [0, 0.78, 0.22].
    #[test]
    fn table2_running_example() {
        let entities = table2_entities();
        let r = domain_vector(&entities, 3);
        assert!(r[0].abs() < 1e-12);
        assert!((r[1] - 0.78).abs() < 0.005, "r_2 = {}", r[1]);
        assert!((r[2] - 0.22).abs() < 0.005, "r_3 = {}", r[2]);
        assert!(prob::is_distribution(r.as_slice()));
    }

    /// Figure 2 traces the DP for r_2; check the exact value 0.78.
    #[test]
    fn figure2_r2_value() {
        let entities = table2_entities();
        let r = domain_vector(&entities, 3);
        // By hand (Figure 2): 3/4·0.56 + 2/3·0.22 + 2/2·0.16 + 1/1·0.04 + 1/2·0.02
        let expected = 0.75 * 0.56 + 2.0 / 3.0 * 0.22 + 0.16 + 0.04 + 0.5 * 0.02;
        assert!((r[1] - expected).abs() < 1e-12);
    }

    #[test]
    fn algorithm1_matches_enumeration_on_table2() {
        let entities = table2_entities();
        let fast = domain_vector(&entities, 3);
        let slow = domain_vector_enumeration(&entities, 3, 1 << 20).unwrap();
        for k in 0..3 {
            assert!((fast[k] - slow[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn no_entities_yields_uniform() {
        let r = domain_vector(&[], 4);
        assert_eq!(r.as_slice(), &[0.25; 4]);
        let r = domain_vector_enumeration(&[], 4, 10).unwrap();
        assert_eq!(r.as_slice(), &[0.25; 4]);
    }

    #[test]
    fn all_empty_indicators_yield_uniform() {
        let e = entity(&[
            (0.6, IndicatorVector::empty(3)),
            (0.4, IndicatorVector::empty(3)),
        ]);
        let r = domain_vector(&[e], 3);
        assert_eq!(r.as_slice(), &[1.0 / 3.0; 3]);
    }

    #[test]
    fn partial_empty_mass_renormalizes() {
        // One candidate related to domain 0 (p=0.5), one related to nothing
        // (p=0.5). Conditioned on relatedness, the task is fully domain 0.
        let e = entity(&[
            (0.5, IndicatorVector::from_bits(&[1, 0])),
            (0.5, IndicatorVector::empty(2)),
        ]);
        let r = domain_vector(&[e], 2);
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!(r[1].abs() < 1e-12);
    }

    #[test]
    fn single_entity_single_concept() {
        let e = entity(&[(1.0, IndicatorVector::from_bits(&[0, 1, 0]))]);
        let r = domain_vector(&[e], 3);
        assert_eq!(r.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn enumeration_respects_cap() {
        let es = random_entities(5, 10, 10, 1, 1);
        // 10^10 linkings > cap.
        assert!(domain_vector_enumeration(&es, 5, 1_000_000).is_none());
    }

    #[test]
    fn agreement_on_random_instances() {
        for seed in 0..10 {
            let es = random_entities(6, 4, 3, 2, seed);
            let fast = domain_vector(&es, 6);
            let slow = domain_vector_enumeration(&es, 6, 1 << 20).unwrap();
            for k in 0..6 {
                assert!(
                    (fast[k] - slow[k]).abs() < 1e-9,
                    "seed {seed} domain {k}: {} vs {}",
                    fast[k],
                    slow[k]
                );
            }
        }
    }
}
