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
//! ≤ |E_t|` and the denominator `dm = Σ_k Σ_i h_{i,π_i,k} ≤ Σ_i max_j x_{i,j}`
//! — and aggregates linking probability mass per `(nm, dm)` pair with a
//! dynamic program over a dense `(|E_t| + 1) × (Σ_i max_j x_{i,j} + 1)`
//! table, reducing the cost to `O(c · m² · |E_t|³)`. Domains that no
//! candidate is related to are skipped outright (their `r_k` is `0`), so
//! in practice the cost is `O(c · m' · m · |E_t|³)` for the `m'` domains the
//! task's candidates touch.

use docs_kb::LinkedEntity;
use docs_types::DomainVector;

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
    // Linking mass with dm = 0 (no related concept anywhere) contributes to
    // no domain; renormalize so r^t stays a distribution. If *all* mass is
    // domain-free, fall back to uniform.
    DomainVector::from_weights(&algorithm1(entities, m))
        .expect("algorithm 1 produces non-negative weights")
}

/// Algorithm 1's unnormalized `r` over a non-empty `entities`.
fn algorithm1(entities: &[LinkedEntity], m: usize) -> Vec<f64> {
    // Line 1: x_{i,j} = Σ_k h_{i,j,k} is a popcount per candidate, read
    // where needed. The table's `dm` axis ends at Σ_i max_j x_{i,j}, and
    // only domains some candidate is related to get a program.
    let mut dm_cap = 0;
    let mut touched = 0u64;
    for e in entities {
        dm_cap += e.indicators.iter().map(|h| h.count()).max().unwrap_or(0) as usize;
        for h in &e.indicators {
            for k in h.ones() {
                touched |= 1 << k;
            }
        }
    }
    let width = dm_cap + 1;
    let cells = (entities.len() + 1) * width;
    // Dense tables, indexed `nm * width + dm`. Every pass walks them
    // nm-major, dm-minor and every candidate in order, so each cell
    // accumulates its linking mass in one fixed order: float addition is
    // not associative, and a process-random order would make every domain
    // vector differ at ULP level between runs (and through quality
    // estimation and OTA benefit ties, the whole assignment stream). Empty
    // cells are skipped: every term they would add is an exact `+0.0`.
    let mut layer = vec![0.0; cells];
    let mut next = vec![0.0; cells];

    let mut r = vec![0.0; m];
    // Lines 4-17: one dynamic program per domain k. An untouched domain's
    // program only ever reaches `nm = 0`, so its `r_k` stays `+0.0`.
    for (k, rk) in r.iter_mut().enumerate() {
        if touched.checked_shr(k as u32).unwrap_or(0) & 1 == 0 {
            continue;
        }
        layer[0] = 1.0;
        // The live rectangle `[0, nm_hi] × [0, dm_hi]` of `layer`.
        let (mut nm_hi, mut dm_hi) = (0, 0);
        for e in entities {
            let (mut h_max, mut x_max) = (0, 0);
            for h in &e.indicators {
                h_max = h_max.max(h.get(k) as usize);
                x_max = x_max.max(h.count() as usize);
            }
            let (nm_next, dm_next) = (nm_hi + h_max, dm_hi + x_max);
            for row in next[..(nm_next + 1) * width].chunks_mut(width) {
                row[..=dm_next].fill(0.0);
            }
            for nm in 0..=nm_hi {
                for dm in 0..=dm_hi {
                    let value = layer[nm * width + dm];
                    if value == 0.0 {
                        continue;
                    }
                    for (h, &p) in e.indicators.iter().zip(&e.probs) {
                        let to = (nm + h.get(k) as usize) * width + dm + h.count() as usize;
                        next[to] += value * p;
                    }
                }
            }
            std::mem::swap(&mut layer, &mut next);
            (nm_hi, dm_hi) = (nm_next, dm_next);
        }
        // Lines 15-17: r_k = Σ (nm/dm) · mass, skipping dm = 0 linkings
        // (and nm = 0 or empty cells, which add exactly `+0.0`).
        for nm in 1..=nm_hi {
            for dm in 1..=dm_hi {
                let mass = layer[nm * width + dm];
                if mass != 0.0 {
                    *rk += nm as f64 / dm as f64 * mass;
                }
            }
        }
    }
    r
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
    use std::collections::BTreeMap;

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

    /// Algorithm 1 as first implemented: one `BTreeMap` layer per entity,
    /// keyed by the packed `(nm, dm)` pair (so walked nm-major, dm-minor),
    /// for every one of the `m` domains. The reference the dense tables
    /// must reproduce bit for bit.
    fn algorithm1_btree(entities: &[LinkedEntity], m: usize) -> Vec<f64> {
        let pack = |nm: u32, dm: u32| ((nm as u64) << 32) | dm as u64;
        let unpack = |key: u64| ((key >> 32) as u32, key as u32);
        let x: Vec<Vec<u32>> = entities
            .iter()
            .map(|e| e.indicators.iter().map(|h| h.count()).collect())
            .collect();
        let mut r = vec![0.0; m];
        let mut map: BTreeMap<u64, f64> = BTreeMap::new();
        let mut tmp: BTreeMap<u64, f64> = BTreeMap::new();
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
            for (&key, &mass) in &map {
                let (nm, dm) = unpack(key);
                if dm != 0 {
                    *rk += nm as f64 / dm as f64 * mass;
                }
            }
        }
        r
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A random instance of `n` entities over `m` domains: 1 to 20
    /// candidates each, some with probability exactly 0, some related to
    /// no domain, the rest to 1 to 3 domains drawn from a random subset of
    /// `D` (so most instances leave domains no candidate touches).
    fn random_instance(rng: &mut SmallRng, m: usize, n: usize) -> Vec<LinkedEntity> {
        let reach: Vec<usize> = (0..m).filter(|_| rng.gen_bool(0.4)).collect();
        (0..n)
            .map(|_| {
                let c: usize = if rng.gen_bool(0.5) {
                    rng.gen_range(1..=4)
                } else {
                    rng.gen_range(1..=20)
                };
                let mut weights: Vec<f64> = (0..c)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            0.0
                        } else {
                            rng.gen_range(0.001..1.0)
                        }
                    })
                    .collect();
                weights[rng.gen_range(0..c)] = rng.gen_range(0.5..2.0);
                let parts: Vec<(f64, IndicatorVector)> = weights
                    .into_iter()
                    .map(|w| {
                        let mut h = IndicatorVector::empty(m);
                        if !reach.is_empty() && rng.gen_bool(0.8) {
                            for _ in 0..rng.gen_range(1..=3) {
                                h.set(reach[rng.gen_range(0..reach.len())]);
                            }
                        }
                        (w, h)
                    })
                    .collect();
                entity(&parts)
            })
            .collect()
    }

    #[test]
    fn dense_tables_reproduce_the_btree_dp_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xD0C5);
        let ms = [1, 2, 3, 6, 26, 50, 64];
        for case in 0..3_000 {
            let m = ms[case % ms.len()];
            let n = if case % 5 == 0 {
                1
            } else {
                rng.gen_range(1..=5)
            };
            let es = random_instance(&mut rng, m, n);
            let dense = algorithm1(&es, m);
            let reference = algorithm1_btree(&es, m);
            assert_eq!(bits(&dense), bits(&reference), "case {case}: m {m}, n {n}");
            let vector = domain_vector(&es, m);
            let expected = DomainVector::from_weights(&reference).unwrap();
            assert_eq!(bits(vector.as_slice()), bits(expected.as_slice()));
        }
    }

    #[test]
    fn dense_tables_reproduce_the_btree_dp_on_edge_instances() {
        let h = IndicatorVector::from_bits;
        let cases: Vec<(usize, Vec<LinkedEntity>)> = vec![
            // A single entity, a single concept.
            (3, vec![entity(&[(1.0, h(&[0, 1, 0]))])]),
            // Every indicator empty: no domain is touched.
            (
                3,
                vec![
                    entity(&[
                        (0.6, IndicatorVector::empty(3)),
                        (0.4, IndicatorVector::empty(3)),
                    ]),
                    entity(&[(1.0, IndicatorVector::empty(3))]),
                ],
            ),
            // Zero-probability candidates, one of them the only link to
            // domain 2.
            (
                4,
                vec![
                    entity(&[(1.0, h(&[1, 0, 0, 0])), (0.0, h(&[0, 0, 1, 0]))]),
                    entity(&[(0.0, h(&[1, 1, 1, 1])), (2.0, h(&[0, 1, 0, 0]))]),
                ],
            ),
            // Every candidate related to every domain.
            (
                2,
                vec![
                    entity(&[(0.3, h(&[1, 1])), (0.7, h(&[1, 1]))]),
                    entity(&[(1.0, h(&[1, 1]))]),
                ],
            ),
            (3, table2_entities()),
        ];
        for (index, (m, es)) in cases.iter().enumerate() {
            assert_eq!(
                bits(&algorithm1(es, *m)),
                bits(&algorithm1_btree(es, *m)),
                "edge case {index}"
            );
        }
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
