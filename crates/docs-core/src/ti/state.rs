//! Per-task inference state: the matrix `M^{(i)}`, its unnormalized
//! numerator `M̂^{(i)}`, and the probabilistic truth `s_i`.

use docs_types::{prob, ChoiceIndex, DomainVector};
use serde::Serialize;

/// Worker qualities are probabilities; products in Eq. 3 divide by `1 - q`
/// and by `q`, so both are kept away from the exact endpoints.
const Q_EPS: f64 = 1e-6;

/// A row of `M̂` whose largest entry fell below this is rescaled to max 1:
/// a long product of likelihoods must not underflow to an all-zero row,
/// which would read as "no evidence" and reset the row to uniform.
const RESCALE_BELOW: f64 = 1e-100;

/// Clamps a quality value into `[Q_EPS, 1 - Q_EPS]` for use inside
/// likelihood products — Eq. 4's likelihood of an answer that *hits* the
/// truth.
#[inline]
pub fn clamp_quality(q: f64) -> f64 {
    q.clamp(Q_EPS, 1.0 - Q_EPS)
}

/// Eq. 4's likelihood of an answer that *misses* the truth of an
/// `ℓ`-choice task, `(1 − hit)/(ℓ − 1)` with `hit = clamp_quality(q_k)`.
///
/// Every kernel evaluates exactly this expression (a division, never a
/// multiplication by a reciprocal): it is what keeps the hoisted and the
/// textbook forms bit-identical.
#[inline]
pub(crate) fn miss_likelihood(hit: f64, num_choices: usize) -> f64 {
    (1.0 - hit) / (num_choices as f64 - 1.0)
}

/// Per-worker answer likelihood (Eq. 4), textbook form:
/// `Pr(v^w_i | o_i = k, v*_i = j) = q_k^{1{v=j}} · ((1-q_k)/(ℓ-1))^{1{v≠j}}`.
#[inline]
fn likelihood(qk: f64, answered: ChoiceIndex, truth_j: usize, num_choices: usize) -> f64 {
    let hit = clamp_quality(qk);
    if answered == truth_j {
        hit
    } else {
        miss_likelihood(hit, num_choices)
    }
}

/// Multiplies one answer's likelihoods (Eq. 4) into a row of `M̂`: the
/// answered choice's slot by `hit`, every other slot by `miss`. The one
/// body shared by the incremental update and full inference's Step 1; both
/// therefore keep the evidence of arbitrarily many answers (the rescale
/// leaves the normalized row unchanged).
#[inline]
fn absorb(hat: &mut [f64], hit: f64, miss: f64, choice: ChoiceIndex) {
    let mut max = 0.0_f64;
    for (j, slot) in hat.iter_mut().enumerate() {
        *slot *= if j == choice { hit } else { miss };
        max = max.max(*slot);
    }
    if max > 0.0 && max < RESCALE_BELOW {
        hat.iter_mut().for_each(|x| *x /= max);
    }
}

/// Normalizes a row of `M̂` into the matching row of `M` (Eq. 3); a row
/// without usable mass falls back to the uniform prior.
#[inline]
fn normalize_row(hat: &[f64], row: &mut [f64]) {
    let sum: f64 = hat.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for (slot, &h) in row.iter_mut().zip(hat) {
            *slot = h / sum;
        }
    } else {
        row.fill(1.0 / hat.len() as f64);
    }
}

/// The per-task state Section 4.2 stores in the database: the `m × ℓ`
/// matrix `M^{(i)}` (each row `M^{(i)}_{k,•}` is the truth distribution
/// conditioned on the task's true domain being `d_k`), the numerator matrix
/// `M̂^{(i)}` that makes single-answer updates O(m·ℓ), and the probabilistic
/// truth `s_i = r^{t_i} × M^{(i)}`.
#[derive(Debug, Clone, Serialize)]
pub struct TaskState {
    m: usize,
    num_choices: usize,
    /// Numerator of Eq. 3, row-major `m × ℓ`: products of per-worker answer
    /// likelihoods. An empty answer set gives the all-ones matrix.
    m_hat: Vec<f64>,
    /// Row-normalized `M^{(i)}`, row-major `m × ℓ`.
    m_matrix: Vec<f64>,
    /// Probabilistic truth `s_i`, length `ℓ`.
    s: Vec<f64>,
    /// Cached `H(s_i)`: maintained whenever `s` changes (answer ingestion,
    /// full re-inference), so the OTA benefit scan reads it in O(1) per task
    /// instead of recomputing the entropy of unchanged posteriors on every
    /// worker request.
    s_entropy: f64,
}

/// Hand-written deserialization: `s_entropy` is *derived* state, so it is
/// recomputed from the stored `s` rather than read back — snapshots written
/// before the cache existed still load, and a stale or tampered stored
/// value can never skew the OTA benefit function.
impl serde::Deserialize for TaskState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map for TaskState", v))?;
        let field = |name: &str| serde::map_get(map, name).unwrap_or(&serde::Value::Null);
        fn get<T: serde::Deserialize>(
            v: &serde::Value,
            name: &'static str,
        ) -> Result<T, serde::DeError> {
            T::from_value(v).map_err(|e| e.in_field(name))
        }
        let m: usize = get(field("m"), "m")?;
        let num_choices: usize = get(field("num_choices"), "num_choices")?;
        let m_hat: Vec<f64> = get(field("m_hat"), "m_hat")?;
        let m_matrix: Vec<f64> = get(field("m_matrix"), "m_matrix")?;
        let s: Vec<f64> = get(field("s"), "s")?;
        // The kernels index `m × ℓ` row-major matrices and a length-`ℓ`
        // truth without further checks, so a state of any other shape is
        // refused here, at the decode boundary.
        let refuse = |name: &str, what: String| Err(serde::DeError(what).in_field(name));
        if m == 0 {
            return refuse("m", "expected at least 1 domain, found 0".into());
        }
        if num_choices < 2 {
            return refuse(
                "num_choices",
                format!("expected at least 2 choices, found {num_choices}"),
            );
        }
        let cells = m.saturating_mul(num_choices);
        for (name, found, expected) in [
            ("m_hat", m_hat.len(), cells),
            ("m_matrix", m_matrix.len(), cells),
            ("s", s.len(), num_choices),
        ] {
            if found != expected {
                return refuse(
                    name,
                    format!(
                        "expected {expected} entries for m = {m}, ℓ = {num_choices}, found {found}"
                    ),
                );
            }
        }
        Ok(TaskState {
            m,
            num_choices,
            m_hat,
            m_matrix,
            s_entropy: prob::entropy(&s),
            s,
        })
    }
}

impl TaskState {
    /// Fresh state for a task with `ℓ` choices over `m` domains: no answers
    /// yet, so every row of `M` (and `s`) is uniform — the paper's uniform
    /// prior assumption.
    pub fn new(m: usize, num_choices: usize) -> Self {
        assert!(m >= 1 && num_choices >= 2);
        let s = prob::uniform(num_choices);
        TaskState {
            m,
            num_choices,
            m_hat: vec![1.0; m * num_choices],
            m_matrix: vec![1.0 / num_choices as f64; m * num_choices],
            s_entropy: prob::entropy(&s),
            s,
        }
    }

    /// Number of domains `m`.
    #[inline]
    pub fn num_domains(&self) -> usize {
        self.m
    }

    /// Number of choices `ℓ`.
    #[inline]
    pub fn num_choices(&self) -> usize {
        self.num_choices
    }

    /// `M^{(i)}_{k,j}`.
    #[inline]
    pub fn m_entry(&self, k: usize, j: usize) -> f64 {
        self.m_matrix[k * self.num_choices + j]
    }

    /// Row `M^{(i)}_{k,•}`.
    #[inline]
    pub fn m_row(&self, k: usize) -> &[f64] {
        &self.m_matrix[k * self.num_choices..(k + 1) * self.num_choices]
    }

    /// The numerator matrix `M̂^{(i)}`, row-major — for the oracle tests.
    #[cfg(test)]
    pub(crate) fn m_hat(&self) -> &[f64] {
        &self.m_hat
    }

    /// The probabilistic truth `s_i`.
    #[inline]
    pub fn s(&self) -> &[f64] {
        &self.s
    }

    /// Cached entropy `H(s_i)` of the probabilistic truth.
    ///
    /// Equal to `prob::entropy(self.s())` at all times; kept up to date by
    /// [`TaskState::recompute_s`] so per-request hot paths (the benefit
    /// function of Definition 5) avoid the O(ℓ) log-sum per task.
    #[inline]
    pub fn entropy(&self) -> f64 {
        self.s_entropy
    }

    /// The inferred truth `v*_i = argmax_j s_{i,j}`.
    pub fn truth(&self) -> ChoiceIndex {
        prob::argmax(&self.s)
    }

    /// Step 1 for one row (Eq. 3): rebuilds `M̂_{k,•}` as the product of
    /// the given answers' `(hit, miss, choice)` likelihoods — in `V(i)`
    /// order — and renormalizes `M_{k,•}`. `s` is left to
    /// [`TaskState::recompute_s`], once the task's support rows are done.
    pub(super) fn recompute_row(
        &mut self,
        k: usize,
        answers: impl Iterator<Item = (f64, f64, ChoiceIndex)>,
    ) {
        let l = self.num_choices;
        let hat = &mut self.m_hat[k * l..(k + 1) * l];
        hat.fill(1.0);
        for (hit, miss, choice) in answers {
            absorb(hat, hit, miss, choice);
        }
        normalize_row(hat, &mut self.m_matrix[k * l..(k + 1) * l]);
    }

    /// Applies one newly arrived answer in O(m·ℓ) — the incremental Step 1
    /// of Section 4.2: multiply the new worker's likelihoods into `M̂`,
    /// renormalize each row, refresh `s`.
    pub fn apply_answer(&mut self, r: &DomainVector, quality: &[f64], choice: ChoiceIndex) {
        debug_assert_eq!(quality.len(), self.m);
        debug_assert!(choice < self.num_choices);
        let l = self.num_choices;
        for (k, &qk) in quality[..self.m].iter().enumerate() {
            let hit = clamp_quality(qk);
            let hat = &mut self.m_hat[k * l..(k + 1) * l];
            absorb(hat, hit, miss_likelihood(hit, l), choice);
            normalize_row(hat, &mut self.m_matrix[k * l..(k + 1) * l]);
        }
        self.recompute_s(r);
    }

    /// Hypothetical update matrix `M^{(i)}|a` of Theorem 3: what `M` becomes
    /// if the worker with the given quality answers choice `a`. Used by OTA
    /// without mutating the real state.
    pub fn m_given_answer(&self, quality: &[f64], a: ChoiceIndex) -> Vec<f64> {
        let l = self.num_choices;
        let mut out = vec![0.0; self.m * l];
        for k in 0..self.m {
            let row = &mut out[k * l..(k + 1) * l];
            let mut sum = 0.0;
            for (j, slot) in row.iter_mut().enumerate() {
                let v = self.m_entry(k, j) * likelihood(quality[k], a, j, l);
                *slot = v;
                sum += v;
            }
            if sum > 0.0 {
                for slot in row.iter_mut() {
                    *slot /= sum;
                }
            } else {
                row.iter_mut().for_each(|x| *x = 1.0 / l as f64);
            }
        }
        out
    }

    /// `ŝ_i = r × (M|a)` for a hypothetical matrix produced by
    /// [`TaskState::m_given_answer`].
    pub fn s_from_matrix(&self, r: &DomainVector, matrix: &[f64]) -> Vec<f64> {
        let l = self.num_choices;
        let mut s = vec![0.0; l];
        for k in 0..self.m {
            let rk = r[k];
            if rk == 0.0 {
                continue;
            }
            for (j, slot) in s.iter_mut().enumerate() {
                *slot += rk * matrix[k * l + j];
            }
        }
        // Rows of M are distributions and r is a distribution, so s already
        // sums to 1; normalize defensively against drift.
        prob::normalize_in_place(&mut s);
        s
    }

    /// Recomputes `s_i = r^{t_i} × M^{(i)}` (Eq. 2) and its entropy cache.
    pub fn recompute_s(&mut self, r: &DomainVector) {
        debug_assert_eq!(r.len(), self.m);
        self.recompute_s_over(r.support());
    }

    /// [`TaskState::recompute_s`] over an already extracted support
    /// `{(k, r_k) : r_k ≠ 0}` in ascending `k` — the only rows Eq. 2 reads.
    pub(super) fn recompute_s_over(&mut self, support: impl Iterator<Item = (usize, f64)>) {
        let l = self.num_choices;
        self.s.fill(0.0);
        for (k, rk) in support {
            for (slot, &mkj) in self.s.iter_mut().zip(&self.m_matrix[k * l..(k + 1) * l]) {
                *slot += rk * mkj;
            }
        }
        prob::normalize_in_place(&mut self.s);
        self.s_entropy = prob::entropy(&self.s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Step 1 for a whole task through the row kernel: every row rebuilt
    /// from `answers = [(worker, choice)]` and `qualities[worker]`, then `s`.
    fn recompute(
        st: &mut TaskState,
        r: &DomainVector,
        answers: &[(usize, ChoiceIndex)],
        qualities: &[Vec<f64>],
    ) {
        let l = st.num_choices();
        // `k` selects the row and the column of every worker's quality.
        #[allow(clippy::needless_range_loop)]
        for k in 0..st.num_domains() {
            st.recompute_row(
                k,
                answers.iter().map(|&(w, choice)| {
                    let hit = clamp_quality(qualities[w][k]);
                    (hit, miss_likelihood(hit, l), choice)
                }),
            );
        }
        st.recompute_s(r);
    }

    /// Table 1 / Section 4.1 running example: three workers answer task t1
    /// (r = [0, 0.78, 0.22]); the computed s must favor "yes" despite two
    /// "no" answers, because w1 is the sports expert.
    #[test]
    fn table1_running_example() {
        let r = DomainVector::new(vec![0.0, 0.78, 0.22]).unwrap();
        let qualities = [
            vec![0.3, 0.9, 0.6], // w1
            vec![0.9, 0.6, 0.3], // w2
            vec![0.6, 0.3, 0.9], // w3
        ];
        let answers = [
            (0, 0usize), // w1: yes
            (1, 1usize), // w2: no
            (2, 1usize), // w3: no
        ];
        let mut st = TaskState::new(3, 2);
        recompute(&mut st, &r, &answers, &qualities);

        // Paper: M_{2,•} = [0.93, 0.07], M_{1,•} = [0.03, 0.97],
        // M_{3,•} = [0.28, 0.72] (1-indexed domains).
        assert!(
            (st.m_entry(1, 0) - 0.93).abs() < 0.005,
            "{}",
            st.m_entry(1, 0)
        );
        assert!((st.m_entry(0, 0) - 0.03).abs() < 0.005);
        assert!((st.m_entry(2, 0) - 0.28).abs() < 0.005);
        // s1 = [0.79, 0.21].
        assert!((st.s()[0] - 0.79).abs() < 0.01, "s = {:?}", st.s());
        assert!((st.s()[1] - 0.21).abs() < 0.01);
        assert_eq!(st.truth(), 0); // "yes" wins.
    }

    #[test]
    fn fresh_state_is_uniform() {
        let st = TaskState::new(4, 3);
        assert_eq!(st.s(), &[1.0 / 3.0; 3]);
        for k in 0..4 {
            assert_eq!(st.m_row(k), &[1.0 / 3.0; 3]);
        }
    }

    #[test]
    fn incremental_apply_matches_recompute() {
        let r = DomainVector::new(vec![0.2, 0.5, 0.3]).unwrap();
        let qualities = [vec![0.9, 0.4, 0.7], vec![0.5, 0.8, 0.2]];
        let answers = [(0, 1usize), (1, 0usize)];

        let mut batch = TaskState::new(3, 2);
        recompute(&mut batch, &r, &answers, &qualities);

        let mut inc = TaskState::new(3, 2);
        inc.apply_answer(&r, &qualities[0], 1);
        inc.apply_answer(&r, &qualities[1], 0);

        for k in 0..3 {
            for j in 0..2 {
                assert!((batch.m_entry(k, j) - inc.m_entry(k, j)).abs() < 1e-12);
            }
        }
        for j in 0..2 {
            assert!((batch.s()[j] - inc.s()[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn m_given_answer_matches_actual_update() {
        let r = DomainVector::new(vec![0.6, 0.4]).unwrap();
        let q = vec![0.85, 0.3];
        let mut st = TaskState::new(2, 3);
        st.apply_answer(&r, &[0.7, 0.7], 2);

        let hypothetical = st.m_given_answer(&q, 1);
        let s_hyp = st.s_from_matrix(&r, &hypothetical);

        let mut applied = st.clone();
        applied.apply_answer(&r, &q, 1);
        for k in 0..2 {
            for j in 0..3 {
                assert!(
                    (hypothetical[k * 3 + j] - applied.m_entry(k, j)).abs() < 1e-12,
                    "k={k} j={j}"
                );
            }
        }
        for (hyp, actual) in s_hyp.iter().zip(applied.s()) {
            assert!((hyp - actual).abs() < 1e-12);
        }
    }

    #[test]
    fn extreme_qualities_are_clamped() {
        let r = DomainVector::new(vec![1.0, 0.0]).unwrap();
        let mut st = TaskState::new(2, 2);
        st.apply_answer(&r, &[1.0, 0.0], 0);
        assert!(st.s()[0] > 0.99);
        assert!(st.s().iter().all(|p| p.is_finite() && *p >= 0.0));
    }

    #[test]
    fn underflow_guard_keeps_numerators_finite() {
        let r = DomainVector::new(vec![0.5, 0.5]).unwrap();
        let mut st = TaskState::new(2, 2);
        // 2000 consistent answers would underflow naive products.
        for _ in 0..2000 {
            st.apply_answer(&r, &[0.9, 0.9], 0);
        }
        assert!(st.s()[0] > 0.999);
        assert!(st.s().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn deserialization_recomputes_the_entropy_cache() {
        let r = DomainVector::new(vec![0.4, 0.6]).unwrap();
        let mut st = TaskState::new(2, 2);
        st.apply_answer(&r, &[0.85, 0.7], 1);
        // Round-trip through the serialized form.
        let round: TaskState = serde::Deserialize::from_value(&serde::Serialize::to_value(&st))
            .expect("roundtrip decodes");
        assert_eq!(round.s(), st.s());
        assert!((round.entropy() - st.entropy()).abs() < 1e-15);
        // A snapshot missing the cache field (pre-cache format) still loads,
        // and a tampered stored value is ignored in favor of the recomputed
        // one.
        let mut v = match st.to_value() {
            serde::Value::Map(entries) => entries,
            other => panic!("struct serializes as map, got {other:?}"),
        };
        v.retain(|(k, _)| k != "s_entropy");
        v.push(("s_entropy".to_string(), serde::Value::Float(99.0)));
        let decoded: TaskState = serde::Deserialize::from_value(&serde::Value::Map(v)).unwrap();
        assert!((decoded.entropy() - st.entropy()).abs() < 1e-15);
    }

    #[test]
    fn cached_entropy_tracks_s_through_every_update_path() {
        let r = DomainVector::new(vec![0.6, 0.4]).unwrap();
        let mut st = TaskState::new(2, 3);
        assert!((st.entropy() - prob::entropy(st.s())).abs() < 1e-15);
        st.apply_answer(&r, &[0.8, 0.6], 1);
        assert!((st.entropy() - prob::entropy(st.s())).abs() < 1e-15);
        let answers = [(0, 2usize), (1, 2usize)];
        recompute(&mut st, &r, &answers, &[vec![0.7, 0.9], vec![0.7, 0.9]]);
        assert!((st.entropy() - prob::entropy(st.s())).abs() < 1e-15);
        st.recompute_s(&r);
        assert!((st.entropy() - prob::entropy(st.s())).abs() < 1e-15);
    }

    #[test]
    fn clamp_quality_bounds() {
        assert!(clamp_quality(0.0) > 0.0);
        assert!(clamp_quality(1.0) < 1.0);
        assert_eq!(clamp_quality(0.5), 0.5);
    }
}
