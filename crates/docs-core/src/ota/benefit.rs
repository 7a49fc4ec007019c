//! The benefit function (Definition 5) and its ingredients
//! (Theorems 2 and 3, Eq. 8).

use crate::ti::{clamp_quality, miss_likelihood, TaskView};
use docs_types::prob;

/// **Theorem 2**: the probability that the coming worker answers each choice,
/// given the answers collected so far:
///
/// ```text
/// Pr(v^w_i = a | V(i)) = Σ_k r_k · [ q_k·M_{k,a} + (1-q_k)/(ℓ-1) · (1 − M_{k,a}) ]
/// ```
///
/// The sum runs over the task's support rows (`r_k = 0` adds nothing).
/// The returned vector is a distribution over the `ℓ` choices.
pub fn answer_probabilities(state: TaskView<'_>, quality: &[f64]) -> Vec<f64> {
    let l = state.num_choices();
    debug_assert_eq!(quality.len(), state.num_domains());
    let mut p = vec![0.0; l];
    for (k, rk, m_row) in state.rows() {
        let q = clamp_quality(quality[k]);
        let wrong = (1.0 - q) / (l as f64 - 1.0);
        for (slot, &mka) in p.iter_mut().zip(m_row) {
            *slot += rk * (q * mka + wrong * (1.0 - mka));
        }
    }
    // Exact in theory; normalize defensively against floating drift.
    prob::normalize_in_place(&mut p);
    p
}

/// Reusable buffers of the benefit kernel for tasks with more than two
/// choices. One per request (or per scanning thread) makes every
/// [`benefit_with`] call after the first allocation-free. The `ℓ = 2` path
/// keeps its vectors in fixed-width locals and does not touch it.
#[derive(Debug, Default)]
pub struct BenefitScratch {
    /// The task's support rows with the worker's Eq. 4 likelihoods on them.
    rows: Vec<SupportRow>,
    /// Three length-`ℓ` vectors: `Pr(v = a)`, `ŝ` and one row of `M|a`.
    buf: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct SupportRow {
    r: f64,
    hit: f64,
    miss: f64,
}

/// **Eq. 8**: the expected entropy of the task's truth after the worker
/// answers, `H(ŝ_i) = Σ_a H(r × M^{(i)}|a) · Pr(v^w_i = a | V(i))`, with
/// `M^{(i)}|a` from Theorem 3.
///
/// Theorem 2, Theorem 3 and Eq. 8 over the support rows `{k : r_k ≠ 0}` —
/// `ŝ = r × (M|a)` reads no other row of `M|a`. The same bits as composing
/// [`answer_probabilities`], [`TaskView::m_given_answer`] and
/// [`TaskView::s_from_matrix`], which stay as the textbook forms the tests
/// compare against.
fn expected_posterior_entropy_with(
    scratch: &mut BenefitScratch,
    state: TaskView<'_>,
    quality: &[f64],
) -> f64 {
    // ℓ = 2 (yes/no and every canonical workload) gets its own kernel with
    // the width known.
    if state.num_choices() == 2 {
        expected_posterior_entropy_2(state, quality)
    } else {
        expected_posterior_entropy_wide(scratch, state, quality)
    }
}

/// The `ℓ = 2` kernel: `Pr(v = a)`, `ŝ` and the `M|a` row are `[f64; 2]`
/// locals, and `miss_likelihood(hit, 2)` divides by the constant 1, which
/// folds away. Every value is built by the operations of
/// [`expected_posterior_entropy_wide`] in its order — the `0.0 +` sums over
/// the rows, `normalize_in_place`'s sum and ½ fallback, the `pa == 0.0` skip,
/// `prob::entropy` — so the bits are the same by construction. One walk over
/// the rows feeds Theorem 2 and both answers' `ŝ`: each is its own
/// accumulator, still summed in row order.
fn expected_posterior_entropy_2(state: TaskView<'_>, quality: &[f64]) -> f64 {
    debug_assert_eq!(quality.len(), state.num_domains());
    let mut probs = [0.0; 2];
    let mut s_hat = [[0.0; 2]; 2];
    for (k, r, m_row) in state.rows() {
        let &[m0, m1] = <&[f64; 2]>::try_from(m_row).expect("rows of an ℓ = 2 task");
        let hit = clamp_quality(quality[k]);
        let miss = miss_likelihood(hit, 2);
        // Theorem 2.
        probs[0] += r * (hit * m0 + miss * (1.0 - m0));
        probs[1] += r * (hit * m1 + miss * (1.0 - m1));
        // Theorem 3: row `k` of `M|a`, renormalized, for either answer.
        for (s_hat, [like0, like1]) in s_hat.iter_mut().zip([[hit, miss], [miss, hit]]) {
            let [u0, u1] = normalize_2([m0 * like0, m1 * like1]);
            s_hat[0] += r * u0;
            s_hat[1] += r * u1;
        }
    }
    let mut h = 0.0;
    for (pa, s_hat) in normalize_2(probs).into_iter().zip(s_hat) {
        if pa == 0.0 {
            continue;
        }
        h += entropy_2(normalize_2(s_hat)) * pa;
    }
    h
}

/// `prob::normalize_in_place` at width 2. `p0 + p1` is the bits of both the
/// `iter().sum()` and a `0.0 +` row sum: adding a zero changes no non-zero
/// value, and a zero sum takes the ½ fallback whatever its sign.
#[inline(always)]
fn normalize_2([p0, p1]: [f64; 2]) -> [f64; 2] {
    let sum = p0 + p1;
    if sum > 0.0 {
        [p0 / sum, p1 / sum]
    } else {
        [0.5; 2]
    }
}

/// `prob::entropy` at width 2, term for term.
#[inline(always)]
fn entropy_2(dist: [f64; 2]) -> f64 {
    let mut h = 0.0;
    for p in dist {
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// The kernel for `ℓ > 2`, into the scratch's buffers.
fn expected_posterior_entropy_wide(
    scratch: &mut BenefitScratch,
    state: TaskView<'_>,
    quality: &[f64],
) -> f64 {
    let l = state.num_choices();
    debug_assert_eq!(quality.len(), state.num_domains());
    let BenefitScratch { rows, buf } = scratch;
    rows.clear();
    rows.extend(state.support().iter().map(|&(k, r)| {
        let hit = clamp_quality(quality[k]);
        SupportRow {
            r,
            hit,
            miss: miss_likelihood(hit, l),
        }
    }));
    buf.clear();
    buf.resize(3 * l, 0.0);
    let (probs, rest) = buf.split_at_mut(l);
    let (s_hat, updated) = rest.split_at_mut(l);

    // Theorem 2.
    for (row, (_, _, m_row)) in rows.iter().zip(state.rows()) {
        for (slot, &mka) in probs.iter_mut().zip(m_row) {
            *slot += row.r * (row.hit * mka + row.miss * (1.0 - mka));
        }
    }
    prob::normalize_in_place(probs);

    let mut h = 0.0;
    for (a, &pa) in probs.iter().enumerate() {
        if pa == 0.0 {
            continue;
        }
        s_hat.fill(0.0);
        for (row, (_, _, m_row)) in rows.iter().zip(state.rows()) {
            // Theorem 3: row `k` of `M|a`, renormalized.
            let mut sum = 0.0;
            for (j, (slot, &mkj)) in updated.iter_mut().zip(m_row).enumerate() {
                let v = mkj * if a == j { row.hit } else { row.miss };
                *slot = v;
                sum += v;
            }
            if sum > 0.0 {
                updated.iter_mut().for_each(|x| *x /= sum);
            } else {
                updated.fill(1.0 / l as f64);
            }
            for (slot, &u) in s_hat.iter_mut().zip(updated.iter()) {
                *slot += row.r * u;
            }
        }
        prob::normalize_in_place(s_hat);
        h += prob::entropy(s_hat) * pa;
    }
    h
}

/// **Definition 5**: the benefit of assigning the task to the worker,
/// `B(t_i) = H(s_i) − H(ŝ_i)`.
///
/// `H(s_i)` comes from the entropy cache [`TaskView::entropy`] maintained
/// at answer-ingestion time: a worker request scans every candidate task,
/// and recomputing the entropy of posteriors that have not changed since
/// the last request would put an O(ℓ) log-sum per task back on the
/// latency-critical assignment path.
pub fn benefit(state: TaskView<'_>, quality: &[f64]) -> f64 {
    benefit_with(&mut BenefitScratch::default(), state, quality)
}

/// [`benefit`] into caller-provided scratch — the form a candidate scan
/// uses: no heap allocation once the scratch has seen the largest `ℓ` and
/// support of the campaign, and none at all for an `ℓ = 2` task.
pub fn benefit_with(scratch: &mut BenefitScratch, state: TaskView<'_>, quality: &[f64]) -> f64 {
    state.entropy() - expected_posterior_entropy_with(scratch, state, quality)
}

/// How far below the running `k`-th benefit a task's bound must fall before
/// the scan skips the task's kernel. Each bound below is a theorem about
/// the exact benefit; the kernel's float result can overshoot it by a few
/// ulps of `ln 2`, far below this margin, so a skipped task's benefit is
/// strictly below the `k`-th and cannot change the picks.
pub(super) const BOUND_MARGIN: f64 = 1e-9;

/// Upper bounds on [`benefit_with`] for one requesting worker, from the
/// task's cached `H(s)` and the worker's per-domain channel:
///
/// * every task: `B ≤ H(s)`, since Definition 5 subtracts an expected
///   entropy, which is `≥ 0`;
/// * an `ℓ = 2` task with one support row `k`: Eq. 8 is then an exact Bayes
///   update of that row through a binary symmetric channel with
///   `hit = clamp_quality(q_k)`, so `B` is the mutual information between
///   the truth and the answer, at most the channel's capacity
///   `C = ln 2 − H(hit, 1 − hit)` and at most `(2·hit − 1)²·H(s)`, the
///   strong data-processing bound of Ahlswede & Gács.
///
/// A task with several support rows or `ℓ > 2` keeps `H(s)` only: Eq. 2's
/// `ŝ` mixes the rows' posteriors, and a mixture can exceed the capacity
/// of every row's channel (`ota::tests::a_mixture_can_exceed_the_capacity`).
/// `C` and `(2·hit − 1)²` are computed per domain on first use in a
/// request, into buffers the scan reuses.
#[derive(Debug, Default)]
pub(super) struct BenefitBounds {
    /// Per domain, `[C, (2·hit − 1)²]` once computed for this request's
    /// worker.
    by_domain: Vec<Option<[f64; 2]>>,
}

impl BenefitBounds {
    /// Forgets the last worker's bounds: `m` domains, none computed.
    pub(super) fn reset(&mut self, m: usize) {
        self.by_domain.clear();
        self.by_domain.resize(m, None);
    }

    /// An upper bound on `benefit_with(_, state, quality)`, up to the
    /// kernel's rounding. NaN (a NaN quality) bounds nothing.
    #[inline]
    pub(super) fn bound(&mut self, state: TaskView<'_>, quality: &[f64]) -> f64 {
        let h = state.entropy();
        match *state.support() {
            [(k, _)] if state.num_choices() == 2 => {
                let [capacity, contraction] =
                    *self.by_domain[k].get_or_insert_with(|| binary_channel(quality[k]));
                capacity.min(contraction * h)
            }
            _ => h,
        }
    }
}

/// `[C, (2·hit − 1)²]` of the binary symmetric channel of a worker with
/// quality `q`: its capacity and its strong data-processing coefficient.
pub(super) fn binary_channel(q: f64) -> [f64; 2] {
    let hit = clamp_quality(q);
    let capacity = std::f64::consts::LN_2 - entropy_2([hit, miss_likelihood(hit, 2)]);
    [capacity, (2.0 * hit - 1.0) * (2.0 * hit - 1.0)]
}

/// Test oracle: Eq. 8 composed from the public textbook forms, one
/// allocation per intermediate — what `expected_posterior_entropy_with` was
/// before the support-row kernel.
#[cfg(test)]
pub(super) fn expected_posterior_entropy_textbook(state: TaskView<'_>, quality: &[f64]) -> f64 {
    let probs = answer_probabilities(state, quality);
    let mut h = 0.0;
    for (a, &pa) in probs.iter().enumerate() {
        if pa == 0.0 {
            continue;
        }
        let updated = state.m_given_answer(quality, a);
        let s_hat = state.s_from_matrix(&updated);
        h += prob::entropy(&s_hat) * pa;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ti::oracle::{campaign, Sparsity};
    use crate::ti::{TaskArena, TruthInference};
    use docs_types::DomainVector;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over converged and fresh states of every sparsity and mixed `ℓ`,
        /// and qualities that include the clamped endpoints, the kernel
        /// returns the textbook composition's bits — through one scratch
        /// reused across tasks of different `ℓ` and support.
        #[test]
        fn benefit_is_bit_identical_to_the_textbook_composition(
            seed in any::<u64>(),
            quality in prop::collection::vec(-0.1f64..1.1, 7)
        ) {
            let quality: Vec<f64> = quality.iter().map(|q| q.clamp(0.0, 1.0)).collect();
            let mut scratch = BenefitScratch::default();
            for sparsity in Sparsity::ALL {
                let (tasks, log, registry) = campaign(seed, sparsity);
                let quality = &quality[..registry.num_domains()];
                let converged = TruthInference::default().run(&tasks, &log, &registry).states;
                let fresh = TaskArena::for_tasks(registry.num_domains(), &tasks);
                for state in converged.iter().chain(fresh.iter()) {
                    let want = state.entropy()
                        - expected_posterior_entropy_textbook(state, quality);
                    let got = benefit_with(&mut scratch, state, quality);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "seed {} {:?}", seed, sparsity);
                    prop_assert_eq!(benefit(state, quality).to_bits(), want.to_bits());
                }
            }
        }
    }

    /// Arenas driven through hundreds of answers at the qualities
    /// `[0, 1, 0.5]`, where `M` slots underflow to exactly 0 on the two
    /// clamped domains, score the textbook composition's bits for `ℓ = 2`
    /// and `ℓ ∈ {3, 5}`, through one scratch reused across them. The
    /// requesting workers take every quality in `{0, 1, 0.5, NaN}` per
    /// domain: `clamp_quality` passes a NaN through, and it is the one input
    /// that reaches the ½ fallbacks. (`pa == 0.0` is out of reach: every
    /// `Pr(v = a)` is at least `min(hit, miss) ≥ 1e-6 / (ℓ − 1)`.)
    #[test]
    fn benefit_is_bit_identical_on_saturated_arenas() {
        let levels = [0.0, 1.0, 0.5, f64::NAN];
        let r = [
            DomainVector::uniform(3),
            DomainVector::one_hot(3, 1),
            DomainVector::new(vec![0.5, 0.0, 0.5]).unwrap(),
        ];
        let mut scratch = BenefitScratch::default();
        let mut underflowed = 0;
        for l in [2, 5, 3] {
            let mut arena = TaskArena::new(3, r.iter().map(|r| (r, l)));
            for step in 0..300 {
                // Mostly choice 0; every fourth answer walks the others.
                let choice = if step % 4 == 3 { (step / 4) % l } else { 0 };
                for i in 0..arena.len() {
                    arena.apply_answer(i, &[0.0, 1.0, 0.5], choice);
                }
                if step % 15 != 0 {
                    continue;
                }
                for state in arena.iter() {
                    underflowed += state
                        .rows()
                        .filter(|(_, _, row)| row.contains(&0.0))
                        .count();
                    for code in 0..64 {
                        let worker = [levels[code % 4], levels[code / 4 % 4], levels[code / 16]];
                        let want =
                            state.entropy() - expected_posterior_entropy_textbook(state, &worker);
                        let got = benefit_with(&mut scratch, state, &worker);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "ℓ = {l}, step {step}, worker {worker:?}"
                        );
                    }
                }
            }
        }
        assert!(underflowed > 0, "no slot of M underflowed to 0");
    }

    /// One task over `r` with `ℓ` choices.
    fn fresh(r: &DomainVector, l: usize) -> TaskArena {
        TaskArena::new(r.len(), [(r, l)])
    }

    #[test]
    fn answer_probabilities_form_distribution() {
        let r = DomainVector::new(vec![0.2, 0.5, 0.3]).unwrap();
        let mut st = fresh(&r, 4);
        st.apply_answer(0, &[0.8, 0.6, 0.9], 2);
        let p = answer_probabilities(st.view(0), &[0.7, 0.9, 0.4]);
        assert_eq!(p.len(), 4);
        assert!(prob::is_distribution(&p));
    }

    #[test]
    fn uninformed_state_gives_uniform_answer_distribution() {
        // With M uniform, Theorem 2 gives q/ℓ + (1-q)/(ℓ-1) · (1 - 1/ℓ)
        // = 1/ℓ for every a: the prediction is uniform.
        let st = fresh(&DomainVector::new(vec![0.5, 0.5]).unwrap(), 2);
        let p = answer_probabilities(st.view(0), &[0.9, 0.3]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expert_predicted_to_follow_current_truth() {
        let mut st = fresh(&DomainVector::one_hot(1, 0), 2);
        st.apply_answer(0, &[0.9], 0); // current truth leans choice 0
        let p = answer_probabilities(st.view(0), &[0.95]);
        assert!(
            p[0] > 0.8,
            "expert should agree with the likely truth: {p:?}"
        );
        // A uniform-quality worker is a coin flip regardless of state.
        let p_flip = answer_probabilities(st.view(0), &[0.5]);
        assert!((p_flip[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn benefit_uses_cached_entropy_consistently() {
        // The cached H(s) must equal the freshly computed one, so the
        // benefit is unchanged by the caching.
        let mut st = fresh(&DomainVector::new(vec![0.3, 0.7]).unwrap(), 3);
        for choice in [0, 2, 2, 1] {
            st.apply_answer(0, &[0.8, 0.65], choice);
            let view = st.view(0);
            let direct = prob::entropy(view.s())
                - expected_posterior_entropy_with(
                    &mut BenefitScratch::default(),
                    view,
                    &[0.9, 0.6],
                );
            assert!((benefit(view, &[0.9, 0.6]) - direct).abs() < 1e-15);
        }
    }

    #[test]
    fn benefit_positive_for_informative_workers() {
        let st = fresh(&DomainVector::one_hot(1, 0), 2);
        assert!(benefit(st.view(0), &[0.9]) > 0.0);
    }

    #[test]
    fn benefit_near_zero_for_coin_flip_worker() {
        let st = fresh(&DomainVector::one_hot(1, 0), 2);
        let b = benefit(st.view(0), &[0.5]);
        assert!(b.abs() < 1e-9, "coin flip adds no information, b = {b}");
    }

    #[test]
    fn benefit_grows_with_quality() {
        let st = fresh(&DomainVector::one_hot(1, 0), 2);
        let b_low = benefit(st.view(0), &[0.6]);
        let b_mid = benefit(st.view(0), &[0.75]);
        let b_high = benefit(st.view(0), &[0.95]);
        assert!(b_low < b_mid && b_mid < b_high);
    }

    #[test]
    fn benefit_shrinks_as_task_becomes_confident() {
        let mut st = fresh(&DomainVector::one_hot(1, 0), 2);
        let mut prev = benefit(st.view(0), &[0.85]);
        for _ in 0..5 {
            st.apply_answer(0, &[0.85], 0);
            let b = benefit(st.view(0), &[0.85]);
            assert!(b <= prev + 1e-12, "benefit should shrink: {b} vs {prev}");
            prev = b;
        }
        assert!(prev < 0.05, "a confident task has little left to gain");
    }

    /// **Theorem 4** (numerical check): the expected benefit of a k-task set
    /// computed by enumerating all answer combinations (Eqs. 9-10) equals
    /// the sum of individual benefits.
    #[test]
    fn theorem4_additivity() {
        let r1 = DomainVector::new(vec![0.7, 0.3]).unwrap();
        let r2 = DomainVector::new(vec![0.2, 0.8]).unwrap();
        let q = vec![0.85, 0.65];
        let mut states = TaskArena::new(2, [(&r1, 2), (&r2, 3)]);
        states.apply_answer(0, &[0.7, 0.7], 0);
        states.apply_answer(1, &[0.6, 0.8], 2);
        let (st1, st2) = (states.view(0), states.view(1));

        // Joint expectation over φ ∈ {0,1} × {0,1,2} (Eq. 10).
        let p1 = answer_probabilities(st1, &q);
        let p2 = answer_probabilities(st2, &q);
        let h1 = prob::entropy(st1.s());
        let h2 = prob::entropy(st2.s());
        let mut joint = 0.0;
        for (a1, &pa1) in p1.iter().enumerate() {
            let s1 = st1.s_from_matrix(&st1.m_given_answer(&q, a1));
            for (a2, &pa2) in p2.iter().enumerate() {
                let s2 = st2.s_from_matrix(&st2.m_given_answer(&q, a2));
                let b_phi = (h1 - prob::entropy(&s1)) + (h2 - prob::entropy(&s2));
                joint += b_phi * pa1 * pa2;
            }
        }
        let sum = benefit(st1, &q) + benefit(st2, &q);
        assert!(
            (joint - sum).abs() < 1e-12,
            "Theorem 4 violated: joint {joint} vs sum {sum}"
        );
    }
}
