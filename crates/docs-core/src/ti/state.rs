//! Per-task inference state, stored support-only: for every task of a
//! campaign the support `{(k, r_k) : r_k ≠ 0}` of its domain vector, the
//! support rows of the matrix `M^{(i)}` and of its unnormalized numerator
//! `M̂^{(i)}`, and the probabilistic truth `s_i` with its entropy — in one
//! [`TaskArena`] of flat buffers, read through borrowed [`TaskView`]s.

use docs_types::{prob, ChoiceIndex, DomainVector, Task};

/// Worker qualities are probabilities; products in Eq. 3 divide by `1 - q`
/// and by `q`, so both are kept away from the exact endpoints.
const Q_EPS: f64 = 1e-6;

/// A row of `M̂` whose largest entry fell below this is rescaled to max 1:
/// a long product of likelihoods must not underflow to an all-zero row,
/// which would read as "no evidence" and reset the row to uniform.
pub(super) const RESCALE_BELOW: f64 = 1e-100;

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
/// without usable mass falls back to the uniform prior. Every update ends
/// with this, so `M` is at all times a function of `M̂`.
#[inline]
fn normalize_row(hat: &[f64], row: &mut [f64]) {
    let sum: f64 = hat.iter().sum();
    if positive_finite(sum) {
        for (slot, &h) in row.iter_mut().zip(hat) {
            *slot = h / sum;
        }
    } else {
        row.fill(1.0 / hat.len() as f64);
    }
}

/// `x > 0.0 && x.is_finite()`: the bits of every positive finite double,
/// less one, are below those of `f64::MAX`, and those of `+0.0`, of every
/// negative value, of `∞` and of NaN are not. One subtraction and one
/// comparison, where the float form compiles to a float-class test of some
/// twenty integer instructions.
#[inline]
fn positive_finite(x: f64) -> bool {
    x.to_bits().wrapping_sub(1) < f64::MAX.to_bits()
}

/// Where one task's slices start in the arena's flat buffers; they end
/// where the next task's start.
#[derive(Debug, Clone, Copy, Default)]
struct Offsets {
    /// Into `support`.
    support: usize,
    /// Into `m_hat` and `m_matrix`: the task's support rows, row-major
    /// `|support| × ℓ`.
    cells: usize,
    /// Into `s`: `ℓ` entries.
    s: usize,
}

/// The per-task state Section 4.2 stores in the database, for a whole
/// campaign: per task the support rows of `M^{(i)}` (row `M^{(i)}_{k,•}` is
/// the truth distribution conditioned on the task's true domain being
/// `d_k`), of the numerator `M̂^{(i)}` that makes single-answer updates
/// `O(|support|·ℓ)`, and the probabilistic truth `s_i = r^{t_i} × M^{(i)}`.
///
/// Eq. 2 weights row `k` by `r_k`, so a row outside the support reaches no
/// output (`s`, `H(s)`, every benefit, Eq. 5's qualities) and is not stored.
/// Each field is one allocation whatever the task count.
#[derive(Debug, Clone, Default)]
pub struct TaskArena {
    m: usize,
    /// `n + 1` entries: task `i` spans `offsets[i]..offsets[i + 1]`.
    offsets: Vec<Offsets>,
    /// `(k, r_k)` for every `r_k ≠ 0`, ascending `k`.
    support: Vec<(usize, f64)>,
    /// Numerator of Eq. 3: products of per-worker answer likelihoods; an
    /// empty answer set gives all ones.
    m_hat: Vec<f64>,
    /// Row-normalized `M̂` (`normalize_row`).
    m_matrix: Vec<f64>,
    /// Probabilistic truths `s_i`, `ℓ` entries per task.
    s: Vec<f64>,
    /// `H(s_i)` per task, current whenever the arena is readable (the
    /// incremental update refreshes it with `s`; `reset` and full
    /// inference's Step 1 leave it, and a full run refreshes it once at its
    /// end), so the OTA benefit scan reads it in
    /// O(1) instead of recomputing the entropy of unchanged posteriors on
    /// every worker request.
    entropy: Vec<f64>,
}

impl TaskArena {
    /// Fresh states over `m` domains for tasks given as `(r, ℓ)`: no answers
    /// yet, so every row of `M` (and `s`) is uniform — the paper's uniform
    /// prior assumption.
    ///
    /// # Panics
    /// Panics if a domain vector is not of length `m` or a task has fewer
    /// than two choices.
    pub fn new<'a, I>(m: usize, tasks: I) -> Self
    where
        I: IntoIterator<Item = (&'a DomainVector, usize)>,
        I::IntoIter: Clone,
    {
        let tasks = tasks.into_iter();
        let (mut n, mut end) = (0, Offsets::default());
        for (r, l) in tasks.clone() {
            assert_eq!(r.len(), m, "domain vector is not of length m");
            assert!(l >= 2, "a task has at least two choices");
            let rows = r.support().count();
            n += 1;
            end.support += rows;
            end.cells += rows * l;
            end.s += l;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut support = Vec::with_capacity(end.support);
        let mut at = Offsets::default();
        offsets.push(at);
        for (r, l) in tasks {
            support.extend(r.support());
            at.cells += (support.len() - at.support) * l;
            at.support = support.len();
            at.s += l;
            offsets.push(at);
        }
        let mut arena = TaskArena {
            m,
            offsets,
            support,
            m_hat: vec![0.0; end.cells],
            m_matrix: vec![0.0; end.cells],
            s: vec![0.0; end.s],
            entropy: vec![0.0; n],
        };
        arena.reset();
        arena.refresh_entropy();
        arena
    }

    /// [`TaskArena::new`] for published tasks.
    ///
    /// # Panics
    /// Panics if a task lacks its domain vector (run DVE first), or as
    /// [`TaskArena::new`].
    pub fn for_tasks(m: usize, tasks: &[Task]) -> Self {
        Self::new(
            m,
            tasks.iter().map(|t| (t.domain_vector(), t.num_choices())),
        )
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.entropy.len()
    }

    /// True when the arena holds no task.
    pub fn is_empty(&self) -> bool {
        self.entropy.is_empty()
    }

    #[inline]
    fn span(&self, i: usize) -> (Offsets, Offsets) {
        (self.offsets[i], self.offsets[i + 1])
    }

    /// The state of task `i`.
    #[inline]
    pub fn view(&self, i: usize) -> TaskView<'_> {
        let (a, b) = self.span(i);
        TaskView {
            m: self.m,
            support: &self.support[a.support..b.support],
            m_matrix: &self.m_matrix[a.cells..b.cells],
            s: &self.s[a.s..b.s],
            entropy: self.entropy[i],
        }
    }

    /// Task `i`'s support and the index of `s_{i,choice}` in
    /// [`TaskArena::all_s`], taken through the task's own `s` range: one
    /// of Step 2's credits per support row.
    ///
    /// # Panics
    /// Panics if `choice` is not below the task's `ℓ`, so a bad log can
    /// never credit a neighbouring task's `s`.
    #[inline]
    pub(super) fn credit_of(&self, i: usize, choice: ChoiceIndex) -> (&[(usize, f64)], usize) {
        let (a, b) = self.span(i);
        let at = (a.s..b.s).nth(choice).expect("a choice below the task's ℓ");
        (&self.support[a.support..b.support], at)
    }

    /// Task `i`'s support and `s`, from one read of its offsets.
    #[inline]
    pub(super) fn support_and_s(&self, i: usize) -> (&[(usize, f64)], &[f64]) {
        let (a, b) = self.span(i);
        (&self.support[a.support..b.support], &self.s[a.s..b.s])
    }

    /// Every task's state, in task order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TaskView<'_>> + '_ {
        (0..self.len()).map(|i| self.view(i))
    }

    /// The inferred truths `v*_i = argmax_j s_{i,j}`, in task order.
    pub fn truths(&self) -> Vec<ChoiceIndex> {
        self.iter().map(|st| st.truth()).collect()
    }

    /// Task `i`'s slices, borrowed apart once so the kernels index plain
    /// slices.
    #[inline]
    fn task_mut(&mut self, i: usize) -> TaskMut<'_> {
        let (a, b) = self.span(i);
        TaskMut {
            support: &self.support[a.support..b.support],
            m_hat: &mut self.m_hat[a.cells..b.cells],
            m_matrix: &mut self.m_matrix[a.cells..b.cells],
            s: &mut self.s[a.s..b.s],
            entropy: &mut self.entropy[i],
        }
    }

    /// Every task back to the fresh prior — `M̂ = 1`, `M = s = 1/ℓ`, filled
    /// in place — where every full inference starts: `M̂` in one fill, then
    /// each task's `M` and `s` carved off the front of the flat buffers, as
    /// [`TaskArena::step1`] carves them. `H(s)` is left to
    /// [`TaskArena::refresh_entropy`], which [`TaskArena::new`] and every
    /// full run call once over all tasks.
    pub(super) fn reset(&mut self) {
        self.m_hat.fill(1.0);
        let mut m_matrix = &mut self.m_matrix[..];
        let mut s = &mut self.s[..];
        for span in self.offsets.windows(2) {
            let (cells, l) = (span[1].cells - span[0].cells, span[1].s - span[0].s);
            let uniform = 1.0 / l as f64;
            let (task_m, rest) = std::mem::take(&mut m_matrix).split_at_mut(cells);
            m_matrix = rest;
            task_m.fill(uniform);
            let (task_s, rest) = std::mem::take(&mut s).split_at_mut(l);
            s = rest;
            task_s.fill(uniform);
        }
    }

    /// Applies one newly arrived answer to task `i` in `O(|support|·ℓ)` —
    /// the incremental Step 1 of Section 4.2: multiply the answering
    /// worker's likelihoods into each support row of `M̂`, renormalize it,
    /// refresh `s`.
    pub fn apply_answer(&mut self, i: usize, quality: &[f64], choice: ChoiceIndex) {
        debug_assert_eq!(quality.len(), self.m);
        let mut t = self.task_mut(i);
        let l = t.s.len();
        debug_assert!(choice < l);
        for (pos, &(k, _)) in t.support.iter().enumerate() {
            let hat = &mut t.m_hat[pos * l..(pos + 1) * l];
            let hit = clamp_quality(quality[k]);
            absorb(hat, hit, miss_likelihood(hit, l), choice);
            normalize_row(hat, &mut t.m_matrix[pos * l..(pos + 1) * l]);
        }
        t.refresh_s();
        *t.entropy = prob::entropy(t.s);
    }

    /// Step 1 (Eqs. 2–4) over every task, in task order, one support row
    /// at a time: row `k` of `M̂` is the product, in `V(i)` order, of each
    /// answer's Eq. 4 likelihoods. `factors` starts with the table of hits
    /// and holds one table of misses per `ℓ`, each `mask + 1` long (a power
    /// of two). `tasks` gives per task the answers per row (`|V(i)|`) and
    /// where its `ℓ`'s misses start in `factors`; `plan` holds every task's
    /// `|support| × |V(i)|` entries, task after task and row after row, one
    /// `(cell, choice)` per answer: the answering worker's `hit` in domain
    /// `k` is the hits' entry `cell`, its `miss` the misses'. Each row is
    /// normalized into `M` and added, `r_k`-weighted, into the new `s`,
    /// which normalized replaces the old one (Eq. 2). Returns Step 1's part
    /// of Δ, `Σ_i Σ_j |s_old − s_new| / (n·ℓ_i)`. `H(s)` is left to
    /// [`TaskArena::refresh_entropy`]. `scratch` holds at least `2ℓ`
    /// entries for the widest `ℓ`.
    ///
    /// Every slot multiplies the same factors in the same order as the
    /// per-vote `absorb` chain, and no rescale test runs per answer. Every
    /// factor is at most 1, so no slot of a row, and so not the row's max,
    /// ever grows: a row whose final max is still `≥ RESCALE_BELOW` never
    /// fell below it, and is bit for bit the product `absorb` builds. Only a
    /// row ending below it is rebuilt from the same plan through `absorb`
    /// (the max skips NaN, as `absorb`'s does, so an all-zero or all-NaN row
    /// reads 0 and is rebuilt too).
    pub(super) fn step1(
        &mut self,
        tasks: impl Iterator<Item = (usize, usize)>,
        mut plan: &[(u32, u32)],
        factors: &[f64],
        mask: usize,
        scratch: &mut [f64],
    ) -> f64 {
        let n = self.len() as f64;
        let mut support = &self.support[..];
        let mut m_hat = &mut self.m_hat[..];
        let mut m_matrix = &mut self.m_matrix[..];
        let mut s = &mut self.s[..];
        let mut entropy = &mut self.entropy[..];
        let hits = &factors[..=mask];
        let mut delta_s = 0.0;
        // Each task's slices are carved off the front of the flat buffers.
        for (span, (votes, miss)) in self.offsets.windows(2).zip(tasks) {
            let (rows, l) = (span[1].support - span[0].support, span[1].s - span[0].s);
            let (task_support, rest) = support.split_at(rows);
            support = rest;
            let (task_hat, rest) = std::mem::take(&mut m_hat).split_at_mut(rows * l);
            m_hat = rest;
            let (task_m, rest) = std::mem::take(&mut m_matrix).split_at_mut(rows * l);
            m_matrix = rest;
            let (task_s, rest) = std::mem::take(&mut s).split_at_mut(l);
            s = rest;
            let (task_entropy, rest) = std::mem::take(&mut entropy)
                .split_first_mut()
                .expect("one entropy per task");
            entropy = rest;
            let (task_plan, rest) = plan.split_at(rows * votes);
            plan = rest;
            let t = TaskMut {
                support: task_support,
                m_hat: task_hat,
                m_matrix: task_m,
                s: task_s,
                entropy: task_entropy,
            };
            let misses = &factors[miss..][..=mask];
            // ℓ = 2 (yes/no and every canonical workload) gets its own copy
            // of the body, with the row and `s` in locals of the known
            // width.
            let change = if l == 2 {
                step1_rows::<2>(t, task_plan, votes, hits, misses, scratch)
            } else {
                step1_rows::<0>(t, task_plan, votes, hits, misses, scratch)
            };
            delta_s += change / (n * l as f64);
        }
        delta_s
    }

    /// `H(s_i)` of every task from its current `s`. `reset` and full
    /// inference's Step 1 leave it stale (neither Step 2 nor Δ reads it),
    /// so a run refreshes it once, after its last iteration, and
    /// [`TaskArena::new`] once after resetting every task.
    pub(super) fn refresh_entropy(&mut self) {
        for (h, span) in self.entropy.iter_mut().zip(self.offsets.windows(2)) {
            *h = prob::entropy(&self.s[span[0].s..span[1].s]);
        }
    }

    /// Task `i`'s support rows of `M̂`, row-major — for the oracle tests.
    #[cfg(test)]
    pub(crate) fn m_hat_of(&self, i: usize) -> &[f64] {
        let (a, b) = self.span(i);
        &self.m_hat[a.cells..b.cells]
    }

    /// Every task's support rows of `M̂`, in task order — with
    /// [`TaskArena::all_s`] the whole stored state: `M` and `H(s)` are
    /// functions of them.
    pub(super) fn all_m_hat(&self) -> &[f64] {
        &self.m_hat
    }

    /// Every task's `s`, in task order.
    pub(super) fn all_s(&self) -> &[f64] {
        &self.s
    }

    /// Overwrites the stored state with a snapshot's [`TaskArena::all_m_hat`]
    /// and [`TaskArena::all_s`] and recomputes `M` and `H(s)` from them —
    /// exactly what every update leaves there.
    ///
    /// # Panics
    /// Panics if either length differs from this arena's (restore checks
    /// them first, naming the field).
    pub(super) fn load(&mut self, m_hat: &[f64], s: &[f64]) {
        self.m_hat.copy_from_slice(m_hat);
        self.s.copy_from_slice(s);
        for i in 0..self.len() {
            let (a, b) = self.span(i);
            let l = b.s - a.s;
            let rows = self.m_hat[a.cells..b.cells].chunks_exact(l);
            for (hat, row) in rows.zip(self.m_matrix[a.cells..b.cells].chunks_exact_mut(l)) {
                normalize_row(hat, row);
            }
        }
        self.refresh_entropy();
    }
}

/// One task's Step 1 for [`TaskArena::step1`], inlined into its two call
/// sites: `N = 2` holds the row of `M̂` and the new `s` in arrays of that
/// width, `N = 0` in `scratch`, for any `ℓ`. `plan` is the task's entries,
/// `votes` per row; `hits` and `misses` are the likelihood tables of the
/// task's `ℓ`, of one power-of-two length. Returns `Σ_j |s_old − s_new|`.
#[inline(always)]
fn step1_rows<const N: usize>(
    t: TaskMut<'_>,
    plan: &[(u32, u32)],
    votes: usize,
    hits: &[f64],
    misses: &[f64],
    scratch: &mut [f64],
) -> f64 {
    let l = if N > 0 { N } else { t.s.len() };
    debug_assert_eq!(t.s.len(), l);
    // Every cell is below the tables' length, a power of two: `cell & mask`
    // is the cell, and the compiler drops the bounds checks.
    let mask = hits.len() - 1;
    debug_assert!(hits.len().is_power_of_two() && misses.len() == hits.len());
    let (mut hat_local, mut s_local) = ([0.0; N], [0.0; N]);
    let (hat, s_new) = if N > 0 {
        (&mut hat_local[..], &mut s_local[..])
    } else {
        scratch[..2 * l].split_at_mut(l)
    };
    s_new.fill(0.0);
    let rows = t
        .m_hat
        .chunks_exact_mut(l)
        .zip(t.m_matrix.chunks_exact_mut(l));
    let mut plan = plan;
    for (&(_, rk), (stored, row)) in t.support.iter().zip(rows) {
        let (answers, rest) = plan.split_at(votes);
        plan = rest;
        hat.fill(1.0);
        for &(cell, choice) in answers {
            let cell = cell as usize & mask;
            let (hit, miss) = (hits[cell], misses[cell]);
            for (j, slot) in hat.iter_mut().enumerate() {
                *slot *= if j == choice as usize { hit } else { miss };
            }
        }
        let max = hat.iter().fold(0.0_f64, |max, &x| max.max(x));
        if max < RESCALE_BELOW {
            hat.fill(1.0);
            for &(cell, choice) in answers {
                let cell = cell as usize & mask;
                absorb(hat, hits[cell], misses[cell], choice as usize);
            }
        }
        stored.copy_from_slice(hat);
        normalize_row(hat, row);
        for (slot, &mkj) in s_new.iter_mut().zip(row.iter()) {
            *slot += rk * mkj;
        }
    }
    prob::normalize_in_place(s_new);
    let change = prob::l1_distance(t.s, s_new);
    t.s.copy_from_slice(s_new);
    change
}

/// One task's slices of a [`TaskArena`], mutably.
struct TaskMut<'a> {
    support: &'a [(usize, f64)],
    m_hat: &'a mut [f64],
    m_matrix: &'a mut [f64],
    s: &'a mut [f64],
    entropy: &'a mut f64,
}

impl TaskMut<'_> {
    /// `s_i = r^{t_i} × M^{(i)}` (Eq. 2) over the support rows, ascending
    /// `k` — the incremental update's; full inference's Step 1 sums the
    /// same terms in the same order as it builds each row.
    #[inline]
    fn refresh_s(&mut self) {
        let l = self.s.len();
        self.s.fill(0.0);
        for (pos, &(_, rk)) in self.support.iter().enumerate() {
            let row = &self.m_matrix[pos * l..(pos + 1) * l];
            for (slot, &mkj) in self.s.iter_mut().zip(row) {
                *slot += rk * mkj;
            }
        }
        prob::normalize_in_place(self.s);
    }
}

/// One task's state, borrowed from its [`TaskArena`].
#[derive(Debug, Clone, Copy)]
pub struct TaskView<'a> {
    m: usize,
    support: &'a [(usize, f64)],
    m_matrix: &'a [f64],
    s: &'a [f64],
    entropy: f64,
}

impl<'a> TaskView<'a> {
    /// Number of domains `m`.
    #[inline]
    pub fn num_domains(&self) -> usize {
        self.m
    }

    /// Number of choices `ℓ`.
    #[inline]
    pub fn num_choices(&self) -> usize {
        self.s.len()
    }

    /// The support `{(k, r_k) : r_k ≠ 0}` of the task's domain vector,
    /// ascending `k`.
    #[inline]
    pub fn support(&self) -> &'a [(usize, f64)] {
        self.support
    }

    /// The support rows `(k, r_k, M^{(i)}_{k,•})`, ascending `k`.
    pub fn rows(&self) -> impl Iterator<Item = (usize, f64, &'a [f64])> + 'a {
        let (l, m_matrix) = (self.num_choices(), self.m_matrix);
        let rows = self.support.iter().enumerate();
        rows.map(move |(pos, &(k, rk))| (k, rk, &m_matrix[pos * l..(pos + 1) * l]))
    }

    /// The probabilistic truth `s_i`.
    #[inline]
    pub fn s(&self) -> &'a [f64] {
        self.s
    }

    /// Cached entropy `H(s_i)` of the probabilistic truth: equal to
    /// `prob::entropy(self.s())` at all times, so per-request hot paths (the
    /// benefit function of Definition 5) avoid the O(ℓ) log-sum per task.
    #[inline]
    pub fn entropy(&self) -> f64 {
        self.entropy
    }

    /// The inferred truth `v*_i = argmax_j s_{i,j}`.
    pub fn truth(&self) -> ChoiceIndex {
        prob::argmax(self.s)
    }

    /// Hypothetical update matrix `M^{(i)}|a` of Theorem 3 over the support
    /// rows (row-major, in [`TaskView::rows`] order): what `M` becomes if
    /// the worker with the given quality answers choice `a`. Used by OTA
    /// without mutating the real state.
    pub fn m_given_answer(&self, quality: &[f64], a: ChoiceIndex) -> Vec<f64> {
        let l = self.num_choices();
        let mut out = vec![0.0; self.m_matrix.len()];
        for ((k, _, m_row), row) in self.rows().zip(out.chunks_exact_mut(l)) {
            let mut sum = 0.0;
            for (j, (slot, &mkj)) in row.iter_mut().zip(m_row).enumerate() {
                let v = mkj * likelihood(quality[k], a, j, l);
                *slot = v;
                sum += v;
            }
            if sum > 0.0 {
                for slot in row.iter_mut() {
                    *slot /= sum;
                }
            } else {
                row.fill(1.0 / l as f64);
            }
        }
        out
    }

    /// `ŝ_i = r × (M|a)` for a hypothetical matrix produced by
    /// [`TaskView::m_given_answer`].
    pub fn s_from_matrix(&self, matrix: &[f64]) -> Vec<f64> {
        let l = self.num_choices();
        let mut s = vec![0.0; l];
        for (&(_, rk), row) in self.support.iter().zip(matrix.chunks_exact(l)) {
            for (slot, &v) in s.iter_mut().zip(row) {
                *slot += rk * v;
            }
        }
        // Rows of M are distributions and r is a distribution, so s already
        // sums to 1; normalize defensively against drift.
        prob::normalize_in_place(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(r: &DomainVector, num_choices: usize) -> TaskArena {
        TaskArena::new(r.len(), [(r, num_choices)])
    }

    /// Step 1 for task 0 from `answers = [(worker, choice)]` and
    /// `qualities[worker]`, through a likelihood table and plan shaped as
    /// full inference builds them (one cell per (worker, domain): the hits,
    /// then the misses, each table a power of two long), then its entropy.
    fn recompute(st: &mut TaskArena, answers: &[(usize, ChoiceIndex)], qualities: &[Vec<f64>]) {
        let l = st.view(0).num_choices();
        let m = st.view(0).num_domains();
        let mut hits: Vec<f64> = qualities
            .iter()
            .flatten()
            .map(|&q| clamp_quality(q))
            .collect();
        let width = hits.len().next_power_of_two();
        let mut misses: Vec<f64> = hits.iter().map(|&hit| miss_likelihood(hit, l)).collect();
        hits.resize(width, 0.0);
        misses.resize(width, 0.0);
        let factors = [hits, misses].concat();
        let plan: Vec<(u32, u32)> = st
            .view(0)
            .support()
            .iter()
            .flat_map(|&(k, _)| {
                let cell = move |w: usize| (w * m + k) as u32;
                answers
                    .iter()
                    .map(move |&(w, choice)| (cell(w), choice as u32))
            })
            .collect();
        let task = (answers.len(), width);
        st.step1(
            std::iter::once(task),
            &plan,
            &factors,
            width - 1,
            &mut vec![0.0; 2 * l],
        );
        st.refresh_entropy();
    }

    /// Table 1 / Section 4.1 running example: three workers answer task t1
    /// (r = [0, 0.78, 0.22]); the computed s must favor "yes" despite two
    /// "no" answers, because w1 is the sports expert.
    #[test]
    fn table1_running_example() {
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
        // Paper: M_{2,•} = [0.93, 0.07], M_{1,•} = [0.03, 0.97],
        // M_{3,•} = [0.28, 0.72] (1-indexed domains). Rows do not depend
        // on r, so a task over every domain shows the one t1 does not
        // store (r_1 = 0).
        let every = DomainVector::uniform(3);
        let mut all_rows = one(&every, 2);
        recompute(&mut all_rows, &answers, &qualities);
        let rows: Vec<f64> = all_rows.view(0).rows().map(|(_, _, row)| row[0]).collect();
        for (got, paper) in rows.iter().zip([0.03, 0.93, 0.28]) {
            assert!((got - paper).abs() < 0.005, "{rows:?}");
        }

        let r = DomainVector::new(vec![0.0, 0.78, 0.22]).unwrap();
        let mut st = one(&r, 2);
        recompute(&mut st, &answers, &qualities);
        let t1 = st.view(0);
        assert_eq!(t1.support().len(), 2, "the r_1 = 0 row is not stored");
        // s1 = [0.79, 0.21].
        assert!((t1.s()[0] - 0.79).abs() < 0.01, "s = {:?}", t1.s());
        assert!((t1.s()[1] - 0.21).abs() < 0.01);
        assert_eq!(t1.truth(), 0); // "yes" wins.
    }

    #[test]
    fn fresh_state_is_uniform() {
        let st = one(&DomainVector::uniform(4), 3);
        let st = st.view(0);
        assert_eq!(st.s(), &[1.0 / 3.0; 3]);
        assert_eq!(st.rows().count(), 4);
        for (_, _, row) in st.rows() {
            assert_eq!(row, &[1.0 / 3.0; 3]);
        }
    }

    #[test]
    fn tasks_of_mixed_shape_share_one_arena() {
        let a = DomainVector::one_hot(3, 1);
        let b = DomainVector::new(vec![0.5, 0.0, 0.5]).unwrap();
        let mut arena = TaskArena::new(3, [(&a, 2), (&b, 5), (&a, 3)]);
        arena.apply_answer(1, &[0.9, 0.9, 0.6], 4);
        let mut alone = one(&b, 5);
        alone.apply_answer(0, &[0.9, 0.9, 0.6], 4);
        assert_eq!(arena.view(1).s(), alone.view(0).s());
        assert_eq!(arena.m_hat_of(1), alone.m_hat_of(0));
        assert_eq!(arena.view(0).s(), &[0.5; 2], "neighbours untouched");
        assert_eq!(arena.view(2).s(), &[1.0 / 3.0; 3]);
        assert_eq!(arena.view(1).support(), &[(0, 0.5), (2, 0.5)]);
    }

    #[test]
    fn incremental_apply_matches_recompute() {
        let r = DomainVector::new(vec![0.2, 0.5, 0.3]).unwrap();
        let qualities = [vec![0.9, 0.4, 0.7], vec![0.5, 0.8, 0.2]];
        let answers = [(0, 1usize), (1, 0usize)];

        let mut batch = one(&r, 2);
        recompute(&mut batch, &answers, &qualities);

        let mut inc = one(&r, 2);
        inc.apply_answer(0, &qualities[0], 1);
        inc.apply_answer(0, &qualities[1], 0);

        for ((_, _, b), (_, _, i)) in batch.view(0).rows().zip(inc.view(0).rows()) {
            for j in 0..2 {
                assert!((b[j] - i[j]).abs() < 1e-12);
            }
        }
        for j in 0..2 {
            assert!((batch.view(0).s()[j] - inc.view(0).s()[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn m_given_answer_matches_actual_update() {
        let r = DomainVector::new(vec![0.6, 0.4]).unwrap();
        let q = vec![0.85, 0.3];
        let mut st = one(&r, 3);
        st.apply_answer(0, &[0.7, 0.7], 2);

        let hypothetical = st.view(0).m_given_answer(&q, 1);
        let s_hyp = st.view(0).s_from_matrix(&hypothetical);

        let mut applied = st.clone();
        applied.apply_answer(0, &q, 1);
        let applied = applied.view(0);
        for (pos, (_, _, row)) in applied.rows().enumerate() {
            for j in 0..3 {
                assert!(
                    (hypothetical[pos * 3 + j] - row[j]).abs() < 1e-12,
                    "row {pos} j={j}"
                );
            }
        }
        for (hyp, actual) in s_hyp.iter().zip(applied.s()) {
            assert!((hyp - actual).abs() < 1e-12);
        }
    }

    #[test]
    fn extreme_qualities_are_clamped() {
        let mut st = one(&DomainVector::new(vec![1.0, 0.0]).unwrap(), 2);
        st.apply_answer(0, &[1.0, 0.0], 0);
        assert!(st.view(0).s()[0] > 0.99);
        assert!(st.view(0).s().iter().all(|p| p.is_finite() && *p >= 0.0));
    }

    #[test]
    fn underflow_guard_keeps_numerators_finite() {
        let mut st = one(&DomainVector::new(vec![0.5, 0.5]).unwrap(), 2);
        // 2000 consistent answers would underflow naive products.
        for _ in 0..2000 {
            st.apply_answer(0, &[0.9, 0.9], 0);
        }
        assert!(st.view(0).s()[0] > 0.999);
        assert!(st.view(0).s().iter().all(|p| p.is_finite()));
    }

    /// `load` rebuilds `M` and `H(s)` from a snapshot's `M̂` and `s` to the
    /// bits every update leaves there, including a rescaled `M̂`.
    #[test]
    fn load_rebuilds_the_derived_state_exactly() {
        let r = DomainVector::new(vec![0.4, 0.0, 0.6]).unwrap();
        let mut st = TaskArena::new(3, [(&r, 2), (&r, 3)]);
        for step in 0..400 {
            st.apply_answer(step % 2, &[0.85, 0.5, 0.97], step % 2);
        }
        let mut loaded = TaskArena::new(3, [(&r, 2), (&r, 3)]);
        loaded.load(st.all_m_hat(), st.all_s());
        for (a, b) in st.iter().zip(loaded.iter()) {
            let rows = |v: TaskView| v.rows().flat_map(|(_, _, row)| row.to_vec()).collect();
            let (ra, rb): (Vec<f64>, Vec<f64>) = (rows(a), rows(b));
            assert_eq!(ra, rb);
            assert_eq!(a.entropy().to_bits(), b.entropy().to_bits());
        }
    }

    #[test]
    fn cached_entropy_tracks_s_through_every_update_path() {
        let r = DomainVector::new(vec![0.6, 0.4]).unwrap();
        let mut st = one(&r, 3);
        let fresh = |st: &TaskArena| (st.view(0).entropy() - prob::entropy(st.view(0).s())).abs();
        assert!(fresh(&st) < 1e-15);
        st.apply_answer(0, &[0.8, 0.6], 1);
        assert!(fresh(&st) < 1e-15);
        let answers = [(0, 2usize), (1, 2usize)];
        recompute(&mut st, &answers, &[vec![0.7, 0.9], vec![0.7, 0.9]]);
        assert!(fresh(&st) < 1e-15);
        st.reset();
        st.refresh_entropy();
        assert!(fresh(&st) < 1e-15);
    }

    /// Full inference's Step 1 leaves the bits of the per-vote
    /// `apply_answer` chain on rows that took `absorb`'s rescale and on rows
    /// that did not, for `ℓ = 2` (the hot path's own instantiation), 3 and
    /// 5. 96 votes (60 for choice 0, 36 for choice 1) at qualities
    /// `[0.5, 1, 0]`, two of them clamped: the `q = 1` row's plain product
    /// falls below `RESCALE_BELOW` mid-stream, and for `ℓ > 2` the `q = 0`
    /// row keeps its max above it while its choice-0 slot underflows to 0.
    #[test]
    fn step1_matches_the_per_vote_chain_by_bits() {
        let quality = vec![0.5, 1.0, 0.0];
        let answers: Vec<(usize, ChoiceIndex)> =
            (0..96).map(|w| (w, usize::from(w % 8 < 3))).collect();
        let qualities = vec![quality.clone(); answers.len()];
        let r = DomainVector::uniform(3);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for l in [2, 3, 5] {
            let mut chain = one(&r, l);
            for &(_, choice) in &answers {
                chain.apply_answer(0, &quality, choice);
            }
            let mut batch = one(&r, l);
            recompute(&mut batch, &answers, &qualities);

            let m_of = |st: &TaskArena| st.view(0).m_matrix.to_vec();
            assert_eq!(bits(batch.m_hat_of(0)), bits(chain.m_hat_of(0)), "ℓ = {l}");
            assert_eq!(bits(&m_of(&batch)), bits(&m_of(&chain)), "ℓ = {l}");
            assert_eq!(bits(batch.view(0).s()), bits(chain.view(0).s()), "ℓ = {l}");
            let (h_batch, h_chain) = (batch.view(0).entropy(), chain.view(0).entropy());
            assert_eq!(h_batch.to_bits(), h_chain.to_bits(), "ℓ = {l}");

            // The plain products of each domain's row, and the vote after
            // which every slot is below the threshold (no slot ever grows).
            let plain = |k: usize| {
                let hit = clamp_quality(quality[k]);
                let miss = miss_likelihood(hit, l);
                let mut hat = vec![1.0; l];
                let mut crossed_at = None;
                for (n, &(_, choice)) in answers.iter().enumerate() {
                    for (j, slot) in hat.iter_mut().enumerate() {
                        *slot *= if j == choice { hit } else { miss };
                    }
                    if crossed_at.is_none() && hat.iter().all(|&x| x < RESCALE_BELOW) {
                        crossed_at = Some(n);
                    }
                }
                (hat, crossed_at)
            };
            let crossed = plain(1).1.expect("the q = 1 row falls below the threshold");
            assert!(
                crossed > 0 && crossed < answers.len() / 2,
                "ℓ = {l}: at vote {crossed}"
            );
            for k in 0..3 {
                let stored = &batch.m_hat_of(0)[k * l..(k + 1) * l];
                match plain(k) {
                    (_, Some(_)) => assert!(
                        stored.iter().any(|&x| x >= RESCALE_BELOW),
                        "ℓ = {l}, row {k} rescaled: {stored:?}"
                    ),
                    (hat, None) => assert_eq!(bits(stored), bits(&hat), "ℓ = {l}, row {k}"),
                }
            }
            if l > 2 {
                let (hat, crossed) = plain(2);
                assert_eq!(crossed, None, "ℓ = {l}: the q = 0 row never rescales");
                assert_eq!(hat[0], 0.0, "ℓ = {l}: its choice-0 slot underflows");
            }
        }
    }

    #[test]
    fn positive_finite_is_the_float_test() {
        let values = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -1.0,
            -f64::from_bits(1),
            f64::MIN,
        ];
        for x in values {
            assert_eq!(positive_finite(x), x > 0.0 && x.is_finite(), "{x:e}");
        }
    }

    #[test]
    fn clamp_quality_bounds() {
        assert!(clamp_quality(0.0) > 0.0);
        assert!(clamp_quality(1.0) < 1.0);
        assert_eq!(clamp_quality(0.5), 0.5);
    }
}
