//! The iterative truth-inference approach of Section 4.1.

use super::state::{clamp_quality, miss_likelihood, TaskArena};
use super::stats::WorkerRegistry;
use docs_types::{Answer, AnswerLog, ChoiceIndex, Task, WorkerId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Configuration of the iterative approach.
#[derive(Debug, Clone, Copy)]
pub struct TiConfig {
    /// Hard iteration cap; the paper observes convergence within ~10–20
    /// iterations and terminates within "a few (say 20)".
    pub max_iterations: usize,
    /// Convergence threshold on the parameter change Δ (Section 6.3).
    pub epsilon: f64,
}

impl Default for TiConfig {
    fn default() -> Self {
        TiConfig {
            max_iterations: 20,
            epsilon: 1e-5,
        }
    }
}

/// Output of truth inference: per-task states (`M^{(i)}`, `s_i`), final
/// worker qualities, the inferred truths, and the per-iteration parameter
/// change Δ (the Figure 4(a) convergence series).
#[derive(Debug, Clone)]
pub struct TiResult {
    /// Per-task inference state, indexable by `TaskId::index()`.
    pub states: TaskArena,
    /// Estimated quality vector per worker seen in the answer log.
    pub qualities: HashMap<WorkerId, Vec<f64>>,
    /// Inferred truth `v*_i = argmax_j s_{i,j}` per task.
    pub truths: Vec<ChoiceIndex>,
    /// Δ after each iteration; `deltas.len()` is the iteration count.
    pub deltas: Vec<f64>,
}

impl TiResult {
    /// Fraction of tasks whose inferred truth matches the ground truth —
    /// the paper's *Accuracy* metric. Tasks without recorded ground truth
    /// are skipped.
    pub fn accuracy(&self, tasks: &[Task]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (task, &truth) in tasks.iter().zip(&self.truths) {
            if let Some(gt) = task.ground_truth {
                total += 1;
                if gt == truth {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }
}

/// The iterative truth-inference algorithm (Section 4.1).
#[derive(Debug, Clone, Default)]
pub struct TruthInference {
    config: TiConfig,
}

impl TruthInference {
    /// Creates the algorithm with a custom configuration.
    pub fn new(config: TiConfig) -> Self {
        TruthInference { config }
    }

    /// The configuration the algorithm runs with (snapshots persist it so a
    /// restored engine converges identically).
    pub fn config(&self) -> TiConfig {
        self.config
    }

    /// Runs inference over the collected answers.
    ///
    /// * `tasks` — the published tasks; each must carry its domain vector
    ///   (run DVE first).
    /// * `answers` — the full answer log.
    /// * `registry` — initial worker qualities (golden-task initialization
    ///   per Section 5.2; unseen workers get the registry prior).
    ///
    /// Converges a fresh [`TaskArena`] with the body
    /// [`IncrementalTi::run_full`](super::IncrementalTi::run_full) runs on
    /// the engine's own arena.
    ///
    /// # Panics
    /// Panics if a task lacks a domain vector, a domain vector is not of the
    /// registry's length `m`, the log covers a different number of tasks, or
    /// a logged choice is not below its task's `ℓ`.
    pub fn run(&self, tasks: &[Task], answers: &AnswerLog, registry: &WorkerRegistry) -> TiResult {
        let m = registry.num_domains();
        let mut states = TaskArena::for_tasks(m, tasks);
        let mut deltas = Vec::new();
        let mut ws = Workspace::default();
        let log = LogPrefix::whole(answers);
        let run = self.converge(&mut ws, tasks, log, registry, &mut states, &mut deltas);
        let qualities = run
            .workers
            .iter()
            .enumerate()
            .map(|(w, &id)| (id, run.qualities[w * m..(w + 1) * m].to_vec()))
            .collect();
        TiResult {
            truths: states.truths(),
            states,
            qualities,
            deltas,
        }
    }

    /// The iterative approach over `answers` (a whole log, or a log less
    /// its latest answers), converged into `states`: every task restarts
    /// from the uniform prior (so Δ is measured against it, whatever the
    /// arena held), then Steps 1 and 2 alternate until Δ < ε. `deltas` is
    /// refilled with Δ after each iteration; the per-worker results are
    /// returned borrowed from `ws`.
    ///
    /// The loop runs over the *active cells* (see "Inference kernels" in
    /// ARCHITECTURE.md): the distinct (worker, domain) pairs of the join
    /// `V(i) ⋈ supp(i)`, which [`Workspace::index`] derives once per run.
    /// Step 1 reads Eq. 4's likelihoods only there, through a per-row plan,
    /// and Step 2 credits only there. Step 2's first iteration finalizes
    /// every one of the `W × m` qualities, as the dense loop does; an
    /// inactive cell then holds its fixed Eq. 5 value, so its term of every
    /// later Δ is an exact `+0.0` and later iterations visit the active
    /// cells alone. Every stored value is the same bits the dense textbook
    /// loop produces (`ti::oracle` holds that loop and the tests comparing
    /// the two). A run's index and scratch live in `ws` and are refilled in
    /// place, so a run on a workspace that has served a campaign at least
    /// this large allocates nothing.
    pub(super) fn converge<'w>(
        &self,
        ws: &'w mut Workspace,
        tasks: &[Task],
        answers: LogPrefix<'_>,
        registry: &WorkerRegistry,
        arena: &mut TaskArena,
        deltas: &mut Vec<f64>,
    ) -> Converged<'w> {
        // Converged as a local and put back: the loops store through other
        // pointers, after which the buffers of an arena behind a reference
        // would be reloaded on every task (measured ~10 % of Steps 1–2).
        let mut owned = std::mem::take(arena);
        let states = &mut owned;
        let LogPrefix { log, tail } = answers;
        assert_eq!(
            tasks.len(),
            log.num_tasks(),
            "answer log and task set disagree on n"
        );
        debug_assert_eq!(states.len(), tasks.len());
        let m = registry.num_domains();
        let n = tasks.len();
        ws.index(tasks, log, tail, registry, states);
        let Workspace {
            workers: worker_ids,
            qualities,
            den,
            cells,
            likelihoods,
            plan,
            task_plans,
            s_new,
            ..
        } = ws;
        let num_workers = worker_ids.len();

        for i in 0..n {
            states.reset(i);
        }
        // Scratch of Step 1's generic row width: a row of `M̂` and the new
        // `s`, each at most the widest `ℓ`.
        s_new.resize(2 * likelihoods.ells.last().copied().unwrap_or(0), 0.0);
        let norm = num_workers as f64 * m as f64;

        // (The paper's runs converge within ~20 iterations.)
        deltas.clear();
        deltas.reserve(self.config.max_iterations.min(32));
        for _ in 0..self.config.max_iterations {
            likelihoods.refresh(&cells.q);

            // ---- Step 1: infer the truth (q^w → s_i), Eqs. 2-4. ----
            let width = likelihoods.width();
            let per_task = task_plans
                .iter()
                .map(|task| (task.votes as usize, (1 + task.slot as usize) * width));
            let factors = &likelihoods.factors;
            let delta_s = states.step1(per_task, plan, factors, width - 1, s_new);

            // ---- Step 2: estimate worker quality (s_i → q^w), Eq. 5. ----
            let s = states.all_s();
            let first = deltas.is_empty();
            let mut delta_q = 0.0;
            for w in 0..num_workers {
                let own = cells.ptr[w] as usize..cells.ptr[w + 1] as usize;
                let mut change = 0.0;
                if first {
                    // Every domain in ascending `k`; an inactive one moves
                    // from its initial quality to its fixed Eq. 5 value.
                    let mut next = own.start;
                    for d in w * m..(w + 1) * m {
                        if next < own.end && cells.eq5[next].at == d {
                            change += cells.finalize(next, s);
                            next += 1;
                        } else {
                            let fixed = eq5_without_credits(qualities[d], den[d]);
                            change += (fixed - qualities[d]).abs();
                            qualities[d] = fixed;
                        }
                    }
                } else {
                    for c in own {
                        change += cells.finalize(c, s);
                    }
                }
                delta_q += change / norm;
            }

            let delta = delta_s + delta_q;
            deltas.push(delta);
            if delta < self.config.epsilon {
                break;
            }
        }
        states.refresh_entropy();
        for (cell, &q) in cells.eq5.iter().zip(&cells.q) {
            qualities[cell.at] = q;
        }

        *arena = owned;
        Converged {
            workers: worker_ids,
            qualities,
            weights: den,
        }
    }
}

/// Eq. 5 for a domain the worker's tasks do not touch: the registry
/// evidence alone, `q̂·û/û` (the numerator as the dense loop seeds it), or
/// the initial quality where there is no weight. `den` is `û + 0.0`;
/// `q̂·(û + 0.0) + 0.0` is `q̂·û + 0.0` to the bit.
#[inline]
fn eq5_without_credits(q: f64, den: f64) -> f64 {
    if den > 0.0 {
        (q * den + 0.0) / den
    } else {
        q
    }
}

/// The answer log as it stood before its last `tail.len()` answers: what a
/// run owed at an earlier crossing reads once more answers have arrived.
/// The log is append-only, so the prefix is every row cut to its length
/// at the crossing; nothing is copied or allocated.
pub(super) struct LogPrefix<'a> {
    log: &'a AnswerLog,
    /// The answers recorded after the prefix, in arrival order.
    tail: &'a [Answer],
}

impl<'a> LogPrefix<'a> {
    /// Every answer of `log`.
    pub(super) fn whole(log: &'a AnswerLog) -> Self {
        LogPrefix { log, tail: &[] }
    }

    /// `log` without `tail`, its latest answers in arrival order.
    pub(super) fn before(log: &'a AnswerLog, tail: &'a [Answer]) -> Self {
        LogPrefix { log, tail }
    }
}

/// What [`TruthInference::converge`] leaves beside the states, per worker
/// of the log in ascending id order: flat `W × m` buffers, borrowed from
/// the run's [`Workspace`].
pub(super) struct Converged<'a> {
    /// The log's workers, ascending.
    pub(super) workers: &'a [WorkerId],
    /// Converged qualities.
    pub(super) qualities: &'a [f64],
    /// Eq. 5's denominators `û_k + Σ_{t ∈ T(w)} r^t_k`: the registry weight
    /// (Theorem 1) after the run.
    pub(super) weights: &'a [f64],
}

/// Every buffer of one full-inference run: the dense worker index and the
/// flat `W × m` qualities and Eq. 5 denominators (the run's output), the
/// active cells with their likelihood table, Step 2's credits, Step 1's
/// plan and the per-task scratch. A run refills them in place, so they
/// only ever grow to the largest campaign their owner has converged.
/// Working memory: no snapshot records it.
#[derive(Debug, Default)]
pub(super) struct Workspace {
    /// The prefix's workers, ascending id: worker `w` is `workers[w]`.
    workers: Vec<WorkerId>,
    /// Per worker, `m` qualities: the initial ones until the run writes
    /// the converged ones back.
    qualities: Vec<f64>,
    /// Per worker, Eq. 5's denominators `û_k + Σ_{t ∈ T(w)} r^t_k`.
    den: Vec<f64>,
    cells: Cells,
    likelihoods: Likelihoods,
    /// Step 1's plan: per task, per support row in ascending `k`, one
    /// `(cell, choice)` per answer in `V(i)` order.
    plan: Vec<(u32, u32)>,
    task_plans: Vec<TaskPlan>,
    s_new: Vec<f64>,
    /// Set-up scratch: per worker of the whole log, its answers in the
    /// tail; per domain, the last worker (plus one) that credits it and
    /// the worker's credits there; per `(worker, domain)`, its cell, valid
    /// only where one was made.
    tail_answers: Vec<u32>,
    marks: Vec<(u32, u32)>,
    cell_of: Vec<u32>,
    /// Set-up scratch: one task's answers `(w·m, choice)` in `V(i)` order.
    staged: Vec<(u32, u32)>,
    /// Set-up scratch: per task, its answering workers `(id, w)` in
    /// ascending id, filled from the workers' side.
    voters: Vec<(WorkerId, u32)>,
}

/// The active cells of a run — each worker's credited domains, ascending
/// `k`, worker after worker — with what Eq. 5 needs per cell. A domain
/// whose registry evidence alone gives a non-finite Eq. 5 value is a cell
/// too: its term of every Δ is NaN, never `+0.0`, so Step 2 must revisit it.
#[derive(Debug, Default)]
struct Cells {
    /// `W + 1` entries: worker `w`'s cells are `ptr[w]..ptr[w + 1]`.
    ptr: Vec<u32>,
    /// The current quality.
    q: Vec<f64>,
    /// What Eq. 5 reads of each cell besides its credits.
    eq5: Vec<Eq5>,
    /// `len() + 1` entries: cell `c`'s credits are
    /// `credits[credit_ptr[c]..credit_ptr[c + 1]]`.
    credit_ptr: Vec<u32>,
    /// Step 2's join `T(w) ⋈ supp(i)`, which no iteration changes: per
    /// cell `(w, k)`, one credit per task of `T(w)` with `r_k ≠ 0`, in
    /// `T(w)`'s arrival order.
    credits: Vec<Credit>,
}

/// One cell's fixed part of Eq. 5.
#[derive(Debug, Clone, Copy)]
struct Eq5 {
    /// The cell's `w·m + k` in the dense per-worker buffers.
    at: usize,
    /// The initial quality: Eq. 5's value where there is no weight.
    init: f64,
    /// The denominator.
    den: f64,
    /// The numerator seeded with the registry evidence, `q̂·û + 0.0`.
    seed: f64,
}

impl Cells {
    fn clear(&mut self) {
        self.ptr.clear();
        self.credit_ptr.clear();
        self.q.clear();
        self.eq5.clear();
    }

    fn reserve(&mut self, workers: usize, cells: usize) {
        self.ptr.reserve(workers + 1);
        self.credit_ptr.reserve(cells + 1);
        self.q.reserve(cells);
        self.eq5.reserve(cells);
    }

    /// A cell at `w·m + k` with the initial quality and weight there, whose
    /// credits start at `credits`.
    fn push(&mut self, at: usize, q: f64, den: f64, credits: usize) {
        self.q.push(q);
        let seed = q * den + 0.0;
        self.eq5.push(Eq5 {
            at,
            init: q,
            den,
            seed,
        });
        self.credit_ptr.push(credits as u32);
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    /// Eq. 5 for cell `c` at the truths `s`: the numerator summed over the
    /// cell's credits in `T(w)` order, as the dense loop sums it. Returns
    /// the cell's term of its worker's Δ.
    #[inline]
    fn finalize(&mut self, c: usize, s: &[f64]) -> f64 {
        let credits = &self.credits[self.credit_ptr[c] as usize..self.credit_ptr[c + 1] as usize];
        let Eq5 {
            init, den, seed, ..
        } = self.eq5[c];
        let mut num = seed;
        for credit in credits {
            num += credit.rk * s[credit.at as usize];
        }
        let new_q = if den > 0.0 {
            num / den
        } else {
            // No evidence at all for this domain: keep the initial (prior)
            // value.
            init
        };
        let change = (new_q - self.q[c]).abs();
        self.q[c] = new_q;
        change
    }
}

/// One credit of Step 2: `r_k · s[at]`, `at` the index of `s_{i,choice}`
/// in the arena's flat `s`.
#[derive(Debug, Clone, Copy, Default)]
struct Credit {
    at: u32,
    rk: f64,
}

/// One task's part of Step 1's plan.
#[derive(Debug, Clone, Copy)]
struct TaskPlan {
    /// `|V(i)|` of the prefix: the entries per support row.
    votes: u32,
    /// Its `ℓ`'s slot in [`Likelihoods::ells`].
    slot: u32,
    /// Set-up only: where the task's run of [`Workspace::voters`] ends.
    voters_end: u32,
}

impl Workspace {
    /// Derives the run's index from the log prefix, once per run: the cut
    /// lengths (each tail answer is the last of its `V(i)` and `T(w)` rows
    /// so far, so the prefix cuts it off their ends), the dense worker
    /// index, the initial qualities and weights, the active cells with
    /// their credits, and the plan. The tail is counted once, each worker's
    /// `T(w)` is looked up once, and each answer's worker is found once.
    fn index(
        &mut self,
        tasks: &[Task],
        log: &AnswerLog,
        tail: &[Answer],
        registry: &WorkerRegistry,
        states: &TaskArena,
    ) {
        let m = registry.num_domains();
        let ells = &mut self.likelihoods.ells;
        ells.clear();
        ells.extend(tasks.iter().map(Task::num_choices));
        ells.sort_unstable();
        ells.dedup();

        // `|V(i)|` of the prefix, and the plan's length: Σ |V(i)|·|supp(i)|.
        self.task_plans.clear();
        self.task_plans.reserve(tasks.len());
        for task in tasks {
            let slot = ells.binary_search(&task.num_choices());
            self.task_plans.push(TaskPlan {
                votes: log.answer_count(task.id) as u32,
                slot: slot.expect("collected above") as u32,
                voters_end: 0,
            });
        }
        for answer in tail {
            self.task_plans[answer.task.index()].votes -= 1;
        }
        let (mut num_credits, mut num_votes, mut most_votes) = (0, 0, 0);
        for (i, task) in self.task_plans.iter_mut().enumerate() {
            let votes = task.votes as usize;
            num_credits += votes * states.support_and_s(i).0.len();
            most_votes = most_votes.max(votes);
            task.voters_end = num_votes as u32;
            num_votes += votes;
        }

        // Dense worker index in sorted id order (see `AnswerLog::workers`):
        // Step 2 accumulates `delta_q` over workers, and the accumulation
        // order must not depend on hash-map layout or convergence becomes
        // process-random. A worker whose answers are all in the tail is not
        // in the prefix.
        log.workers_into(&mut self.workers);
        self.tail_answers.clear();
        self.tail_answers.resize(self.workers.len(), 0);
        for answer in tail {
            let r = self.workers.binary_search(&answer.worker);
            self.tail_answers[r.expect("a tail answer is in the log")] += 1;
        }
        let bound = self.workers.len() * m;
        assert!(
            bound * (1 + ells.len()) <= u32::MAX as usize
                && states.all_s().len() <= u32::MAX as usize
                && num_credits <= u32::MAX as usize,
            "a campaign indexable by u32"
        );
        self.qualities.clear();
        self.den.clear();
        self.qualities.reserve(bound);
        self.den.reserve(bound);
        let cells = &mut self.cells;
        cells.clear();
        cells.reserve(self.workers.len(), bound.min(num_credits));
        cells.ptr.push(0);
        cells.credits.clear();
        cells.credits.resize(num_credits, Credit::default());
        self.staged.clear();
        self.staged.reserve(most_votes);
        self.voters.clear();
        self.voters.resize(num_votes, (WorkerId(0), 0));
        self.marks.clear();
        self.marks.resize(m, (0, 0));
        self.cell_of.resize(bound, 0);

        let (mut num_workers, mut next) = (0, 0);
        for r in 0..self.workers.len() {
            let id = self.workers[r];
            let answered = log.worker_answers(id);
            let answered = &answered[..answered.len() - self.tail_answers[r] as usize];
            if answered.is_empty() {
                continue;
            }
            let w = num_workers;
            num_workers += 1;
            self.workers[w] = id;
            // Step 2's join `T(w) ⋈ supp(i)`, which no iteration changes,
            // counted per domain; the worker joins each answered task's
            // answerers.
            let stamp = w as u32 + 1;
            for &(task, choice) in answered {
                let end = &mut self.task_plans[task.index()].voters_end;
                self.voters[*end as usize] = (id, w as u32);
                *end += 1;
                for &(k, _) in states.credit_of(task.index(), choice).0 {
                    let mark = &mut self.marks[k];
                    *mark = if mark.0 == stamp {
                        (stamp, mark.1 + 1)
                    } else {
                        (stamp, 1)
                    };
                }
            }
            // Initial qualities from the registry (golden-task initialized),
            // and the registry's evidence weights. Golden tasks are tasks
            // the worker *answered*, so Step 2 keeps them in `T(w)` as
            // pseudo-observations with their recorded weight `u^w_k` — the
            // Theorem 1 merge between stored statistics and the current
            // batch. Unseen workers carry zero weight and reduce to the
            // plain Eq. 5.
            let base = w * m;
            match registry.get(id) {
                Some(stats) => {
                    self.qualities.extend_from_slice(&stats.quality[..m]);
                    // `+ 0.0`: a `-0.0` weight leaves as `+0.0`, as the
                    // dense loop's first `+ r_k` left it in every domain.
                    let weights = stats.weight[..m].iter();
                    self.den.extend(weights.map(|&u| u + 0.0));
                }
                None => {
                    let prior = registry.prior_quality();
                    self.qualities.extend(std::iter::repeat_n(prior, m));
                    self.den.extend(std::iter::repeat_n(0.0, m));
                }
            }
            // The worker's cells in ascending `k`, each owning the next run
            // of credits; from here on a credited domain's mark holds its
            // cell's next free credit.
            let rows = self.qualities[base..].iter().zip(&self.den[base..]);
            for (k, (&q, &den)) in rows.enumerate() {
                let (stamped, count) = self.marks[k];
                let credited = stamped == stamp;
                // An uncredited domain's term of every Δ after the first is
                // `|v − v|` for its fixed Eq. 5 value `v`: `+0.0` unless `v`
                // is not finite.
                if credited || !eq5_without_credits(q, den).is_finite() {
                    self.cell_of[base + k] = cells.len() as u32;
                    cells.push(base + k, q, den, next as usize);
                    if credited {
                        self.marks[k].1 = next;
                        next += count;
                    }
                }
            }
            cells.ptr.push(cells.len() as u32);
            // Each credit into its cell's run, in `T(w)`'s arrival order.
            // The denominator `û_k + Σ_{t ∈ T(w)} r^t_k` does not depend on
            // `s`, so it is summed once, here; it is also the worker's new
            // weight.
            for &(task, choice) in answered {
                let (support, at) = states.credit_of(task.index(), choice);
                for &(k, rk) in support {
                    let slot = &mut self.marks[k].1;
                    let at = at as u32;
                    cells.credits[*slot as usize] = Credit { at, rk };
                    *slot += 1;
                    cells.eq5[self.cell_of[base + k] as usize].den += rk;
                }
            }
        }
        cells.credit_ptr.push(num_credits as u32);
        self.workers.truncate(num_workers);
        for cell in &cells.eq5 {
            self.den[cell.at] = cell.den;
        }

        // Step 1's plan, row-major per task: each answer's worker is found
        // among the task's own answerers, and its cell read per support row.
        self.plan.clear();
        self.plan.reserve(num_credits);
        for (i, (task, shape)) in tasks.iter().zip(&self.task_plans).enumerate() {
            let votes = &log.task_answers(task.id)[..shape.votes as usize];
            let end = shape.voters_end as usize;
            let voters = &self.voters[end - votes.len()..end];
            self.staged.clear();
            for &(id, choice) in votes {
                let at = voters.binary_search_by_key(&id, |&(voter, _)| voter);
                let w = voters[at.expect("`V(i)` and `T(w)` hold the same answers")].1;
                self.staged.push((w * m as u32, choice as u32));
            }
            for &(k, _) in states.support_and_s(i).0 {
                let answers = self.staged.iter();
                let cell = |&(base, choice): &(u32, u32)| (self.cell_of[base as usize + k], choice);
                self.plan.extend(answers.map(cell));
            }
        }
        let width = cells.len().next_power_of_two();
        let factors = (1 + self.likelihoods.ells.len()) * width;
        self.likelihoods.factors.resize(factors, 0.0);
    }

    /// The run's shape: `W × m`, its active cells and its plan's length.
    #[cfg(test)]
    fn shape(&self) -> RunShape {
        RunShape {
            dense_cells: self.qualities.len(),
            cells: self.cells.len(),
            plan: self.plan.len(),
        }
    }
}

/// The shape of a full run, for the tests that pin its work.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RunShape {
    /// `W × m`: every (worker, domain) of the log prefix.
    pub(super) dense_cells: usize,
    /// The active cells, each refreshed and finalized once per iteration
    /// after the first.
    pub(super) cells: usize,
    /// Step 1's plan: one factor pair per answer per support row, as many
    /// as Step 2's credits.
    pub(super) plan: usize,
}

/// The shape of the last full run on this thread's workspace.
#[cfg(test)]
pub(super) fn last_run_shape() -> RunShape {
    with_workspace(|ws| ws.shape())
}

thread_local! {
    /// The periodic full runs' [`Workspace`], one per thread: a shard
    /// thread converges its campaigns one at a time, so they share one
    /// set of buffers sized by the largest of them instead of each holding
    /// its own.
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Runs `run` on this thread's full-inference [`Workspace`].
pub(super) fn with_workspace<R>(run: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|ws| run(&mut ws.borrow_mut()))
}

/// Eq. 4 per active cell, refreshed once per iteration instead of
/// evaluated per (answer, domain, choice): `hit` for an answer that matches
/// the truth, and one `miss` per distinct `ℓ` in the campaign.
#[derive(Debug, Default)]
struct Likelihoods {
    /// `1 + ells.len()` tables of [`Likelihoods::width`] entries, one per
    /// cell and the rest unused: the hits, then the misses of each `ℓ` of
    /// `ells`, in that order.
    factors: Vec<f64>,
    /// The distinct `ℓ` of the campaign, ascending.
    ells: Vec<usize>,
}

impl Likelihoods {
    /// Each table's length: the cell count rounded up to a power of two,
    /// so Step 1 can mask a cell into range instead of checking it.
    fn width(&self) -> usize {
        self.factors.len() / (1 + self.ells.len())
    }

    fn refresh(&mut self, qualities: &[f64]) {
        let width = self.width();
        let (hits, misses) = self.factors.split_at_mut(width);
        for (hit, &q) in hits.iter_mut().zip(qualities) {
            *hit = clamp_quality(q);
        }
        for (table, &l) in misses.chunks_exact_mut(width).zip(&self.ells) {
            for (miss, &hit) in table.iter_mut().zip(&hits[..qualities.len()]) {
                *miss = miss_likelihood(hit, l);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{prob, Answer, DomainVector, TaskBuilder, TaskId};

    /// Tiny deterministic LCG so answer generation needs no rand dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Builds a 2-domain world with 40 tasks (20 per domain) and 6 workers:
    /// two domain-0 experts, two domain-1 experts, two mediocre workers.
    /// Answers are sampled from the true per-domain qualities, exactly the
    /// answer model DOCS assumes (Eq. 4).
    fn build_world() -> (Vec<Task>, AnswerLog, Vec<Vec<f64>>) {
        let n = 40;
        let mut tasks = Vec::new();
        for i in 0..n {
            let domain = usize::from(i >= 20);
            tasks.push(
                TaskBuilder::new(i, format!("task {i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(domain)
                    .with_domain_vector(DomainVector::one_hot(2, domain))
                    .build()
                    .unwrap(),
            );
        }
        let true_q: Vec<Vec<f64>> = vec![
            vec![0.95, 0.55],
            vec![0.95, 0.55],
            vec![0.55, 0.95],
            vec![0.55, 0.95],
            vec![0.6, 0.6],
            vec![0.6, 0.6],
        ];
        let mut rng = Lcg(0xD0C5);
        let mut log = AnswerLog::new(n);
        for i in 0..n {
            let truth = i % 2;
            let domain = usize::from(i >= 20);
            for (w, q) in true_q.iter().enumerate() {
                let correct = rng.next_f64() < q[domain];
                log.record(Answer {
                    task: TaskId::from(i),
                    worker: WorkerId::from(w),
                    choice: if correct { truth } else { 1 - truth },
                })
                .unwrap();
            }
        }
        (tasks, log, true_q)
    }

    #[test]
    fn infers_truths_and_expertise() {
        let (tasks, log, _) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let result = TruthInference::default().run(&tasks, &log, &registry);

        assert!(
            result.accuracy(&tasks) >= 0.9,
            "accuracy {}, truths: {:?}",
            result.accuracy(&tasks),
            result.truths
        );
        // Experts must look like experts in their own domain.
        let q0 = &result.qualities[&WorkerId(0)];
        let q2 = &result.qualities[&WorkerId(2)];
        assert!(q0[0] > 0.8, "q0 = {q0:?}");
        assert!(q2[1] > 0.8, "q2 = {q2:?}");
        assert!(q0[0] > q0[1], "expert confined to own domain: {q0:?}");
        assert!(q2[1] > q2[0]);
    }

    #[test]
    fn estimated_qualities_approach_truth() {
        let (tasks, log, true_q) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let result = TruthInference::default().run(&tasks, &log, &registry);
        // Mean |q − q̃| over every worker and domain (Figure 4(d)'s metric).
        let (mut total, mut count) = (0.0, 0);
        for (w, q) in &result.qualities {
            total += prob::l1_distance(q, &true_q[w.index()]);
            count += q.len();
        }
        let dev = total / count as f64;
        assert!(dev < 0.15, "mean quality deviation {dev}");
    }

    #[test]
    fn converges_quickly() {
        let (tasks, log, _) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let result = TruthInference::default().run(&tasks, &log, &registry);
        assert!(
            result.deltas.len() <= 20,
            "expected convergence within 20 iterations, got {}",
            result.deltas.len()
        );
        // Δ shrinks monotonically-ish: last delta far below first.
        let first = result.deltas[0];
        let last = *result.deltas.last().unwrap();
        assert!(last < first / 10.0, "deltas = {:?}", result.deltas);
    }

    #[test]
    fn step2_running_example() {
        // Section 4.1's Step 2 example: worker answers t1, t2 with the first
        // choice; s_{1,1}=0.95, s_{2,1}=0.3, r1_2=0.9, r2_2=0.05 ⇒ q_2=0.92.
        let tasks = [
            TaskBuilder::new(0usize, "t1")
                .yes_no()
                .with_domain_vector(DomainVector::new(vec![0.1, 0.9]).unwrap())
                .build()
                .unwrap(),
            TaskBuilder::new(1usize, "t2")
                .yes_no()
                .with_domain_vector(DomainVector::new(vec![0.95, 0.05]).unwrap())
                .build()
                .unwrap(),
        ];
        let s = [vec![0.95, 0.05], vec![0.3, 0.7]];
        // Direct evaluation of Eq. 5 for k = 2 (index 1).
        let r1 = tasks[0].domain_vector();
        let r2 = tasks[1].domain_vector();
        let q2 = (r1[1] * s[0][0] + r2[1] * s[1][0]) / (r1[1] + r2[1]);
        assert!((q2 - 0.9157894736842105).abs() < 1e-12);
        // Paper rounds to 0.92.
        assert!((q2 - 0.92).abs() < 0.005);
    }

    #[test]
    fn empty_log_yields_uniform_states() {
        let tasks = vec![TaskBuilder::new(0usize, "t")
            .yes_no()
            .with_domain_vector(DomainVector::uniform(2))
            .build()
            .unwrap()];
        let log = AnswerLog::new(1);
        let registry = WorkerRegistry::new(2, 0.7);
        let result = TruthInference::default().run(&tasks, &log, &registry);
        assert_eq!(result.states.view(0).s(), &[0.5, 0.5]);
        assert!(result.qualities.is_empty());
    }

    /// 750 answers on one task: the plain product of their likelihoods
    /// underflows in *both* slots of the row (0.9^400 · 0.1^350 < 1e-368),
    /// which used to read as "no evidence" and reset the row to uniform.
    /// Full inference must keep the evidence, as the incremental step does:
    /// one iteration leaves the bits of the per-vote `apply_answer` chain at
    /// the registry's prior quality.
    #[test]
    fn step1_keeps_the_evidence_of_hundreds_of_answers() {
        use crate::ti::IncrementalTi;
        let task = TaskBuilder::new(0usize, "t")
            .yes_no()
            .with_domain_vector(DomainVector::one_hot(1, 0))
            .build()
            .unwrap();
        let registry = WorkerRegistry::new(1, 0.9);
        let mut incremental = IncrementalTi::new(vec![task.clone()], registry.clone(), 0);
        let mut chain = TaskArena::for_tasks(1, std::slice::from_ref(&task));
        let mut log = AnswerLog::new(1);
        for w in 0..750usize {
            let answer = Answer {
                task: TaskId(0),
                worker: WorkerId::from(w),
                // 400 "yes" (choice 0), 350 "no", interleaved.
                choice: usize::from(w % 15 >= 8),
            };
            log.record(answer).unwrap();
            incremental.submit(answer).unwrap();
            chain.apply_answer(0, &[0.9], answer.choice);
        }
        let one_step = TruthInference::new(TiConfig {
            max_iterations: 1,
            ..TiConfig::default()
        })
        .run(std::slice::from_ref(&task), &log, &registry);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = |st: &TaskArena| -> Vec<u64> {
            st.view(0).rows().flat_map(|(_, _, r)| bits(r)).collect()
        };
        let (st, want) = (&one_step.states, &chain);
        assert_eq!(bits(st.m_hat_of(0)), bits(want.m_hat_of(0)));
        assert_eq!(rows(st), rows(want));
        assert_eq!(bits(st.view(0).s()), bits(want.view(0).s()));
        assert!(st.view(0).s()[0] > 0.99, "{:?}", st.view(0));
        let converged = TruthInference::default().run(&[task], &log, &registry);
        assert!(converged.states.view(0).s()[0] > 0.99);
        assert_eq!(converged.truths, vec![0]);
        assert_eq!(incremental.truths(), converged.truths);
        assert!(incremental.states().view(0).s()[0] > 0.99);
    }

    /// `reset` and Step 1 leave `H(s)` stale and a run refreshes it once at
    /// its end: after every run, whatever its iteration count (0 refreshes
    /// the prior's), each task's cached entropy is `prob::entropy(s)` to the
    /// bit.
    #[test]
    fn a_full_run_leaves_every_cached_entropy_current() {
        use crate::ti::IncrementalTi;
        let (tasks, log, _) = build_world();
        let registry = WorkerRegistry::new(2, 0.6);
        let mut live = IncrementalTi::new(tasks.clone(), registry.clone(), 0);
        for i in 0..log.num_tasks() {
            let task = TaskId::from(i);
            for &(worker, choice) in log.task_answers(task) {
                live.submit(Answer {
                    task,
                    worker,
                    choice,
                })
                .unwrap();
            }
        }
        let current = |states: &TaskArena| {
            states
                .iter()
                .all(|t| t.entropy().to_bits() == prob::entropy(t.s()).to_bits())
        };
        for max_iterations in [0, 1, TiConfig::default().max_iterations] {
            let config = TiConfig {
                max_iterations,
                ..TiConfig::default()
            };
            let run = TruthInference::new(config).run(&tasks, &log, &registry);
            assert_eq!(run.deltas.is_empty(), max_iterations == 0);
            assert!(current(&run.states), "run, {max_iterations} iterations");

            let mut snapshot = live.snapshot();
            snapshot.max_iterations = max_iterations;
            let mut engine = IncrementalTi::restore(snapshot).unwrap();
            engine.run_full();
            assert!(current(engine.states()), "run_full, {max_iterations}");
        }
    }

    #[test]
    fn golden_initialization_improves_inference() {
        // A world where the majority is wrong on every task; only a good
        // prior on the minority worker lets TI recover the truth.
        let n = 6;
        let mut tasks = Vec::new();
        for i in 0..n {
            tasks.push(
                TaskBuilder::new(i, format!("t{i}"))
                    .yes_no()
                    .with_ground_truth(0)
                    .with_domain_vector(DomainVector::one_hot(1, 0))
                    .build()
                    .unwrap(),
            );
        }
        let mut log = AnswerLog::new(n);
        for i in 0..n {
            log.record(Answer {
                task: TaskId::from(i),
                worker: WorkerId(0),
                choice: 0,
            })
            .unwrap();
            for w in 1..3 {
                log.record(Answer {
                    task: TaskId::from(i),
                    worker: WorkerId(w),
                    choice: 1,
                })
                .unwrap();
            }
        }
        // Registry knows worker 0 is excellent and workers 1, 2 are bad.
        let mut registry = WorkerRegistry::new(1, 0.5);
        registry.put(
            WorkerId(0),
            super::super::stats::WorkerStats {
                quality: vec![0.95],
                weight: vec![20.0],
            },
        );
        for w in 1..3 {
            registry.put(
                WorkerId(w),
                super::super::stats::WorkerStats {
                    quality: vec![0.2],
                    weight: vec![20.0],
                },
            );
        }
        let result = TruthInference::default().run(&tasks, &log, &registry);
        assert_eq!(result.accuracy(&tasks), 1.0);
    }
}
