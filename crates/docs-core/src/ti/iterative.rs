//! The iterative truth-inference approach of Section 4.1.

use super::state::{clamp_quality, miss_likelihood, TaskArena};
use super::stats::WorkerRegistry;
use docs_types::{Answer, AnswerLog, ChoiceIndex, Task, TaskId, WorkerId};
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
    /// Converges a fresh [`TaskArena`], on a fresh run index and scratch,
    /// with the body
    /// [`IncrementalTi::run_full`](super::IncrementalTi::run_full) runs on
    /// the engine's own arena and index.
    ///
    /// # Panics
    /// Panics if a task lacks a domain vector, a domain vector is not of the
    /// registry's length `m`, the log covers a different number of tasks, or
    /// a logged choice is not below its task's `ℓ`.
    pub fn run(&self, tasks: &[Task], answers: &AnswerLog, registry: &WorkerRegistry) -> TiResult {
        let m = registry.num_domains();
        let mut states = TaskArena::for_tasks(m, tasks);
        let mut deltas = Vec::new();
        let (mut index, mut ws) = (RunIndex::default(), Workspace::default());
        let log = LogPrefix::whole(answers);
        let run = self.converge(&mut index, &mut ws, log, registry, &mut states, &mut deltas);
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
    /// returned borrowed from `index` and `ws`.
    ///
    /// The loop runs over the *active cells* (see "Inference kernels" in
    /// ARCHITECTURE.md): the distinct (worker, domain) pairs of the join
    /// `V(i) ⋈ supp(i)`, which `index` holds for an earlier prefix of the
    /// same log and [`RunIndex::update`] extends by the answers since.
    /// Step 1 reads Eq. 4's likelihoods only there, through a per-row plan,
    /// and Step 2 credits only there. Step 2's first iteration finalizes
    /// every one of the `W × m` qualities, as the dense loop does; an
    /// inactive cell then holds its fixed Eq. 5 value, so its term of every
    /// later Δ is an exact `+0.0` and later iterations visit the active
    /// cells alone. Every stored value is the same bits the dense textbook
    /// loop produces (`ti::oracle` holds that loop and the tests comparing
    /// the two). The index and the scratch only ever grow, so a run whose
    /// index has room for the new answers, on scratch that has served a
    /// campaign at least this large, allocates nothing.
    pub(super) fn converge<'w>(
        &self,
        index: &'w mut RunIndex,
        ws: &'w mut Workspace,
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
            states.len(),
            log.num_tasks(),
            "answer log and task set disagree on n"
        );
        let m = registry.num_domains();
        index.update(ws, log, tail, registry, states);
        let RunIndex {
            workers: worker_ids,
            qualities,
            den,
            cells,
            ells,
            plan,
            task_plans,
            ..
        } = index;
        let Workspace {
            converged,
            factors,
            s_new,
            ..
        } = ws;
        let num_workers = worker_ids.len();
        converged.resize(num_workers * m, 0.0);
        // The likelihood tables: one per cell, rounded up to a power of
        // two so Step 1 can mask a cell into range instead of checking it.
        let width = cells.len().next_power_of_two();
        factors.resize((1 + ells.len()) * width, 0.0);

        states.reset();
        // Scratch of Step 1's generic row width: a row of `M̂` and the new
        // `s`, each at most the widest `ℓ`.
        s_new.resize(2 * ells.last().copied().unwrap_or(0), 0.0);
        let norm = num_workers as f64 * m as f64;

        // (The paper's runs converge within ~20 iterations.)
        deltas.clear();
        deltas.reserve(self.config.max_iterations.min(32));
        for _ in 0..self.config.max_iterations {
            refresh_likelihoods(factors, width, ells, &cells.q);

            // ---- Step 1: infer the truth (q^w → s_i), Eqs. 2-4. ----
            let per_task = task_plans
                .iter()
                .map(|task| (task.votes as usize, (1 + task.slot as usize) * width));
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
                            converged[d] = fixed;
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
        if deltas.is_empty() {
            // No iteration ran: every quality is still its initial one.
            converged.copy_from_slice(qualities);
        }
        for (cell, &q) in cells.eq5.iter().zip(&cells.q) {
            converged[cell.at] = q;
        }

        *arena = owned;
        Converged {
            workers: worker_ids,
            qualities: converged,
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
        LogPrefix::before(log, &[])
    }

    /// `log` without `tail`, its latest answers in arrival order.
    pub(super) fn before(log: &'a AnswerLog, tail: &'a [Answer]) -> Self {
        LogPrefix { log, tail }
    }
}

/// What [`TruthInference::converge`] leaves beside the states, per worker
/// of the log in ascending id order: flat `W × m` buffers, borrowed from
/// the run's [`RunIndex`] and [`Workspace`].
pub(super) struct Converged<'a> {
    /// The log's workers, ascending.
    pub(super) workers: &'a [WorkerId],
    /// Converged qualities.
    pub(super) qualities: &'a [f64],
    /// Eq. 5's denominators `û_k + Σ_{t ∈ T(w)} r^t_k`: the registry weight
    /// (Theorem 1) after the run.
    pub(super) weights: &'a [f64],
}

/// The run index over a prefix of one engine's answer log: the dense
/// worker index with each worker's `|T(w)|`, the flat `W × m` initial
/// qualities and Eq. 5 denominators, the active cells with Step 2's
/// credits, the `ℓ` slots of the likelihood tables, and Step 1's plan.
///
/// The engine that owns the log keeps it between runs, and each run
/// extends it by the answers that arrived since the prefix it describes;
/// an empty index extends from empty, so a rebuild is the same code.
/// Either way the index ends element for element what an empty index
/// extends to over the prefix. It reads the golden-registry entries of the
/// workers it holds, so a golden grading of a worker who has answered
/// empties it. Every buffer only grows. Working memory: no snapshot
/// records it, and a restored engine starts with an empty one.
#[derive(Debug, Clone, Default)]
pub(super) struct RunIndex {
    /// The prefix's workers, ascending id: worker `w` is `workers[w]`.
    workers: Vec<WorkerId>,
    /// Per worker, `|T(w)|` of the prefix.
    answered: Vec<u32>,
    /// Per worker, `m` initial qualities.
    qualities: Vec<f64>,
    /// Per worker, Eq. 5's denominators `û_k + Σ_{t ∈ T(w)} r^t_k`.
    den: Vec<f64>,
    cells: Cells,
    /// The distinct `ℓ` of the campaign, ascending: the likelihood tables
    /// after the hits hold the misses of each, in this order.
    ells: Vec<usize>,
    /// Step 1's plan: per task, per support row in ascending `k`, one
    /// `(cell, choice)` per answer in `V(i)` order.
    plan: Vec<(u32, u32)>,
    task_plans: Vec<TaskPlan>,
    /// The plan entries (answer, support row) the last set-up added.
    indexed: usize,
}

/// The scratch of full inference: the run's output qualities, its
/// likelihood tables and the set-up's buffers. Nothing in it outlives a
/// run, so every engine a thread runs shares one (see [`with_workspace`]);
/// every buffer only grows, to the largest campaign its thread has
/// converged.
#[derive(Debug, Default)]
pub(super) struct Workspace {
    /// Per worker, `m` converged qualities: the run's output.
    converged: Vec<f64>,
    /// Eq. 4 per active cell, refreshed once per iteration instead of
    /// evaluated per (answer, domain, choice): `1 + ℓ slots` tables of the
    /// run's table width, one entry per cell and the rest unused — the
    /// hits (an answer that matches the truth), then the misses of each
    /// `ℓ` of [`RunIndex::ells`].
    factors: Vec<f64>,
    s_new: Vec<f64>,
    /// Set-up scratch: per task, `|V(i)|` of the new prefix; per task with
    /// new answers, its index and where its rows start in the old plan;
    /// per worker of the log, `|T(w)|` of the new prefix; per worker of the
    /// new prefix, its [`Move`]; per worker with new answers, its cells
    /// after the extension and its new credits `(k, credit)` in `T(w)`
    /// order; per old cell, its new id.
    cut: Vec<u32>,
    grew: Vec<(u32, u32)>,
    counts: Vec<(WorkerId, usize)>,
    moves: Vec<Move>,
    grown: Vec<Grown>,
    fresh: Vec<(u32, Credit)>,
    remap: Vec<u32>,
    /// Set-up scratch: per domain, the last worker (plus one) that credits
    /// it and the worker's new credits there, then their next free slot;
    /// per `(worker, domain)` of a worker with new answers, its cell.
    marks: Vec<(u32, u32)>,
    cell_of: Vec<u32>,
    /// Set-up scratch: one task's new answers `(w·m, choice)` in `V(i)`
    /// order.
    staged: Vec<(u32, u32)>,
    /// Set-up scratch: per task, its new answers `(id, w·m, choice)` in
    /// ascending worker id, filled from the workers' side.
    voters: Vec<(WorkerId, u32, u32)>,
}

/// The active cells of a run — each worker's credited domains, ascending
/// `k`, worker after worker — with what Eq. 5 needs per cell. A domain
/// whose registry evidence alone gives a non-finite Eq. 5 value is a cell
/// too: its term of every Δ is NaN, never `+0.0`, so Step 2 must revisit it.
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Copy, Default)]
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
    /// No worker, no cell.
    fn clear(&mut self) {
        self.ptr.clear();
        self.ptr.push(0);
        self.q.clear();
        self.eq5.clear();
        self.credit_ptr.clear();
        self.credit_ptr.push(0);
        self.credits.clear();
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
    /// Its `ℓ`'s slot in [`RunIndex::ells`].
    slot: u32,
    /// Set-up only: `|supp(i)|`, the rows.
    rows: u32,
    /// Set-up only: where the task's run of [`Workspace::voters`] ends.
    voters_end: u32,
}

/// A worker of the new prefix, during set-up: where its row and cells were
/// in the old index, and its `|T(w)|` there and now.
#[derive(Debug, Clone, Copy)]
struct Move {
    /// Its index in the old index, or [`NEW`].
    from: u32,
    /// `|T(w)|` of the old prefix (0 for a new worker).
    before: u32,
    /// `|T(w)|` of the new prefix.
    after: u32,
    /// For a worker with new answers, its cells after the extension: its
    /// run of [`Workspace::grown`].
    cells: u32,
}

/// One cell, after the extension, of a worker with new answers.
#[derive(Debug, Clone, Copy)]
struct Grown {
    k: u32,
    /// Its id in the old index, or [`NEW`].
    old: u32,
    /// The credits the new answers add to it.
    added: u32,
}

/// No index in the old index: a new worker or cell.
const NEW: u32 = u32::MAX;

impl RunIndex {
    /// Brings the index to the log prefix, which no earlier prefix it
    /// described is longer than: an index over no tasks yet (a new or
    /// restored engine's, or one a golden grading emptied) is set up over
    /// the arena's tasks first, then extended by the answers since.
    fn update(
        &mut self,
        ws: &mut Workspace,
        log: &AnswerLog,
        tail: &[Answer],
        registry: &WorkerRegistry,
        states: &TaskArena,
    ) {
        // `|V(i)|` of the prefix: each tail answer is the last of its
        // `V(i)` so far, so the prefix cuts it off the end.
        ws.cut.clear();
        ws.cut
            .extend(log.iter_tasks().map(|(_, votes)| votes.len() as u32));
        for answer in tail {
            ws.cut[answer.task.index()] -= 1;
        }
        if self.task_plans.len() != states.len() {
            self.clear(states);
        }
        self.extend(ws, log, tail, registry, states);
    }

    /// The empty index over the arena's tasks: no worker, cell, credit or
    /// plan entry.
    fn clear(&mut self, states: &TaskArena) {
        let num_choices = |i| states.support_and_s(i).1.len();
        let ells = &mut self.ells;
        ells.clear();
        ells.extend((0..states.len()).map(num_choices));
        ells.sort_unstable();
        ells.dedup();
        self.task_plans.clear();
        self.task_plans.extend((0..states.len()).map(|i| {
            let slot = ells.binary_search(&num_choices(i));
            TaskPlan {
                votes: 0,
                slot: slot.expect("collected above") as u32,
                rows: states.support_and_s(i).0.len() as u32,
                voters_end: 0,
            }
        }));
        self.workers.clear();
        self.answered.clear();
        self.qualities.clear();
        self.den.clear();
        self.cells.clear();
        self.plan.clear();
    }

    /// Extends the index from the prefix its counts describe to the one
    /// `ws.cut` and `tail` cut from `log`, by the answers in between: a
    /// row of initial qualities and weights per new worker, in its sorted
    /// place; the cells those answers credit, each in its sorted place,
    /// with their credits at the end of each cell's run; one entry per new
    /// answer at the end of each of its task's rows of Step 1's plan; and
    /// every old cell id remapped. The rows, cells and credits move in one
    /// pass from their end down to the first place that changes, the plan
    /// in one remapping pass and one pass of block moves. Each new answer's
    /// `T(w)` entry is read once, its credits counted and kept until they
    /// are placed, and it is found once among its task's new answers.
    fn extend(
        &mut self,
        ws: &mut Workspace,
        log: &AnswerLog,
        tail: &[Answer],
        registry: &WorkerRegistry,
        states: &TaskArena,
    ) {
        let m = registry.num_domains();
        let RunIndex {
            workers,
            answered,
            qualities,
            den,
            cells,
            ells,
            plan,
            task_plans,
            indexed,
        } = self;
        let Workspace {
            cut,
            grew,
            counts,
            moves,
            grown,
            fresh,
            remap,
            marks,
            cell_of,
            staged,
            voters,
            ..
        } = ws;

        // The new answers per task, the plan entries they add, and each
        // task's run of the voters; the tasks with new answers, each with
        // where its rows start in the old plan.
        grew.clear();
        grew.reserve(task_plans.len());
        let (mut new_votes, mut new_entries, mut most_votes) = (0, 0, 0);
        let mut start = 0;
        for (i, (task, &cut)) in task_plans.iter_mut().zip(cut.iter()).enumerate() {
            let new = cut.checked_sub(task.votes).expect("the log only grows");
            let (old, rows) = (task.votes, task.rows as usize);
            if new > 0 {
                grew.push((i as u32, start as u32));
                new_entries += new as usize * rows;
                most_votes = most_votes.max(new as usize);
            }
            start += old as usize * rows;
            task.voters_end = new_votes as u32;
            new_votes += new as usize;
        }
        let num_entries = plan.len() + new_entries;

        // The dense worker index of the new prefix, in sorted id order (see
        // `AnswerLog::workers`): Step 2 accumulates `delta_q` over workers,
        // and the accumulation order must not depend on hash-map layout or
        // convergence becomes process-random. A worker whose answers are
        // all in the tail is not in the prefix. Each keeps its `|T(w)|`
        // before and after, and where it was.
        log.worker_counts_into(counts);
        for answer in tail {
            let r = counts.binary_search_by_key(&answer.worker, |&(w, _)| w);
            counts[r.expect("a tail answer is in the log")].1 -= 1;
        }
        moves.clear();
        moves.reserve(counts.len());
        let (mut old, mut kept, mut with_new) = (0, 0, 0);
        for r in 0..counts.len() {
            let (id, after) = counts[r];
            let (from, before) = match workers.get(old) {
                Some(&w) if w == id => {
                    old += 1;
                    (old as u32 - 1, answered[old - 1])
                }
                _ => (NEW, 0),
            };
            let after = after as u32;
            assert!(after >= before, "`V(i)` and `T(w)` hold the same answers");
            if after == 0 {
                continue;
            }
            counts[kept] = counts[r];
            kept += 1;
            with_new += usize::from(after > before);
            moves.push(Move {
                from,
                before,
                after,
                cells: 0,
            });
        }
        assert_eq!(old, workers.len(), "every indexed worker is in the prefix");
        counts.truncate(kept);
        workers.clear();
        workers.extend(counts.iter().map(|&(id, _)| id));
        answered.clear();
        answered.extend(moves.iter().map(|mv| mv.after));
        let num_workers = workers.len();
        let bound = num_workers * m;
        assert!(
            bound * (1 + ells.len()) <= u32::MAX as usize
                && states.all_s().len() <= u32::MAX as usize
                && num_entries <= u32::MAX as usize,
            "a campaign indexable by u32"
        );

        // Each worker's row of initial qualities and weights moves to its
        // new place, from the end down to the first worker that keeps its
        // place. A new worker's comes from the registry (golden-task
        // initialized), with the registry's evidence weights. Golden tasks
        // are tasks the worker *answered*, so Step 2 keeps them in `T(w)`
        // as pseudo-observations with their recorded weight `u^w_k` — the
        // Theorem 1 merge between stored statistics and the current batch.
        // Unseen workers carry zero weight and reduce to the plain Eq. 5.
        qualities.resize(bound, 0.0);
        den.resize(bound, 0.0);
        for (w, mv) in moves.iter().enumerate().rev() {
            if mv.from == w as u32 {
                break;
            }
            let row = w * m..(w + 1) * m;
            if mv.from == NEW {
                let (q, u) = (&mut qualities[row.clone()], &mut den[row]);
                match registry.get(workers[w]) {
                    Some(stats) => {
                        q.copy_from_slice(&stats.quality[..m]);
                        // `+ 0.0`: a `-0.0` weight leaves as `+0.0`, as the
                        // dense loop's first `+ r_k` left it in every
                        // domain.
                        for (u, &weight) in u.iter_mut().zip(&stats.weight[..m]) {
                            *u = weight + 0.0;
                        }
                    }
                    None => {
                        q.fill(registry.prior_quality());
                        u.fill(0.0);
                    }
                }
            } else {
                let from = mv.from as usize * m;
                qualities.copy_within(from..from + m, row.start);
                den.copy_within(from..from + m, row.start);
            }
        }

        // Per worker with new answers: the new answers join their tasks'
        // voters, and their credits are counted per domain; then its cells
        // after the extension, in ascending `k` — its old cells, every
        // newly credited domain, and for a new worker every domain whose
        // fixed Eq. 5 value is not finite (its term of every Δ is NaN, not
        // `+0.0`, so Step 2 must revisit it).
        marks.clear();
        marks.resize(m, (0, 0));
        voters.clear();
        voters.resize(new_votes, (WorkerId(0), 0, 0));
        grown.clear();
        grown.reserve(with_new * m);
        fresh.clear();
        fresh.reserve(new_entries);
        let mut new_cells = 0;
        for w in 0..num_workers {
            let mv = moves[w];
            if mv.after == mv.before {
                continue;
            }
            let id = workers[w];
            let stamp = w as u32 + 1;
            let answers = &log.worker_answers(id)[mv.before as usize..mv.after as usize];
            for &(task, choice) in answers {
                let end = &mut task_plans[task.index()].voters_end;
                voters[*end as usize] = (id, (w * m) as u32, choice as u32);
                *end += 1;
                let (support, at) = states.credit_of(task.index(), choice);
                for &(k, rk) in support {
                    let mark = &mut marks[k];
                    *mark = if mark.0 == stamp {
                        (stamp, mark.1 + 1)
                    } else {
                        (stamp, 1)
                    };
                    fresh.push((k as u32, Credit { at: at as u32, rk }));
                }
            }
            // Its old cells, ascending `k`, and where its old row began.
            let (mut held, old_row) = match mv.from {
                NEW => (0..0, 0),
                from => {
                    let from = from as usize;
                    let held = cells.ptr[from] as usize..cells.ptr[from + 1] as usize;
                    (held, from * m)
                }
            };
            let before = grown.len();
            for (k, &(stamped, count)) in marks.iter().enumerate() {
                let old = if held.start < held.end && cells.eq5[held.start].at == old_row + k {
                    held.start += 1;
                    held.start as u32 - 1
                } else {
                    NEW
                };
                let added = if stamped == stamp { count } else { 0 };
                let at = w * m + k;
                let non_finite = || !eq5_without_credits(qualities[at], den[at]).is_finite();
                if old != NEW || added > 0 || (mv.from == NEW && non_finite()) {
                    new_cells += usize::from(old == NEW);
                    grown.push(Grown {
                        k: k as u32,
                        old,
                        added,
                    });
                }
            }
            moves[w].cells = (grown.len() - before) as u32;
        }

        // The cells and their credits, from the end down to the first
        // worker that keeps its place and gains nothing: a run of workers
        // without new answers moves as one block (each of them moves by
        // the same rows, cells and credits); any other worker is rebuilt
        // cell by cell, each old run of credits moved up and the new
        // credits, placed in `T(w)`'s arrival order, after it. The
        // denominator `û_k + Σ_{t ∈ T(w)} r^t_k` does not depend on `s`, so
        // it is summed here, once per credit; it is also the worker's new
        // weight.
        let (old_cells, old_credits) = (cells.len(), cells.credits.len());
        let num_cells = old_cells + new_cells;
        let num_credits = old_credits + new_entries;
        remap.clear();
        remap.resize(old_cells, 0);
        cells.ptr.resize(num_workers + 1, 0);
        cells.q.resize(num_cells, 0.0);
        cells.eq5.resize(num_cells, Eq5::default());
        cells.credit_ptr.resize(num_cells + 1, 0);
        cells.credit_ptr[num_cells] = num_credits as u32;
        cells.credits.resize(num_credits, Credit::default());
        cell_of.resize(bound, 0);
        // Read and write ends: of the old and new cells, and of the old and
        // new credits.
        let (mut read, mut write) = (old_cells, num_cells);
        let (mut read_credit, mut write_credit) = (old_credits, num_credits);
        let (mut grown_end, mut fresh_end) = (grown.len(), fresh.len());
        let mut w = num_workers;
        while w > 0 {
            let mv = moves[w - 1];
            if mv.from == (w - 1) as u32 && write == read && write_credit == read_credit {
                break;
            }
            if mv.after == mv.before {
                let top = w;
                while w > 0 && moves[w - 1].after == moves[w - 1].before {
                    w -= 1;
                }
                let start = cells.ptr[moves[w].from as usize] as usize;
                let first_credit = cells.credit_ptr[start] as usize;
                let (shift, credit_shift) = (write - read, write_credit - read_credit);
                for v in (w..top).rev() {
                    cells.ptr[v + 1] = cells.ptr[moves[v].from as usize + 1] + shift as u32;
                }
                let credits = first_credit..read_credit;
                cells
                    .credits
                    .copy_within(credits, first_credit + credit_shift);
                cells.eq5.copy_within(start..read, start + shift);
                cells.credit_ptr.copy_within(start..read, start + shift);
                for (c, to) in remap[start..read].iter_mut().enumerate() {
                    *to = (start + c + shift) as u32;
                }
                let at = (top - 1 - mv.from as usize) * m;
                let moved = start + shift..write;
                let ptrs = cells.credit_ptr[moved.clone()].iter_mut();
                for (cell, ptr) in cells.eq5[moved].iter_mut().zip(ptrs) {
                    cell.at += at;
                    *ptr += credit_shift as u32;
                }
                (read, write) = (start, start + shift);
                (read_credit, write_credit) = (first_credit, first_credit + credit_shift);
                continue;
            }
            w -= 1;
            cells.ptr[w + 1] = write as u32;
            let stamp = w as u32 + 1;
            let own = &grown[grown_end - mv.cells as usize..grown_end];
            grown_end -= own.len();
            for g in own.iter().rev() {
                let (k, added) = (g.k as usize, g.added as usize);
                let at = w * m + k;
                write -= 1;
                let start = if g.old == NEW {
                    let (q, u) = (qualities[at], den[at]);
                    cells.eq5[write] = Eq5 {
                        at,
                        init: q,
                        den: u,
                        seed: q * u + 0.0,
                    };
                    write_credit - added
                } else {
                    let c = g.old as usize;
                    read -= 1;
                    debug_assert_eq!(c, read, "a worker's old cells in order");
                    let old_start = cells.credit_ptr[c] as usize;
                    let start = write_credit - added - (read_credit - old_start);
                    cells.credits.copy_within(old_start..read_credit, start);
                    cells.eq5[write] = Eq5 { at, ..cells.eq5[c] };
                    remap[c] = write as u32;
                    read_credit = old_start;
                    start
                };
                cells.credit_ptr[write] = start as u32;
                marks[k] = (stamp, (write_credit - added) as u32);
                cell_of[at] = write as u32;
                write_credit = start;
            }
            let added: usize = own.iter().map(|g| g.added as usize).sum();
            for &(k, credit) in &fresh[fresh_end - added..fresh_end] {
                let slot = &mut marks[k as usize].1;
                cells.credits[*slot as usize] = credit;
                *slot += 1;
                cells.eq5[cell_of[w * m + k as usize] as usize].den += credit.rk;
            }
            fresh_end -= added;
            for g in own {
                let at = w * m + g.k as usize;
                den[at] = cells.eq5[cell_of[at] as usize].den;
            }
        }
        // Below where the walk stopped no cell moved.
        for (c, to) in remap[..read].iter_mut().enumerate() {
            *to = c as u32;
        }
        for (q, eq5) in cells.q.iter_mut().zip(&cells.eq5) {
            *q = eq5.init;
        }

        // Step 1's plan, row-major per task: every old entry's cell
        // remapped in one pass, then from the last task with new answers
        // down to the first, the old entries after it moved up as one block
        // and its rows rebuilt, each row's old entries and then one entry
        // per new answer. Each new answer's worker is found among the
        // task's new answerers, and its cell read per support row.
        let old_entries = plan.len();
        plan.resize(num_entries, (0, 0));
        for entry in &mut plan[..old_entries] {
            entry.0 = remap[entry.0 as usize];
        }
        let (mut read, mut write) = (old_entries, num_entries);
        staged.clear();
        staged.reserve(most_votes);
        for &(i, start) in grew.iter().rev() {
            let (i, start) = (i as usize, start as usize);
            let shape = task_plans[i];
            let (old, cut) = (shape.votes as usize, cut[i] as usize);
            let end = start + shape.rows as usize * old;
            write -= read - end;
            plan.copy_within(end..read, write);
            let voters = &voters[..shape.voters_end as usize];
            let voters = &voters[voters.len() - (cut - old)..];
            staged.clear();
            for &(id, choice) in &log.task_answers(TaskId::from(i))[old..cut] {
                let at = voters.binary_search_by_key(&id, |&(voter, ..)| voter);
                let (_, base, _) = voters[at.expect("`V(i)` and `T(w)` hold the same answers")];
                staged.push((base, choice as u32));
            }
            let support = states.support_and_s(i).0;
            for (r, &(k, _)) in support.iter().enumerate().rev() {
                write -= staged.len();
                let entries = staged
                    .iter()
                    .map(|&(base, choice)| (cell_of[base as usize + k], choice));
                for (slot, entry) in plan[write..].iter_mut().zip(entries) {
                    *slot = entry;
                }
                write -= old;
                plan.copy_within(start + r * old..start + (r + 1) * old, write);
            }
            read = start;
        }
        debug_assert_eq!(read, write, "nothing moves below the first new answer");
        for (task, &cut) in task_plans.iter_mut().zip(cut.iter()) {
            task.votes = cut;
        }

        *indexed = new_entries;
        // A later extension remaps every cell of this index.
        remap.clear();
        remap.reserve(num_cells);
    }

    /// The run's shape: `W × m`, its active cells, its plan's length and
    /// the entries its set-up added.
    #[cfg(test)]
    pub(super) fn shape(&self) -> RunShape {
        RunShape {
            dense_cells: self.qualities.len(),
            cells: self.cells.len(),
            plan: self.plan.len(),
            indexed: self.indexed,
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
    /// The plan entries (answer, support row) the run's set-up indexed:
    /// the whole plan from empty, the new answers' entries when it extended
    /// the index of an earlier run.
    pub(super) indexed: usize,
}

/// Everything of a [`RunIndex`] that Steps 1 and 2 read or that a later
/// extension starts from, floats as bits: the workers and their counts,
/// the `W × m` initial qualities and weights, the cells without their
/// current quality, the credits, the plan, the task plans and the `ℓ`
/// slots.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(super) struct IndexImage {
    workers: Vec<(WorkerId, u32)>,
    rows: Vec<(u64, u64)>,
    ptr: Vec<u32>,
    cells: Vec<(usize, u64, u64, u64)>,
    credit_ptr: Vec<u32>,
    credits: Vec<(u32, u64)>,
    plan: Vec<(u32, u32)>,
    task_plans: Vec<(u32, u32)>,
    ells: Vec<usize>,
}

#[cfg(test)]
impl RunIndex {
    pub(super) fn image(&self) -> IndexImage {
        let cells = &self.cells;
        IndexImage {
            workers: self
                .workers
                .iter()
                .copied()
                .zip(self.answered.iter().copied())
                .collect(),
            rows: self
                .qualities
                .iter()
                .zip(&self.den)
                .map(|(q, u)| (q.to_bits(), u.to_bits()))
                .collect(),
            ptr: cells.ptr.clone(),
            cells: cells
                .eq5
                .iter()
                .map(|c| (c.at, c.init.to_bits(), c.den.to_bits(), c.seed.to_bits()))
                .collect(),
            credit_ptr: cells.credit_ptr.clone(),
            credits: cells
                .credits
                .iter()
                .map(|c| (c.at, c.rk.to_bits()))
                .collect(),
            plan: self.plan.clone(),
            task_plans: self.task_plans.iter().map(|t| (t.votes, t.slot)).collect(),
            ells: self.ells.clone(),
        }
    }
}

/// The index an empty one extends to over all of `log`.
#[cfg(test)]
pub(super) fn fresh_index(
    tasks: &[Task],
    log: &AnswerLog,
    registry: &WorkerRegistry,
) -> IndexImage {
    let mut index = RunIndex::default();
    let states = TaskArena::for_tasks(registry.num_domains(), tasks);
    index.update(&mut Workspace::default(), log, &[], registry, &states);
    index.image()
}

thread_local! {
    /// The periodic full runs' [`Workspace`], one per thread: a shard
    /// thread converges its campaigns one at a time, so they share one
    /// set of scratch buffers sized by the largest of them instead of each
    /// holding its own.
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Runs `run` on this thread's full-inference [`Workspace`].
pub(super) fn with_workspace<R>(run: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|ws| run(&mut ws.borrow_mut()))
}

/// Refreshes the likelihood tables of [`Workspace::factors`], each `width`
/// entries, at the cells' `qualities`: Eq. 4's `hit` for an answer that
/// matches the truth, then one `miss` per `ℓ` of `ells`.
fn refresh_likelihoods(factors: &mut [f64], width: usize, ells: &[usize], qualities: &[f64]) {
    let (hits, misses) = factors.split_at_mut(width);
    for (hit, &q) in hits.iter_mut().zip(qualities) {
        *hit = clamp_quality(q);
    }
    for (table, &l) in misses.chunks_exact_mut(width).zip(ells) {
        for (miss, &hit) in table.iter_mut().zip(&hits[..qualities.len()]) {
            *miss = miss_likelihood(hit, l);
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

            let restored = IncrementalTi::restore(live.snapshot()).unwrap();
            let mut engine = restored.with_config(config);
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
