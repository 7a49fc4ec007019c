//! The incremental truth-inference approach of Section 4.2.
//!
//! When a worker submits one answer, only the parameters most related to the
//! task and the worker change: the task's `M^{(i)}`/`s_i` (via the stored
//! numerator `M̂^{(i)}`) and the qualities of the submitting worker and of
//! the workers who answered the task before. The update costs
//! `O(|support| · ℓ + m · |V(i)|)`, so it keeps up with high-velocity
//! answer streams; the full iterative approach is re-run every `z`
//! submissions (`z = 100` in DOCS) to restore full accuracy.
//!
//! Both are owed, not paid, when an answer is recorded: the run starts from
//! the uniform prior and reads only the tasks, the log prefix and the
//! golden registry, so a run, and every update before it, is dead work if
//! a later run comes before anything reads the inference. An answer is
//! recorded at once (log, ingestion counter, registry entry,
//! `submissions`); a `z`-crossing marks a run owed and drops what it
//! supersedes; [`IncrementalTi::materialize`] pays what is owed, and every
//! `&self` reader of the inference asserts that nothing is.

use super::iterative::{with_workspace, LogPrefix, RunIndex, TiConfig, TruthInference};
use super::sharded::ShardedTiState;
use super::state::{TaskArena, TaskView};
use super::stats::{WorkerRegistry, WorkerStats};
use docs_types::{
    Answer, AnswerLog, ChoiceIndex, DomainVector, Error, Result, Task, TaskId, WorkerId,
};
use serde::{Deserialize, Serialize, Sink};
use std::borrow::Borrow;

/// The full serializable state of an [`IncrementalTi`] engine — everything
/// Section 4.2 stores in the parameter database plus the bookkeeping the
/// engine needs to resume mid-stream (`submissions` for the periodic full
/// inference, the sharded-scan geometry, the iterative-approach knobs).
///
/// Restoring a snapshot and continuing a submission stream produces the
/// same states as never having stopped: every field round-trips exactly,
/// and what is not stored (each task's support and `M`, every `H(s)`) is a
/// pure function of the stored fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TiSnapshot {
    /// Published tasks with their DVE-filled domain vectors.
    pub tasks: Vec<Task>,
    /// The support rows of every task's `M̂`, in task order (row-major
    /// `|support| × ℓ` per task).
    pub m_hat: Vec<f64>,
    /// Every task's `s`, in task order.
    pub s: Vec<f64>,
    /// Live worker statistics.
    pub registry: WorkerRegistry,
    /// Golden-only statistics feeding periodic full re-inference.
    pub golden_registry: WorkerRegistry,
    /// The full answer log.
    pub log: AnswerLog,
    /// Full-inference period.
    pub z: usize,
    /// Submissions processed so far.
    pub submissions: usize,
    /// Task-shard count of the sharded scan.
    pub task_shards: usize,
    /// Per-task-shard ingestion counters.
    pub shard_ingested: Vec<u64>,
    /// Iteration cap of the iterative approach.
    pub max_iterations: usize,
    /// Convergence threshold of the iterative approach.
    pub epsilon: f64,
}

/// Full runs of the iterative approach an engine executed, and owed runs it
/// dropped because a later run superseded them, since it was built or the
/// counts were last taken ([`IncrementalTi::take_run_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Runs executed: periodic ones when paid, and direct
    /// [`IncrementalTi::run_full`] calls.
    pub executed: u64,
    /// Owed runs dropped unrun.
    pub superseded: u64,
}

/// Online inference engine maintaining per-task state and worker statistics
/// across a stream of answer submissions.
#[derive(Debug, Clone)]
pub struct IncrementalTi {
    tasks: Vec<Task>,
    states: TaskArena,
    /// Live worker statistics, updated on every answer.
    registry: WorkerRegistry,
    /// Golden-task initializations only — the starting point for periodic
    /// full re-inference.
    golden_registry: WorkerRegistry,
    log: AnswerLog,
    /// Run the full iterative approach every `z` submissions; `0` disables
    /// the periodic re-run.
    z: usize,
    submissions: usize,
    ti: TruthInference,
    /// Shard view over the task state space (1 shard unless configured):
    /// ingestion is recorded against the owning shard, and the OTA scan
    /// partitions its candidate walk along the same mapping.
    sharding: ShardedTiState,
    /// Scratch of the incremental update: the task's truth before the
    /// answer is applied.
    s_before: Vec<f64>,
    /// The Δ series of the latest full run, refilled in place.
    deltas: Vec<f64>,
    /// Whether a full run is owed, over the log without `pending`.
    owed: bool,
    /// Answers recorded since the inference was last current (or since the
    /// owed run's crossing), in arrival order, whose incremental update is
    /// owed. A crossing empties it, so it is reserved once, at `z` answers
    /// or the task count if that is smaller (a restored `z` is outside
    /// input and must not size an allocation alone). Working state: a
    /// snapshot is taken with nothing owed.
    pending: Vec<Answer>,
    runs: RunCounts,
    /// The run index over the log prefix of the last full run, which the
    /// next run extends by the answers since. A clone copies it (both logs
    /// start with that prefix); a restored engine starts with an empty one.
    index: RunIndex,
}

impl IncrementalTi {
    /// Creates the engine. `z` is the full-inference period (the paper uses
    /// `z = 100`).
    ///
    /// # Panics
    /// Panics if a task's id is not its position (the OTA scan names task
    /// `i` by `i`; [`IncrementalTi::restore`] refuses the same), or a task
    /// lacks its domain vector or that vector is not of the registry's
    /// length `m`.
    pub fn new(tasks: Vec<Task>, registry: WorkerRegistry, z: usize) -> Self {
        if let Some((i, task)) = tasks.iter().enumerate().find(|(i, t)| t.id.index() != *i) {
            panic!("task {i} has id {}: ids are positions", task.id);
        }
        let states = TaskArena::for_tasks(registry.num_domains(), &tasks);
        let log = AnswerLog::new(tasks.len());
        let sharding = ShardedTiState::new(tasks.len(), 1);
        let pending = Vec::with_capacity(z.min(tasks.len()));
        IncrementalTi {
            golden_registry: registry.clone(),
            registry,
            tasks,
            states,
            log,
            z,
            submissions: 0,
            ti: TruthInference::new(TiConfig::default()),
            sharding,
            s_before: Vec::new(),
            deltas: Vec::new(),
            owed: false,
            pending,
            runs: RunCounts::default(),
            index: RunIndex::default(),
        }
    }

    /// Re-partitions the task state across `shards` shards (builder-style).
    ///
    /// Sharding only changes how the state space is *walked* (per-shard
    /// benefit scans, per-shard ingestion accounting) — the statistical
    /// model is untouched, so truths are identical for every shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.sharding = ShardedTiState::new(self.tasks.len(), shards);
        self
    }

    /// The shard view over the task state space.
    pub fn sharding(&self) -> &ShardedTiState {
        &self.sharding
    }

    /// The published tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Current per-task inference states.
    pub fn states(&self) -> &TaskArena {
        self.assert_current();
        &self.states
    }

    /// State of one task.
    pub fn state(&self, task: TaskId) -> TaskView<'_> {
        self.assert_current();
        self.states.view(task.index())
    }

    /// Live worker statistics.
    pub fn registry(&self) -> &WorkerRegistry {
        self.assert_current();
        &self.registry
    }

    /// Workers with statistics in the registry. Recording an answer adds
    /// its worker's entry at once, so this count is exact with work owed.
    pub fn known_workers(&self) -> usize {
        self.registry.len()
    }

    /// Panics when a run or an incremental update is owed: a reader that
    /// missed [`IncrementalTi::materialize`] fails here instead of serving
    /// stale inference.
    fn assert_current(&self) {
        assert!(
            !self.owed && self.pending.is_empty(),
            "inference read with a full run owed ({}) and {} answers pending; materialize first",
            self.owed,
            self.pending.len()
        );
    }

    /// The answer log accumulated so far.
    pub fn log(&self) -> &AnswerLog {
        &self.log
    }

    /// Everything a request needs to score candidates, in one call.
    ///
    /// Pinned by the frozen `bench/` (which destructures five elements and
    /// ignores the last): the trailing `()` only keeps that arity and goes
    /// when benchmark v2 moves to the accessors (ROADMAP item 1(a)).
    pub fn assign_view(&self) -> (&[Task], &TaskArena, &AnswerLog, &ShardedTiState, ()) {
        self.assert_current();
        (&self.tasks, &self.states, &self.log, &self.sharding, ())
    }

    /// Number of submissions processed.
    pub fn submissions(&self) -> usize {
        self.submissions
    }

    /// Registers a worker's golden-task performance (Section 5.2): both the
    /// live statistics and the baseline used by periodic full re-inference.
    /// The worker is graded once; the golden registry gets a copy.
    pub fn init_worker_from_golden<D: Borrow<DomainVector>>(
        &mut self,
        worker: WorkerId,
        golden_answers: &[(TaskId, ChoiceIndex)],
        task_info: impl Fn(TaskId) -> (D, ChoiceIndex),
        smoothing: f64,
    ) {
        self.materialize();
        let stats = self
            .registry
            .graded_on_golden(golden_answers, task_info, smoothing);
        self.put_golden(worker, stats);
    }

    /// Writes a worker's golden grading into both registries. The initial
    /// qualities and weights of a worker who has answered are in the run
    /// index, so the index is emptied and the next run rebuilds it.
    fn put_golden(&mut self, worker: WorkerId, stats: WorkerStats) {
        if !self.log.worker_answers(worker).is_empty() {
            self.index = RunIndex::default();
        }
        self.golden_registry.put(worker, stats.clone());
        self.registry.put(worker, stats);
    }

    /// [`IncrementalTi::init_worker_from_golden`] graded against the
    /// engine's own tasks: each golden task's domain vector is read in
    /// place and its manual label is the truth. An id that names no task
    /// ([`Error::UnknownTask`]), a task without a label
    /// ([`Error::GoldenRequired`]) or a task named twice
    /// ([`Error::DuplicateAnswer`]) is refused before either registry
    /// changes.
    pub fn grade_worker_on_golden(
        &mut self,
        worker: WorkerId,
        golden_answers: &[(TaskId, ChoiceIndex)],
        smoothing: f64,
    ) -> Result<()> {
        for (i, &(tid, _)) in golden_answers.iter().enumerate() {
            let task = self.tasks.get(tid.index()).ok_or(Error::UnknownTask(tid))?;
            task.ground_truth.ok_or(Error::GoldenRequired(tid))?;
            // A golden HIT is a handful of tasks: a scan of the ones before
            // is cheaper than a set.
            if golden_answers[..i].iter().any(|&(t, _)| t == tid) {
                return Err(Error::DuplicateAnswer { task: tid, worker });
            }
        }
        // The grading writes both registries, which an owed run or update
        // reads: pay them first.
        self.materialize();
        let tasks = &self.tasks;
        let task_info = |tid: TaskId| {
            let task = &tasks[tid.index()];
            let truth = task.ground_truth.expect("checked above");
            (task.domain_vector(), truth)
        };
        let stats = self
            .registry
            .graded_on_golden(golden_answers, task_info, smoothing);
        self.put_golden(worker, stats);
        Ok(())
    }

    /// Processes one answer submission with the O(m·|V(i)|) update policy:
    /// [`IncrementalTi::record`], then [`IncrementalTi::materialize`], so
    /// the inference is current on return. Returns `true` when the answer
    /// crossed `z` and the periodic full inference ran.
    pub fn submit(&mut self, answer: Answer) -> Result<bool> {
        let crossed = self.record(answer)?;
        self.materialize();
        Ok(crossed)
    }

    /// Processes a batch of answers, strictly in order through
    /// [`IncrementalTi::record`], then materializes once (so the
    /// z-periodic full inference covers exactly the same log prefixes as
    /// individual submissions — replaying a logged batch is byte-identical
    /// to having served it live). The first rejected answer aborts the
    /// batch with its error; the already-recorded prefix stays applied.
    /// Callers that must not see a partial batch validate every answer
    /// first (the durable service does).
    pub fn submit_batch(&mut self, answers: &[Answer]) -> Result<()> {
        let recorded = answers.iter().try_for_each(|&a| self.record(a).map(drop));
        self.materialize();
        recorded
    }

    /// Records one answer and owes its inference: the log, the owning
    /// shard's ingestion counter, the worker's registry entry and
    /// `submissions` change at once; the incremental update waits in the
    /// pending queue. An answer that crosses `z` instead marks the full
    /// run owed and drops the run owed before it and every pending update,
    /// since the new run overwrites every state and every registry entry
    /// they touch. Returns whether the answer crossed `z`.
    pub fn record(&mut self, answer: Answer) -> Result<bool> {
        let i = answer.task.index();
        if i >= self.tasks.len() {
            return Err(docs_types::Error::UnknownTask(answer.task));
        }
        self.tasks[i].check_choice(answer.choice)?;
        self.log.record(answer)?;
        // Sharded ingestion: only the owning shard's state is touched.
        self.sharding.record_ingest(answer.task);
        self.registry.get_or_insert(answer.worker);
        self.submissions += 1;
        if self.z > 0 && self.submissions.is_multiple_of(self.z) {
            self.supersede();
            self.owed = true;
            return Ok(true);
        }
        self.pending.push(answer);
        Ok(false)
    }

    /// Pays what is owed: the full run over the log as it stood at its
    /// crossing, then each pending answer's incremental update against the
    /// co-answerers it saw, in arrival order — the states an engine that
    /// paid at every answer would hold.
    pub fn materialize(&mut self) {
        if self.owed {
            self.owed = false;
            self.converge();
        }
        let pending = std::mem::take(&mut self.pending);
        for &answer in &pending {
            self.update(answer);
        }
        self.pending = pending;
        self.pending.clear();
    }

    /// Drops the owed run and every pending update, for a run about to
    /// replace them.
    fn supersede(&mut self) {
        if self.owed {
            self.owed = false;
            self.runs.superseded += 1;
        }
        self.pending.clear();
    }

    /// The incremental update of one recorded answer (Section 4.2): the
    /// task's `M̂`, `M` and `s`, then the submitter's and every earlier
    /// answerer's quality.
    fn update(&mut self, answer: Answer) {
        let i = answer.task.index();
        // The pre-update truth s̃_i, for revising the earlier answerers.
        self.s_before.clear();
        self.s_before.extend_from_slice(self.states.view(i).s());

        // Step 1 (incremental): update M̂^{(i)}, M^{(i)}, s_i.
        let submitter = self.registry.get_or_insert(answer.worker);
        self.states
            .apply_answer(i, &submitter.quality, answer.choice);
        let (support, s_after) = self.states.support_and_s(i);

        // Step 2 (incremental), over the task's support only: the submitting
        // worker absorbs the new task…
        submitter.absorb_answer(support, s_after[answer.choice]);
        // …and every answerer before it in `V(i)` has their quality revised
        // for the moved truth probability of their recorded choice.
        let answered = self.log.task_answers(answer.task);
        let at = answered
            .iter()
            .position(|&(w, _)| w == answer.worker)
            .expect("the answer is recorded");
        for &(w_prev, j) in &answered[..at] {
            self.registry.get_or_insert(w_prev).revise_answer(
                support,
                self.s_before[j],
                s_after[j],
            );
        }
    }

    /// Runs the full iterative approach over everything received so far,
    /// converging into the engine's own states; an owed run and every
    /// pending update are dropped, as this run supersedes them. Each
    /// answering worker's live statistics are overwritten in place with the
    /// converged quality — which already blends the golden/prior evidence —
    /// and the run's Eq. 5 denominator `û_k + Σ_{t∈T(w)} r^t_k` as the
    /// weight, keeping Theorem 1's bookkeeping exact. The run extends the
    /// engine's run index by the answers since its last run; its scratch is
    /// this thread's full-inference workspace, shared by every engine the
    /// thread runs.
    ///
    /// Read the results back through [`IncrementalTi::states`],
    /// [`IncrementalTi::truths`] and [`IncrementalTi::registry`]; what is
    /// returned is the per-iteration Δ series of the run.
    pub fn run_full(&mut self) -> &[f64] {
        self.supersede();
        self.converge();
        &self.deltas
    }

    /// A finished campaign's last full run: [`IncrementalTi::run_full`],
    /// then the run index is released, as no periodic run follows. Should
    /// one ever be needed, the empty index rebuilds from empty, as a
    /// restored engine's does.
    pub fn run_final(&mut self) -> &[f64] {
        self.run_full();
        self.index = RunIndex::default();
        &self.deltas
    }

    /// The full run over the log less the pending queue, into the engine's
    /// states and live registry.
    fn converge(&mut self) {
        let m = self.registry.num_domains();
        with_workspace(|ws| {
            let run = self.ti.converge(
                &mut self.index,
                ws,
                LogPrefix::before(&self.log, &self.pending),
                &self.golden_registry,
                &mut self.states,
                &mut self.deltas,
            );
            for (w, &id) in run.workers.iter().enumerate() {
                let stats = self.registry.get_or_insert(id);
                stats
                    .quality
                    .copy_from_slice(&run.qualities[w * m..(w + 1) * m]);
                stats
                    .weight
                    .copy_from_slice(&run.weights[w * m..(w + 1) * m]);
            }
        });
        self.runs.executed += 1;
    }

    /// The Δ series of the last full run.
    #[cfg(test)]
    pub(super) fn last_deltas(&self) -> &[f64] {
        &self.deltas
    }

    /// The engine's full runs from now on under `config` instead of the
    /// default every engine is built with.
    #[cfg(test)]
    pub(super) fn with_config(mut self, config: TiConfig) -> Self {
        self.ti = TruthInference::new(config);
        self
    }

    /// The shape of the last full run: its run index's.
    #[cfg(test)]
    pub(super) fn run_shape(&self) -> super::iterative::RunShape {
        self.index.shape()
    }

    /// The run index the last full run left.
    #[cfg(test)]
    pub(super) fn index_image(&self) -> super::iterative::IndexImage {
        self.index.image()
    }

    /// The run counts since the last call, reset to zero.
    pub fn take_run_counts(&mut self) -> RunCounts {
        std::mem::take(&mut self.runs)
    }

    /// Captures the engine's full state for the durable runtime.
    pub fn snapshot(&self) -> TiSnapshot {
        self.assert_current();
        let config = self.ti.config();
        TiSnapshot {
            tasks: self.tasks.clone(),
            m_hat: self.states.all_m_hat().to_vec(),
            s: self.states.all_s().to_vec(),
            registry: self.registry.clone(),
            golden_registry: self.golden_registry.clone(),
            log: self.log.clone(),
            z: self.z,
            submissions: self.submissions,
            task_shards: self.sharding.num_shards(),
            shard_ingested: self.sharding.ingestion_counters().to_vec(),
            max_iterations: config.max_iterations,
            epsilon: config.epsilon,
        }
    }

    /// Rebuilds an engine from a snapshot, byte-identical to the captured
    /// one (continuing the same submission stream yields the same states).
    ///
    /// A snapshot is outside input (a WAL file, a replication frame), so
    /// one the kernels would index out of bounds is refused here, naming
    /// the field: tasks without a domain vector of one common length `m`
    /// or with fewer than two choices, registries over another `m` or
    /// holding statistics of another length, a golden registry whose prior
    /// quality is not the live one's, `m_hat` / `s` that do not fit
    /// the tasks' supports and `ℓ`, a `log` or `shard_ingested` that
    /// disagrees about the task or shard count, a `log` answer that names
    /// a task outside the campaign or a choice outside its task's `ℓ`, and
    /// a `max_iterations` or `epsilon` other than the default every engine
    /// is built with (`max_iterations = usize::MAX` would pin the thread
    /// in its next full run).
    pub fn restore(snapshot: TiSnapshot) -> Result<Self> {
        let refuse = |field: &str, what: String| {
            Err(docs_types::Error::Storage(format!(
                "snapshot field `{field}`: {what}"
            )))
        };
        let num_tasks = snapshot.tasks.len();
        // `m` is the tasks' domain-vector length; the registries must agree.
        let first = snapshot
            .tasks
            .first()
            .and_then(|t| t.domain_vector.as_ref());
        let m = first.map_or(snapshot.registry.num_domains(), |r| r.len());
        for (i, task) in snapshot.tasks.iter().enumerate() {
            let Some(r) = &task.domain_vector else {
                return refuse("tasks", format!("task {i} has no domain vector"));
            };
            if r.len() != m {
                return refuse(
                    "tasks",
                    format!(
                        "task {i}'s domain vector has {} entries, task 0's {m}",
                        r.len()
                    ),
                );
            }
            if task.num_choices() < 2 || task.id.index() != i {
                return refuse(
                    "tasks",
                    format!(
                        "task {i} has id {} and {} choices",
                        task.id,
                        task.num_choices()
                    ),
                );
            }
        }
        for (field, registry) in [
            ("registry", &snapshot.registry),
            ("golden_registry", &snapshot.golden_registry),
        ] {
            if registry.num_domains() != m {
                return refuse(
                    field,
                    format!(
                        "{} domains, the tasks' domain vectors {m}",
                        registry.num_domains()
                    ),
                );
            }
            for (w, stats) in registry.iter() {
                if stats.quality.len() != m || stats.weight.len() != m {
                    return refuse(
                        field,
                        format!(
                            "worker {w} has {} qualities and {} weights over {m} domains",
                            stats.quality.len(),
                            stats.weight.len()
                        ),
                    );
                }
            }
        }
        // A golden grading is computed once, under the live registry's
        // prior, and copied into the golden registry: the two must agree.
        let (live, golden) = (&snapshot.registry, &snapshot.golden_registry);
        if golden.prior_quality().to_bits() != live.prior_quality().to_bits() {
            return refuse(
                "golden_registry",
                format!(
                    "prior quality {}, the live registry's {}",
                    golden.prior_quality(),
                    live.prior_quality()
                ),
            );
        }
        let mut states = TaskArena::for_tasks(m, &snapshot.tasks);
        let task_shards = snapshot.task_shards.max(1);
        for (field, found, expected) in [
            ("m_hat", snapshot.m_hat.len(), states.all_m_hat().len()),
            ("s", snapshot.s.len(), states.all_s().len()),
            ("log", snapshot.log.num_tasks(), num_tasks),
            ("shard_ingested", snapshot.shard_ingested.len(), task_shards),
        ] {
            if found != expected {
                return refuse(field, format!("expected {expected} entries, found {found}"));
            }
        }
        // Both views of the log index the kernels' per-task slices: every
        // answer must name a task of the campaign and one of its choices.
        let choices = |t: TaskId| snapshot.tasks.get(t.index()).map(Task::num_choices);
        let by_task = snapshot
            .log
            .iter_tasks()
            .flat_map(|(t, votes)| votes.iter().map(move |&(w, choice)| (t, w, choice)));
        let by_worker = snapshot.log.workers().flat_map(|w| {
            let answered = snapshot.log.worker_answers(w).iter();
            answered.map(move |&(t, choice)| (t, w, choice))
        });
        for (t, w, choice) in by_task.chain(by_worker) {
            match choices(t) {
                Some(l) if choice < l => {}
                Some(l) => {
                    return refuse(
                        "log",
                        format!("worker {w} answered choice {choice} of {t}, which has {l}"),
                    )
                }
                None => {
                    return refuse(
                        "log",
                        format!("worker {w} answered {t}, beyond the {num_tasks} tasks"),
                    )
                }
            }
        }
        let config = TiConfig::default();
        if snapshot.max_iterations != config.max_iterations {
            let found = snapshot.max_iterations;
            let what = format!("{found}, not the default {}", config.max_iterations);
            return refuse("max_iterations", what);
        }
        if snapshot.epsilon.to_bits() != config.epsilon.to_bits() {
            let what = format!("{}, not the default {}", snapshot.epsilon, config.epsilon);
            return refuse("epsilon", what);
        }
        states.load(&snapshot.m_hat, &snapshot.s);
        Ok(IncrementalTi {
            sharding: ShardedTiState::restore(num_tasks, task_shards, snapshot.shard_ingested),
            tasks: snapshot.tasks,
            states,
            registry: snapshot.registry,
            golden_registry: snapshot.golden_registry,
            log: snapshot.log,
            z: snapshot.z,
            submissions: snapshot.submissions,
            ti: TruthInference::new(config),
            s_before: Vec::new(),
            deltas: Vec::new(),
            owed: false,
            pending: Vec::with_capacity(snapshot.z.min(num_tasks)),
            runs: RunCounts::default(),
            index: RunIndex::default(),
        })
    }

    /// Inferred truths under the current (incremental) states.
    pub fn truths(&self) -> Vec<ChoiceIndex> {
        self.assert_current();
        self.states.truths()
    }
}

/// An engine serializes as its [`TiSnapshot`]. The streamed encoding writes
/// the snapshot's fields, in its declaration order, straight from the live
/// state, so a durable snapshot costs no copy of the engine.
impl Serialize for IncrementalTi {
    fn encode<S: Sink + ?Sized>(&self, sink: &mut S) {
        self.assert_current();
        let config = self.ti.config();
        sink.map(12);
        sink.key("tasks");
        self.tasks.encode(sink);
        sink.key("m_hat");
        self.states.all_m_hat().encode(sink);
        sink.key("s");
        self.states.all_s().encode(sink);
        sink.key("registry");
        self.registry.encode(sink);
        sink.key("golden_registry");
        self.golden_registry.encode(sink);
        sink.key("log");
        self.log.encode(sink);
        sink.key("z");
        self.z.encode(sink);
        sink.key("submissions");
        self.submissions.encode(sink);
        sink.key("task_shards");
        self.sharding.num_shards().encode(sink);
        sink.key("shard_ingested");
        self.sharding.ingestion_counters().encode(sink);
        sink.key("max_iterations");
        config.max_iterations.encode(sink);
        sink.key("epsilon");
        config.epsilon.encode(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_types::{DomainVector, TaskBuilder};

    fn make_tasks(n: usize, m: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("t{i}"))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_domain_vector(DomainVector::one_hot(m, i % m))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn ans(t: usize, w: usize, c: usize) -> Answer {
        Answer {
            task: TaskId::from(t),
            worker: WorkerId::from(w),
            choice: c,
        }
    }

    #[test]
    fn incremental_step1_matches_batch_recompute() {
        let tasks = make_tasks(4, 2);
        let registry = WorkerRegistry::new(2, 0.7);
        let mut inc = IncrementalTi::new(tasks.clone(), registry.clone(), 0);
        // Workers answer with fixed qualities: since registry holds priors
        // and the incremental step uses the *current* quality, replaying the
        // same sequence against TaskArena::apply_answer must agree.
        let stream = [ans(0, 0, 0), ans(0, 1, 1), ans(1, 0, 1), ans(0, 2, 0)];
        let mut shadow = TaskArena::for_tasks(2, &tasks[..1]);
        for a in stream {
            let q = inc.registry().quality(a.worker);
            if a.task.index() == 0 {
                shadow.apply_answer(0, &q, a.choice);
            }
            inc.submit(a).unwrap();
        }
        for j in 0..2 {
            assert!((inc.state(TaskId(0)).s()[j] - shadow.view(0).s()[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_submission_rejected() {
        let tasks = make_tasks(2, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 0);
        inc.submit(ans(0, 0, 0)).unwrap();
        assert!(inc.submit(ans(0, 0, 1)).is_err());
        assert_eq!(inc.submissions(), 1);
    }

    #[test]
    fn invalid_choice_rejected_before_any_mutation() {
        let tasks = make_tasks(2, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 0);
        assert!(inc.submit(ans(0, 0, 7)).is_err());
        assert_eq!(inc.log().len(), 0);
        assert_eq!(inc.submissions(), 0);
    }

    #[test]
    fn quality_updates_move_in_right_direction() {
        let tasks = make_tasks(2, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 0);
        // Three agreeing answers on task 0 (domain 0, truth 0): all three
        // workers should end with domain-0 quality above the 0.7 prior.
        for w in 0..3 {
            inc.submit(ans(0, w, 0)).unwrap();
        }
        for w in 0..3 {
            let q = inc.registry().quality(WorkerId(w));
            assert!(q[0] > 0.7, "worker {w}: {q:?}");
            // Domain 1 untouched (r_1 = 0 for task 0).
            assert!((q[1] - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn disagreeing_worker_loses_quality() {
        let tasks = make_tasks(2, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 0);
        inc.submit(ans(0, 0, 0)).unwrap();
        inc.submit(ans(0, 1, 0)).unwrap();
        inc.submit(ans(0, 2, 1)).unwrap(); // dissent
        let q_dissenter = inc.registry().quality(WorkerId(2));
        let q_majority = inc.registry().quality(WorkerId(0));
        assert!(q_dissenter[0] < q_majority[0]);
        assert!(q_dissenter[0] < 0.7);
    }

    #[test]
    fn periodic_full_inference_triggers() {
        let tasks = make_tasks(4, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 3);
        assert!(!inc.submit(ans(0, 0, 0)).unwrap());
        assert!(!inc.submit(ans(1, 0, 1)).unwrap());
        assert!(inc.submit(ans(2, 0, 0)).unwrap()); // 3rd submission → full run
        assert!(!inc.submit(ans(3, 0, 1)).unwrap());
    }

    #[test]
    fn full_run_matches_standalone_iterative() {
        let tasks = make_tasks(6, 2);
        let registry = WorkerRegistry::new(2, 0.7);
        let mut inc = IncrementalTi::new(tasks.clone(), registry.clone(), 0);
        let mut log = AnswerLog::new(6);
        for t in 0..6 {
            for w in 0..3 {
                let choice = if w == 2 { 1 - (t % 2) } else { t % 2 };
                let a = ans(t, w, choice);
                inc.submit(a).unwrap();
                log.record(a).unwrap();
            }
        }
        let deltas = inc.run_full();
        let standalone = TruthInference::default().run(&tasks, &log, &registry);
        assert_eq!(deltas, standalone.deltas);
        assert_eq!(inc.truths(), standalone.truths);
        // The engine's states and live registry were overwritten with the
        // converged ones, and each weight is the prior weight (0 here) plus
        // `Σ_{t ∈ T(w)} r^t_k`.
        for (live, converged) in inc.states().iter().zip(standalone.states.iter()) {
            assert_eq!(live.s(), converged.s());
        }
        for (w, q) in &standalone.qualities {
            let stats = inc.registry().get(*w).unwrap();
            assert_eq!(&stats.quality, q);
            let answered = log.worker_answers(*w);
            let weight: Vec<f64> = (0..2)
                .map(|k| {
                    answered
                        .iter()
                        .fold(0.0, |u, &(t, _)| u + tasks[t.index()].domain_vector()[k])
                })
                .collect();
            assert_eq!(stats.weight, weight, "{w}");
        }
    }

    #[test]
    fn accuracy_tracks_ground_truth() {
        let tasks = make_tasks(4, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.8), 0);
        for t in 0..4 {
            for w in 0..3 {
                inc.submit(ans(t, w, t % 2)).unwrap();
            }
        }
        let truths: Vec<_> = (0..4).map(|t| t % 2).collect();
        assert_eq!(inc.truths(), truths);
    }

    #[test]
    fn snapshot_restore_roundtrips_through_json_and_stays_byte_identical() {
        let tasks = make_tasks(6, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 4).with_shards(3);
        let golden_info = |_tid: TaskId| (DomainVector::one_hot(2, 0), 0usize);
        inc.init_worker_from_golden(WorkerId(0), &[(TaskId(0), 0)], golden_info, 1.0);
        let stream = [ans(0, 0, 0), ans(1, 1, 1), ans(2, 0, 0), ans(0, 1, 0)];
        for a in stream {
            inc.submit(a).unwrap();
        }
        // Snapshot → JSON → restore must reproduce every float exactly.
        let json = serde_json::to_vec(&inc.snapshot()).unwrap();
        let mut restored = IncrementalTi::restore(serde_json::from_slice(&json).unwrap()).unwrap();
        assert_eq!(restored.submissions(), inc.submissions());
        assert_eq!(restored.log().len(), inc.log().len());
        assert_eq!(restored.sharding().num_shards(), 3);
        assert_eq!(
            restored.sharding().ingestion_counters(),
            inc.sharding().ingestion_counters()
        );
        for (a, b) in inc.states().iter().zip(restored.states().iter()) {
            assert_eq!(a.s(), b.s(), "restored s_i must be byte-identical");
        }
        // Continuing the same stream on both engines diverges nowhere —
        // including the z-periodic full inference (z = 4 fires here).
        let tail = [ans(3, 0, 1), ans(4, 2, 0), ans(5, 1, 1)];
        for a in tail {
            inc.submit(a).unwrap();
            restored.submit(a).unwrap();
        }
        assert_eq!(inc.truths(), restored.truths());
        for (a, b) in inc.states().iter().zip(restored.states().iter()) {
            assert_eq!(a.s(), b.s());
        }
        for (w, stats) in inc.registry().iter() {
            assert_eq!(stats, restored.registry().get(w).unwrap());
        }
    }

    /// The engine's streamed encoding is its snapshot's record, byte for
    /// byte, fresh and after answers from workers 2 and 10 (whose keys sort
    /// as the strings "10" < "2").
    #[test]
    fn the_engine_encodes_as_its_snapshot() {
        use docs_types::codec;
        let tasks = make_tasks(6, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 4).with_shards(2);
        assert_eq!(codec::to_bytes(&inc), codec::to_bytes(&inc.snapshot()));
        let golden_info = |_tid: TaskId| (DomainVector::one_hot(2, 0), 0usize);
        inc.init_worker_from_golden(WorkerId(10), &[(TaskId(0), 0)], golden_info, 1.0);
        for a in [
            ans(0, 2, 0),
            ans(1, 10, 1),
            ans(2, 2, 0),
            ans(0, 10, 0),
            ans(3, 2, 1),
        ] {
            inc.submit(a).unwrap();
        }
        assert_eq!(codec::to_bytes(&inc), codec::to_bytes(&inc.snapshot()));
    }

    #[test]
    fn submit_batch_matches_individual_submissions_exactly() {
        let tasks = make_tasks(6, 2);
        // z = 4: the periodic full inference fires *inside* the batch.
        let mut one_by_one = IncrementalTi::new(tasks.clone(), WorkerRegistry::new(2, 0.7), 4);
        let mut batched = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 4).with_shards(3);
        let stream = [
            ans(0, 0, 0),
            ans(1, 1, 1),
            ans(0, 1, 0),
            ans(2, 0, 1),
            ans(1, 0, 1),
            ans(3, 2, 0),
        ];
        for a in stream {
            one_by_one.submit(a).unwrap();
        }
        batched.submit_batch(&stream).unwrap();
        assert_eq!(batched.submissions(), one_by_one.submissions());
        assert_eq!(batched.truths(), one_by_one.truths());
        for (a, b) in one_by_one.states().iter().zip(batched.states().iter()) {
            assert_eq!(a.s(), b.s(), "batch application must be byte-identical");
        }
        for (w, stats) in one_by_one.registry().iter() {
            assert_eq!(stats, batched.registry().get(w).unwrap());
        }
    }

    /// Recording a stream and paying what it owes at any points computes
    /// what submitting it answer by answer computes, bit for bit: with
    /// `z = 4` the reads land before, on and after the crossings at the
    /// 4th and 8th answers, with empty and non-empty pending queues.
    #[test]
    fn owed_inference_paid_at_any_point_matches_submission() {
        use docs_types::codec;
        let stream = [
            ans(0, 0, 0),
            ans(1, 1, 1),
            ans(0, 1, 0),
            ans(2, 0, 1),
            ans(1, 0, 1),
            ans(3, 2, 0),
            ans(0, 2, 1),
            ans(4, 1, 0),
            ans(5, 0, 1),
            ans(2, 2, 0),
            ans(4, 0, 1),
        ];
        let engine = || IncrementalTi::new(make_tasks(6, 2), WorkerRegistry::new(2, 0.7), 4);
        let mut eager = engine();
        let every: Vec<Vec<u8>> = stream
            .iter()
            .map(|&a| {
                eager.submit(a).unwrap();
                codec::to_bytes(&eager)
            })
            .collect();
        for read_every in [1, 2, 3, 5, 11] {
            let mut lazy = engine();
            for (i, &a) in stream.iter().enumerate() {
                lazy.record(a).unwrap();
                if (i + 1) % read_every == 0 {
                    lazy.materialize();
                    assert_eq!(codec::to_bytes(&lazy), every[i], "read after {i}");
                }
            }
        }
    }

    /// A crossing drops the run owed before it, and `run_full` drops what
    /// is owed; each dropped run counts as superseded, each run paid or
    /// called as executed.
    #[test]
    fn a_later_run_supersedes_the_owed_one() {
        let mut inc = IncrementalTi::new(make_tasks(6, 2), WorkerRegistry::new(2, 0.7), 2);
        for t in 0..5 {
            assert_eq!(inc.record(ans(t, 0, 0)).unwrap(), t % 2 == 1);
        }
        let runs = inc.take_run_counts();
        assert_eq!((runs.executed, runs.superseded), (0, 1));
        inc.materialize();
        inc.materialize();
        assert_eq!(inc.take_run_counts().executed, 1, "paid once");
        inc.record(ans(5, 0, 0)).unwrap();
        inc.run_full();
        let runs = inc.take_run_counts();
        assert_eq!((runs.executed, runs.superseded), (1, 1));
    }

    /// Golden grading writes both registries, which an owed run and the
    /// pending updates read, so it pays them first: grading a worker who
    /// already answered, with a run owed and an update pending, leaves the
    /// engine that paid at every answer's bytes.
    #[test]
    fn golden_grading_pays_what_is_owed_first() {
        use docs_types::codec;
        let engine = || IncrementalTi::new(make_tasks(4, 2), WorkerRegistry::new(2, 0.7), 2);
        let stream = [ans(0, 0, 0), ans(1, 0, 1), ans(2, 0, 0)];
        let golden = [(TaskId(1), 1), (TaskId(3), 0)];
        let mut eager = engine();
        let mut lazy = engine();
        for a in stream {
            eager.submit(a).unwrap();
            lazy.record(a).unwrap();
        }
        eager
            .grade_worker_on_golden(WorkerId(0), &golden, 1.0)
            .unwrap();
        lazy.grade_worker_on_golden(WorkerId(0), &golden, 1.0)
            .unwrap();
        lazy.materialize();
        assert_eq!(codec::to_bytes(&lazy), codec::to_bytes(&eager));
    }

    /// A reader of the inference with work owed panics instead of serving
    /// the stale state; the counters it need not pay for stay readable.
    #[test]
    #[should_panic(expected = "materialize first")]
    fn reading_owed_inference_panics() {
        let mut inc = IncrementalTi::new(make_tasks(2, 2), WorkerRegistry::new(2, 0.7), 0);
        inc.record(ans(0, 0, 0)).unwrap();
        assert_eq!((inc.submissions(), inc.known_workers()), (1, 1));
        inc.truths();
    }

    #[test]
    fn submit_batch_stops_at_the_first_rejection() {
        let tasks = make_tasks(4, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.7), 0);
        let stream = [
            ans(0, 0, 0),
            ans(0, 0, 1), // duplicate: aborts here
            ans(1, 0, 0), // never applied
        ];
        assert!(inc.submit_batch(&stream).is_err());
        assert_eq!(inc.submissions(), 1, "prefix before the rejection applied");
        assert_eq!(inc.log().len(), 1);
    }

    /// Restore refuses, naming the field, every snapshot whose shapes the
    /// kernels would index out of bounds — none of these may restore and
    /// then panic on the first answer.
    #[test]
    fn restore_refuses_shapes_the_kernels_cannot_serve() {
        let mut inc = IncrementalTi::new(make_tasks(4, 3), WorkerRegistry::new(3, 0.7), 0);
        inc.submit(ans(1, 0, 1)).unwrap();
        let good = inc.snapshot();
        assert!(IncrementalTi::restore(good.clone()).is_ok(), "control");
        // The log with its per-worker view edited as JSON text, which only a
        // hand-made record can do: that view stops agreeing with `V(i)`.
        fn worker_view(log: &AnswerLog, from: &str, to: &str) -> AnswerLog {
            let json = serde_json::to_string(log).unwrap();
            let (head, view) = json.split_once("\"by_worker\"").unwrap();
            assert!(view.contains(from), "{json}");
            let edited = format!("{head}\"by_worker\"{}", view.replace(from, to));
            serde_json::from_str(&edited).unwrap()
        }
        type Tamper = fn(&mut TiSnapshot);
        let cases: [(&str, Tamper); 16] = [
            ("registry", |s| s.registry = WorkerRegistry::new(2, 0.7)),
            ("golden_registry", |s| {
                s.golden_registry = WorkerRegistry::new(4, 0.7)
            }),
            ("registry", |s| {
                s.registry.get_or_insert(WorkerId(0)).quality.pop();
            }),
            ("golden_registry", |s| {
                s.golden_registry
                    .get_or_insert(WorkerId(3))
                    .weight
                    .push(1.0);
            }),
            ("golden_registry", |s| {
                s.golden_registry = WorkerRegistry::new(3, 0.5)
            }),
            ("tasks", |s| s.tasks[2].domain_vector = None),
            ("tasks", |s| {
                s.tasks[3].domain_vector = Some(DomainVector::one_hot(2, 0))
            }),
            ("tasks", |s| s.tasks[1].choices.truncate(1)),
            ("m_hat", |s| {
                s.m_hat.pop();
            }),
            ("s", |s| s.s.push(0.5)),
            ("log", |s| s.log = AnswerLog::new(3)),
            // Recorded without a task set to check against, so any choice
            // goes in; full inference would index `s` with it.
            ("log", |s| s.log.record(ans(3, 9, 7)).unwrap()),
            // Worker 0's answer to task 1, moved to task 9 / choice 7.
            ("log", |s| s.log = worker_view(&s.log, "[[1,1]]", "[[9,1]]")),
            ("log", |s| s.log = worker_view(&s.log, "[[1,1]]", "[[1,7]]")),
            // A run capped at `usize::MAX` iterations, or that never meets
            // a NaN threshold, would hold its thread.
            ("max_iterations", |s| s.max_iterations = usize::MAX),
            ("epsilon", |s| s.epsilon = f64::NAN),
        ];
        for (field, tamper) in cases {
            let mut snapshot = good.clone();
            tamper(&mut snapshot);
            let err = IncrementalTi::restore(snapshot)
                .err()
                .unwrap_or_else(|| panic!("tampered `{field}` restored"));
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
        }
    }

    /// A golden submission that names one task twice would count its label
    /// twice; it is refused, naming the repeated task, and neither registry
    /// changes. Named once each, the same tasks grade the worker, and both
    /// registries hold the same entry.
    #[test]
    fn a_golden_submission_naming_a_task_twice_is_refused() {
        let mut inc = IncrementalTi::new(make_tasks(4, 2), WorkerRegistry::new(2, 0.7), 0);
        let w = WorkerId(3);
        let twice = [(TaskId(0), 0), (TaskId(2), 0), (TaskId(0), 0)];
        assert_eq!(
            inc.grade_worker_on_golden(w, &twice, 1.0),
            Err(Error::DuplicateAnswer {
                task: TaskId(0),
                worker: w
            })
        );
        assert!(!inc.registry().contains(w) && !inc.golden_registry.contains(w));
        inc.grade_worker_on_golden(w, &twice[..2], 1.0).unwrap();
        let graded = inc.registry().get(w).unwrap();
        // Domain 0: (0.7·1 + 1 + 1) / (1 + 1 + 1) = 0.9.
        assert_eq!(graded.quality, [0.9, 0.7]);
        assert_eq!(graded.weight, [2.0, 0.0]);
        assert_eq!(inc.golden_registry.get(w), Some(graded));
    }

    #[test]
    fn golden_init_feeds_full_runs() {
        let tasks = make_tasks(2, 2);
        let mut inc = IncrementalTi::new(tasks, WorkerRegistry::new(2, 0.5), 0);
        let golden_info = |_tid: TaskId| (DomainVector::one_hot(2, 0), 0usize);
        inc.init_worker_from_golden(WorkerId(0), &[(TaskId(0), 0)], golden_info, 1.0);
        let q = inc.registry().quality(WorkerId(0));
        assert!(q[0] > 0.5);
        // The golden registry feeds run_full as the initial point.
        inc.submit(ans(0, 0, 0)).unwrap();
        inc.run_full();
        assert!(inc.registry().quality(WorkerId(0))[0] > 0.5);
    }
}
