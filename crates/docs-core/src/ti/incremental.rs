//! The incremental truth-inference approach of Section 4.2.
//!
//! When a worker submits one answer, only the parameters most related to the
//! task and the worker change: the task's `M^{(i)}`/`s_i` (via the stored
//! numerator `M̂^{(i)}`) and the qualities of the submitting worker and of
//! the workers who answered the task before. The update costs
//! `O(m · |V(i)|)`, so it keeps up with high-velocity answer streams; the
//! full iterative approach is re-run every `z` submissions (`z = 100` in
//! DOCS) to restore full accuracy.

use super::iterative::{TiConfig, TiResult, TruthInference};
use super::sharded::ShardedTiState;
use super::state::TaskState;
use super::stats::WorkerRegistry;
use docs_types::{Answer, AnswerLog, ChoiceIndex, Result, Task, TaskId, WorkerId};
use serde::{Deserialize, Serialize};

/// The full serializable state of an [`IncrementalTi`] engine — everything
/// Section 4.2 stores in the parameter database plus the bookkeeping the
/// engine needs to resume mid-stream (`submissions` for the periodic full
/// inference, the sharded-scan geometry, the iterative-approach knobs).
///
/// Restoring a snapshot and continuing a submission stream produces the
/// same states as never having stopped: every field either round-trips
/// exactly (floats use shortest-round-trip JSON) or is a pure function of
/// the others.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TiSnapshot {
    /// Published tasks with their DVE-filled domain vectors.
    pub tasks: Vec<Task>,
    /// Per-task inference state (`M̂`, `M`, `s`).
    pub states: Vec<TaskState>,
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

/// Online inference engine maintaining per-task state and worker statistics
/// across a stream of answer submissions.
#[derive(Debug, Clone)]
pub struct IncrementalTi {
    tasks: Vec<Task>,
    states: Vec<TaskState>,
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
    /// Scratch of [`IncrementalTi::submit`]: the task's truth before the
    /// answer is applied.
    s_before: Vec<f64>,
}

impl IncrementalTi {
    /// Creates the engine. Every task must already carry its domain vector.
    /// `z` is the full-inference period (the paper uses `z = 100`).
    pub fn new(tasks: Vec<Task>, registry: WorkerRegistry, z: usize) -> Self {
        let m = registry.num_domains();
        let states = tasks
            .iter()
            .map(|t| TaskState::new(m, t.num_choices()))
            .collect();
        let log = AnswerLog::new(tasks.len());
        let sharding = ShardedTiState::new(tasks.len(), 1);
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
    pub fn states(&self) -> &[TaskState] {
        &self.states
    }

    /// State of one task.
    pub fn state(&self, task: TaskId) -> &TaskState {
        &self.states[task.index()]
    }

    /// Live worker statistics.
    pub fn registry(&self) -> &WorkerRegistry {
        &self.registry
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
    pub fn assign_view(&self) -> (&[Task], &[TaskState], &AnswerLog, &ShardedTiState, ()) {
        (&self.tasks, &self.states, &self.log, &self.sharding, ())
    }

    /// Number of submissions processed.
    pub fn submissions(&self) -> usize {
        self.submissions
    }

    /// Registers a worker's golden-task performance (Section 5.2): both the
    /// live statistics and the baseline used by periodic full re-inference.
    pub fn init_worker_from_golden(
        &mut self,
        worker: WorkerId,
        golden_answers: &[(TaskId, ChoiceIndex)],
        task_info: impl Fn(TaskId) -> (docs_types::DomainVector, ChoiceIndex) + Copy,
        smoothing: f64,
    ) {
        self.registry
            .init_from_golden(worker, golden_answers, task_info, smoothing);
        self.golden_registry
            .init_from_golden(worker, golden_answers, task_info, smoothing);
    }

    /// Processes one answer submission with the O(m·|V(i)|) update policy.
    /// Returns `true` when the periodic full inference ran afterwards.
    pub fn submit(&mut self, answer: Answer) -> Result<bool> {
        let i = answer.task.index();
        if i >= self.tasks.len() {
            return Err(docs_types::Error::UnknownTask(answer.task));
        }
        self.tasks[i].check_choice(answer.choice)?;
        self.log.record(answer)?;

        // Sharded ingestion: only the owning shard's state is touched below.
        self.sharding.record_ingest(answer.task);

        let r = self.tasks[i].domain_vector();
        let state = &mut self.states[i];
        // The pre-update truth s̃_i, for revising the earlier answerers.
        self.s_before.clear();
        self.s_before.extend_from_slice(state.s());

        // Step 1 (incremental): update M̂^{(i)}, M^{(i)}, s_i.
        let submitter = self.registry.get_or_insert(answer.worker);
        state.apply_answer(r, &submitter.quality, answer.choice);
        let s_after = state.s();

        // Step 2 (incremental): the submitting worker absorbs the new task…
        submitter.absorb_answer(r, s_after[answer.choice]);
        // …and every earlier answerer's quality is revised for the moved
        // truth probability of their recorded choice.
        let (_, prior) = self
            .log
            .task_answers(answer.task)
            .split_last()
            .expect("the answer was just recorded");
        for &(w_prev, j) in prior {
            self.registry
                .get_or_insert(w_prev)
                .revise_answer(r, self.s_before[j], s_after[j]);
        }

        self.submissions += 1;
        if self.z > 0 && self.submissions.is_multiple_of(self.z) {
            self.run_full();
            return Ok(true);
        }
        Ok(false)
    }

    /// Processes a batch of answers, strictly in order through
    /// [`IncrementalTi::submit`] (so the z-periodic full inference fires at
    /// exactly the same points as individual submissions — replaying a
    /// logged batch is byte-identical to having served it live). The first
    /// rejected answer aborts the batch with its error; the already-applied
    /// prefix stays applied. Callers that must not see a partial batch
    /// validate every answer first (the durable service does).
    pub fn submit_batch(&mut self, answers: &[Answer]) -> Result<()> {
        for &answer in answers {
            self.submit(answer)?;
        }
        Ok(())
    }

    /// Runs the full iterative approach over everything received so far and
    /// replaces the incremental estimates with the converged ones. Worker
    /// weights are rebuilt from the log (`u^w_k = Σ_{t∈T(w)} r^t_k`).
    ///
    /// The converged states and qualities move into the engine (read them
    /// back through [`IncrementalTi::states`], [`IncrementalTi::truths`] and
    /// [`IncrementalTi::registry`]); what is returned is the per-iteration
    /// Δ series of the run.
    pub fn run_full(&mut self) -> Vec<f64> {
        let TiResult {
            states,
            qualities,
            deltas,
            ..
        } = self.ti.run(&self.tasks, &self.log, &self.golden_registry);
        self.states = states;
        // Replace worker statistics: converged quality (which already blends
        // the golden/prior evidence) with weight = prior weight + batch
        // weight, keeping Theorem 1's bookkeeping exact.
        let m = self.registry.num_domains();
        for (w, quality) in qualities {
            let mut weight = self
                .golden_registry
                .get(w)
                .map(|s| s.weight.clone())
                .unwrap_or_else(|| vec![0.0; m]);
            for &(tid, _) in self.log.worker_answers(w) {
                let r = self.tasks[tid.index()].domain_vector();
                for k in 0..m {
                    weight[k] += r[k];
                }
            }
            self.registry
                .put(w, super::stats::WorkerStats { quality, weight });
        }
        deltas
    }

    /// Captures the engine's full state for the durable runtime.
    pub fn snapshot(&self) -> TiSnapshot {
        let config = self.ti.config();
        TiSnapshot {
            tasks: self.tasks.clone(),
            states: self.states.clone(),
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
    /// parts that disagree about the task count (`states`, `log`) or the
    /// shard count (`shard_ingested`) are refused here, naming the field —
    /// the scan and ingestion index all three without further checks.
    pub fn restore(snapshot: TiSnapshot) -> Result<Self> {
        let num_tasks = snapshot.tasks.len();
        let task_shards = snapshot.task_shards.max(1);
        for (field, found, expected) in [
            ("states", snapshot.states.len(), num_tasks),
            ("log", snapshot.log.num_tasks(), num_tasks),
            ("shard_ingested", snapshot.shard_ingested.len(), task_shards),
        ] {
            if found != expected {
                return Err(docs_types::Error::Storage(format!(
                    "snapshot field `{field}`: expected {expected} entries, found {found}"
                )));
            }
        }
        Ok(IncrementalTi {
            sharding: ShardedTiState::restore(num_tasks, task_shards, snapshot.shard_ingested),
            tasks: snapshot.tasks,
            states: snapshot.states,
            registry: snapshot.registry,
            golden_registry: snapshot.golden_registry,
            log: snapshot.log,
            z: snapshot.z,
            submissions: snapshot.submissions,
            ti: TruthInference::new(TiConfig {
                max_iterations: snapshot.max_iterations,
                epsilon: snapshot.epsilon,
            }),
            s_before: Vec::new(),
        })
    }

    /// Inferred truths under the current (incremental) states.
    pub fn truths(&self) -> Vec<ChoiceIndex> {
        self.states.iter().map(|st| st.truth()).collect()
    }

    /// Accuracy of the current truths against task ground truth.
    pub fn accuracy(&self) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (task, state) in self.tasks.iter().zip(&self.states) {
            if let Some(gt) = task.ground_truth {
                total += 1;
                if gt == state.truth() {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
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
        // same sequence against TaskState::apply_answer must agree.
        let stream = [ans(0, 0, 0), ans(0, 1, 1), ans(1, 0, 1), ans(0, 2, 0)];
        let mut shadow = TaskState::new(2, 2);
        let r0 = tasks[0].domain_vector().clone();
        for a in stream {
            let q = inc.registry().quality(a.worker);
            if a.task.index() == 0 {
                shadow.apply_answer(&r0, &q, a.choice);
            }
            inc.submit(a).unwrap();
        }
        for j in 0..2 {
            assert!((inc.state(TaskId(0)).s()[j] - shadow.s()[j]).abs() < 1e-12);
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
        // converged ones.
        for (live, converged) in inc.states().iter().zip(&standalone.states) {
            assert_eq!(live.s(), converged.s());
        }
        for (w, q) in &standalone.qualities {
            assert_eq!(&inc.registry().quality(*w), q);
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
        assert_eq!(inc.accuracy(), 1.0);
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
        for (a, b) in inc.states().iter().zip(restored.states()) {
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
        for (a, b) in inc.states().iter().zip(restored.states()) {
            assert_eq!(a.s(), b.s());
        }
        for (w, stats) in inc.registry().iter() {
            assert_eq!(stats, restored.registry().get(w).unwrap());
        }
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
        for (a, b) in one_by_one.states().iter().zip(batched.states()) {
            assert_eq!(a.s(), b.s(), "batch application must be byte-identical");
        }
        for (w, stats) in one_by_one.registry().iter() {
            assert_eq!(stats, batched.registry().get(w).unwrap());
        }
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
