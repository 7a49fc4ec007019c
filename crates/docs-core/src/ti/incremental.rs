//! The incremental truth-inference approach of Section 4.2.
//!
//! When a worker submits one answer, only the parameters most related to the
//! task and the worker change: the task's `M^{(i)}`/`s_i` (via the stored
//! numerator `M̂^{(i)}`) and the qualities of the submitting worker and of
//! the workers who answered the task before. The update costs
//! `O(|support| · ℓ + m · |V(i)|)`, so it keeps up with high-velocity
//! answer streams; the full iterative approach is re-run every `z`
//! submissions (`z = 100` in DOCS) to restore full accuracy.

use super::iterative::{Converged, TiConfig, TruthInference};
use super::sharded::ShardedTiState;
use super::state::{TaskArena, TaskView};
use super::stats::WorkerRegistry;
use docs_types::{Answer, AnswerLog, ChoiceIndex, Result, Task, TaskId, WorkerId};
use serde::{Deserialize, Serialize};

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
    /// Scratch of [`IncrementalTi::submit`]: the task's truth before the
    /// answer is applied.
    s_before: Vec<f64>,
}

impl IncrementalTi {
    /// Creates the engine. `z` is the full-inference period (the paper uses
    /// `z = 100`).
    ///
    /// # Panics
    /// Panics if a task lacks its domain vector or that vector is not of the
    /// registry's length `m`.
    pub fn new(tasks: Vec<Task>, registry: WorkerRegistry, z: usize) -> Self {
        let states = TaskArena::for_tasks(registry.num_domains(), &tasks);
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
    pub fn states(&self) -> &TaskArena {
        &self.states
    }

    /// State of one task.
    pub fn state(&self, task: TaskId) -> TaskView<'_> {
        self.states.view(task.index())
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
    pub fn assign_view(&self) -> (&[Task], &TaskArena, &AnswerLog, &ShardedTiState, ()) {
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
        // The pre-update truth s̃_i, for revising the earlier answerers.
        self.s_before.clear();
        self.s_before.extend_from_slice(self.states.view(i).s());

        // Step 1 (incremental): update M̂^{(i)}, M^{(i)}, s_i.
        let submitter = self.registry.get_or_insert(answer.worker);
        self.states
            .apply_answer(i, &submitter.quality, answer.choice);
        let s_after = self.states.view(i).s();

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

    /// Runs the full iterative approach over everything received so far,
    /// converging into the engine's own states (no per-run state is
    /// allocated). Each answering worker's live statistics are overwritten
    /// in place with the converged quality — which already blends the
    /// golden/prior evidence — and the run's Eq. 5 denominator
    /// `û_k + Σ_{t∈T(w)} r^t_k` as the weight, keeping Theorem 1's
    /// bookkeeping exact.
    ///
    /// Read the results back through [`IncrementalTi::states`],
    /// [`IncrementalTi::truths`] and [`IncrementalTi::registry`]; what is
    /// returned is the per-iteration Δ series of the run.
    pub fn run_full(&mut self) -> Vec<f64> {
        let Converged {
            workers,
            qualities,
            weights,
            deltas,
        } = self.ti.converge(
            &self.tasks,
            &self.log,
            &self.golden_registry,
            &mut self.states,
        );
        let m = self.registry.num_domains();
        for (w, &id) in workers.iter().enumerate() {
            let stats = self.registry.get_or_insert(id);
            stats
                .quality
                .copy_from_slice(&qualities[w * m..(w + 1) * m]);
            stats.weight.copy_from_slice(&weights[w * m..(w + 1) * m]);
        }
        deltas
    }

    /// Captures the engine's full state for the durable runtime.
    pub fn snapshot(&self) -> TiSnapshot {
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
    /// holding statistics of another length, `m_hat` / `s` that do not fit
    /// the tasks' supports and `ℓ`, and a `log` or `shard_ingested` that
    /// disagrees about the task or shard count.
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
            ti: TruthInference::new(TiConfig {
                max_iterations: snapshot.max_iterations,
                epsilon: snapshot.epsilon,
            }),
            s_before: Vec::new(),
        })
    }

    /// Inferred truths under the current (incremental) states.
    pub fn truths(&self) -> Vec<ChoiceIndex> {
        self.states.truths()
    }

    /// Accuracy of the current truths against task ground truth.
    pub fn accuracy(&self) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (task, state) in self.tasks.iter().zip(self.states.iter()) {
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
        type Tamper = fn(&mut TiSnapshot);
        let cases: [(&str, Tamper); 10] = [
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
