//! The [`Docs`] system object: requester API + platform request handlers.
//!
//! Since the durable-runtime refactor, every state change flows through the
//! deterministic [`Docs::apply`] transition over [`CampaignEvent`]s: the
//! public command methods ([`Docs::submit_answer`], [`Docs::submit_golden`],
//! [`Docs::finish`]) are thin wrappers that render their input into an
//! event and apply it. A campaign is therefore fully described by its
//! initial [`CampaignSnapshot`] plus the ordered event sequence — which is
//! exactly what the service's write-ahead log records, and what
//! [`Docs::restore`] + replay rebuild after a crash.

use crate::DocsConfig;
use docs_core::dve;
use docs_core::golden::select_golden_tasks;
use docs_core::ota::{Assigner, AssignerConfig};
use docs_core::ti::{IncrementalTi, TiSnapshot, WorkerRegistry, WorkerStats};
use docs_kb::{EntityLinker, KnowledgeBase};
use docs_storage::ParamStore;
use docs_types::{Answer, CampaignEvent, ChoiceIndex, Error, Result, Task, TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Response to a worker's task request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkRequest {
    /// New worker: answer these golden tasks first (submitted via
    /// [`Docs::submit_golden`]).
    Golden(Vec<TaskId>),
    /// Known worker: the OTA-selected HIT.
    Tasks(Vec<TaskId>),
    /// Budget consumed or nothing left for this worker.
    Done,
}

/// Final report returned to the requester.
#[derive(Debug, Clone)]
pub struct RequesterReport {
    /// Inferred truth per task.
    pub truths: Vec<ChoiceIndex>,
    /// Probabilistic truths `s_i`.
    pub truth_distributions: Vec<Vec<f64>>,
    /// Total answers collected.
    pub answers_collected: usize,
    /// Accuracy against ground truth where available (evaluation only).
    pub accuracy: f64,
}

/// A campaign's observable serving state — the read-path summary a
/// follower replica can answer locally (no mutation, no inference run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Published tasks.
    pub tasks: usize,
    /// Golden tasks selected at publish time.
    pub golden: usize,
    /// Ordinary (non-golden) answers collected so far.
    pub answers_collected: usize,
    /// Workers seen this session (passed the golden gate or submitted).
    pub seen_workers: usize,
    /// Workers with quality statistics in the registry (includes returning
    /// workers merged from the parameter database).
    pub known_workers: usize,
    /// Whether the collection budget is consumed.
    pub budget_exhausted: bool,
    /// Answers ingested per task shard (length = `task_shards`) — the
    /// ingestion-balance view of the sharded TI scan.
    pub shard_ingestion: Vec<u64>,
}

/// Per-answer outcome of [`Docs::submit_answer_batch`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchSubmitReport {
    /// Answers accepted and applied, in submission order.
    pub accepted: usize,
    /// Rejected answers: their position in the submitted batch and why.
    pub rejected: Vec<(usize, Error)>,
}

/// The full serializable state of a campaign's [`Docs`] state machine —
/// what the durable runtime writes as the base of a campaign's log and
/// periodically refreshes to truncate it.
///
/// `seen_workers` is stored sorted so snapshots of equal states are
/// byte-identical regardless of insertion history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSnapshot {
    /// The inference engine's state (tasks, per-task state, registries,
    /// answer log, scan geometry).
    pub engine: TiSnapshot,
    /// The selected golden task ids.
    pub golden_ids: Vec<TaskId>,
    /// Workers seen this session, ascending.
    pub seen_workers: Vec<WorkerId>,
    /// The publish-time configuration.
    pub config: DocsConfig,
}

/// Refuses a configuration the request path cannot serve: OTA assigns
/// `k_per_hit` tasks per request and needs at least one.
fn check_config(config: &DocsConfig) -> Result<()> {
    if config.k_per_hit == 0 {
        return Err(Error::Storage(
            "config field `k_per_hit`: a HIT needs at least 1 task, found 0".into(),
        ));
    }
    Ok(())
}

/// The deployed DOCS system for one requester batch.
#[derive(Debug)]
pub struct Docs {
    engine: IncrementalTi,
    golden_ids: Vec<TaskId>,
    seen_workers: HashSet<WorkerId>,
    config: DocsConfig,
    store: Option<ParamStore>,
}

impl Docs {
    /// Publishes a requester's tasks: runs DVE over the KB, selects golden
    /// tasks, opens the parameter database, and merges any stored history
    /// of returning workers (Theorem 1).
    ///
    /// Tasks may arrive without domain vectors — DVE fills them. Golden
    /// tasks must have ground truth (the paper has them manually labeled);
    /// `publish` verifies this after selection.
    pub fn publish(kb: &KnowledgeBase, mut tasks: Vec<Task>, config: DocsConfig) -> Result<Self> {
        check_config(&config)?;
        if tasks.is_empty() {
            return Err(Error::Empty("task set"));
        }
        let m = kb.num_domains();
        // ① DVE.
        let linker = EntityLinker::new(kb, config.linker);
        for task in &mut tasks {
            if task.domain_vector.is_none() {
                let entities = linker.link(&task.text);
                task.domain_vector = Some(dve::domain_vector(&entities, m));
            }
        }
        // ② Golden selection.
        let golden_ids = select_golden_tasks(&tasks, config.num_golden);
        for &gid in &golden_ids {
            if tasks[gid.index()].ground_truth.is_none() {
                return Err(Error::Storage(format!(
                    "golden task {gid} lacks a manually labeled ground truth"
                )));
            }
        }
        // ③ Registry, seeded from the parameter database when present.
        let mut registry = WorkerRegistry::new(m, 0.7);
        let store = match &config.storage_dir {
            Some(dir) => Some(ParamStore::open(dir)?),
            None => None,
        };
        if let Some(store) = &store {
            for w in store.worker_ids() {
                if let Some(stats) = store.get_worker::<WorkerStats>(w)? {
                    if stats.num_domains() == m {
                        registry.put(w, stats);
                    }
                }
            }
        }
        let engine =
            IncrementalTi::new(tasks, registry, config.z).with_shards(config.task_shards.max(1));
        Ok(Docs {
            engine,
            golden_ids,
            seen_workers: HashSet::new(),
            config,
            store,
        })
    }

    /// The published tasks (with DVE-filled domain vectors).
    pub fn tasks(&self) -> &[Task] {
        self.engine.tasks()
    }

    /// The publish-time configuration.
    pub fn config(&self) -> &DocsConfig {
        &self.config
    }

    /// Overrides the per-campaign durability opt-in after publish — the
    /// service applies a wire-level persistence override here so the policy
    /// a campaign actually runs with is the one its snapshots record.
    pub fn set_durable_flush(&mut self, flush: Option<docs_storage::FlushPolicy>) {
        self.config.durable_flush = flush;
    }

    /// The selected golden task ids.
    pub fn golden_ids(&self) -> &[TaskId] {
        &self.golden_ids
    }

    /// The inference engine (read access for experiment harnesses).
    pub fn engine(&self) -> &IncrementalTi {
        &self.engine
    }

    /// Answers ingested per task shard (length = `task_shards`): the
    /// ingestion-balance view runtimes use to check that the hash partition
    /// spreads TI load before trusting the sharded scan's parallelism.
    pub fn shard_ingestion(&self) -> Vec<u64> {
        let sharding = self.engine.sharding();
        (0..sharding.num_shards())
            .map(|s| sharding.ingested(s))
            .collect()
    }

    /// Total (non-golden) answers collected so far.
    pub fn answers_collected(&self) -> usize {
        self.engine.log().len()
    }

    /// The campaign's observable serving state — a pure read over the live
    /// state, cheap enough for status polling and safe to serve from a
    /// follower replica (nothing is mutated, no inference runs).
    pub fn status(&self) -> CampaignStatus {
        CampaignStatus {
            tasks: self.tasks().len(),
            golden: self.golden_ids.len(),
            answers_collected: self.answers_collected(),
            seen_workers: self.seen_workers.len(),
            known_workers: self.engine.registry().len(),
            budget_exhausted: self.budget_exhausted(),
            shard_ingestion: self.shard_ingestion(),
        }
    }

    /// Whether the collection budget is consumed: the flat budget is spent,
    /// or — with an adaptive stopping policy configured — every task has
    /// satisfied its stopping condition.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted_with(0)
    }

    /// [`Docs::budget_exhausted`] as seen by the `(pending + 1)`-th answer
    /// of one submission: the flat cap counts the `pending` answers already
    /// admitted ahead of it (batch validation admits sequentially without
    /// mutating state), while the adaptive-stopping condition is evaluated
    /// against the pre-submission state.
    ///
    /// Scope: only the **flat cap** threads `pending` through. With an
    /// adaptive stopping policy, a batch whose earlier answers would tip
    /// every task into its stopping condition does not refuse the batch's
    /// own tail — validation is pure and cannot evolve the states, so
    /// strict per-answer admission within one batch is exact for the flat
    /// budget and pre-state for the stopping condition (documented on
    /// `DocsConfig::strict_budget`).
    fn budget_exhausted_with(&self, pending: usize) -> bool {
        if self.config.answers_per_task == 0 {
            return false;
        }
        if self.answers_collected() + pending >= self.config.answers_per_task * self.tasks().len() {
            return true;
        }
        if let Some(policy) = self.config.stopping {
            let log = self.engine.log();
            return self
                .engine
                .states()
                .iter()
                .zip(self.engine.tasks())
                .all(|(state, task)| policy.should_stop(state, log.answer_count(task.id)));
        }
        false
    }

    /// Handles "a worker comes and requests tasks" (Figure 1, arrow ④).
    ///
    /// Unknown workers — not seen in this session and absent from the
    /// parameter database — get the golden HIT first; known workers get an
    /// OTA assignment.
    pub fn request_tasks(&mut self, worker: WorkerId) -> WorkRequest {
        if self.budget_exhausted() {
            return WorkRequest::Done;
        }
        let known = self.seen_workers.contains(&worker) || self.engine.registry().contains(worker);
        if !known {
            return WorkRequest::Golden(self.golden_ids.clone());
        }
        let quality = self.engine.registry().quality(worker);
        let assigner = Assigner::new(AssignerConfig {
            k: self.config.k_per_hit,
            max_answers_per_task: if self.config.answers_per_task == 0 {
                None
            } else {
                Some(self.config.answers_per_task)
            },
            linear_select: true,
        });
        let stopping = self.config.stopping;
        let engine = &self.engine;
        let (states, log) = (engine.states(), engine.log());
        // Adaptive stopping excludes confident tasks the same way an
        // already-answered task is excluded.
        let answered = |t: docs_types::TaskId| {
            log.has_answered(worker, t)
                || stopping.is_some_and(|policy| {
                    policy.should_stop(states.view(t.index()), log.answer_count(t))
                })
        };
        // The paper's benefit scan, walked per task shard and merged (one
        // flat list when `task_shards == 1`).
        let picks = assigner.assign_sharded(
            &quality,
            engine.tasks(),
            states,
            engine.sharding(),
            answered,
            |t| log.answer_count(t),
        );
        if picks.is_empty() {
            WorkRequest::Done
        } else {
            WorkRequest::Tasks(picks)
        }
    }

    /// Receives a new worker's golden answers and initializes her quality
    /// (Section 5.2). Command wrapper over
    /// [`CampaignEvent::GoldenSubmitted`].
    pub fn submit_golden(
        &mut self,
        worker: WorkerId,
        answers: &[(TaskId, ChoiceIndex)],
    ) -> Result<()> {
        self.apply(&CampaignEvent::golden(worker, answers.to_vec()))
    }

    /// Handles "a worker accomplishes tasks and submits answers"
    /// (Figure 1, arrow ⑤): incremental TI plus periodic full inference.
    /// Command wrapper over [`CampaignEvent::AnswerSubmitted`].
    pub fn submit_answer(&mut self, answer: Answer) -> Result<()> {
        self.apply(&CampaignEvent::answer(answer))
    }

    /// Batched ingestion: validates every answer up front (against the log
    /// *and* the earlier answers of the same batch), applies the accepted
    /// ones as a single [`CampaignEvent::AnswerBatchSubmitted`] transition,
    /// and reports the per-answer outcome. Applying a batch is
    /// byte-identical to submitting its accepted answers one by one — only
    /// the bookkeeping (one event, one WAL record in the durable service) is
    /// amortized.
    pub fn submit_answer_batch(&mut self, answers: &[Answer]) -> Result<BatchSubmitReport> {
        let (accepted, rejected) = self.validate_answer_batch(answers);
        let accepted_count = accepted.len();
        if !accepted.is_empty() {
            self.apply(&CampaignEvent::answer_batch(accepted))?;
        }
        Ok(BatchSubmitReport {
            accepted: accepted_count,
            rejected,
        })
    }

    /// Partitions a batch into the answers that would be accepted (in
    /// order) and the rejected ones with their positions and errors — the
    /// validation front of the batched ingestion path, shared by
    /// [`Docs::submit_answer_batch`] and the durable service (which logs
    /// only the accepted sub-batch). Pure: no state is touched.
    pub fn validate_answer_batch(&self, answers: &[Answer]) -> (Vec<Answer>, Vec<(usize, Error)>) {
        let mut accepted = Vec::with_capacity(answers.len());
        let mut rejected = Vec::new();
        let mut seen: HashSet<(WorkerId, TaskId)> = HashSet::with_capacity(answers.len());
        for (i, &answer) in answers.iter().enumerate() {
            // `accepted.len()` answers of this batch are already admitted
            // ahead of this one — the log growth a sequential submission of
            // the same batch would have seen — so a batch straddling the
            // flat budget cap truncates at the same answer. (The adaptive
            // stopping condition is evaluated on pre-batch state; see
            // `budget_exhausted_with`.)
            if let Err(e) = self.validate_answer_at(&answer, accepted.len()) {
                rejected.push((i, e));
                continue;
            }
            // A duplicate *within* the batch is rejected exactly like a
            // duplicate against the log: the earlier answer wins.
            if !seen.insert((answer.worker, answer.task)) {
                rejected.push((
                    i,
                    Error::DuplicateAnswer {
                        task: answer.task,
                        worker: answer.worker,
                    },
                ));
                continue;
            }
            accepted.push(answer);
        }
        (accepted, rejected)
    }

    /// Validates one answer against the current state: known task, in-range
    /// choice, not a duplicate of a logged answer — and, on strict-budget
    /// campaigns, that the collection budget is still open.
    fn validate_answer(&self, answer: &Answer) -> Result<()> {
        self.validate_answer_at(answer, 0)
    }

    /// [`Docs::validate_answer`] for the answer arriving after `pending`
    /// already-admitted answers of the same submission. Duplicate
    /// classification outranks budget admission: a client retrying after a
    /// lost ack must see [`Error::DuplicateAnswer`] (its idempotent-success
    /// signal), never a spurious budget error.
    fn validate_answer_at(&self, answer: &Answer, pending: usize) -> Result<()> {
        let task = self
            .engine
            .tasks()
            .get(answer.task.index())
            .ok_or(Error::UnknownTask(answer.task))?;
        task.check_choice(answer.choice)?;
        if self.engine.log().has_answered(answer.worker, answer.task) {
            return Err(Error::DuplicateAnswer {
                task: answer.task,
                worker: answer.worker,
            });
        }
        self.check_budget_admission_at(pending)?;
        Ok(())
    }

    /// Strict-budget admission for the `(pending + 1)`-th new answer of one
    /// submission: a closed budget refuses further answers. Pure in the
    /// state, so the live path, the batch validation front, and crash
    /// replay all reach the same verdict for the same answer log.
    fn check_budget_admission_at(&self, pending: usize) -> Result<()> {
        if self.config.strict_budget && self.budget_exhausted_with(pending) {
            return Err(Error::BudgetExhausted);
        }
        Ok(())
    }

    /// Finalizes the batch: one last full inference, state persisted, report
    /// returned to the requester. Command wrapper over
    /// [`CampaignEvent::Finished`].
    pub fn finish(&mut self) -> Result<RequesterReport> {
        self.apply(&CampaignEvent::finished())?;
        Ok(self.report())
    }

    /// Checks whether an event would be accepted by [`Docs::apply`], without
    /// touching any state. The durable runtime calls this *before* logging a
    /// command so rejected requests (duplicate answers, unknown tasks) never
    /// reach the write-ahead log.
    pub fn validate_event(&self, event: &CampaignEvent) -> Result<()> {
        match event {
            CampaignEvent::Published(_) | CampaignEvent::Finished(_) => Ok(()),
            CampaignEvent::GoldenSubmitted(g) => {
                for &(tid, choice) in &g.answers {
                    let task = self
                        .engine
                        .tasks()
                        .get(tid.index())
                        .ok_or(Error::UnknownTask(tid))?;
                    task.check_choice(choice)?;
                    if task.ground_truth.is_none() {
                        // A task without a manual label cannot grade a new
                        // worker — distinct from an id that doesn't exist.
                        return Err(Error::GoldenRequired(tid));
                    }
                }
                Ok(())
            }
            CampaignEvent::AnswerSubmitted(a) => self.validate_answer(&a.answer),
            CampaignEvent::AnswerBatchSubmitted(b) => {
                // A loggable batch must apply *in full*: every answer valid
                // against the state (budget capacity included, counted per
                // position), no duplicates within the batch (the service
                // pre-filters with `validate_answer_batch`, so a failure
                // here means a mispaired or tampered log).
                let mut seen: HashSet<(WorkerId, TaskId)> = HashSet::new();
                for (i, answer) in b.answers.iter().enumerate() {
                    self.validate_answer_at(answer, i)?;
                    if !seen.insert((answer.worker, answer.task)) {
                        return Err(Error::DuplicateAnswer {
                            task: answer.task,
                            worker: answer.worker,
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// The deterministic state transition: applies one event to the state
    /// machine. Replaying a logged event sequence over a restored snapshot
    /// reproduces the live state exactly — the transition reads no clock, no
    /// randomness, and no iteration order of unordered containers.
    pub fn apply(&mut self, event: &CampaignEvent) -> Result<()> {
        match event {
            // `Published` marks the birth of the log; the state it describes
            // is the snapshot it rides with, so applying it is a no-op.
            CampaignEvent::Published(_) => Ok(()),
            CampaignEvent::GoldenSubmitted(g) => self.apply_golden(g.worker, &g.answers),
            CampaignEvent::AnswerSubmitted(a) => self.apply_answer(a.answer),
            CampaignEvent::AnswerBatchSubmitted(b) => self.apply_answer_batch(&b.answers),
            CampaignEvent::Finished(_) => self.apply_finished(),
        }
    }

    fn apply_golden(&mut self, worker: WorkerId, answers: &[(TaskId, ChoiceIndex)]) -> Result<()> {
        let infos: Vec<(TaskId, (docs_types::DomainVector, ChoiceIndex))> = answers
            .iter()
            .map(|&(tid, _)| {
                let t = self
                    .engine
                    .tasks()
                    .get(tid.index())
                    .ok_or(Error::UnknownTask(tid))?;
                Ok((
                    tid,
                    (
                        t.domain_vector().clone(),
                        t.ground_truth.ok_or(Error::GoldenRequired(tid))?,
                    ),
                ))
            })
            .collect::<Result<_>>()?;
        let lookup = move |tid: TaskId| {
            infos
                .iter()
                .find(|(t, _)| *t == tid)
                .map(|(_, info)| info.clone())
                .expect("golden info present")
        };
        self.engine
            .init_worker_from_golden(worker, answers, &lookup, self.config.golden_smoothing);
        self.seen_workers.insert(worker);
        self.persist_worker(worker)?;
        Ok(())
    }

    fn apply_answer(&mut self, answer: Answer) -> Result<()> {
        // Full validation first (the same classification order the pure
        // front uses — duplicate outranks budget), so a rejected answer
        // leaves the state untouched and carries the same error whichever
        // path refused it; the engine re-validates before mutating.
        self.validate_answer(&answer)?;
        self.engine.submit(answer)?;
        self.seen_workers.insert(answer.worker);
        self.persist_worker(answer.worker)
    }

    fn apply_answer_batch(&mut self, answers: &[Answer]) -> Result<()> {
        // One engine pass, then one parameter-store write per distinct
        // worker — the same final store contents as per-answer persistence.
        // The BTreeSet keeps the write order deterministic.
        // A batch applies *in full*, so admission requires budget capacity
        // for its last answer — the validation front truncates straddling
        // batches to exactly this capacity.
        if let Some(last) = answers.len().checked_sub(1) {
            self.check_budget_admission_at(last)?;
        }
        self.engine.submit_batch(answers)?;
        let mut workers: std::collections::BTreeSet<WorkerId> = std::collections::BTreeSet::new();
        for answer in answers {
            self.seen_workers.insert(answer.worker);
            workers.insert(answer.worker);
        }
        for worker in workers {
            self.persist_worker(worker)?;
        }
        Ok(())
    }

    fn apply_finished(&mut self) -> Result<()> {
        self.engine.run_full();
        if let Some(store) = &self.store {
            for (w, stats) in self.engine.registry().iter() {
                store.put_worker(w, stats)?;
            }
            store.compact()?;
        }
        Ok(())
    }

    /// The requester report under the current state — a pure read. The
    /// report after [`CampaignEvent::Finished`] depends only on the tasks,
    /// the answer log, and the golden registry (the full inference
    /// recomputes everything from them), so a recovered campaign that
    /// reaches the same log reports byte-identical truths.
    pub fn report(&self) -> RequesterReport {
        let truths = self.engine.truths();
        let accuracy = docs_crowd::accuracy_of(&truths, self.engine.tasks());
        RequesterReport {
            truth_distributions: self
                .engine
                .states()
                .iter()
                .map(|s| s.s().to_vec())
                .collect(),
            answers_collected: self.answers_collected(),
            truths,
            accuracy,
        }
    }

    /// Captures the campaign's full state for the durable runtime.
    pub fn snapshot(&self) -> CampaignSnapshot {
        let mut seen_workers: Vec<WorkerId> = self.seen_workers.iter().copied().collect();
        seen_workers.sort_unstable();
        CampaignSnapshot {
            engine: self.engine.snapshot(),
            golden_ids: self.golden_ids.clone(),
            seen_workers,
            config: self.config.clone(),
        }
    }

    /// Rebuilds a campaign from a snapshot. The parameter database is
    /// reopened from `config.storage_dir` when one was configured; its
    /// contents are *not* re-merged into the registry — the snapshot already
    /// carries the exact live statistics.
    ///
    /// A snapshot is outside input (a WAL file, a follower's
    /// `install_snapshot`): one whose config or parts the request path
    /// cannot serve is refused here, naming the field.
    pub fn restore(snapshot: CampaignSnapshot) -> Result<Self> {
        check_config(&snapshot.config)?;
        let engine = IncrementalTi::restore(snapshot.engine)?;
        let store = match &snapshot.config.storage_dir {
            Some(dir) => Some(ParamStore::open(dir)?),
            None => None,
        };
        Ok(Docs {
            engine,
            golden_ids: snapshot.golden_ids,
            seen_workers: snapshot.seen_workers.into_iter().collect(),
            config: snapshot.config,
            store,
        })
    }

    fn persist_worker(&self, worker: WorkerId) -> Result<()> {
        if let (Some(store), Some(stats)) = (&self.store, self.engine.registry().get(worker)) {
            store.put_worker(worker, stats)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_kb::table2_example_kb;
    use docs_types::{codec, DomainVector, TaskBuilder};

    fn example_tasks(n: usize) -> Vec<Task> {
        // Texts built from the Table 2 KB aliases so DVE has signal.
        let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
        (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("Is {} great?", subjects[i % subjects.len()]))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(1)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn small_config() -> DocsConfig {
        DocsConfig {
            num_golden: 2,
            k_per_hit: 3,
            answers_per_task: 3,
            z: 10,
            ..Default::default()
        }
    }

    #[test]
    fn publish_runs_dve_and_selects_golden() {
        let kb = table2_example_kb();
        let docs = Docs::publish(&kb, example_tasks(6), small_config()).unwrap();
        assert_eq!(docs.golden_ids().len(), 2);
        for t in docs.tasks() {
            let r = t.domain_vector.as_ref().expect("DVE ran");
            assert!(docs_types::prob::is_distribution(r.as_slice()));
            // Kobe Bryant is a sports-only concept ⇒ sports-dominated
            // vector. ("Michael Jordan" alone legitimately leans films:
            // the player concept is multi-domain and the actor exists.)
            if t.text.contains("Kobe") {
                assert_eq!(r.dominant_domain(), 1);
            }
        }
    }

    #[test]
    fn new_workers_get_golden_then_tasks() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(6), small_config()).unwrap();
        let w = WorkerId(0);
        let req = docs.request_tasks(w);
        let golden = match req {
            WorkRequest::Golden(g) => g,
            other => panic!("expected golden request, got {other:?}"),
        };
        let answers: Vec<(TaskId, ChoiceIndex)> = golden
            .iter()
            .map(|&g| (g, docs.tasks()[g.index()].ground_truth.unwrap()))
            .collect();
        docs.submit_golden(w, &answers).unwrap();
        match docs.request_tasks(w) {
            WorkRequest::Tasks(tasks) => assert_eq!(tasks.len(), 3),
            other => panic!("expected tasks, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_stops_assignment() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(2), small_config()).unwrap();
        // Budget = 2 tasks × 3 answers = 6.
        let mut served = 0;
        'outer: for w in 0..10u32 {
            let w = WorkerId(w);
            if let WorkRequest::Golden(g) = docs.request_tasks(w) {
                let answers: Vec<_> = g
                    .iter()
                    .map(|&gid| (gid, docs.tasks()[gid.index()].ground_truth.unwrap()))
                    .collect();
                docs.submit_golden(w, &answers).unwrap();
            }
            loop {
                match docs.request_tasks(w) {
                    WorkRequest::Tasks(tasks) => {
                        for t in tasks {
                            docs.submit_answer(Answer {
                                task: t,
                                worker: w,
                                choice: 0,
                            })
                            .unwrap();
                            served += 1;
                            if served > 100 {
                                panic!("budget never exhausted");
                            }
                        }
                    }
                    _ => continue 'outer,
                }
            }
        }
        assert!(docs.budget_exhausted());
        assert_eq!(docs.answers_collected(), 6);
        match docs.request_tasks(WorkerId(99)) {
            WorkRequest::Done => {}
            other => panic!("expected Done after budget, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_stopping_excludes_confident_tasks() {
        use docs_core::ti::{StoppingPolicy, StoppingRule};
        let kb = table2_example_kb();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 4,
            answers_per_task: 10,
            z: 1, // full inference after every answer, deterministic states
            stopping: Some(StoppingPolicy {
                rule: StoppingRule::ConfidenceAbove(0.95),
                min_answers: 2,
                max_answers: 10,
            }),
            ..Default::default()
        };
        let mut docs = Docs::publish(&kb, example_tasks(4), config).unwrap();
        // Three golden-perfect workers agree on task 0's truth.
        for w in 0..3u32 {
            let w = WorkerId(w);
            if let WorkRequest::Golden(g) = docs.request_tasks(w) {
                let answers: Vec<_> = g
                    .iter()
                    .map(|&gid| (gid, docs.tasks()[gid.index()].ground_truth.unwrap()))
                    .collect();
                docs.submit_golden(w, &answers).unwrap();
            }
            docs.submit_answer(Answer {
                task: TaskId(0),
                worker: w,
                choice: docs.tasks()[0].ground_truth.unwrap(),
            })
            .unwrap();
        }
        // Task 0 is now confident; a fresh (golden-initialized) worker's
        // HIT must not contain it, even though its flat cap (10) is far off.
        let w = WorkerId(7);
        if let WorkRequest::Golden(g) = docs.request_tasks(w) {
            let answers: Vec<_> = g
                .iter()
                .map(|&gid| (gid, docs.tasks()[gid.index()].ground_truth.unwrap()))
                .collect();
            docs.submit_golden(w, &answers).unwrap();
        }
        match docs.request_tasks(w) {
            WorkRequest::Tasks(tasks) => {
                assert!(
                    !tasks.contains(&TaskId(0)),
                    "confident task assigned anyway: {tasks:?}"
                );
                assert!(!tasks.is_empty());
            }
            other => panic!("expected tasks, got {other:?}"),
        }
    }

    #[test]
    fn all_tasks_stopped_exhausts_the_budget() {
        use docs_core::ti::{StoppingPolicy, StoppingRule};
        let kb = table2_example_kb();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 4,
            answers_per_task: 10,
            z: 1,
            stopping: Some(StoppingPolicy {
                rule: StoppingRule::ConfidenceAbove(0.9),
                min_answers: 2,
                max_answers: 10,
            }),
            ..Default::default()
        };
        let mut docs = Docs::publish(&kb, example_tasks(2), config).unwrap();
        for w in 0..3u32 {
            let w = WorkerId(w);
            if let WorkRequest::Golden(g) = docs.request_tasks(w) {
                let answers: Vec<_> = g
                    .iter()
                    .map(|&gid| (gid, docs.tasks()[gid.index()].ground_truth.unwrap()))
                    .collect();
                docs.submit_golden(w, &answers).unwrap();
            }
            for t in 0..2usize {
                docs.submit_answer(Answer {
                    task: TaskId::from(t),
                    worker: w,
                    choice: docs.tasks()[t].ground_truth.unwrap(),
                })
                .unwrap();
            }
        }
        // 3 unanimous expert answers per task: both tasks stop well short
        // of the 10-answer flat budget (6 of 20 answers spent).
        assert!(docs.budget_exhausted());
        assert_eq!(docs.answers_collected(), 6);
        assert!(matches!(docs.request_tasks(WorkerId(9)), WorkRequest::Done));
    }

    #[test]
    fn strict_budget_rejects_late_answers_with_a_typed_error() {
        let kb = table2_example_kb();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 2,
            answers_per_task: 2,
            z: 10,
            strict_budget: true,
            ..Default::default()
        };
        let mut docs = Docs::publish(&kb, example_tasks(2), config).unwrap();
        // Budget = 2 tasks × 2 answers.
        for w in 0..2u32 {
            for t in 0..2usize {
                docs.submit_answer(Answer {
                    task: TaskId::from(t),
                    worker: WorkerId(w),
                    choice: 0,
                })
                .unwrap();
            }
        }
        assert!(docs.budget_exhausted());
        let late = Answer {
            task: TaskId(0),
            worker: WorkerId(9),
            choice: 0,
        };
        assert_eq!(docs.submit_answer(late), Err(Error::BudgetExhausted));
        assert_eq!(
            docs.validate_event(&CampaignEvent::answer(late)),
            Err(Error::BudgetExhausted)
        );
        // The batch front reports the refusal per position.
        let report = docs.submit_answer_batch(&[late]).unwrap();
        assert_eq!(report.accepted, 0);
        assert_eq!(report.rejected, vec![(0, Error::BudgetExhausted)]);
        assert_eq!(docs.answers_collected(), 4, "nothing absorbed");
        // Duplicate classification outranks budget admission: a retry of an
        // already-accepted answer is told it's a duplicate (idempotent
        // success), not a spurious budget error.
        assert_eq!(
            docs.submit_answer(Answer {
                task: TaskId(0),
                worker: WorkerId(0),
                choice: 1,
            }),
            Err(Error::DuplicateAnswer {
                task: TaskId(0),
                worker: WorkerId(0),
            })
        );

        // The paper's default still absorbs late answers.
        let lax = DocsConfig {
            num_golden: 2,
            k_per_hit: 2,
            answers_per_task: 1,
            z: 10,
            ..Default::default()
        };
        let mut docs = Docs::publish(&kb, example_tasks(2), lax).unwrap();
        for t in 0..2usize {
            docs.submit_answer(Answer {
                task: TaskId::from(t),
                worker: WorkerId(0),
                choice: 0,
            })
            .unwrap();
        }
        assert!(docs.budget_exhausted());
        assert!(docs.submit_answer(late).is_ok());
    }

    /// A batch straddling the budget boundary truncates at exactly the
    /// answer a sequential submission would have refused — strict admission
    /// is per answer, not per round-trip.
    #[test]
    fn strict_budget_truncates_a_straddling_batch_per_answer() {
        let kb = table2_example_kb();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 2,
            answers_per_task: 2,
            z: 10,
            strict_budget: true,
            ..Default::default()
        };
        // Budget = 2 tasks × 2 = 4; burn 3 slots, leaving room for one.
        let mut docs = Docs::publish(&kb, example_tasks(2), config).unwrap();
        for (w, t) in [(0u32, 0u32), (0, 1), (1, 0)] {
            docs.submit_answer(Answer {
                task: TaskId(t),
                worker: WorkerId(w),
                choice: 0,
            })
            .unwrap();
        }
        let batch = [
            Answer {
                task: TaskId(1),
                worker: WorkerId(1),
                choice: 1,
            }, // fills the last slot
            Answer {
                task: TaskId(0),
                worker: WorkerId(2),
                choice: 0,
            }, // over budget
            Answer {
                task: TaskId(1),
                worker: WorkerId(2),
                choice: 1,
            }, // over budget
        ];
        // The full-batch event can no longer apply in full…
        assert_eq!(
            docs.validate_event(&CampaignEvent::answer_batch(batch.to_vec())),
            Err(Error::BudgetExhausted)
        );
        // …and the validation front truncates it per position.
        let report = docs.submit_answer_batch(&batch).unwrap();
        assert_eq!(report.accepted, 1);
        assert_eq!(
            report.rejected,
            vec![(1, Error::BudgetExhausted), (2, Error::BudgetExhausted)]
        );
        assert_eq!(
            docs.answers_collected(),
            4,
            "exactly the budget, no overshoot"
        );
        assert!(docs.budget_exhausted());
    }

    #[test]
    fn golden_submission_for_an_unlabeled_task_is_golden_required() {
        let kb = table2_example_kb();
        // No golden set, and task 0 deliberately unlabeled: grading against
        // it is impossible, which must be told apart from an unknown id.
        let mut tasks = example_tasks(4);
        tasks[0].ground_truth = None;
        let config = DocsConfig {
            num_golden: 0,
            k_per_hit: 2,
            answers_per_task: 2,
            z: 10,
            ..Default::default()
        };
        let mut docs = Docs::publish(&kb, tasks, config).unwrap();
        let w = WorkerId(0);
        assert_eq!(
            docs.validate_event(&CampaignEvent::golden(w, vec![(TaskId(0), 0)])),
            Err(Error::GoldenRequired(TaskId(0)))
        );
        assert_eq!(
            docs.submit_golden(w, &[(TaskId(0), 0)]),
            Err(Error::GoldenRequired(TaskId(0)))
        );
        // An id outside the task set keeps its own classification.
        assert_eq!(
            docs.validate_event(&CampaignEvent::golden(w, vec![(TaskId(99), 0)])),
            Err(Error::UnknownTask(TaskId(99)))
        );
        // A labeled task still grades fine.
        assert!(docs.submit_golden(w, &[(TaskId(1), 1)]).is_ok());
    }

    #[test]
    fn shard_ingestion_accounts_for_every_answer() {
        let kb = table2_example_kb();
        let config = DocsConfig {
            task_shards: 3,
            ..small_config()
        };
        let mut docs = Docs::publish(&kb, example_tasks(6), config).unwrap();
        assert_eq!(docs.shard_ingestion(), vec![0, 0, 0]);
        for t in 0..6usize {
            docs.submit_answer(Answer {
                task: TaskId::from(t),
                worker: WorkerId(0),
                choice: 0,
            })
            .unwrap();
        }
        let ingestion = docs.shard_ingestion();
        assert_eq!(ingestion.len(), 3);
        assert_eq!(ingestion.iter().sum::<u64>(), 6);
    }

    #[test]
    fn finish_reports_truths() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(4), small_config()).unwrap();
        for w in 0..3u32 {
            let w = WorkerId(w);
            if let WorkRequest::Golden(g) = docs.request_tasks(w) {
                let answers: Vec<_> = g
                    .iter()
                    .map(|&gid| (gid, docs.tasks()[gid.index()].ground_truth.unwrap()))
                    .collect();
                docs.submit_golden(w, &answers).unwrap();
            }
            for t in 0..4usize {
                let tid = TaskId::from(t);
                if !docs.engine().log().has_answered(w, tid) {
                    docs.submit_answer(Answer {
                        task: tid,
                        worker: w,
                        choice: docs.tasks()[t].ground_truth.unwrap(),
                    })
                    .unwrap();
                }
            }
        }
        let report = docs.finish().unwrap();
        assert_eq!(report.truths.len(), 4);
        assert_eq!(report.accuracy, 1.0);
        assert_eq!(report.answers_collected, 12);
    }

    #[test]
    fn batched_submission_is_byte_identical_to_individual_submissions() {
        let kb = table2_example_kb();
        let config = DocsConfig {
            z: 3, // the periodic full inference fires mid-batch
            ..small_config()
        };
        let mut one_by_one = Docs::publish(&kb, example_tasks(6), config.clone()).unwrap();
        let mut batched = Docs::publish(&kb, example_tasks(6), config).unwrap();
        let answers: Vec<Answer> = (0..6)
            .flat_map(|t| {
                (0..2u32).map(move |w| Answer {
                    task: TaskId::from(t),
                    worker: WorkerId(w),
                    choice: (t + w as usize) % 2,
                })
            })
            .collect();
        for &a in &answers {
            one_by_one.submit_answer(a).unwrap();
        }
        let report = batched.submit_answer_batch(&answers).unwrap();
        assert_eq!(report.accepted, answers.len());
        assert!(report.rejected.is_empty());
        let (a, b) = (one_by_one.finish().unwrap(), batched.finish().unwrap());
        assert_eq!(a.truths, b.truths);
        assert_eq!(a.truth_distributions, b.truth_distributions);
        assert_eq!(a.answers_collected, b.answers_collected);
    }

    #[test]
    fn batch_rejects_bad_answers_and_applies_the_rest() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(4), small_config()).unwrap();
        let w = WorkerId(0);
        docs.submit_answer(Answer {
            task: TaskId(0),
            worker: w,
            choice: 0,
        })
        .unwrap();
        let batch = [
            Answer {
                task: TaskId(0),
                worker: w,
                choice: 1,
            }, // duplicate against the log
            Answer {
                task: TaskId(1),
                worker: w,
                choice: 0,
            }, // fine
            Answer {
                task: TaskId(1),
                worker: w,
                choice: 1,
            }, // duplicate within the batch
            Answer {
                task: TaskId(99),
                worker: w,
                choice: 0,
            }, // unknown task
            Answer {
                task: TaskId(2),
                worker: w,
                choice: 9,
            }, // out-of-range choice
            Answer {
                task: TaskId(3),
                worker: WorkerId(1),
                choice: 1,
            }, // fine
        ];
        let report = docs.submit_answer_batch(&batch).unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(
            report.rejected.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 2, 3, 4]
        );
        assert_eq!(docs.answers_collected(), 3);
        // validate_event mirrors the same rules for a whole logged batch.
        assert!(docs
            .validate_event(&CampaignEvent::answer_batch(batch.to_vec()))
            .is_err());
        assert!(docs
            .validate_event(&CampaignEvent::answer_batch(vec![Answer {
                task: TaskId(2),
                worker: WorkerId(2),
                choice: 1,
            }]))
            .is_ok());
        // An empty batch is a no-op, not an error.
        let empty = docs.submit_answer_batch(&[]).unwrap();
        assert_eq!((empty.accepted, empty.rejected.len()), (0, 0));
        assert_eq!(docs.answers_collected(), 3);
    }

    #[test]
    fn snapshot_restore_roundtrip_is_byte_identical() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(6), small_config()).unwrap();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = docs.request_tasks(w) {
            let answers: Vec<_> = g
                .iter()
                .map(|&gid| (gid, docs.tasks()[gid.index()].ground_truth.unwrap()))
                .collect();
            docs.submit_golden(w, &answers).unwrap();
        }
        docs.submit_answer(Answer {
            task: TaskId(0),
            worker: w,
            choice: 0,
        })
        .unwrap();
        // Snapshot → record → restore: every probability must round-trip
        // exactly, and the restored machine must serve identically.
        let bytes = codec::to_bytes(&docs.snapshot());
        let mut restored = Docs::restore(codec::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(restored.answers_collected(), docs.answers_collected());
        assert_eq!(restored.golden_ids(), docs.golden_ids());
        for (a, b) in docs
            .engine()
            .states()
            .iter()
            .zip(restored.engine().states().iter())
        {
            assert_eq!(a.s(), b.s());
        }
        // A returning worker is still known; assignments match exactly.
        assert_eq!(restored.request_tasks(w), docs.request_tasks(w));
        let ra = restored.finish().unwrap();
        let rb = docs.finish().unwrap();
        assert_eq!(ra.truths, rb.truths);
        assert_eq!(ra.truth_distributions, rb.truth_distributions);
    }

    /// A snapshot whose task state does not fit the tasks' supports and `ℓ`
    /// is refused at restore, naming the field — not accepted and left to
    /// panic on the first `apply_answer` / `benefit` index.
    #[test]
    fn restore_refuses_a_task_state_of_the_wrong_shape() {
        let kb = table2_example_kb();
        let good = Docs::publish(&kb, example_tasks(6), small_config())
            .unwrap()
            .snapshot();
        assert!(restore_through_codec(&good).is_ok(), "control");
        type Tamper = fn(&mut CampaignSnapshot);
        let cases: [(&str, Tamper); 5] = [
            ("m_hat", |s| {
                s.engine.m_hat.pop();
            }),
            ("m_hat", |s| s.engine.m_hat.push(1.0)),
            ("s", |s| {
                s.engine.s.pop();
            }),
            ("s", |s| s.engine.s.push(0.5)),
            // A third choice on one task: its stored rows no longer fit.
            ("m_hat", |s| s.engine.tasks[2].choices.push("maybe".into())),
        ];
        for (field, tamper) in cases {
            let mut snapshot = good.clone();
            tamper(&mut snapshot);
            let err = restore_through_codec(&snapshot)
                .err()
                .unwrap_or_else(|| panic!("tampered `{field}` restored"));
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
        }
    }

    /// A snapshot whose registries cover another number of domains than
    /// the tasks' domain vectors used to restore, then panic the shard
    /// thread on the first answer (`range end index 3 out of range for
    /// slice of length 2`). Restore refuses it, naming the field.
    #[test]
    fn restore_refuses_registries_over_another_domain_count() {
        let kb = table2_example_kb();
        let good = Docs::publish(&kb, example_tasks(6), small_config())
            .unwrap()
            .snapshot();
        let m = good.engine.tasks[0].domain_vector().len();
        type Tamper = fn(&mut CampaignSnapshot, usize);
        let cases: [(&str, Tamper); 4] = [
            ("registry", |s, m| {
                s.engine.registry = WorkerRegistry::new(m - 1, 0.7);
                s.engine.golden_registry = WorkerRegistry::new(m - 1, 0.7);
            }),
            ("golden_registry", |s, m| {
                s.engine.golden_registry = WorkerRegistry::new(m + 1, 0.7)
            }),
            ("registry", |s, _| {
                s.engine.registry.get_or_insert(WorkerId(9)).quality.pop();
            }),
            ("tasks", |s, m| {
                s.engine.tasks[4].domain_vector = Some(DomainVector::uniform(m + 1))
            }),
        ];
        for (field, tamper) in cases {
            let mut snapshot = good.clone();
            tamper(&mut snapshot, m);
            let err = restore_through_codec(&snapshot)
                .err()
                .unwrap_or_else(|| panic!("tampered `{field}` restored"));
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
        }
    }

    /// A snapshot written by an older build still carries the retired
    /// `config.use_benefit_index`; the derive looks fields up by name, so
    /// the extra key is ignored and the campaign restores onto the scan.
    #[test]
    fn restore_ignores_the_retired_index_flag_of_older_snapshots() {
        use serde::{Deserialize, Serialize, Value};
        let kb = table2_example_kb();
        let docs = Docs::publish(&kb, example_tasks(6), small_config()).unwrap();
        let mut old = docs.snapshot().to_value();
        let Value::Map(top) = &mut old else {
            panic!("snapshots serialize as a map");
        };
        let config = top.iter_mut().find(|(k, _)| k == "config").unwrap();
        let Value::Map(config) = &mut config.1 else {
            panic!("configs serialize as a map");
        };
        config.push(("use_benefit_index".into(), Value::Bool(true)));
        let snapshot = CampaignSnapshot::from_value(&old).unwrap();
        assert!(Docs::restore(snapshot).is_ok());
    }

    /// Restores `snapshot` the way a WAL snapshot or a follower's
    /// `install_snapshot` does: through the codec record.
    fn restore_through_codec(snapshot: &CampaignSnapshot) -> Result<Docs> {
        let decoded = codec::from_bytes::<CampaignSnapshot>(&codec::to_bytes(snapshot))?;
        Docs::restore(decoded)
    }

    /// `k_per_hit = 0` used to pass publish/restore and panic the owning
    /// shard thread in `Assigner::new` on the first OTA request.
    #[test]
    fn publish_and_restore_refuse_a_hit_of_zero_tasks() {
        let kb = table2_example_kb();
        let zero = DocsConfig {
            k_per_hit: 0,
            ..small_config()
        };
        let err = Docs::publish(&kb, example_tasks(6), zero.clone()).unwrap_err();
        assert!(err.to_string().contains("`k_per_hit`"), "{err}");
        let mut snapshot = Docs::publish(&kb, example_tasks(6), small_config())
            .unwrap()
            .snapshot();
        assert!(restore_through_codec(&snapshot).is_ok(), "control");
        snapshot.config = zero;
        let err = restore_through_codec(&snapshot).unwrap_err();
        assert!(err.to_string().contains("`k_per_hit`"), "{err}");
    }

    /// A snapshot whose parts disagree about the task count or the shard
    /// geometry is refused at restore, naming the field — not accepted and
    /// left to panic in `ShardedTiState::restore` or on the first scan.
    #[test]
    fn restore_refuses_a_snapshot_whose_parts_disagree() {
        let kb = table2_example_kb();
        let good = Docs::publish(&kb, example_tasks(6), small_config())
            .unwrap()
            .snapshot();
        assert!(restore_through_codec(&good).is_ok(), "control");
        type Tamper = fn(&mut CampaignSnapshot);
        let shards: Tamper = |s| s.engine.task_shards = 4;
        let log: Tamper = |s| s.engine.log = docs_types::AnswerLog::new(5);
        for (field, tamper) in [("shard_ingested", shards), ("log", log)] {
            let mut snapshot = good.clone();
            tamper(&mut snapshot);
            let err = restore_through_codec(&snapshot)
                .err()
                .unwrap_or_else(|| panic!("tampered `{field}` restored"));
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
        }
    }

    #[test]
    fn registry_replays_snapshot_plus_event_suffix() {
        use docs_types::{CampaignEvent, CampaignId};
        let kb = table2_example_kb();
        let mut live = Docs::publish(&kb, example_tasks(6), small_config()).unwrap();
        let w = WorkerId(0);
        let golden_answers: Vec<_> = live
            .golden_ids()
            .to_vec()
            .iter()
            .map(|&gid| (gid, live.tasks()[gid.index()].ground_truth.unwrap()))
            .collect();
        let snapshot = codec::to_bytes(&live.snapshot());
        // Events after the snapshot: golden init, one answer, one duplicate
        // (a deterministic rejection), finish.
        let events = [
            CampaignEvent::golden(w, golden_answers.clone()),
            CampaignEvent::answer(Answer {
                task: TaskId(1),
                worker: w,
                choice: 1,
            }),
            CampaignEvent::answer(Answer {
                task: TaskId(1),
                worker: w,
                choice: 0,
            }),
            CampaignEvent::finished(),
        ];
        let payloads: Vec<Vec<u8>> = events.iter().map(codec::encode_event).collect();
        // Drive the live machine through the same (accepted) transitions.
        live.submit_golden(w, &golden_answers).unwrap();
        live.submit_answer(Answer {
            task: TaskId(1),
            worker: w,
            choice: 1,
        })
        .unwrap();
        let reference = live.finish().unwrap();

        let mut registry = crate::CampaignRegistry::new();
        let stats = registry
            .replay(CampaignId(3), &snapshot, &payloads)
            .unwrap();
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.rejected, 1, "duplicate answer skipped");
        let replayed = registry.get(CampaignId(3)).unwrap().report();
        assert_eq!(replayed.truths, reference.truths);
        assert_eq!(replayed.truth_distributions, reference.truth_distributions);
        // Garbage event bytes fail loudly.
        let err = registry
            .replay(CampaignId(4), &snapshot, &[b"not a record".to_vec()])
            .unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
        // A `Published` marker disagreeing with the snapshot's task count
        // means the snapshot and log are mispaired — refuse to replay.
        let mispaired =
            codec::encode_event(&CampaignEvent::Published(docs_types::PublishedEvent {
                campaign: CampaignId(5),
                num_tasks: 999,
                num_golden: 2,
            }));
        let err = registry
            .replay(CampaignId(5), &snapshot, &[mispaired])
            .unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
    }

    #[test]
    fn validate_event_rejects_without_mutating() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(4), small_config()).unwrap();
        let good = Answer {
            task: TaskId(0),
            worker: WorkerId(0),
            choice: 0,
        };
        docs.submit_answer(good).unwrap();
        let before = docs.answers_collected();
        // Duplicate, unknown task, out-of-range choice.
        assert!(docs
            .validate_event(&docs_types::CampaignEvent::answer(good))
            .is_err());
        assert!(docs
            .validate_event(&docs_types::CampaignEvent::answer(Answer {
                task: TaskId(99),
                worker: WorkerId(1),
                choice: 0,
            }))
            .is_err());
        assert!(docs
            .validate_event(&docs_types::CampaignEvent::answer(Answer {
                task: TaskId(1),
                worker: WorkerId(1),
                choice: 9,
            }))
            .is_err());
        assert!(docs
            .validate_event(&docs_types::CampaignEvent::answer(Answer {
                task: TaskId(1),
                worker: WorkerId(1),
                choice: 1,
            }))
            .is_ok());
        assert_eq!(docs.answers_collected(), before, "validation is pure");
    }

    #[test]
    fn returning_workers_recover_history_from_storage() {
        let dir =
            std::env::temp_dir().join(format!("docs-system-test-{}-history", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let kb = table2_example_kb();
        let config = DocsConfig {
            storage_dir: Some(dir.clone()),
            ..small_config()
        };
        // First requester: worker 0 answers golden + tasks, state persisted.
        {
            let mut docs = Docs::publish(&kb, example_tasks(4), config.clone()).unwrap();
            let w = WorkerId(0);
            if let WorkRequest::Golden(g) = docs.request_tasks(w) {
                let answers: Vec<_> = g
                    .iter()
                    .map(|&gid| (gid, docs.tasks()[gid.index()].ground_truth.unwrap()))
                    .collect();
                docs.submit_golden(w, &answers).unwrap();
            }
            docs.submit_answer(Answer {
                task: TaskId(0),
                worker: w,
                choice: 0,
            })
            .unwrap();
            docs.finish().unwrap();
        }
        // Second requester: the same worker is recognized — no golden HIT.
        {
            let mut docs = Docs::publish(&kb, example_tasks(4), config).unwrap();
            match docs.request_tasks(WorkerId(0)) {
                WorkRequest::Tasks(_) => {}
                other => panic!("returning worker should skip golden, got {other:?}"),
            }
            // A brand-new worker still gets golden tasks.
            match docs.request_tasks(WorkerId(5)) {
                WorkRequest::Golden(_) => {}
                other => panic!("new worker should get golden, got {other:?}"),
            }
        }
    }
}
