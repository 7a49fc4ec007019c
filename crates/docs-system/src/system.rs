//! The [`Docs`] system object: requester API + platform request handlers.
//!
//! Since the durable-runtime refactor, every state change flows through the
//! deterministic [`Docs::apply`] transition over [`CampaignEvent`]s: the
//! public command methods ([`Docs::submit_answer_batch`], [`Docs::submit_golden`],
//! [`Docs::finish`]) are thin wrappers that render their input into an
//! event and apply it. A campaign is therefore fully described by its
//! initial [`CampaignSnapshot`] plus the ordered event sequence — which is
//! exactly what the service's write-ahead log records, and what
//! [`Docs::restore`] + replay rebuild after a crash.

use crate::DocsConfig;
use docs_core::dve;
use docs_core::golden::select_golden_tasks;
use docs_core::ota::{Assigner, AssignerConfig, ScanScratch};
use docs_core::ti::{IncrementalTi, RunCounts, TiSnapshot, WorkerRegistry, WorkerStats};
use docs_kb::{EntityLinker, KnowledgeBase, LinkerConfig};
use docs_storage::ParamStore;
use docs_types::{
    codec, Answer, CampaignEvent, CampaignId, ChoiceIndex, Error, Result, Task, TaskId, WorkerId,
};
use serde::{Deserialize, Serialize, Sink};
use std::collections::HashSet;
use std::sync::Arc;

/// Outcome of replaying one campaign's snapshot + log suffix
/// ([`Docs::replay`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events applied to the restored state.
    pub applied: u64,
    /// Events whose application was rejected (deterministic rejections —
    /// e.g. a duplicate answer that was already rejected live; a healthy
    /// log contains none because commands are validated before logging).
    pub rejected: u64,
}

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
}

/// A campaign's observable serving state — the read-path summary a
/// follower replica can answer locally (no mutation, no inference run, no
/// owed inference paid).
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

/// A [`CampaignSnapshot`] borrowed from a live campaign: its streamed
/// encoding writes the snapshot's fields in declaration order, reading the
/// engine in place. Only `seen_workers` is materialised, to sort it.
struct LiveSnapshot<'a> {
    docs: &'a Docs,
    seen_workers: Vec<WorkerId>,
}

impl Serialize for LiveSnapshot<'_> {
    fn encode<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.map(4);
        sink.key("engine");
        self.docs.engine.encode(sink);
        sink.key("golden_ids");
        self.docs.golden_ids.encode(sink);
        sink.key("seen_workers");
        self.seen_workers.encode(sink);
        sink.key("config");
        self.docs.config.encode(sink);
    }
}

/// Refuses a configuration the request path cannot serve: OTA assigns
/// `k_per_hit` tasks per request and needs at least one, DVE links each
/// mention to its top `linker.top_c` candidates and needs at least one, and
/// a stopping policy must not demand more answers than the flat
/// `answers_per_task` cap (when that is on), which stops assigning the task
/// before the policy could fire.
fn check_config(config: &DocsConfig) -> Result<()> {
    if config.k_per_hit == 0 {
        return Err(Error::Storage(
            "config field `k_per_hit`: a HIT needs at least 1 task, found 0".into(),
        ));
    }
    if config.linker.top_c == 0 {
        return Err(Error::Storage(
            "config field `linker.top_c`: a mention needs at least 1 candidate, found 0".into(),
        ));
    }
    let w = config.linker.context_weight;
    if !(0.0..=LinkerConfig::MAX_CONTEXT_WEIGHT).contains(&w) {
        return Err(Error::Storage(format!(
            "config field `linker.context_weight`: the context boost needs a finite weight \
             in 0..={:e}, or it overflows; found {w}",
            LinkerConfig::MAX_CONTEXT_WEIGHT
        )));
    }
    if let Some(policy) = config.stopping {
        if config.answers_per_task != 0 && policy.min_answers > config.answers_per_task {
            return Err(Error::Storage(format!(
                "config field `stopping`: min_answers {} exceeds answers_per_task {}, \
                 which caps every task first",
                policy.min_answers, config.answers_per_task
            )));
        }
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
    /// This process's one handle on `config.storage_dir`, shared with every
    /// other campaign that names the same directory.
    store: Option<Arc<ParamStore>>,
    /// The OTA scan's buffers, reused by every request. Working state: no
    /// snapshot records it.
    scan: ScanScratch,
    /// Per task, whether the requesting worker answered it: `T(w)` marked
    /// at the start of a request and unmarked at its end, so the scan reads
    /// one flag per task. Sized at publish or restore; working state: no
    /// snapshot records it.
    answered: Vec<bool>,
    /// The `(worker, task)` pairs of the answer batch being filtered or the
    /// event being validated, cleared per call. Working state: no snapshot
    /// records it.
    batch_seen: HashSet<(WorkerId, TaskId)>,
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
        // Golden selection and the OTA scan name task `i` by its position.
        if let Some((i, task)) = tasks.iter().enumerate().find(|(i, t)| t.id.index() != *i) {
            return Err(Error::Storage(format!(
                "task {i} has id {}: task ids are positions",
                task.id
            )));
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
            // The request buffers, sized from the engine it then takes.
            scan: ScanScratch::new(engine.registry().num_domains()),
            answered: vec![false; engine.tasks().len()],
            engine,
            golden_ids,
            seen_workers: HashSet::new(),
            config,
            store,
            batch_seen: HashSet::new(),
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

    /// The selected golden task ids.
    pub fn golden_ids(&self) -> &[TaskId] {
        &self.golden_ids
    }

    /// The inference engine (read access for experiment harnesses). Its
    /// inference readers assert that nothing is owed: call
    /// [`Docs::materialize`] after applying events.
    pub fn engine(&self) -> &IncrementalTi {
        &self.engine
    }

    /// Pays the inference the applied events owe (the periodic full run,
    /// the pending incremental updates), so that `&self` readers of it —
    /// [`Docs::snapshot`], [`Docs::engine`]'s — see it current.
    /// [`Docs::request_tasks`], [`Docs::report`] and
    /// [`Docs::snapshot_bytes`] call it themselves.
    pub fn materialize(&mut self) {
        self.engine.materialize();
    }

    /// Full inference runs executed and owed runs superseded since the
    /// last call, reset to zero.
    pub fn take_run_counts(&mut self) -> RunCounts {
        self.engine.take_run_counts()
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
    /// follower replica (nothing is mutated, no inference runs, and owed
    /// inference stays owed: only counters are read).
    pub fn status(&self) -> CampaignStatus {
        CampaignStatus {
            tasks: self.tasks().len(),
            golden: self.golden_ids.len(),
            answers_collected: self.answers_collected(),
            seen_workers: self.seen_workers.len(),
            known_workers: self.engine.known_workers(),
            budget_exhausted: self.budget_exhausted(),
            shard_ingestion: self.shard_ingestion(),
        }
    }

    /// Whether the collection budget is consumed: the flat budget is spent,
    /// or — with an adaptive stopping policy configured — every task has
    /// reached its cap or satisfied its stopping condition (a campaign with
    /// a policy pays its inference at every event, so this read finds
    /// nothing owed).
    pub fn budget_exhausted(&self) -> bool {
        let cap = self.config.answers_per_task;
        if cap == 0 {
            return false;
        }
        if self.answers_collected() >= cap * self.tasks().len() {
            return true;
        }
        if let Some(policy) = self.config.stopping {
            let log = self.engine.log();
            return self
                .engine
                .states()
                .iter()
                .zip(self.engine.tasks())
                .all(|(state, task)| {
                    let answers = log.answer_count(task.id);
                    answers >= cap || policy.should_stop(state, answers)
                });
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
        self.engine.materialize();
        let known = self.seen_workers.contains(&worker) || self.engine.registry().contains(worker);
        if !known {
            return WorkRequest::Golden(self.golden_ids.clone());
        }
        let quality = self.engine.registry().quality_of(worker);
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
        let marks = &mut self.answered;
        let own = log.worker_answers(worker);
        for &(t, _) in own {
            marks[t.index()] = true;
        }
        let marked = &*marks;
        // Adaptive stopping excludes confident tasks the same way an
        // already-answered task is excluded.
        let answered = |t: docs_types::TaskId| {
            marked[t.index()]
                || stopping.is_some_and(|policy| {
                    policy.should_stop(states.view(t.index()), log.answer_count(t))
                })
        };
        // The paper's benefit scan, walked per task shard into the
        // campaign's own buffers.
        let picks = assigner.assign_sharded_with(
            &mut self.scan,
            &quality,
            engine.tasks(),
            states,
            engine.sharding(),
            answered,
            |t| log.answer_count(t),
        );
        for &(t, _) in own {
            marks[t.index()] = false;
        }
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
    /// (Figure 1, arrow ⑤) for a whole HIT, the way the service's shard
    /// does: [`Docs::filter_answer_batch`], then what is left applied as one
    /// [`CampaignEvent::AnswerBatchSubmitted`] (incremental TI plus periodic
    /// full inference, in order). Returns the rejected answers with their
    /// positions and errors; an empty remainder applies no event.
    pub fn submit_answer_batch(&mut self, mut answers: Vec<Answer>) -> Result<Vec<(usize, Error)>> {
        let rejected = self.filter_answer_batch(&mut answers);
        if !answers.is_empty() {
            self.apply(&CampaignEvent::answer_batch(answers))?;
        }
        Ok(rejected)
    }

    /// Partitions a batch into the answers that would be accepted (in
    /// order) and the rejected ones with their positions and errors:
    /// [`Docs::filter_answer_batch`] over a copy of `answers`.
    pub fn validate_answer_batch(
        &mut self,
        answers: &[Answer],
    ) -> (Vec<Answer>, Vec<(usize, Error)>) {
        let mut accepted = answers.to_vec();
        let rejected = self.filter_answer_batch(&mut accepted);
        (accepted, rejected)
    }

    /// The validation front of the batched ingestion path: keeps in
    /// `answers`, in order, the answers that would be accepted and returns
    /// the rejected ones with their positions and errors. The service
    /// filters a request's own vector this way and logs what remains as
    /// the batch event. Nothing but the campaign's working buffers is
    /// touched.
    pub fn filter_answer_batch(&mut self, answers: &mut Vec<Answer>) -> Vec<(usize, Error)> {
        let mut rejected = Vec::new();
        let mut seen = std::mem::take(&mut self.batch_seen);
        seen.clear();
        let mut next = 0;
        answers.retain(|&answer| {
            let position = next;
            next += 1;
            let verdict = self.validate_answer(&answer).and_then(|()| {
                // A duplicate *within* the batch is rejected exactly like
                // a duplicate against the log: the earlier answer wins.
                if seen.insert((answer.worker, answer.task)) {
                    Ok(())
                } else {
                    Err(Error::DuplicateAnswer {
                        task: answer.task,
                        worker: answer.worker,
                    })
                }
            });
            match verdict {
                Ok(()) => true,
                Err(e) => {
                    rejected.push((position, e));
                    false
                }
            }
        });
        self.batch_seen = seen;
        rejected
    }

    /// Validates one answer against the current state: known task, in-range
    /// choice, not a duplicate of a logged answer. Answers arriving after
    /// the collection budget is consumed are absorbed, as in the paper's
    /// deployment (workers who raced on the final HITs still get paid).
    fn validate_answer(&self, answer: &Answer) -> Result<()> {
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
    /// touching any state but the campaign's working buffers. The durable
    /// runtime calls this *before* logging a command so rejected requests
    /// (duplicate answers, unknown tasks) never reach the write-ahead log.
    pub fn validate_event(&mut self, event: &CampaignEvent) -> Result<()> {
        // The pairs a golden submission or a batch has named so far, in the
        // campaign's reused set (taken out so the checks can borrow `self`).
        let mut seen = std::mem::take(&mut self.batch_seen);
        seen.clear();
        let verdict = self.validate_event_with(event, &mut seen);
        self.batch_seen = seen;
        verdict
    }

    fn validate_event_with(
        &self,
        event: &CampaignEvent,
        seen: &mut HashSet<(WorkerId, TaskId)>,
    ) -> Result<()> {
        let mut first_time = |worker: WorkerId, task: TaskId| {
            if seen.insert((worker, task)) {
                Ok(())
            } else {
                Err(Error::DuplicateAnswer { task, worker })
            }
        };
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
                    // A task named twice would count its label twice.
                    first_time(g.worker, tid)?;
                }
                Ok(())
            }
            CampaignEvent::AnswerSubmitted(a) => self.validate_answer(&a.answer),
            CampaignEvent::AnswerBatchSubmitted(b) => {
                // A loggable batch must apply *in full*: every answer valid
                // against the state, no duplicates within the batch (the
                // service pre-filters with `filter_answer_batch`, so a
                // failure here means a mispaired or tampered log).
                for answer in &b.answers {
                    self.validate_answer(answer)?;
                    first_time(answer.worker, answer.task)?;
                }
                Ok(())
            }
        }
    }

    /// The deterministic state transition: applies one event to the state
    /// machine. Replaying a logged event sequence over a restored snapshot
    /// reproduces the live state exactly — the transition reads no clock, no
    /// randomness, and no iteration order of unordered containers.
    ///
    /// An answer's inference is owed, not paid (see
    /// [`IncrementalTi::record`]): the next read pays it. A campaign whose
    /// apply path itself reads the inference stays eager — one with a
    /// parameter store writes each answering worker's statistics, and one
    /// with a stopping policy reads the states in every
    /// [`Docs::budget_exhausted`].
    pub fn apply(&mut self, event: &CampaignEvent) -> Result<()> {
        let applied = match event {
            // `Published` marks the birth of the log; the state it describes
            // is the snapshot it rides with, so applying it is a no-op.
            CampaignEvent::Published(_) => Ok(()),
            CampaignEvent::GoldenSubmitted(g) => self.apply_golden(g.worker, &g.answers),
            // Decode-only: older logs hold one record per answer. Full
            // validation first, so a rejected answer leaves the state
            // untouched and carries the same error as on the batch front.
            CampaignEvent::AnswerSubmitted(a) => self
                .validate_answer(&a.answer)
                .and_then(|()| self.apply_answer_batch(std::slice::from_ref(&a.answer))),
            CampaignEvent::AnswerBatchSubmitted(b) => self.apply_answer_batch(&b.answers),
            CampaignEvent::Finished(_) => self.apply_finished(),
        };
        if self.config.stopping.is_some() {
            self.engine.materialize();
        }
        applied
    }

    fn apply_golden(&mut self, worker: WorkerId, answers: &[(TaskId, ChoiceIndex)]) -> Result<()> {
        self.engine
            .grade_worker_on_golden(worker, answers, self.config.golden_smoothing)?;
        self.seen_workers.insert(worker);
        self.persist_worker(worker)?;
        Ok(())
    }

    fn apply_answer_batch(&mut self, answers: &[Answer]) -> Result<()> {
        // One engine pass, then one parameter-store write per distinct
        // worker — the same final store contents as per-answer persistence.
        // The BTreeSet keeps the write order deterministic.
        for &answer in answers {
            self.engine.record(answer)?;
        }
        for answer in answers {
            self.seen_workers.insert(answer.worker);
        }
        if self.store.is_some() {
            let workers: std::collections::BTreeSet<WorkerId> =
                answers.iter().map(|a| a.worker).collect();
            for worker in workers {
                self.persist_worker(worker)?;
            }
        }
        Ok(())
    }

    /// Writes back the workers this campaign saw — not the ones it only
    /// loaded at publish, whose stored copy another requester may have
    /// updated since — then compacts the store.
    fn apply_finished(&mut self) -> Result<()> {
        self.engine.run_final();
        if let Some(store) = self.store.clone() {
            for worker in self.sorted_seen_workers() {
                self.persist_worker(worker)?;
            }
            store.compact()?;
        }
        Ok(())
    }

    /// The requester report under the current state, once the owed
    /// inference is paid. The report after [`CampaignEvent::Finished`]
    /// depends only on the tasks, the answer log, and the golden registry
    /// (the full inference recomputes everything from them), so a recovered
    /// campaign that reaches the same log reports byte-identical truths.
    pub fn report(&mut self) -> RequesterReport {
        self.engine.materialize();
        RequesterReport {
            truth_distributions: self
                .engine
                .states()
                .iter()
                .map(|s| s.s().to_vec())
                .collect(),
            answers_collected: self.answers_collected(),
            truths: self.engine.truths(),
        }
    }

    /// Captures the campaign's full state. Panics with inference owed: call
    /// [`Docs::materialize`] first, or take [`Docs::snapshot_bytes`].
    pub fn snapshot(&self) -> CampaignSnapshot {
        CampaignSnapshot {
            engine: self.engine.snapshot(),
            golden_ids: self.golden_ids.clone(),
            seen_workers: self.sorted_seen_workers(),
            config: self.config.clone(),
        }
    }

    /// The campaign's snapshot record, once the owed inference is paid: the
    /// bytes of `codec::to_bytes(&self.snapshot())`, streamed from the live
    /// state without copying it into a [`CampaignSnapshot`] first. This is
    /// what the durable service writes and ships.
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        self.engine.materialize();
        codec::to_bytes(&LiveSnapshot {
            docs: self,
            seen_workers: self.sorted_seen_workers(),
        })
    }

    fn sorted_seen_workers(&self) -> Vec<WorkerId> {
        let mut seen_workers: Vec<WorkerId> = self.seen_workers.iter().copied().collect();
        seen_workers.sort_unstable();
        seen_workers
    }

    /// Rebuilds a campaign from a snapshot. The parameter database at
    /// `config.storage_dir`, when one was configured, is reopened (or its
    /// live handle shared); its contents are *not* re-merged into the
    /// registry — the snapshot already carries the exact live statistics,
    /// and `Finished` writes back only the workers the campaign saw.
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
            // The request buffers, sized from the engine it then takes.
            scan: ScanScratch::new(engine.registry().num_domains()),
            answered: vec![false; engine.tasks().len()],
            engine,
            golden_ids: snapshot.golden_ids,
            seen_workers: snapshot.seen_workers.into_iter().collect(),
            config: snapshot.config,
            store,
            batch_seen: HashSet::new(),
        })
    }

    /// Rebuilds campaign `id` from its serialized snapshot plus the ordered
    /// event suffix the write-ahead log recovered after it — the recovery
    /// path of the durable service.
    ///
    /// Event payloads are the codec records of the [`CampaignEvent`]s the
    /// service logged. Malformed bytes fail loudly ([`Error::Storage`]),
    /// while events whose *application* is rejected are counted and skipped
    /// (the same rejection happened live, deterministically).
    ///
    /// The events are generic over any borrowable byte container so the
    /// zero-copy recovery path can pass arena-backed views without first
    /// copying each payload into an owned `Vec<u8>`.
    pub fn replay(
        id: CampaignId,
        snapshot: &[u8],
        events: &[impl AsRef<[u8]>],
    ) -> Result<(Docs, ReplayStats)> {
        let snapshot: CampaignSnapshot = codec::from_bytes(snapshot)
            .map_err(|e| Error::Storage(format!("campaign {id} snapshot: {e}")))?;
        let mut docs = Docs::restore(snapshot)?;
        let mut stats = ReplayStats::default();
        for (i, raw) in events.iter().enumerate() {
            let event: CampaignEvent = codec::decode_event(raw.as_ref())
                .map_err(|e| Error::Storage(format!("campaign {id} event {i}: {e}")))?;
            // A `Published` marker pins the shape the snapshot must
            // satisfy — a mismatch means the snapshot and log belong to
            // different campaigns (mispaired files, tampering).
            if let CampaignEvent::Published(p) = &event {
                if p.num_tasks as usize != docs.tasks().len() {
                    return Err(Error::Storage(format!(
                        "campaign {id} snapshot/log mismatch: log published {} tasks, \
                         snapshot holds {}",
                        p.num_tasks,
                        docs.tasks().len()
                    )));
                }
            }
            match docs.apply(&event) {
                Ok(()) => stats.applied += 1,
                Err(Error::Storage(msg)) => {
                    // A storage failure during replay (e.g. the campaign's
                    // parameter database is unwritable) is not deterministic
                    // rejection — surface it.
                    return Err(Error::Storage(format!("campaign {id} event {i}: {msg}")));
                }
                Err(_) => stats.rejected += 1,
            }
        }
        Ok((docs, stats))
    }

    /// Writes the worker's live statistics to the parameter store, if the
    /// campaign has one — a read of the inference, so it is paid first.
    fn persist_worker(&mut self, worker: WorkerId) -> Result<()> {
        if self.store.is_none() {
            return Ok(());
        }
        self.engine.materialize();
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
    use docs_types::{codec, AnswerSubmittedEvent, DomainVector, TaskBuilder};

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
                        served += tasks.len();
                        if served > 100 {
                            panic!("budget never exhausted");
                        }
                        let hit = tasks
                            .into_iter()
                            .map(|task| Answer {
                                task,
                                worker: w,
                                choice: 0,
                            })
                            .collect();
                        assert_eq!(docs.submit_answer_batch(hit), Ok(vec![]));
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
        use docs_core::ti::StoppingPolicy;
        let kb = table2_example_kb();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 4,
            answers_per_task: 10,
            z: 1, // full inference after every answer, deterministic states
            stopping: Some(StoppingPolicy {
                // H([0.95, 0.05]) ≈ 0.199 nats.
                entropy_below: 0.2,
                min_answers: 2,
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
            let answer = Answer {
                task: TaskId(0),
                worker: w,
                choice: docs.tasks()[0].ground_truth.unwrap(),
            };
            assert_eq!(docs.submit_answer_batch(vec![answer]), Ok(vec![]));
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
        use docs_core::ti::StoppingPolicy;
        let kb = table2_example_kb();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 4,
            answers_per_task: 10,
            z: 1,
            stopping: Some(StoppingPolicy {
                // H([0.9, 0.1]) ≈ 0.325 nats.
                entropy_below: 0.33,
                min_answers: 2,
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
            let hit = (0..2usize)
                .map(|t| Answer {
                    task: TaskId::from(t),
                    worker: w,
                    choice: docs.tasks()[t].ground_truth.unwrap(),
                })
                .collect();
            assert_eq!(docs.submit_answer_batch(hit), Ok(vec![]));
        }
        // 3 unanimous expert answers per task: both tasks stop well short
        // of the 10-answer flat budget (6 of 20 answers spent).
        assert!(docs.budget_exhausted());
        assert_eq!(docs.answers_collected(), 6);
        assert!(matches!(docs.request_tasks(WorkerId(9)), WorkRequest::Done));
    }

    /// The paper's deployment absorbs answers that arrive after the budget
    /// is consumed (workers who raced on the final HITs still get paid),
    /// on every path: the logged event, a one-answer HIT and a larger one.
    #[test]
    fn late_answers_are_absorbed_after_the_budget() {
        let kb = table2_example_kb();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 2,
            answers_per_task: 1,
            z: 10,
            ..Default::default()
        };
        let mut docs = Docs::publish(&kb, example_tasks(2), config).unwrap();
        let hit = (0..2usize)
            .map(|t| Answer {
                task: TaskId::from(t),
                worker: WorkerId(0),
                choice: 0,
            })
            .collect();
        assert_eq!(docs.submit_answer_batch(hit), Ok(vec![]));
        assert!(docs.budget_exhausted());
        let late = |worker: u32| Answer {
            task: TaskId(0),
            worker: WorkerId(worker),
            choice: 0,
        };
        assert_eq!(
            docs.validate_event(&CampaignEvent::answer_batch(vec![late(8)])),
            Ok(())
        );
        assert_eq!(docs.submit_answer_batch(vec![late(9)]), Ok(vec![]));
        assert_eq!(
            docs.submit_answer_batch(vec![late(10), late(11)]),
            Ok(vec![])
        );
        assert_eq!(docs.answers_collected(), 5);
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
        let hit = (0..6usize)
            .map(|t| Answer {
                task: TaskId::from(t),
                worker: WorkerId(0),
                choice: 0,
            })
            .collect();
        assert_eq!(docs.submit_answer_batch(hit), Ok(vec![]));
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
            let hit = (0..4usize)
                .map(TaskId::from)
                .filter(|&tid| !docs.engine().log().has_answered(w, tid))
                .map(|tid| Answer {
                    task: tid,
                    worker: w,
                    choice: docs.tasks()[tid.index()].ground_truth.unwrap(),
                })
                .collect();
            assert_eq!(docs.submit_answer_batch(hit), Ok(vec![]));
        }
        let report = docs.finish().unwrap();
        let ground: Vec<_> = docs
            .tasks()
            .iter()
            .map(|t| t.ground_truth.unwrap())
            .collect();
        assert_eq!(report.truths, ground);
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
        // The per-answer side applies raw `AnswerSubmitted` records, the
        // form older logs hold, so the decode-only arm stays pinned.
        for &answer in &answers {
            one_by_one
                .apply(&CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent {
                    answer,
                }))
                .unwrap();
        }
        batched
            .apply(&CampaignEvent::answer_batch(answers.clone()))
            .unwrap();
        assert_eq!(one_by_one.snapshot_bytes(), batched.snapshot_bytes());
        let (a, b) = (one_by_one.finish().unwrap(), batched.finish().unwrap());
        assert_eq!(a.truths, b.truths);
        assert_eq!(a.truth_distributions, b.truth_distributions);
        assert_eq!(a.answers_collected, b.answers_collected);
    }

    /// The replay twin of the test above: one log of per-answer
    /// `AnswerSubmitted` records and one of the same answers as one-answer
    /// `AnswerBatchSubmitted` records, a duplicate among them, replay over
    /// one snapshot to the same bytes, report and stats.
    #[test]
    fn replaying_per_answer_records_equals_replaying_one_answer_batches() {
        let kb = table2_example_kb();
        let config = DocsConfig {
            z: 3, // the periodic full inference fires mid-log
            ..small_config()
        };
        let docs = Docs::publish(&kb, example_tasks(6), config).unwrap();
        let snapshot = codec::to_bytes(&docs.snapshot());
        let mut answers: Vec<Answer> = (0..6)
            .flat_map(|t| {
                (0..2u32).map(move |w| Answer {
                    task: TaskId::from(t),
                    worker: WorkerId(w),
                    choice: (t * 3 + w as usize) % 2,
                })
            })
            .collect();
        // Worker 1 answers task 2 a second time: rejected on replay.
        answers.insert(
            5,
            Answer {
                task: TaskId(2),
                worker: WorkerId(1),
                choice: 0,
            },
        );
        let log = |event: fn(Answer) -> CampaignEvent| {
            let mut log: Vec<Vec<u8>> = answers
                .iter()
                .map(|&a| codec::encode_event(&event(a)))
                .collect();
            log.push(codec::encode_event(&CampaignEvent::finished()));
            log
        };
        let single = log(|answer| CampaignEvent::AnswerSubmitted(AnswerSubmittedEvent { answer }));
        let batched = log(|answer| CampaignEvent::answer_batch(vec![answer]));
        let (mut a, a_stats) = Docs::replay(CampaignId(1), &snapshot, &single).unwrap();
        let (mut b, b_stats) = Docs::replay(CampaignId(1), &snapshot, &batched).unwrap();
        assert_eq!(a_stats.rejected, 1, "the duplicate is rejected");
        assert_eq!(a_stats, b_stats);
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
        let (a, b) = (a.report(), b.report());
        assert_eq!(a.truths, b.truths);
        assert_eq!(a.truth_distributions, b.truth_distributions);
        assert_eq!(a.answers_collected, b.answers_collected);
    }

    #[test]
    fn batch_rejects_bad_answers_and_applies_the_rest() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(4), small_config()).unwrap();
        let w = WorkerId(0);
        let first = Answer {
            task: TaskId(0),
            worker: w,
            choice: 0,
        };
        assert_eq!(docs.submit_answer_batch(vec![first]), Ok(vec![]));
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
        let rejected = docs.submit_answer_batch(batch.to_vec()).unwrap();
        assert_eq!(
            rejected.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
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
        assert_eq!(docs.submit_answer_batch(Vec::new()), Ok(vec![]));
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
        let answer = Answer {
            task: TaskId(0),
            worker: w,
            choice: 0,
        };
        assert_eq!(docs.submit_answer_batch(vec![answer]), Ok(vec![]));
        // Snapshot → record → restore: every probability must round-trip
        // exactly, and the restored machine must serve identically. The
        // record streamed from the live campaign is the copy's, byte for byte.
        let bytes = docs.snapshot_bytes();
        assert_eq!(codec::to_bytes(&docs.snapshot()), bytes);
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
    /// `config.use_benefit_index` and `config.context_weight`; the derive
    /// looks fields up by name, so the extra keys are ignored and the
    /// campaign restores onto the scan.
    #[test]
    fn restore_ignores_the_retired_index_flag_of_older_snapshots() {
        use serde::Value;
        let kb = table2_example_kb();
        let docs = Docs::publish(&kb, example_tasks(6), small_config()).unwrap();
        let mut old = serde::to_value(&docs.snapshot());
        let Value::Map(top) = &mut old else {
            panic!("snapshots serialize as a map");
        };
        let config = top.iter_mut().find(|(k, _)| k == "config").unwrap();
        let Value::Map(config) = &mut config.1 else {
            panic!("configs serialize as a map");
        };
        config.push(("use_benefit_index".into(), Value::Bool(true)));
        config.push(("context_weight".into(), Value::Float(0.5)));
        let snapshot: CampaignSnapshot = serde::from_value(&old).unwrap();
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

    /// Task ids are positions: publish refuses a task set whose ids are
    /// not, naming the first task out of place, instead of assigning by
    /// the wrong ids.
    #[test]
    fn publish_refuses_task_ids_that_are_not_positions() {
        let kb = table2_example_kb();
        let mut tasks = example_tasks(6);
        tasks.swap(2, 4);
        let err = Docs::publish(&kb, tasks, small_config()).unwrap_err();
        assert!(err.to_string().contains("task 2 has id"), "{err}");
    }

    /// A stopping minimum above the flat per-task budget can never fire
    /// (OTA stops assigning a task at `answers_per_task` first), so publish
    /// and restore refuse it; with the flat budget off (0), or at the
    /// budget, it stands.
    #[test]
    fn publish_and_restore_refuse_a_stopping_minimum_above_the_flat_budget() {
        use docs_core::ti::StoppingPolicy;
        let kb = table2_example_kb();
        let capped = |answers_per_task, min_answers| DocsConfig {
            answers_per_task,
            stopping: Some(StoppingPolicy {
                entropy_below: 0.1,
                min_answers,
            }),
            ..small_config()
        };
        let err = Docs::publish(&kb, example_tasks(6), capped(3, 4)).unwrap_err();
        assert!(err.to_string().contains("`stopping`"), "{err}");
        assert!(err.to_string().contains("answers_per_task 3"), "{err}");
        for (flat, min) in [(3, 3), (0, 4)] {
            assert!(Docs::publish(&kb, example_tasks(6), capped(flat, min)).is_ok());
        }
        let mut snapshot = Docs::publish(&kb, example_tasks(6), small_config())
            .unwrap()
            .snapshot();
        assert!(restore_through_codec(&snapshot).is_ok(), "control");
        snapshot.config = capped(3, 4);
        let err = restore_through_codec(&snapshot).unwrap_err();
        assert!(err.to_string().contains("`stopping`"), "{err}");
    }

    /// `linker.top_c == 0` used to pass `check_config` and panic in
    /// `EntityLinker::new` during publish.
    #[test]
    fn publish_and_restore_refuse_a_linker_keeping_no_candidate() {
        let kb = table2_example_kb();
        let mut blind = small_config();
        blind.linker.top_c = 0;
        let err = Docs::publish(&kb, example_tasks(6), blind.clone()).unwrap_err();
        assert!(err.to_string().contains("`linker.top_c`"), "{err}");
        let mut snapshot = Docs::publish(&kb, example_tasks(6), small_config())
            .unwrap()
            .snapshot();
        snapshot.config = blind;
        let err = restore_through_codec(&snapshot).unwrap_err();
        assert!(err.to_string().contains("`linker.top_c`"), "{err}");
    }

    /// A context weight of `1e308` used to overflow the linker's boost and
    /// panic in publish ("probs are finite"); at infinity the Table 2 task
    /// got a NaN candidate probability. Both, a NaN and a negative weight
    /// are refused at publish and restore, naming the field; the largest
    /// allowed weight links the Table 2 task to finite probabilities.
    #[test]
    fn publish_and_restore_refuse_a_context_weight_that_can_overflow() {
        let kb = table2_example_kb();
        let table2 = || {
            vec![TaskBuilder::new(
                0,
                "Does Michael Jordan win more NBA championships than Kobe Bryant?",
            )
            .yes_no()
            .with_ground_truth(1)
            .build()
            .unwrap()]
        };
        let weighted = |context_weight| {
            let mut config = small_config();
            config.num_golden = 0;
            config.linker.context_weight = context_weight;
            config
        };
        for w in [1e308, f64::INFINITY, f64::NAN, -0.5] {
            let err = Docs::publish(&kb, table2(), weighted(w)).unwrap_err();
            assert!(
                err.to_string().contains("`linker.context_weight`"),
                "{w}: {err}"
            );
            let mut snapshot = Docs::publish(&kb, example_tasks(6), small_config())
                .unwrap()
                .snapshot();
            snapshot.config = weighted(w);
            let err = restore_through_codec(&snapshot).unwrap_err();
            assert!(
                err.to_string().contains("`linker.context_weight`"),
                "{w}: {err}"
            );
        }
        for w in [0.0, 0.5, LinkerConfig::MAX_CONTEXT_WEIGHT] {
            let docs = Docs::publish(&kb, table2(), weighted(w)).unwrap();
            let r = docs.tasks()[0].domain_vector.as_ref().unwrap();
            assert!(r.as_slice().iter().all(|v| v.is_finite()), "{w}: {r:?}");
            let entities = EntityLinker::new(&kb, weighted(w).linker).link(&docs.tasks()[0].text);
            assert!(
                entities
                    .iter()
                    .flat_map(|e| &e.probs)
                    .all(|p| p.is_finite()),
                "{w}"
            );
        }
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
    fn replay_restores_snapshot_plus_event_suffix() {
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
        let answer = Answer {
            task: TaskId(1),
            worker: w,
            choice: 1,
        };
        let duplicate = Answer {
            choice: 0,
            ..answer
        };
        // Events after the snapshot: golden init, one answer, one duplicate
        // (a deterministic rejection), finish.
        let events = [
            CampaignEvent::golden(w, golden_answers.clone()),
            CampaignEvent::answer_batch(vec![answer]),
            CampaignEvent::answer_batch(vec![duplicate]),
            CampaignEvent::finished(),
        ];
        let payloads: Vec<Vec<u8>> = events.iter().map(codec::encode_event).collect();
        // Drive the live machine through the same (accepted) transitions.
        live.submit_golden(w, &golden_answers).unwrap();
        assert_eq!(live.submit_answer_batch(vec![answer]), Ok(vec![]));
        let reference = live.finish().unwrap();

        let (mut docs, stats) = Docs::replay(CampaignId(3), &snapshot, &payloads).unwrap();
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.rejected, 1, "duplicate answer skipped");
        let replayed = docs.report();
        assert_eq!(replayed.truths, reference.truths);
        assert_eq!(replayed.truth_distributions, reference.truth_distributions);
        // Garbage event bytes fail loudly.
        let err = Docs::replay(CampaignId(4), &snapshot, &[b"not a record".to_vec()]).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
        // A `Published` marker disagreeing with the snapshot's task count
        // means the snapshot and log are mispaired — refuse to replay.
        let mispaired =
            codec::encode_event(&CampaignEvent::Published(docs_types::PublishedEvent {
                campaign: CampaignId(5),
                num_tasks: 999,
                num_golden: 2,
            }));
        let err = Docs::replay(CampaignId(5), &snapshot, &[mispaired]).unwrap_err();
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
        assert_eq!(docs.submit_answer_batch(vec![good]), Ok(vec![]));
        let before = docs.answers_collected();
        let one = |answer| CampaignEvent::answer_batch(vec![answer]);
        // Duplicate, unknown task, out-of-range choice.
        assert!(docs.validate_event(&one(good)).is_err());
        assert!(docs
            .validate_event(&one(Answer {
                task: TaskId(99),
                worker: WorkerId(1),
                choice: 0,
            }))
            .is_err());
        assert!(docs
            .validate_event(&one(Answer {
                task: TaskId(1),
                worker: WorkerId(1),
                choice: 9,
            }))
            .is_err());
        assert!(docs
            .validate_event(&one(Answer {
                task: TaskId(1),
                worker: WorkerId(1),
                choice: 1,
            }))
            .is_ok());
        assert_eq!(docs.answers_collected(), before, "validation is pure");
    }

    /// A golden submission naming one task twice would count that label
    /// twice. The durable runtime's front (`validate_event`) and the
    /// transition itself (`submit_golden`) both refuse it, naming the
    /// repeated task, and the worker stays ungraded in both registries.
    #[test]
    fn a_golden_submission_naming_a_task_twice_is_refused() {
        let kb = table2_example_kb();
        let mut docs = Docs::publish(&kb, example_tasks(6), small_config()).unwrap();
        let w = WorkerId(7);
        let (g, h) = (docs.golden_ids()[0], docs.golden_ids()[1]);
        let label = |t: TaskId| docs.tasks()[t.index()].ground_truth.unwrap();
        let (g_label, h_label) = (label(g), label(h));
        let twice = vec![(g, g_label), (h, h_label), (g, g_label)];
        let duplicate = Err(Error::DuplicateAnswer { task: g, worker: w });
        assert_eq!(
            docs.validate_event(&CampaignEvent::golden(w, twice.clone())),
            duplicate
        );
        assert_eq!(docs.submit_golden(w, &twice), duplicate);
        let engine = docs.snapshot().engine;
        assert!(!engine.registry.contains(w) && !engine.golden_registry.contains(w));
        assert!(docs.snapshot().seen_workers.is_empty());
        // Once each, the same tasks grade the worker.
        let once = &twice[..2];
        assert_eq!(
            docs.validate_event(&CampaignEvent::golden(w, once.to_vec())),
            Ok(())
        );
        docs.submit_golden(w, once).unwrap();
        let engine = docs.snapshot().engine;
        assert_eq!(engine.registry.get(w), engine.golden_registry.get(w));
        assert!(engine.registry.contains(w));
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
            let answer = Answer {
                task: TaskId(0),
                worker: w,
                choice: 0,
            };
            assert_eq!(docs.submit_answer_batch(vec![answer]), Ok(vec![]));
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
