//! One *repeat* of a workload: fresh state, the seed's op stream driven
//! through the public API by one client thread, every output checked,
//! everything torn down again.

use crate::alloc::allocations;
use crate::inputs::{CampaignInput, Inputs, Topology, Workload};
use crate::stats::Fnv;
use docs_replication::{bootstrap_frames, replication_channel, HubStats, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, BatchOutcome, DocsService, DurabilityConfig, ServiceConfig, ServiceError,
    ServiceHandle, ServiceMetrics, Ticket,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, DocsConfig, RequesterReport, WorkRequest};
use docs_types::{Answer, CampaignEvent, CampaignId, ChoiceIndex, Task, TaskId, WorkerId};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long any wait on the system may take before the repeat is failed.
const STALL: Duration = Duration::from_secs(60);

/// Trace sampling of a traced drive: one request in eight.
pub const TRACE_EVERY: u64 = 8;

/// Calls between two flight-recorder harvests of a traced drive: with
/// 1-in-[`TRACE_EVERY`] sampling the 256-trace ring holds 2048 calls.
const HARVEST_EVERY: u64 = 1024;

// ---------------------------------------------------------------------
// Topology set-up and teardown
// ---------------------------------------------------------------------

/// A running service topology.
pub struct Stack {
    pub service: DocsService,
    pub handle: ServiceHandle,
    pub campaigns: Vec<CampaignId>,
    /// The pool's config without its replication sink — what
    /// `DocsService::recover` is handed after the crash.
    pub config: ServiceConfig,
    pub hub: Option<ReplicationHub>,
    pub replica: Option<Replica>,
}

/// Where set-up time went (input generation is never in here).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: Duration,
    /// `DocsService::spawn_empty`.
    pub spawn: Duration,
    /// `Docs::publish` (entity linking + DVE + golden selection), summed.
    pub publish: Duration,
    /// `ServiceHandle::create_campaign`, summed.
    pub create: Duration,
    /// Hub spawn, subscribe, `bootstrap_frames`, `Replica::spawn`, and the
    /// follower reaching every campaign's creation watermark.
    pub bootstrap: Duration,
}

/// The per-campaign config at `topology`.
fn docs_config(inputs: &Inputs, topology: Topology) -> DocsConfig {
    DocsConfig {
        durable_flush: (topology != Topology::Mem).then_some(FlushPolicy::EveryEvent),
        ..inputs.spec.docs.clone()
    }
}

/// Polls `ready` until it holds; `false` after [`STALL`].
fn wait_until(mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + STALL;
    while !ready() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    true
}

/// Builds the service at `topology` (a ladder rung may run a workload's
/// traffic below its own topology) and registers every campaign.
pub fn setup(
    inputs: &Inputs,
    topology: Topology,
    dir: &Path,
    trace_every: u64,
) -> Result<(Stack, SetupTimes), String> {
    // Cloning the generated tasks is input handling, not set-up.
    let task_sets: Vec<Vec<Task>> = inputs.campaigns.iter().map(|c| c.tasks.clone()).collect();
    let docs_config = docs_config(inputs, topology);
    let _ = std::fs::remove_dir_all(dir);

    let mut times = SetupTimes::default();
    let started = Instant::now();
    let config = ServiceConfig {
        shards: inputs.spec.shards,
        durability: (topology != Topology::Mem).then(|| DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: FlushPolicy::EveryEvent,
            // The service's default cadence (`DurabilityConfig::new`). At
            // 256 every repeat wrote 455 snapshots (two fsyncs each) and
            // run-to-run spread on this box's shared disk was 12%; at
            // 1024 it is 114 snapshots and 3%.
            snapshot_every: 1024,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
    .with_trace_sampling(trace_every);
    let (spawned, feed) = if topology == Topology::Replicated {
        let (sink, feed) = replication_channel();
        let with_sink = config.clone().with_replication(sink);
        (DocsService::spawn_empty(with_sink), Some(feed))
    } else {
        (DocsService::spawn_empty(config.clone()), None)
    };
    let (service, handle) = spawned.map_err(|e| format!("spawn: {e}"))?;
    times.spawn = started.elapsed();

    let mut campaigns = Vec::with_capacity(task_sets.len());
    for tasks in task_sets {
        let t = Instant::now();
        let docs = Docs::publish(&inputs.kb, tasks, docs_config.clone())
            .map_err(|e| format!("publish: {e}"))?;
        times.publish += t.elapsed();
        let t = Instant::now();
        let id = handle.create_campaign(docs);
        campaigns.push(id.map_err(|e| format!("create campaign: {e}"))?);
        times.create += t.elapsed();
    }

    let (mut hub, mut replica) = (None, None);
    if let Some(feed) = feed {
        let t = Instant::now();
        let h = ReplicationHub::spawn(feed);
        // Subscribe first, scan second: the watermark table drops the
        // overlap and a gap is impossible.
        let link = h.subscribe("bench-follower");
        let bootstrap = bootstrap_frames(dir).map_err(|e| format!("bootstrap scan: {e}"))?;
        let r = Replica::spawn(ServiceConfig::follower(1), link, bootstrap)
            .map_err(|e| format!("spawn replica: {e}"))?;
        if !wait_until(|| campaigns.iter().all(|&c| r.watermark(c) >= 1)) {
            return Err(format!("follower never bootstrapped: {:?}", r.error()));
        }
        times.bootstrap = t.elapsed();
        hub = Some(h);
        replica = Some(r);
    }
    times.total = started.elapsed();
    let stack = Stack {
        service,
        handle,
        campaigns,
        config,
        hub,
        replica,
    };
    Ok((stack, times))
}

/// Stops every thread of the topology and waits for each.
pub fn teardown(stack: Stack) {
    drop(stack.handle);
    stack.service.join_all();
    if let Some(hub) = stack.hub {
        hub.join();
    }
    if let Some(replica) = stack.replica {
        let (follower, follower_handle) = replica.detach();
        drop(follower_handle);
        follower.join_all();
    }
}

// ---------------------------------------------------------------------
// What the client talks to
// ---------------------------------------------------------------------

/// A submitted call: in flight on a shard, or already answered (the
/// `Docs`-only rung has no queue to wait on).
pub enum Reply<T> {
    Ticket(Ticket<T>),
    Ready(Result<T, ServiceError>),
}

impl<T> Reply<T> {
    fn is_ready(&self) -> bool {
        matches!(self, Reply::Ready(_))
    }

    fn wait(self) -> Result<T, ServiceError> {
        match self {
            Reply::Ticket(ticket) => ticket.wait(),
            Reply::Ready(result) => result,
        }
    }
}

/// A submitted call plus the correlation id the service gave it.
pub type Sent<T> = Result<(Reply<T>, u64), ServiceError>;

/// The four calls of a campaign session, by campaign index.
pub trait Backend {
    fn request(&self, campaign: usize, worker: WorkerId) -> Sent<WorkRequest>;
    fn golden(
        &self,
        campaign: usize,
        worker: WorkerId,
        answers: Vec<(TaskId, ChoiceIndex)>,
    ) -> Sent<()>;
    fn batch(&self, campaign: usize, answers: Vec<Answer>) -> Sent<BatchOutcome>;
    fn finish(&self, campaign: usize) -> Sent<RequesterReport>;
}

fn ticket<T>(ticket: Result<Ticket<T>, ServiceError>) -> Sent<T> {
    let ticket = ticket?;
    let correlation = ticket.correlation();
    Ok((Reply::Ticket(ticket), correlation))
}

/// The real service, through its pipelined ticket API.
pub struct ServiceBackend<'a> {
    pub handle: &'a ServiceHandle,
    pub campaigns: &'a [CampaignId],
}

impl Backend for ServiceBackend<'_> {
    fn request(&self, campaign: usize, worker: WorkerId) -> Sent<WorkRequest> {
        ticket(
            self.handle
                .request_tasks_ticket_in(self.campaigns[campaign], worker),
        )
    }

    fn golden(
        &self,
        campaign: usize,
        worker: WorkerId,
        answers: Vec<(TaskId, ChoiceIndex)>,
    ) -> Sent<()> {
        ticket(
            self.handle
                .submit_golden_ticket_in(self.campaigns[campaign], worker, answers),
        )
    }

    fn batch(&self, campaign: usize, answers: Vec<Answer>) -> Sent<BatchOutcome> {
        ticket(
            self.handle
                .submit_answer_batch_ticket_in(self.campaigns[campaign], answers),
        )
    }

    fn finish(&self, campaign: usize) -> Sent<RequesterReport> {
        ticket(self.handle.finish_ticket_in(self.campaigns[campaign]))
    }
}

/// The `Docs`-only rung: the same calls made straight on the state
/// machines, validate-then-apply as the service's shard loop does it, with
/// no envelope, queue, log or completion in between.
pub struct DirectBackend {
    docs: RefCell<Vec<Docs>>,
    /// Time inside `validate_answer_batch` / `validate_event`.
    pub validate_ns: Cell<u64>,
    /// Time inside `Docs::apply`.
    pub apply_ns: Cell<u64>,
    /// Events applied.
    pub events: Cell<u64>,
}

impl DirectBackend {
    /// Publishes every campaign (memory-only).
    pub fn publish(inputs: &Inputs) -> Result<(DirectBackend, SetupTimes), String> {
        let task_sets: Vec<Vec<Task>> = inputs.campaigns.iter().map(|c| c.tasks.clone()).collect();
        let config = docs_config(inputs, Topology::Mem);
        let started = Instant::now();
        let docs = task_sets
            .into_iter()
            .map(|tasks| Docs::publish(&inputs.kb, tasks, config.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("publish: {e}"))?;
        let total = started.elapsed();
        let backend = DirectBackend {
            docs: RefCell::new(docs),
            validate_ns: Cell::new(0),
            apply_ns: Cell::new(0),
            events: Cell::new(0),
        };
        let times = SetupTimes {
            total,
            publish: total,
            ..Default::default()
        };
        Ok((backend, times))
    }

    /// The state machines, for the replays and the snapshot probes.
    pub fn docs(&self) -> std::cell::Ref<'_, Vec<Docs>> {
        self.docs.borrow()
    }

    fn apply(&self, docs: &mut Docs, event: &CampaignEvent) -> Result<(), ServiceError> {
        let t = Instant::now();
        let applied = docs.apply(event);
        self.apply_ns
            .set(self.apply_ns.get() + t.elapsed().as_nanos() as u64);
        self.events.set(self.events.get() + 1);
        applied.map_err(|e| ServiceError::Rejected(e.into()))
    }

    fn validated(&self, since: Instant) {
        self.validate_ns
            .set(self.validate_ns.get() + since.elapsed().as_nanos() as u64);
    }
}

fn ready<T>(result: Result<T, ServiceError>) -> Sent<T> {
    Ok((Reply::Ready(result), u64::MAX))
}

impl Backend for DirectBackend {
    fn request(&self, campaign: usize, worker: WorkerId) -> Sent<WorkRequest> {
        ready(Ok(self.docs.borrow_mut()[campaign].request_tasks(worker)))
    }

    fn golden(
        &self,
        campaign: usize,
        worker: WorkerId,
        answers: Vec<(TaskId, ChoiceIndex)>,
    ) -> Sent<()> {
        let docs = &mut self.docs.borrow_mut()[campaign];
        let event = CampaignEvent::golden(worker, answers);
        let t = Instant::now();
        let valid = docs.validate_event(&event);
        self.validated(t);
        ready(match valid {
            Ok(()) => self.apply(docs, &event),
            Err(e) => Err(ServiceError::Rejected(e.into())),
        })
    }

    fn batch(&self, campaign: usize, answers: Vec<Answer>) -> Sent<BatchOutcome> {
        let docs = &mut self.docs.borrow_mut()[campaign];
        let t = Instant::now();
        let (accepted, rejected) = docs.validate_answer_batch(&answers);
        self.validated(t);
        let outcome = BatchOutcome {
            accepted: accepted.len(),
            rejected: rejected.into_iter().map(|(i, e)| (i, e.into())).collect(),
        };
        if accepted.is_empty() {
            return ready(Ok(outcome));
        }
        let applied = self.apply(docs, &CampaignEvent::answer_batch(accepted));
        ready(applied.map(|()| outcome))
    }

    fn finish(&self, campaign: usize) -> Sent<RequesterReport> {
        let docs = &mut self.docs.borrow_mut()[campaign];
        let applied = self.apply(docs, &CampaignEvent::finished());
        ready(applied.map(|()| docs.report()))
    }
}

// ---------------------------------------------------------------------
// The closed-loop client
// ---------------------------------------------------------------------

/// The public calls the client times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Request,
    Golden,
    SubmitBatch,
    Finish,
    FollowerRead,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Request => "request_tasks",
            Call::Golden => "submit_golden",
            Call::SubmitBatch => "submit_answer_batch",
            Call::Finish => "finish",
            Call::FollowerRead => "follower_status",
        }
    }
}

/// One client-side span: a public call from submission to harvest.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub kind: Call,
    /// Campaign index.
    pub campaign: u32,
    /// The service's correlation id — the trace id of the sampled
    /// in-service trace this span is the parent of (`u64::MAX`: none).
    pub correlation: u64,
    /// Start, in ns since the drive began.
    pub start_ns: u64,
    /// Time inside the submitting call (envelope + enqueue).
    pub submit_ns: u64,
    /// Submission to harvested completion.
    pub total_ns: u64,
}

/// What one drive produced.
#[derive(Default)]
pub struct Drive {
    /// First submission to last harvested completion (replicated: to the
    /// follower having applied everything acknowledged).
    pub wall: Duration,
    /// Ordinary answers the service accepted.
    pub answers: u64,
    /// Public calls made, and calls failed or refused (a per-answer
    /// rejection counts one).
    pub ops: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Client-observed latency per call kind, ns, in call order.
    pub request_ns: Vec<u64>,
    pub submit_ns: Vec<u64>,
    pub finish_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Per campaign: the events the service acknowledged, in order
    /// (golden submissions, accepted sub-batches, the finish).
    pub events: Vec<Vec<CampaignEvent>>,
    /// Per campaign: the requester's final report.
    pub reports: Vec<Option<RequesterReport>>,
    /// Wall time of each segment of `Spec::segment_calls` calls, in call
    /// order (the last one shorter); they sum to `wall`.
    pub segments: Vec<Duration>,
    /// Heap allocations of the whole process during the drive.
    pub allocs: u64,
    /// Client spans and sampled in-service traces (traced drives only).
    pub spans: Vec<ClientSpan>,
    pub traces: Vec<docs_obs::Trace>,
}

impl Drive {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

enum Pending {
    Work(Reply<WorkRequest>),
    Golden(Reply<()>),
    Batch(Reply<BatchOutcome>, Vec<Answer>),
    Finish(Reply<RequesterReport>),
}

/// One campaign's closed-loop session: exactly one call in flight.
struct Session {
    /// Index into `Inputs::campaigns`.
    index: usize,
    /// Cursor into the campaign's arrival order.
    arrivals: usize,
    accepted: usize,
    /// Consecutive `Done` replies (workers with nothing left to answer).
    idle: usize,
    worker: WorkerId,
    pending: Pending,
    sent: Instant,
    submit_ns: u64,
    /// The call was answered inside the submitting call (no queue): its
    /// latency is `submit_ns`, not the time until the ring came round.
    immediate: bool,
    correlation: u64,
}

/// What a drive touches besides the backend.
#[derive(Default, Clone, Copy)]
pub struct DriveHooks<'a> {
    /// Serves a `status_in` read after every `follower_read_every`-th call.
    pub follower: Option<&'a ServiceHandle>,
    /// Keep client spans and harvest this pool's flight recorder.
    pub traced: Option<&'a ServiceMetrics>,
}

struct Client<'a, B: Backend> {
    inputs: &'a Inputs,
    backend: &'a B,
    hooks: DriveHooks<'a>,
    budget: usize,
    origin: Instant,
    /// Start of the segment being timed.
    segment_start: Instant,
    traces: BTreeMap<u64, docs_obs::Trace>,
    out: Drive,
}

impl<B: Backend> Client<'_, B> {
    fn input(&self, index: usize) -> &CampaignInput {
        &self.inputs.campaigns[index]
    }

    /// The flight recorder is a bounded ring: empty it before it wraps.
    fn harvest(&mut self) {
        if let Some(metrics) = self.hooks.traced {
            for trace in metrics.flight().snapshot() {
                self.traces.entry(trace.id.0).or_insert(trace);
            }
        }
    }

    /// Makes one call; `None` when the submission itself was refused
    /// (counted as a failed call).
    fn send<T>(
        &mut self,
        index: usize,
        what: &str,
        submit: impl FnOnce(&B) -> Sent<T>,
    ) -> Option<(Reply<T>, Instant, u64, u64)> {
        self.out.ops += 1;
        if self.out.ops.is_multiple_of(HARVEST_EVERY) {
            self.harvest();
        }
        let sent = Instant::now();
        if self.out.ops.is_multiple_of(self.inputs.spec.segment_calls) {
            self.out.segments.push(sent - self.segment_start);
            self.segment_start = sent;
        }
        match submit(self.backend) {
            Ok((reply, correlation)) => {
                Some((reply, sent, sent.elapsed().as_nanos() as u64, correlation))
            }
            Err(e) => {
                self.out
                    .fail(format!("campaign {index}: {what} refused: {e}"));
                None
            }
        }
    }

    /// Sends the session's next call; `false` retires the session.
    fn next<T>(
        &mut self,
        session: &mut Session,
        what: &str,
        submit: impl FnOnce(&B) -> Sent<T>,
        pending: impl FnOnce(Reply<T>) -> Pending,
    ) -> bool {
        let Some((reply, sent, submit_ns, correlation)) = self.send(session.index, what, submit)
        else {
            return false;
        };
        session.immediate = reply.is_ready();
        session.pending = pending(reply);
        session.sent = sent;
        session.submit_ns = submit_ns;
        session.correlation = correlation;
        true
    }

    fn next_request(&mut self, session: &mut Session) -> bool {
        let index = session.index;
        let worker = self.input(index).arrival(session.arrivals);
        session.arrivals += 1;
        session.worker = worker;
        self.next(
            session,
            "request_tasks",
            |b| b.request(index, worker),
            Pending::Work,
        )
    }

    fn next_finish(&mut self, session: &mut Session) -> bool {
        let index = session.index;
        self.next(session, "finish", |b| b.finish(index), Pending::Finish)
    }

    fn admit(&mut self, index: usize) -> Option<Session> {
        let worker = self.input(index).arrival(0);
        let (reply, sent, submit_ns, correlation) =
            self.send(index, "request_tasks", |b| b.request(index, worker))?;
        Some(Session {
            index,
            arrivals: 1,
            accepted: 0,
            idle: 0,
            worker,
            immediate: reply.is_ready(),
            pending: Pending::Work(reply),
            sent,
            submit_ns,
            correlation,
        })
    }

    /// Closes the span of the call just harvested; returns its latency.
    fn harvested(&mut self, session: &Session, kind: Call) -> u64 {
        let total_ns = if session.immediate {
            session.submit_ns
        } else {
            session.sent.elapsed().as_nanos() as u64
        };
        if self.hooks.traced.is_some() {
            self.out.spans.push(ClientSpan {
                kind,
                campaign: session.index as u32,
                correlation: session.correlation,
                start_ns: session.sent.duration_since(self.origin).as_nanos() as u64,
                submit_ns: session.submit_ns,
                total_ns,
            });
        }
        total_ns
    }

    /// Harvests the session's pending completion and sends its next call.
    /// `false` once the campaign is finished (or abandoned on a failure).
    fn step(&mut self, session: &mut Session) -> bool {
        let index = session.index;
        let worker = session.worker;
        // `Finish` retires the session whatever it holds, so it is a safe
        // stand-in while the real pending call is consumed.
        let pending = std::mem::replace(
            &mut session.pending,
            Pending::Finish(Reply::Ready(Err(ServiceError::Disconnected))),
        );
        match pending {
            Pending::Work(reply) => {
                let reply = reply.wait();
                let ns = self.harvested(session, Call::Request);
                self.out.request_ns.push(ns);
                match reply {
                    Ok(WorkRequest::Golden(ids)) => {
                        session.idle = 0;
                        let input = self.input(index);
                        let answers: Vec<(TaskId, ChoiceIndex)> =
                            ids.iter().map(|&g| (g, input.answer(worker, g))).collect();
                        self.out.events[index].push(CampaignEvent::golden(worker, answers.clone()));
                        self.next(
                            session,
                            "submit_golden",
                            |b| b.golden(index, worker, answers),
                            Pending::Golden,
                        )
                    }
                    Ok(WorkRequest::Tasks(hit)) => {
                        session.idle = 0;
                        let input = self.input(index);
                        let batch: Vec<Answer> = hit
                            .iter()
                            .map(|&t| Answer::new(worker, t, input.answer(worker, t)))
                            .collect();
                        let kept = batch.clone();
                        self.next(
                            session,
                            "submit_answer_batch",
                            |b| b.batch(index, batch),
                            |reply| Pending::Batch(reply, kept),
                        )
                    }
                    Ok(WorkRequest::Done) => {
                        session.idle += 1;
                        if session.accepted >= self.budget
                            || session.idle >= 2 * self.input(index).workers()
                        {
                            self.next_finish(session)
                        } else {
                            // Nothing left for this worker: the next one
                            // asks at once, within this turn of the ring.
                            // Every turn then ends as it would have
                            // without the `Done` — reads and writes of the
                            // sessions stay in step, and how writes fall
                            // into group commits does not drift with the
                            // seed's count of `Done` replies.
                            self.next_request(session) && self.step(session)
                        }
                    }
                    Err(e) => {
                        self.out
                            .fail(format!("campaign {index}: request_tasks: {e}"));
                        false
                    }
                }
            }
            Pending::Golden(reply) => {
                let reply = reply.wait();
                self.harvested(session, Call::Golden);
                match reply {
                    Ok(()) => self.next_request(session),
                    Err(e) => {
                        self.out
                            .fail(format!("campaign {index}: submit_golden: {e}"));
                        false
                    }
                }
            }
            Pending::Batch(reply, mut batch) => {
                let reply = reply.wait();
                let ns = self.harvested(session, Call::SubmitBatch);
                self.out.submit_ns.push(ns);
                match reply {
                    Ok(outcome) => {
                        // One session per campaign: no budget race exists,
                        // so every per-answer rejection is a failure.
                        for (position, reason) in &outcome.rejected {
                            self.out
                                .fail(format!("campaign {index}: answer {position}: {reason}"));
                        }
                        if !outcome.rejected.is_empty() {
                            let mut position = 0;
                            batch.retain(|_| {
                                position += 1;
                                !outcome.rejected.iter().any(|(p, _)| p + 1 == position)
                            });
                        }
                        session.accepted += outcome.accepted;
                        self.out.answers += outcome.accepted as u64;
                        if !batch.is_empty() {
                            self.out.events[index].push(CampaignEvent::answer_batch(batch));
                        }
                        if session.accepted >= self.budget {
                            self.next_finish(session)
                        } else {
                            self.next_request(session)
                        }
                    }
                    Err(e) => {
                        self.out
                            .fail(format!("campaign {index}: submit_answer_batch: {e}"));
                        false
                    }
                }
            }
            Pending::Finish(reply) => {
                let reply = reply.wait();
                let ns = self.harvested(session, Call::Finish);
                self.out.finish_ns.push(ns);
                match reply {
                    Ok(report) => {
                        self.out.events[index].push(CampaignEvent::finished());
                        self.out.reports[index] = Some(report);
                    }
                    Err(e) => self.out.fail(format!("campaign {index}: finish: {e}")),
                }
                false
            }
        }
    }

    fn follower_read(&mut self, index: usize, campaign: CampaignId) {
        let Some(follower) = self.hooks.follower else {
            return;
        };
        self.out.ops += 1;
        let sent = Instant::now();
        let reply = follower.status_in(campaign);
        let ns = sent.elapsed().as_nanos() as u64;
        self.out.read_ns.push(ns);
        if self.hooks.traced.is_some() {
            self.out.spans.push(ClientSpan {
                kind: Call::FollowerRead,
                campaign: index as u32,
                correlation: u64::MAX,
                start_ns: sent.duration_since(self.origin).as_nanos() as u64,
                submit_ns: 0,
                total_ns: ns,
            });
        }
        if let Err(e) = reply {
            self.out
                .fail(format!("campaign {index}: follower status: {e}"));
        }
    }
}

/// Drives every campaign to its budget: one client thread, a ring of
/// `sessions_in_flight` campaign sessions each with one call in flight,
/// harvested strictly in ring order — so the order calls reach the shard
/// is a function of the inputs alone, whatever the timing. `campaigns`
/// names the follower-read targets by campaign index.
pub fn drive<B: Backend>(
    inputs: &Inputs,
    backend: &B,
    hooks: DriveHooks<'_>,
    campaigns: &[CampaignId],
) -> Drive {
    let n = inputs.campaigns.len();
    let read_every = if hooks.follower.is_some() {
        inputs.spec.follower_read_every
    } else {
        0
    };
    let mut client = Client {
        inputs,
        backend,
        hooks,
        budget: inputs.spec.budget_per_campaign(),
        origin: Instant::now(),
        segment_start: Instant::now(),
        traces: BTreeMap::new(),
        out: Drive {
            events: vec![Vec::new(); n],
            reports: (0..n).map(|_| None).collect(),
            ..Default::default()
        },
    };
    let allocs_before = allocations();
    client.origin = Instant::now();
    client.segment_start = client.origin;
    let mut next = 0;
    let mut ring: Vec<Option<Session>> = Vec::new();
    while ring.len() < inputs.spec.sessions_in_flight.max(1) && next < n {
        ring.push(client.admit(next));
        next += 1;
    }
    let mut since_read = 0;
    while ring.iter().any(Option::is_some) {
        for slot in ring.iter_mut() {
            let Some(session) = slot.as_mut() else {
                continue;
            };
            let index = session.index;
            if !client.step(session) {
                // Admit the next campaign into the freed slot.
                *slot = None;
                while slot.is_none() && next < n {
                    *slot = client.admit(next);
                    next += 1;
                }
            }
            since_read += 1;
            if read_every > 0 && since_read >= read_every {
                since_read = 0;
                client.follower_read(index, campaigns[index]);
            }
        }
    }
    let ended = Instant::now();
    client.out.wall = ended - client.origin;
    client.out.segments.push(ended - client.segment_start);
    client.out.allocs = allocations() - allocs_before;
    client.harvest();
    client.out.traces = std::mem::take(&mut client.traces).into_values().collect();
    client.out
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Tasks graded correct / tasks with a ground truth — recomputed here
/// rather than read from the report.
pub fn graded(truths: &[ChoiceIndex], tasks: &[Task]) -> (u64, u64) {
    let mut correct = 0;
    let mut total = 0;
    for (task, &truth) in tasks.iter().zip(truths) {
        if let Some(expected) = task.ground_truth {
            total += 1;
            correct += u64::from(expected == truth);
        }
    }
    (correct, total)
}

/// Majority vote over the acknowledged answers (ties toward the smaller
/// choice, unanswered tasks choice 0) — the baseline DOCS must not lose to.
pub fn majority_vote(tasks: &[Task], events: &[CampaignEvent]) -> Vec<ChoiceIndex> {
    let mut counts: Vec<Vec<u32>> = tasks.iter().map(|t| vec![0; t.num_choices()]).collect();
    for event in events {
        if let CampaignEvent::AnswerBatchSubmitted(batch) = event {
            for a in &batch.answers {
                counts[a.task.index()][a.choice] += 1;
            }
        }
    }
    counts
        .iter()
        .map(|c| {
            let best = c.iter().copied().max().unwrap_or(0);
            c.iter().position(|&v| v == best).unwrap_or(0)
        })
        .collect()
}

/// Ordinary answers inside an acknowledged event stream.
pub fn answers_in(events: &[CampaignEvent]) -> u64 {
    events
        .iter()
        .map(|e| match e {
            CampaignEvent::AnswerBatchSubmitted(b) => b.answers.len() as u64,
            _ => 0,
        })
        .sum()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A tally of correctness checks: how many were made, how many failed,
/// and the first few failures in words.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub made: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// The outcome of one repeat, checks included.
pub struct Repeat {
    pub setup: SetupTimes,
    pub drive: Drive,
    /// `DocsService::recover` after the simulated crash (durable only).
    pub recover: Option<Duration>,
    /// Durability directory size once the last ack was in (durable and
    /// replicated): WAL segments plus the latest snapshots.
    pub disk_bytes: Option<u64>,
    /// Correctness checks made beyond the drive's own calls.
    pub checks: Checks,
    pub graded_correct: u64,
    pub graded_total: u64,
    /// Tasks majority vote gets right over the same answers (paper
    /// workload only).
    pub majority_correct: Option<u64>,
    /// Hash of every campaign's truths and accepted-answer count.
    pub truth_hash: u64,
}

impl Repeat {
    pub fn attempted(&self) -> u64 {
        self.drive.ops + self.checks.made
    }

    pub fn failed(&self) -> u64 {
        self.drive.failed + self.checks.failed
    }

    /// Every failure of the repeat in words: refused or failed calls, then
    /// failed checks.
    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.drive.failures.iter().chain(&self.checks.notes)
    }

    /// Grades a finished drive: every campaign reported, the report counts
    /// exactly the acknowledged answers, and (paper workload) DOCS does
    /// not lose to majority vote over the very same answers.
    pub fn grade(inputs: &Inputs, setup: SetupTimes, drive: Drive) -> Repeat {
        let mut rep = Repeat {
            setup,
            drive,
            recover: None,
            disk_bytes: None,
            checks: Checks::default(),
            graded_correct: 0,
            graded_total: 0,
            majority_correct: None,
            truth_hash: 0,
        };
        let mut hash = Fnv::default();
        for (index, input) in inputs.campaigns.iter().enumerate() {
            let acked = answers_in(&rep.drive.events[index]);
            let report = rep.drive.reports[index].clone();
            rep.checks.check(report.is_some(), || {
                format!("campaign {index}: no final report")
            });
            let Some(report) = report else { continue };
            rep.checks
                .check(report.answers_collected as u64 == acked, || {
                    format!(
                        "campaign {index}: report counts {} answers, {acked} were acknowledged",
                        report.answers_collected
                    )
                });
            rep.checks
                .check(report.truths.len() == input.tasks.len(), || {
                    format!("campaign {index}: {} truths", report.truths.len())
                });
            let (correct, total) = graded(&report.truths, &input.tasks);
            rep.graded_correct += correct;
            rep.graded_total += total;
            hash.write_u64(acked);
            for &t in &report.truths {
                hash.write_u64(t as u64);
            }
        }
        rep.truth_hash = hash.0;
        if inputs.spec.workload == Workload::PaperQaMem {
            let input = &inputs.campaigns[0];
            let votes = majority_vote(&input.tasks, &rep.drive.events[0]);
            let (mv_correct, _) = graded(&votes, &input.tasks);
            rep.majority_correct = Some(mv_correct);
            let docs_correct = rep.graded_correct;
            rep.checks.check(docs_correct >= mv_correct, || {
                format!("DOCS graded {docs_correct} correct, majority vote {mv_correct}")
            });
        }
        rep
    }
}

/// Element-wise minimum of two equally long timing series (left alone if
/// the lengths differ, which only a non-deterministic run produces).
fn keep_min<T: Ord + Copy>(mine: &mut [T], theirs: &[T]) {
    if mine.len() == theirs.len() {
        for (m, t) in mine.iter_mut().zip(theirs) {
            *m = (*m).min(*t);
        }
    }
}

impl Repeat {
    /// Folds another repeat of the *same* inputs into this one, keeping
    /// every timing at its better value: the call stream is identical, so
    /// call `i` and segment `k` did the same work both times, and
    /// interference only ever adds time. A failed repeat is never
    /// improved on (it must reach the report); a failing `other` replaces
    /// this one.
    pub fn keep_best(&mut self, other: Repeat) {
        if self.failed() != 0 {
            return;
        }
        if other.failed() != 0 {
            *self = other;
            return;
        }
        let (mine, theirs) = (&mut self.drive, &other.drive);
        keep_min(&mut mine.segments, &theirs.segments);
        keep_min(&mut mine.request_ns, &theirs.request_ns);
        keep_min(&mut mine.submit_ns, &theirs.submit_ns);
        keep_min(&mut mine.finish_ns, &theirs.finish_ns);
        keep_min(&mut mine.read_ns, &theirs.read_ns);
        mine.wall = mine.segments.iter().sum();
        self.recover = self.recover.min(other.recover).or(self.recover);
        let (mine, theirs) = (&mut self.setup, &other.setup);
        mine.total = mine.total.min(theirs.total);
        mine.spawn = mine.spawn.min(theirs.spawn);
        mine.publish = mine.publish.min(theirs.publish);
        mine.create = mine.create.min(theirs.create);
        mine.bootstrap = mine.bootstrap.min(theirs.bootstrap);
    }
}

/// What a traced repeat additionally hands the layer ledger.
pub struct Harvest {
    pub metrics: ServiceMetrics,
    pub follower_metrics: Option<ServiceMetrics>,
    pub hub: Option<HubStats>,
    /// `recover_tree` alone on the crashed directory: time, events.
    pub recover_tree: Option<(Duration, u64)>,
    /// `Replica::promote` once primary and hub had stopped.
    pub promote: Option<Duration>,
}

/// How a repeat is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Nothing but the client's own clocks: what end-to-end numbers use.
    Nothing,
    /// Also time `recover_tree` alone on the crashed directory.
    Recovery,
    /// Sample requests into the flight recorder, keep client spans, time
    /// `recover_tree` and a promotion, and return the pools' metrics.
    Traced,
}

/// Runs one repeat on the service at `topology`, in `dir` (wiped before
/// and after).
pub fn repeat(
    inputs: &Inputs,
    topology: Topology,
    dir: &Path,
    observe: Observe,
) -> Result<(Repeat, Option<Harvest>), String> {
    let traced = observe == Observe::Traced;
    let trace_every = if traced { TRACE_EVERY } else { 0 };
    let (stack, setup_times) = setup(inputs, topology, dir, trace_every)?;
    let backend = ServiceBackend {
        handle: &stack.handle,
        campaigns: &stack.campaigns,
    };
    let hooks = DriveHooks {
        follower: stack.replica.as_ref().map(|r| r.handle()),
        traced: traced.then(|| stack.handle.metrics()),
    };
    let mut out = drive(inputs, &backend, hooks, &stack.campaigns);
    // A replicated run is done when the follower has applied everything
    // the primary acknowledged (one `Published` event per campaign plus
    // the acknowledged stream): the throughput line is follower-caught-up.
    if let Some(replica) = &stack.replica {
        let waiting = Instant::now();
        let events = &out.events;
        let caught_up = wait_until(|| {
            replica.error().is_some()
                || stack
                    .campaigns
                    .iter()
                    .zip(events)
                    .all(|(&c, e)| replica.watermark(c) > e.len() as u64)
        });
        let waited = waiting.elapsed();
        out.wall += waited;
        if let Some(last) = out.segments.last_mut() {
            *last += waited;
        }
        if !caught_up || replica.error().is_some() {
            let e = replica.error();
            out.fail(format!("follower never caught up: {e:?}"));
        }
    }
    let mut rep = Repeat::grade(inputs, setup_times, out);

    let mut harvest = (observe != Observe::Nothing).then(|| Harvest {
        metrics: stack.handle.metrics().clone(),
        follower_metrics: stack.replica.as_ref().map(|r| r.handle().metrics().clone()),
        hub: stack.hub.as_ref().map(|h| h.stats()),
        recover_tree: None,
        promote: None,
    });

    // Follower truths = primary truths, read from the follower itself.
    if let Some(replica) = &stack.replica {
        for (index, &campaign) in stack.campaigns.iter().enumerate() {
            let Some(primary) = rep.drive.reports[index].clone() else {
                continue;
            };
            let view = replica.handle().peek_report_in(campaign);
            rep.checks.check(
                view.as_ref().is_ok_and(|v| v.truths == primary.truths),
                || format!("campaign {index}: follower truths differ from the primary's"),
            );
        }
    }
    if topology != Topology::Mem {
        rep.disk_bytes = Some(dir_bytes(dir));
    }

    if topology == Topology::Durable {
        // Ack => durable: kill the pool without a final flush, recover
        // from the directory alone, and require every acknowledged answer
        // and the same truths back.
        let Stack {
            service,
            handle,
            campaigns,
            config,
            ..
        } = stack;
        handle.simulate_crash();
        drop(handle);
        service.join_all();
        if let Some(h) = harvest.as_mut() {
            let t = Instant::now();
            if let Ok(tree) = docs_storage::recover_tree(dir) {
                h.recover_tree = Some((t.elapsed(), tree.events_recovered));
            }
        }
        let t = Instant::now();
        let recovered = DocsService::recover(config);
        rep.recover = Some(t.elapsed());
        match recovered {
            Ok((service, handle)) => {
                for (index, &campaign) in campaigns.iter().enumerate() {
                    let Some(before) = rep.drive.reports[index].clone() else {
                        continue;
                    };
                    let status = handle.status_in(campaign);
                    rep.checks.check(
                        status
                            .as_ref()
                            .is_ok_and(|s| s.answers_collected == before.answers_collected),
                        || format!("campaign {index}: acked answers lost in recovery: {status:?}"),
                    );
                    let after = handle.peek_report_in(campaign);
                    rep.checks.check(
                        after.as_ref().is_ok_and(|r| r.truths == before.truths),
                        || format!("campaign {index}: truths changed across recovery"),
                    );
                }
                drop(handle);
                service.join_all();
            }
            Err(e) => rep.checks.check(false, || format!("recover: {e}")),
        }
    } else if traced && topology == Topology::Replicated {
        // Traced runs also time a promotion: primary and hub stop first,
        // so the drain ends at exact end of stream.
        let Stack {
            service,
            handle,
            hub,
            replica,
            ..
        } = stack;
        drop(handle);
        service.join_all();
        if let Some(hub) = hub {
            hub.join();
        }
        if let Some(replica) = replica {
            let t = Instant::now();
            match replica.promote() {
                Ok(promotion) => {
                    if let Some(h) = harvest.as_mut() {
                        h.promote = Some(t.elapsed());
                    }
                    drop(promotion.handle);
                    promotion.service.join_all();
                }
                Err(e) => rep.checks.check(false, || format!("promote: {e}")),
            }
        }
    } else {
        teardown(stack);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((rep, harvest))
}

/// The `Docs`-only rung: the workload's traffic on bare state machines.
/// Returns the graded repeat and the backend (its validate/apply clocks,
/// and the final state machines for the snapshot probes).
pub fn repeat_direct(inputs: &Inputs) -> Result<(Repeat, DirectBackend), String> {
    let (backend, setup_times) = DirectBackend::publish(inputs)?;
    let out = drive(inputs, &backend, DriveHooks::default(), &[]);
    Ok((Repeat::grade(inputs, setup_times, out), backend))
}
