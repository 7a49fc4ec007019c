//! The client side of the service: the **op table**, the three **verbs**,
//! and the routing handle of one pool.
//!
//! The paper's deployment has two worker interactions (Figure 1: ④ "a
//! worker requests tasks", ⑤ "a worker submits answers") plus the
//! requester's finish. Each client operation is described exactly once, as
//! an [`Op`] value pairing its wire [`Request`] with the decoder of its
//! reply; how it is *sent* is one of the three verbs of [`ServiceHandle`]:
//! [`ServiceHandle::call`], [`ServiceHandle::submit`] and
//! [`ServiceHandle::try_submit`].

use crate::message::{BatchOutcome, Request, RequestEnvelope, Response};
use crate::metrics::ServiceMetrics;
use crate::server::{Inbound, RoleCell, ServiceError};
use crate::ticket::{completion_slot, Ticket};
use docs_obs::{JournalKind, SpanKind};
use docs_system::{CampaignStatus, Docs, RequesterReport, WorkRequest};
use docs_types::{Answer, CampaignEvent, CampaignId, ChoiceIndex, ReplicaRole, TaskId, WorkerId};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;

/// One client operation: the wire request plus the decoder that turns the
/// shard's response into the operation's typed reply `T`. The seven
/// constructors below are the whole client-facing protocol; everything
/// else about an operation — where it is routed, whether a follower may
/// serve it — is read off the request.
pub struct Op<T> {
    pub(crate) request: Request,
    decode: fn(Response) -> Result<T, ServiceError>,
}

impl Op<WorkRequest> {
    /// "A worker comes and requests tasks" (Figure 1, arrow ④).
    pub fn request_tasks(campaign: CampaignId, worker: WorkerId) -> Self {
        Op {
            request: Request::RequestWork { campaign, worker },
            decode: decode_work,
        }
    }
}

impl Op<()> {
    /// A new worker's golden-HIT answers (Section 5.2).
    pub fn submit_golden(
        campaign: CampaignId,
        worker: WorkerId,
        answers: Vec<(TaskId, ChoiceIndex)>,
    ) -> Self {
        Op {
            request: Request::SubmitGolden {
                campaign,
                worker,
                answers,
            },
            decode: decode_ack,
        }
    }
}

impl Op<BatchOutcome> {
    /// "A worker accomplishes tasks and submits answers" (arrow ⑤): a
    /// whole HIT's answers in a single round-trip (one WAL record, one
    /// group-commit sync).
    /// Rejection is per answer: the [`BatchOutcome`] names which answers
    /// were refused and why, exactly as individual submissions would have
    /// been.
    pub fn submit_answer_batch(campaign: CampaignId, answers: Vec<Answer>) -> Self {
        Op {
            request: Request::SubmitAnswerBatch { campaign, answers },
            decode: decode_batch,
        }
    }
}

impl Op<RequesterReport> {
    /// Finalizes the campaign's inference and returns its report. The
    /// campaign keeps serving afterwards (reports are repeatable).
    pub fn finish(campaign: CampaignId) -> Self {
        Op {
            request: Request::Finish { campaign },
            decode: decode_report,
        }
    }

    /// The requester report under the campaign's *current* state — unlike
    /// [`Op::finish`], no `Finished` event is applied (no full-inference
    /// pass is forced, nothing is logged), so this is a pure read a
    /// follower serves locally.
    pub fn peek_report(campaign: CampaignId) -> Self {
        Op {
            request: Request::PeekReport { campaign },
            decode: decode_report,
        }
    }
}

impl Op<CampaignStatus> {
    /// The campaign's observable serving state (answers collected, worker
    /// counts, budget) — a pure read, servable by a follower.
    pub fn status(campaign: CampaignId) -> Self {
        Op {
            request: Request::Status { campaign },
            decode: decode_status,
        }
    }
}

impl Op<Vec<u8>> {
    /// The campaign's full serialized `CampaignSnapshot` — the
    /// byte-identity probe: a follower at watermark `w` returns exactly
    /// the bytes the primary's state had at `w`.
    pub fn snapshot_state(campaign: CampaignId) -> Self {
        Op {
            request: Request::SnapshotState { campaign },
            decode: decode_state,
        }
    }
}

/// How a submission behaves when the shard's ingress queue is full.
#[derive(Clone, Copy)]
enum Admission {
    /// Park until a slot frees — backpressure: `submit` and `call`.
    Block,
    /// Fail fast with [`ServiceError::Busy`]: `try_submit`.
    FailFast,
}

/// Cloneable routing client for one running
/// [`DocsService`](crate::DocsService) pool: computes the owning shard
/// client-side ([`CampaignId::shard`]) and enqueues directly on that
/// shard's channel — routing adds no extra hop or thread. Client
/// operations go through the three verbs ([`call`](Self::call),
/// [`submit`](Self::submit), [`try_submit`](Self::try_submit)); the other
/// methods are the pool's lifecycle and its replication plane.
///
/// Handles are cheap to clone and safe to use from many threads.
#[derive(Clone)]
pub struct ServiceHandle {
    pub(crate) shards: Arc<Vec<SyncSender<Inbound>>>,
    pub(crate) next_campaign: Arc<AtomicU32>,
    pub(crate) next_correlation: Arc<AtomicU64>,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) crash: Arc<AtomicBool>,
    pub(crate) role: RoleCell,
}

impl ServiceHandle {
    /// Enqueues `op` and returns its completion handle without waiting;
    /// parks while the owning shard's ingress queue is full (backpressure).
    pub fn submit<T>(&self, op: Op<T>) -> Result<Ticket<T>, ServiceError> {
        self.submit_with(op.request, Admission::Block, op.decode)
    }

    /// Fail-fast [`submit`](Self::submit): returns
    /// [`ServiceError::Busy`] instead of parking when the owning shard's
    /// ingress queue is at capacity. The op was *not* enqueued.
    pub fn try_submit<T>(&self, op: Op<T>) -> Result<Ticket<T>, ServiceError> {
        self.submit_with(op.request, Admission::FailFast, op.decode)
    }

    /// Submits `op` and waits for its reply: one synchronous round-trip.
    pub fn call<T>(&self, op: Op<T>) -> Result<T, ServiceError> {
        self.submit(op)?.wait()
    }

    /// The submission half of every operation: tags the request with a
    /// fresh correlation id, admits it onto the owning shard's bounded
    /// queue under `admission`, and returns the typed completion handle.
    fn submit_with<T>(
        &self,
        request: Request,
        admission: Admission,
        decode: fn(Response) -> Result<T, ServiceError>,
    ) -> Result<Ticket<T>, ServiceError> {
        let shard = request.campaign().shard(self.shards.len());
        self.submit_to_shard(shard, request, admission, decode)
    }

    /// Like [`submit_with`](Self::submit_with) but with an explicit target
    /// shard — [`replicate_apply`](Self::replicate_apply) sends one batch
    /// per owning shard.
    fn submit_to_shard<T>(
        &self,
        shard: usize,
        request: Request,
        admission: Admission,
        decode: fn(Response) -> Result<T, ServiceError>,
    ) -> Result<Ticket<T>, ServiceError> {
        let correlation = self.next_correlation.fetch_add(1, Ordering::Relaxed);
        let (completer, slot) = completion_slot();
        // Sampled tracing: the unsampled path is one relaxed load inside
        // `maybe_trace`. A sampled envelope closes its client-submit span
        // here, so everything until the shard dequeues it is queue wait.
        let trace = self.metrics.maybe_trace(correlation).map(|mut t| {
            t.span(SpanKind::ClientSubmit);
            Box::new(t)
        });
        let inbound = Inbound {
            envelope: RequestEnvelope {
                correlation,
                request,
                trace,
            },
            completions: completer,
        };
        let depth = self.metrics.shard_enqueued(shard);
        let outcome = match admission {
            Admission::Block => self.shards[shard]
                .send(inbound)
                .map_err(|_| ServiceError::Disconnected),
            Admission::FailFast => self.shards[shard].try_send(inbound).map_err(|e| match e {
                TrySendError::Full(_) => {
                    self.metrics.busy_rejection(shard);
                    ServiceError::Busy { shard }
                }
                TrySendError::Disconnected(_) => ServiceError::Disconnected,
            }),
        };
        if let Err(e) = outcome {
            // The request never entered the queue: roll the depth back so
            // no phantom high-water mark survives.
            self.metrics.shard_enqueue_failed(shard);
            return Err(e);
        }
        // High-water mark only once the request is really in the queue.
        self.metrics.shard_send_recorded(shard, depth);
        self.metrics.ticket_issued(shard);
        Ok(Ticket::new(
            slot,
            correlation,
            shard,
            decode,
            self.metrics.clone(),
        ))
    }

    /// Registers a published system as a new campaign and returns its id —
    /// the one way a campaign enters a pool. The campaign is logged iff its
    /// own `DocsConfig::durable_flush` names a policy; on a pool spawned
    /// without durability such a campaign is refused with
    /// [`RejectReason::DurabilityUnavailable`](crate::RejectReason::DurabilityUnavailable).
    pub fn create_campaign(&self, docs: Docs) -> Result<CampaignId, ServiceError> {
        let campaign = CampaignId(self.next_campaign.fetch_add(1, Ordering::Relaxed));
        self.call(Op {
            request: Request::CreateCampaign {
                campaign,
                docs: Box::new(docs),
            },
            decode: decode_created,
        })
    }

    /// Flips the service to [`ReplicaRole::Primary`]: mutations are
    /// accepted from the next request on, and the replication plane is
    /// refused. This is the *mechanism* of failover; the *policy* (drain
    /// every received frame first, record the promotion watermark) lives in
    /// `docs-replication`'s follower controller — prefer promoting through
    /// it so no in-flight frame is abandoned below the promised watermark.
    pub fn promote_to_primary(&self) {
        self.role.set(ReplicaRole::Primary);
        self.metrics
            .journal()
            .info(JournalKind::Promotion, "replica promoted to primary");
    }

    /// Fault injection: makes every shard behave as if the process died —
    /// each shard thread stops at its next loop turn *without* flushing its
    /// group-commit buffer, so acknowledged-but-unsynced events are lost
    /// exactly as a real `kill -9` would lose them. Drop all handles
    /// afterwards to unblock shards waiting on their queues; then recover
    /// with [`DocsService::recover`](crate::DocsService::recover).
    pub fn simulate_crash(&self) {
        self.crash.store(true, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Replication plane: fed by a follower's applier, refused elsewhere.
    // ------------------------------------------------------------------

    /// Installs a replicated campaign snapshot on this follower (bootstrap
    /// or fast-forward), covering sequences up to `seq`.
    pub fn replicate_install_snapshot(
        &self,
        campaign: CampaignId,
        seq: u64,
        snapshot: Vec<u8>,
    ) -> Result<(), ServiceError> {
        self.call(Op {
            request: Request::InstallSnapshot {
                campaign,
                seq,
                snapshot,
            },
            decode: decode_ack,
        })
    }

    /// Applies a batch of replicated events on this follower — one
    /// shipped frame's admitted events, `(campaign, sequence, event)` in log
    /// order — with one [`Request::ApplyReplicated`] per owning shard,
    /// then waits on every ticket. The caller (the applier) guarantees
    /// per-campaign gap-free order; a shard's batch stops at its first
    /// refused event, and the first refusal is returned.
    pub fn replicate_apply(
        &self,
        events: Vec<(CampaignId, u64, CampaignEvent)>,
    ) -> Result<(), ServiceError> {
        let shards = self.shards.len();
        let shard_of = |&(campaign, ..): &(CampaignId, u64, CampaignEvent)| campaign.shard(shards);
        let Some(owner) = events.first().map(shard_of) else {
            return Ok(());
        };
        let send = |shard, events| {
            let request = Request::ApplyReplicated { events };
            self.submit_to_shard(shard, request, Admission::Block, decode_ack)
        };
        if events.iter().all(|e| shard_of(e) == owner) {
            return send(owner, events)?.wait();
        }
        let mut per_shard: Vec<Vec<_>> = (0..shards).map(|_| Vec::new()).collect();
        for e in events {
            per_shard[shard_of(&e)].push(e);
        }
        let tickets: Vec<Ticket<()>> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(shard, batch)| send(shard, batch))
            .collect::<Result<_, _>>()?;
        // Wait on every shard's batch before answering, so nothing of the
        // frame is still in flight when a refusal is reported.
        let mut outcome = Ok(());
        for ticket in tickets {
            let waited = ticket.wait();
            if outcome.is_ok() {
                outcome = waited;
            }
        }
        outcome
    }

    // ------------------------------------------------------------------
    // Pinned forwards: `bench/` (frozen between benchmark PRs) calls these
    // six spellings of `submit(op)` / `call(op)` by name. No other in-tree
    // caller; they go away when `bench/` moves to the verbs.
    // ------------------------------------------------------------------

    /// `submit(Op::request_tasks(campaign, worker))`.
    pub fn request_tasks_ticket_in(
        &self,
        campaign: CampaignId,
        worker: WorkerId,
    ) -> Result<Ticket<WorkRequest>, ServiceError> {
        self.submit(Op::request_tasks(campaign, worker))
    }

    /// `submit(Op::submit_golden(campaign, worker, answers))`.
    pub fn submit_golden_ticket_in(
        &self,
        campaign: CampaignId,
        worker: WorkerId,
        answers: Vec<(TaskId, ChoiceIndex)>,
    ) -> Result<Ticket<()>, ServiceError> {
        self.submit(Op::submit_golden(campaign, worker, answers))
    }

    /// `submit(Op::submit_answer_batch(campaign, answers))`.
    pub fn submit_answer_batch_ticket_in(
        &self,
        campaign: CampaignId,
        answers: Vec<Answer>,
    ) -> Result<Ticket<BatchOutcome>, ServiceError> {
        self.submit(Op::submit_answer_batch(campaign, answers))
    }

    /// `submit(Op::finish(campaign))`.
    pub fn finish_ticket_in(
        &self,
        campaign: CampaignId,
    ) -> Result<Ticket<RequesterReport>, ServiceError> {
        self.submit(Op::finish(campaign))
    }

    /// `call(Op::status(campaign))`.
    pub fn status_in(&self, campaign: CampaignId) -> Result<CampaignStatus, ServiceError> {
        self.call(Op::status(campaign))
    }

    /// `call(Op::peek_report(campaign))`.
    pub fn peek_report_in(&self, campaign: CampaignId) -> Result<RequesterReport, ServiceError> {
        self.call(Op::peek_report(campaign))
    }

    /// The shared latency/queue/durability metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }
}

// Completion decoders: one per operation kind. Rejections pass through as
// typed errors; a cross-typed response is a protocol violation (the shard
// echoed the wrong correlation's payload), which per-ticket one-shot slots
// make impossible short of a bug.
fn decode_created(response: Response) -> Result<CampaignId, ServiceError> {
    match response {
        Response::CampaignCreated(id) => Ok(id),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_work(response: Response) -> Result<WorkRequest, ServiceError> {
    match response {
        Response::Work(w) => Ok(w),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_ack(response: Response) -> Result<(), ServiceError> {
    match response {
        Response::Ack => Ok(()),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_batch(response: Response) -> Result<BatchOutcome, ServiceError> {
    match response {
        Response::BatchAck(outcome) => Ok(outcome),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_report(response: Response) -> Result<RequesterReport, ServiceError> {
    match response {
        Response::Report(r) => Ok(*r),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_status(response: Response) -> Result<CampaignStatus, ServiceError> {
    match response {
        Response::Status(s) => Ok(*s),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_state(response: Response) -> Result<Vec<u8>, ServiceError> {
    match response {
        Response::State(bytes) => Ok(bytes),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Completion;
    use crate::metrics::OpKind;
    use crate::server::tests::published;
    use crate::ticket::TicketWait;
    use crate::{DocsService, ServiceConfig};
    use std::fmt::Debug;
    use std::sync::mpsc::{sync_channel, Receiver};
    use std::time::Duration;

    /// A handle whose single "shard" is a queue the test holds the
    /// receiving end of — nothing is ever served, which makes admission
    /// control and pending-ticket behavior deterministic.
    fn stub_handle(capacity: usize) -> (ServiceHandle, Receiver<Inbound>) {
        let (tx, rx) = sync_channel(capacity);
        let handle = ServiceHandle {
            shards: Arc::new(vec![tx]),
            next_campaign: Arc::new(AtomicU32::new(1)),
            next_correlation: Arc::new(AtomicU64::new(0)),
            metrics: ServiceMetrics::new(1),
            crash: Arc::new(AtomicBool::new(false)),
            role: RoleCell::new(ReplicaRole::Primary),
        };
        (handle, rx)
    }

    /// A primary serving one 9-task campaign on which worker 0 has passed
    /// the golden gate, plus a follower holding exactly that state — every
    /// op of the table succeeds against it. Both trace every submission.
    struct Fixture {
        campaign: CampaignId,
        primary: ServiceHandle,
        follower: ServiceHandle,
        services: [DocsService; 2],
    }

    const WORKER: WorkerId = WorkerId(0);

    fn fixture() -> Fixture {
        let (service, primary) =
            DocsService::spawn_empty(ServiceConfig::default().with_trace_sampling(1)).unwrap();
        let campaign = primary.create_campaign(published(9, None)).unwrap();
        let golden = match primary.call(Op::request_tasks(campaign, WORKER)).unwrap() {
            WorkRequest::Golden(g) => g,
            other => panic!("expected golden HIT, got {other:?}"),
        };
        let answers = golden.iter().map(|&g| (g, g.index() % 2)).collect();
        primary
            .call(Op::submit_golden(campaign, WORKER, answers))
            .unwrap();
        let snapshot = primary.call(Op::snapshot_state(campaign)).unwrap();
        let (follower_service, follower) =
            DocsService::spawn_empty(ServiceConfig::follower(1).with_trace_sampling(1)).unwrap();
        follower
            .replicate_install_snapshot(campaign, 0, snapshot)
            .unwrap();
        Fixture {
            campaign,
            primary,
            follower,
            services: [service, follower_service],
        }
    }

    impl Fixture {
        fn shutdown(self) {
            drop((self.primary, self.follower));
            for service in self.services {
                service.join_all();
            }
        }
    }

    fn send<T>(handle: &ServiceHandle, verb: &str, op: Op<T>) -> Result<T, ServiceError> {
        match verb {
            "call" => handle.call(op),
            "submit" => handle.submit(op)?.wait(),
            _ => handle.try_submit(op)?.wait(),
        }
    }

    /// One row of the op table: the op `op()` builds must behave the same
    /// through every verb, whether a read is served by the primary or by
    /// the follower holding the same state, end in one completion and one
    /// closed trace on the pool that served it, and bounce off a full
    /// queue without leaving a ticket behind.
    fn check_op<T: Debug>(name: &str, read: bool, op: impl Fn() -> Op<T>) {
        let request = op().request;
        assert_eq!(request.is_read(), read, "{name}: class is Request::is_read");
        let mut replies = Vec::new();
        for reads_to_follower in [false, true] {
            for verb in ["call", "submit", "try_submit"] {
                let label =
                    format!("{name} via {verb}, reads to the follower: {reads_to_follower}");
                let fx = fixture();
                assert_eq!(request.campaign(), fx.campaign, "{label}");
                let served = |h: &ServiceHandle| h.metrics().total_ops();
                let before = (served(&fx.primary), served(&fx.follower));
                let traced = |h: &ServiceHandle| h.metrics().flight().len();
                let traces_before = traced(&fx.primary) + traced(&fx.follower);
                // Writes always go to the primary.
                let by_follower = reads_to_follower && read;
                let server = if by_follower {
                    &fx.follower
                } else {
                    &fx.primary
                };
                let reply = send(server, verb, op());
                assert!(reply.is_ok(), "{label}: {reply:?}");
                let after = (served(&fx.primary), served(&fx.follower));
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    (!by_follower as u64, by_follower as u64),
                    "{label}"
                );
                // The dequeued request left exactly one finished trace, on
                // the pool that served it, with its queue wait closed.
                assert_eq!(
                    traced(&fx.primary) + traced(&fx.follower),
                    traces_before + 1,
                    "{label}"
                );
                let trace = server.metrics().flight().snapshot().pop().unwrap();
                assert!(trace.span_ns(SpanKind::QueueWait).is_some(), "{label}");
                replies.push((label, format!("{reply:?}")));
                fx.shutdown();
            }
        }
        for (label, reply) in &replies[1..] {
            assert_eq!(*reply, replies[0].1, "{label} diverged");
        }

        // Admission: two ops fill a two-slot queue nothing serves.
        let (handle, rx) = stub_handle(2);
        let _t1 = handle.try_submit(op()).unwrap();
        let _t2 = handle.try_submit(op()).unwrap();
        let err = handle.try_submit(op()).unwrap_err();
        assert_eq!(err, ServiceError::Busy { shard: 0 }, "{name}");
        assert_eq!(err.to_string(), "shard 0 ingress queue is full");
        let stats = handle.metrics().shard(0);
        assert_eq!(stats.busy_rejections, 1, "{name}: refusal counted");
        assert_eq!(stats.queued, 2, "{name}: refused op rolled its depth back");
        assert_eq!(stats.max_queued, 2, "{name}: no phantom high-water mark");
        assert_eq!(stats.in_flight, 2, "{name}: no ticket for the refusal");
        // Draining one slot re-opens admission.
        let served = rx.recv().unwrap();
        handle
            .metrics()
            .op_done(0, OpKind::Read, Duration::from_micros(1));
        let _t3 = handle.try_submit(op()).unwrap();
        assert_eq!(handle.metrics().shard(0).busy_rejections, 1, "{name}");
        // A dead shard is Disconnected, not Busy.
        drop(rx);
        drop(served);
        let err = handle.try_submit(op()).unwrap_err();
        assert_eq!(err, ServiceError::Disconnected, "{name}");
    }

    #[test]
    fn every_op_is_the_same_through_every_verb_and_client() {
        let c = CampaignId(0);
        let answer = |task: usize| Answer::new(WORKER, TaskId::from(task), task % 2);
        // One duplicate inside the batch: per-answer rejections are part
        // of the reply every path must agree on.
        let batch = vec![answer(3), answer(4), answer(3)];

        check_op("request_tasks", false, || Op::request_tasks(c, WORKER));
        // Any labeled task can grade a new worker.
        let golden = vec![(TaskId(0), 0), (TaskId(1), 1)];
        check_op("submit_golden", false, || {
            Op::submit_golden(c, WorkerId(1), golden.clone())
        });
        check_op("submit_answer_batch", false, || {
            Op::submit_answer_batch(c, batch.clone())
        });
        check_op("finish", false, || Op::finish(c));
        check_op("status", true, || Op::status(c));
        check_op("peek_report", true, || Op::peek_report(c));
        check_op("snapshot_state", true, || Op::snapshot_state(c));
    }

    #[test]
    fn pending_tickets_poll_pending_and_resolve_once_served() {
        let (handle, rx) = stub_handle(4);
        let c = CampaignId(0);
        let ticket = handle.submit(Op::request_tasks(c, WorkerId(0))).unwrap();
        assert_eq!(handle.metrics().shard(0).in_flight, 1);
        // Nothing serves the queue: a poll hands the ticket back, still
        // pending, still counted in flight.
        let TicketWait::Pending(ticket) = ticket.try_take() else {
            panic!("unserved ticket completed");
        };
        assert_eq!(handle.metrics().shard(0).in_flight, 1);
        // Serve it by hand: the completion must echo the correlation id.
        let inbound = rx.recv().unwrap();
        assert_eq!(inbound.envelope.correlation, ticket.correlation());
        inbound.completions.complete(Completion {
            correlation: inbound.envelope.correlation,
            response: Response::Work(WorkRequest::Done),
        });
        assert_eq!(ticket.wait().unwrap(), WorkRequest::Done);
        assert_eq!(handle.metrics().shard(0).in_flight, 0);
        // A ticket whose shard died reports Disconnected.
        let orphan = handle.submit(Op::request_tasks(c, WorkerId(1))).unwrap();
        drop(rx);
        assert_eq!(orphan.wait().unwrap_err(), ServiceError::Disconnected);
        // Dropping a pending ticket is fire-and-forget and still resolves
        // the in-flight gauge.
        let ticket = handle.submit(Op::request_tasks(c, WorkerId(2)));
        assert!(matches!(ticket, Err(ServiceError::Disconnected)));
        assert_eq!(handle.metrics().shard(0).in_flight, 0);
    }

    /// A crash with answers in flight: every ticket resolves — acked if
    /// its shard served it durably before the crash, `Disconnected` if the
    /// crash dropped it queued or withheld — and none hangs.
    #[test]
    fn tickets_in_flight_at_a_crash_resolve_acked_or_disconnected() {
        let dir = crate::server::tests::tmp_dir("handle-crash");
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::durable(1, &dir)).unwrap();
        let docs = published(9, Some(docs_storage::FlushPolicy::EveryEvent));
        let c = handle.create_campaign(docs).unwrap();
        let golden = match handle.call(Op::request_tasks(c, WORKER)).unwrap() {
            WorkRequest::Golden(g) => g,
            other => panic!("expected golden HIT, got {other:?}"),
        };
        let answers = golden.iter().map(|&g| (g, g.index() % 2)).collect();
        handle.call(Op::submit_golden(c, WORKER, answers)).unwrap();
        let tickets: Vec<Ticket<BatchOutcome>> = (0..9)
            .map(|t| {
                let answer = Answer::new(WorkerId(1 + t as u32), TaskId::from(t), t % 2);
                handle
                    .submit(Op::submit_answer_batch(c, vec![answer]))
                    .unwrap()
            })
            .collect();
        handle.simulate_crash();
        drop(handle);
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) | Err(ServiceError::Disconnected) => {}
                Err(e) => panic!("unexpected outcome {e:?}"),
            }
        }
        service.join_all();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
