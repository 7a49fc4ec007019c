//! Concurrent service front-end for DOCS — the role the paper's Django web
//! server plays in the deployment ("We implement DOCS in Python 2.7 with the
//! Django web framework").
//!
//! On AMT, many workers interact with DOCS at once: some submitting answers
//! (Figure 1, arrow ⑤), others requesting HITs (arrow ④). The paper calls
//! the assignment path latency-critical ("online task assignment is required
//! to achieve instant assignment"). This crate reproduces that serving
//! architecture in-process and scales it out as a **sharded multi-campaign
//! runtime** with a **pipelined submission/completion API** (see
//! ARCHITECTURE.md at the workspace root):
//!
//! * [`DocsService`] runs a pool of shard threads; each thread drives one
//!   steppable shard state machine that owns the campaigns hashed to it
//!   (`CampaignId::shard`). A pool starts one of two ways
//!   ([`DocsService::spawn_empty`], [`DocsService::recover`]) and a
//!   campaign enters it one way ([`ServiceHandle::create_campaign`]). A
//!   campaign's requests are processed strictly in arrival order on its
//!   owning shard — the same serialization a single-writer web backend
//!   provides — while different campaigns progress in parallel on
//!   different shards,
//! * **One op-typed call path**: each client operation is declared once,
//!   as an [`Op`] value (`Op::request_tasks`, `Op::submit_answer_batch`,
//!   `Op::finish`, …), and sent through one of three verbs on
//!   [`ServiceHandle`]: [`ServiceHandle::call`] (one synchronous
//!   round-trip), [`ServiceHandle::submit`] (returns a [`Ticket`] — a
//!   one-shot completion handle — so one client thread can keep many
//!   requests in flight per shard) and [`ServiceHandle::try_submit`],
//! * **Backpressure**: per-shard ingress queues are bounded (1 024
//!   requests); `submit` and `call` park on a
//!   full queue while `try_submit` fails fast with
//!   [`ServiceError::Busy`] and bumps the shard's `busy_rejections`
//!   counter,
//! * **One dispatch path**: assignment is pull-only, as in the paper
//!   (Figure 1 ④) — a worker that wants its next HIT the moment its
//!   answers land pipelines `submit(Op::submit_answer_batch(..))` and
//!   `submit(Op::request_tasks(..))` on the per-campaign FIFO (see
//!   ARCHITECTURE.md, "One dispatch path"),
//! * **Typed errors**: every refusal carries a matchable
//!   [`RejectReason`]
//!   (`DuplicateAnswer`, `UnknownCampaign`, `ReadOnlyReplica`, …) whose
//!   `Display` output preserves the pre-taxonomy message text, end to end
//!   from docs-system validation through the wire to
//!   [`ServiceError::Rejected`] and the per-answer [`BatchOutcome`],
//! * **Durability** ([`ServiceConfig::durability`]): each shard owns a
//!   `docs_storage::CampaignLog`; campaigns that opt in (per campaign,
//!   through their own `DocsConfig::durable_flush`, the only place the
//!   choice is made) have every mutation validated, logged as a
//!   `docs_types::CampaignEvent` (group-committed per their
//!   `FlushPolicy`), and only then applied.
//!   [`DocsService::recover`] rebuilds the whole registry from snapshots +
//!   log replay — byte-identical reports, even across a shard-count change
//!   (see ARCHITECTURE.md, "Durability & recovery"),
//! * [`ServiceMetrics`] records per-operation latency histograms (one
//!   [`ServiceMetrics::op_done`] per request), per-shard queue depth /
//!   in-flight tickets / busy rejections ([`ShardStats`]), and one table
//!   each of service-wide [`Counter`]s and pipeline [`Stage`]s
//!   (`count` / `counter`, `observe` / `histogram`); [`DurabilityStats`]
//!   and the Prometheus / JSON exposition are derived from those tables,
//!   so the Figure 8(b) "worst-case assignment time" measurement works
//!   under real concurrency and the pool's balance and admission pressure
//!   are observable,
//! * **Replication** ([`ServiceConfig::role`] +
//!   [`ServiceConfig::with_replication`]): a primary ships every durable
//!   event and snapshot as [`docs_types::ReplicationFrame`]s
//!   (ship-after-flush, ship-before-ack); a follower pool
//!   ([`DocsService::spawn_empty`] with [`ReplicaRole::Follower`]) refuses
//!   mutations with
//!   [`RejectReason::ReadOnlyReplica`](docs_types::RejectReason) while
//!   serving the pure reads (`Op::status`, `Op::peek_report`,
//!   `Op::snapshot_state`) locally: a client sends its writes to the
//!   primary's handle and may send its reads to a follower's. The
//!   streaming hub, applier, and promotion/failover live in the
//!   `docs-replication` crate (see ARCHITECTURE.md, "Replication &
//!   failover").
//!
//! The simulated crowd that drives the service in tests and experiments
//! (`drive_workers_on`, `run_campaign`) lives in `docs-scenarios`.

mod handle;
mod message;
mod metrics;
mod server;
mod shard;
mod ticket;

pub use handle::{Op, ServiceHandle};
pub use message::{BatchOutcome, Completion, CorrelationId, Request, RequestEnvelope, Response};
pub use metrics::{
    Counter, DurabilityStats, FollowerLagSample, HubHealth, OpKind, OpStats, ServiceMetrics,
    ShardStats, Stage,
};
pub use server::{DocsService, DurabilityConfig, ReplicationSink, ServiceConfig, ServiceError};
// Adaptive group commit is switched on in `DurabilityConfig`; re-exported
// so configuring a service doesn't require a direct docs-storage import.
pub use docs_storage::AdaptiveCommit;
pub use ticket::{Ticket, TicketWait};

// The rejection taxonomy and the replica role travel the wire, so clients
// match on them next to `ServiceError`; re-exported for convenience.
pub use docs_types::{RejectReason, ReplicaRole};
