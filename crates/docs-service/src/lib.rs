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
//! * [`DocsService`] runs a pool of shard threads; each shard owns a
//!   [`docs_system::CampaignRegistry`] of the campaigns hashed to it
//!   (`CampaignId::shard`). A campaign's requests are processed strictly in
//!   arrival order on its owning shard — the same serialization a
//!   single-writer web backend provides — while different campaigns
//!   progress in parallel on different shards,
//! * **One op-typed call path**: each client operation is declared once,
//!   as an [`Op`] value (`Op::request_tasks`, `Op::submit_answer_batch`,
//!   `Op::finish`, …), and sent through one of three verbs on the
//!   [`Client`] trait that [`ServiceHandle`] (one pool) and
//!   [`ClusterRouter`] both implement: [`Client::call`] (one synchronous
//!   round-trip), [`Client::submit`] (returns a [`Ticket`] — a one-shot
//!   completion handle — so one client thread can keep many requests in
//!   flight per shard) and [`Client::try_submit`],
//! * **Backpressure**: per-shard ingress queues are bounded
//!   ([`ServiceConfig::queue_capacity`]); `submit` and `call` park on a
//!   full queue while `try_submit` fails fast with
//!   [`ServiceError::Busy`] and bumps the shard's `busy_rejections`
//!   counter,
//! * **One dispatch path**: assignment is pull-only, as in the paper
//!   (Figure 1 ④) — a worker that wants its next HIT the moment its
//!   answers land pipelines `submit(Op::submit_answer_batch(..))` and
//!   `submit(Op::request_tasks(..))` on the per-campaign FIFO (see
//!   ARCHITECTURE.md, "One dispatch path"),
//! * **Typed errors**: every refusal carries a matchable
//!   [`RejectReason`](docs_types::RejectReason)
//!   (`DuplicateAnswer`, `UnknownCampaign`, `BudgetExhausted`, …) whose
//!   `Display` output preserves the pre-taxonomy message text, end to end
//!   from docs-system validation through the wire to
//!   [`ServiceError::Rejected`] and the per-answer [`BatchOutcome`],
//! * **Durability** ([`ServiceConfig::durability`]): each shard owns a
//!   `docs_storage::CampaignLog`; campaigns that opt in (per campaign, via
//!   `DocsConfig::durable_flush` or
//!   [`ServiceHandle::create_campaign_with`]) have every mutation
//!   validated, logged as a `docs_types::CampaignEvent` (group-committed
//!   per their `FlushPolicy`), and only then applied.
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
//!   ([`DocsService::spawn_replica`]) refuses mutations with
//!   [`RejectReason::ReadOnlyReplica`](docs_types::RejectReason) while
//!   serving the pure reads (`Op::status`, `Op::peek_report`,
//!   `Op::snapshot_state`) locally, and [`ClusterRouter::single`] fans
//!   client reads out to replicas while pinning writes to the primary.
//!   The streaming hub, applier, and
//!   promotion/failover live in the `docs-replication` crate (see
//!   ARCHITECTURE.md, "Replication & failover"),
//! * **Cluster routing** ([`ClusterRouter`]): campaigns partition across
//!   multiple primary nodes by a versioned
//!   [`ClusterMap`](docs_types::ClusterMap); writes go to the owning
//!   primary, reads fan out replica-first on the owning node, and a
//!   stale map self-heals — a
//!   [`RejectReason::WrongNode`](docs_types::RejectReason) answer names
//!   the owner and the router retries there. Live campaign migration
//!   (fence → chase tail → adopt → flip the directory epoch) lives in
//!   `docs-replication::migrate_campaign` (see ARCHITECTURE.md,
//!   "Cluster & migration"),
//! * [`drive_workers_on`] runs a whole simulated crowd (from
//!   `docs-crowd`) against one campaign of any [`Client`] from `threads`
//!   parallel clients until the budget is consumed, **pipelining** each
//!   client's next HIT request behind its in-flight submission;
//!   [`drive_workers_blocking_on`] keeps the strict request/response loop
//!   as the seed-architecture reference (byte-identical truths, measurably
//!   lower throughput — see the `service_pipeline` bench).

mod client;
mod handle;
mod message;
mod metrics;
mod routing;
mod server;
mod ticket;

pub use client::{drive_workers_blocking_on, drive_workers_on, DriveOutcome, DriveReport};
pub use handle::{Client, Op, ServiceHandle};
pub use message::{BatchOutcome, Completion, CorrelationId, Request, RequestEnvelope, Response};
pub use metrics::{
    Counter, DurabilityStats, FollowerLagSample, HubHealth, OpKind, OpStats, ServiceMetrics,
    ShardStats, Stage,
};
pub use routing::{ClusterNode, ClusterRouter, ClusterRouterStats};
pub use server::{DocsService, DurabilityConfig, ReplicationSink, ServiceConfig, ServiceError};
// Adaptive group-commit bounds appear in `DurabilityConfig`; re-exported
// so configuring a service doesn't require a direct docs-storage import.
pub use docs_storage::AdaptiveCommit;
pub use ticket::{Ticket, TicketWait};

// The rejection taxonomy and the replica role travel the wire, so clients
// match on them next to `ServiceError`; re-exported for convenience.
pub use docs_types::{RejectReason, ReplicaRole};
