//! WAL-shipping replication for the DOCS service: read replicas fed by
//! log streaming, lag tracking, and promotion/failover.
//!
//! The event-sourced runtime (docs-storage + docs-service) already
//! guarantees that a campaign's snapshot plus its ordered, durable event
//! suffix rebuilds a **byte-identical** state machine — that is its crash
//! -recovery contract. This crate stretches the same contract over a wire:
//!
//! * the **primary** runs with a [`ReplicationSink`](docs_service::ReplicationSink)
//!   attached ([`replication_channel`]): after every group commit its
//!   shards hand the newly durable events (and every snapshot written) to
//!   the sink — *ship-after-flush, ship-before-ack*, so the wire never
//!   carries an event the primary's disk has not accepted, and never
//!   acknowledges one the wire has not seen;
//! * the [`ReplicationHub`] encodes each frame into a length-prefixed,
//!   CRC-checked record (the WAL's own framing style) and fans it out to
//!   subscribed followers, tracking shipped watermarks and per-follower
//!   lag;
//! * a [`Replica`] is a follower service pool
//!   ([`DocsService::spawn_replica`](docs_service::DocsService)) plus an
//!   applier thread: new followers bootstrap from the primary's snapshots
//!   — including mid-campaign snapshots, via [`bootstrap_frames`] — then
//!   apply the live stream through the identical deterministic
//!   `validate_event`/`apply` transition, advancing the per-campaign
//!   watermark table that doubles as the ack channel. Followers refuse
//!   mutations (`RejectReason::ReadOnlyReplica`) but serve status, truth,
//!   and state reads locally — a one-node
//!   [`ClusterRouter`](docs_service::ClusterRouter) fans reads out to them;
//! * **failover**: [`Replica::promote`] drains every shipped frame, flips
//!   the pool to primary at a recorded watermark, and the service resumes
//!   accepting writes. Under `FlushPolicy::EveryEvent`, no event the old
//!   primary ever acknowledged can be lost across the crash → promotion →
//!   resume cycle (`tests/replication.rs` pins this with fault injection);
//! * **migration**: [`migrate_campaign`] reuses the snapshot + suffix
//!   shipment as a live hand-off between two *primaries* — copy, fence
//!   the source at a recorded watermark, chase the tail, adopt — so a
//!   campaign can move nodes mid-traffic with no acknowledged event lost
//!   (see ARCHITECTURE.md, "Cluster & migration").

mod apply;
mod frame;
mod migrate;
mod ship;

pub use apply::{Promotion, Replica};
pub use frame::{decode_frame, encode_frame};
pub use migrate::{migrate_campaign, MigrationOutcome, MigrationSource};
pub use ship::{
    bootstrap_frames, replication_channel, FollowerLag, FollowerLink, HubStats, ReplicationHub,
    ShippedRecord,
};
