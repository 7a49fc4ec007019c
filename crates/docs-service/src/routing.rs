//! Cluster routing client: a campaign→node directory with role-aware
//! fan-out — writes go to the owning primary, reads fan out to that node's
//! replicas round-robin, and stale-map redirects retry against the owner
//! the service names.
//!
//! The paper's deployment serves every request from one Django backend;
//! WAL-shipping replication (PR 5) scaled the read path, and the cluster
//! directory scales the write path: campaigns are partitioned across
//! multiple primary nodes, and ownership is a *migratable* fact recorded
//! in a versioned [`ClusterMap`] (see ARCHITECTURE.md, "Cluster &
//! migration"). A [`ClusterRouter`] wraps any number of [`ClusterNode`]s
//! (each a primary [`ServiceHandle`] plus its read replicas):
//!
//! * **writes** (every [`Op`] but the three pure reads) resolve the
//!   campaign's owner through the router's map and go to that node's
//!   primary. A [`RejectReason::WrongNode`] answer means the map is stale
//!   (the campaign was migrated): [`Client::call`] learns the returned
//!   owner and retries there — one retry for a settled directory, a brief
//!   park-and-ping-pong during a migration's fence window (both sides
//!   redirect until the new owner adopts the tail, which is exactly the
//!   "buffer and forward in-flight submissions" phase),
//! * **reads** (`Op::status`, `Op::peek_report`, `Op::snapshot_state`) go
//!   to the owning node's next replica in round-robin order; `call` falls
//!   back to that node's primary when a replica is gone, refuses, or has
//!   not bootstrapped the campaign yet (its lag shows as
//!   `UnknownCampaign`).
//!
//! [`Client::submit`] / [`Client::try_submit`] aim once and hand back the
//! ticket: a redirect or a lagging replica surfaces through it, and the
//! caller settles it by `call`ing the op again.
//!
//! Replicas serve *their watermark's* state: a read routed to a lagging
//! follower is consistent-but-stale, exactly like any asynchronous read
//! replica. Callers that need read-your-writes read from the primary. A
//! single primary + replicas deployment is the one-node special case
//! ([`ClusterRouter::single`]).

use crate::handle::{Client, Op, ServiceHandle};
use crate::metrics::{Counter, Stage};
use crate::server::ServiceError;
use crate::ticket::Ticket;
use docs_types::{CampaignId, ClusterMap, NodeId, RejectReason};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Redirect budget of one write: generous enough to ride out a
/// migration's whole fence window (each post-first redirect parks ~1 ms,
/// so this is ~10 s of forwarding patience), finite so a routing loop
/// between two confused nodes cannot hang a client forever.
const WRITE_REDIRECT_LIMIT: usize = 10_000;

/// One primary node of the cluster, as the router sees it: the write-side
/// handle plus any read replicas tailing it.
#[derive(Clone)]
pub struct ClusterNode {
    /// The node's cluster identity ([`ServiceConfig::node`] of its pool).
    ///
    /// [`ServiceConfig::node`]: crate::ServiceConfig
    pub id: NodeId,
    /// The node's primary (write-side) handle.
    pub primary: ServiceHandle,
    /// Read replicas tailing this node (may be empty).
    pub replicas: Vec<ServiceHandle>,
}

/// Per-node routing state: the handles plus the node's replica
/// round-robin cursor.
struct NodeEntry {
    node: ClusterNode,
    next_replica: AtomicUsize,
}

/// Where the router sent traffic so far (observability for tests,
/// examples, and capacity planning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterRouterStats {
    /// Reads served by a replica.
    pub replica_reads: u64,
    /// Reads served by a primary (no replicas, or fallback).
    pub primary_reads: u64,
    /// Reads that fell back to a primary after a replica refused or
    /// disconnected.
    pub fallbacks: u64,
    /// `WrongNode` answers absorbed: the map was stale and the router
    /// re-aimed at the owner the service named.
    pub wrong_node_redirects: u64,
    /// Writes that succeeded after at least one redirect — the forwarded
    /// in-flight submissions of migration fence windows plus ordinary
    /// stale-map retries.
    pub forwarded_writes: u64,
}

impl std::fmt::Display for ClusterRouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads: {} replica / {} primary ({} fallbacks); \
             writes: {} redirects absorbed, {} forwarded",
            self.replica_reads,
            self.primary_reads,
            self.fallbacks,
            self.wrong_node_redirects,
            self.forwarded_writes
        )
    }
}

/// The routing client of a multi-primary cluster.
#[derive(Clone)]
pub struct ClusterRouter {
    nodes: Arc<Vec<NodeEntry>>,
    map: Arc<Mutex<ClusterMap>>,
    /// Placements learned from `WrongNode` answers — fresher than the map
    /// but not epoch-stamped, so a real [`ClusterRouter::install_map`]
    /// clears them.
    learned: Arc<Mutex<HashMap<CampaignId, NodeId>>>,
    replica_reads: Arc<AtomicU64>,
    primary_reads: Arc<AtomicU64>,
    fallbacks: Arc<AtomicU64>,
    wrong_node_redirects: Arc<AtomicU64>,
    forwarded_writes: Arc<AtomicU64>,
}

impl ClusterRouter {
    /// Routes by `map` across `nodes`.
    ///
    /// # Panics
    /// Panics when `nodes` is empty — a router with nowhere to send
    /// traffic is a construction bug, not a runtime condition.
    pub fn new(nodes: Vec<ClusterNode>, map: ClusterMap) -> Self {
        assert!(!nodes.is_empty(), "cluster router needs at least one node");
        ClusterRouter {
            nodes: Arc::new(
                nodes
                    .into_iter()
                    .map(|node| NodeEntry {
                        node,
                        next_replica: AtomicUsize::new(0),
                    })
                    .collect(),
            ),
            map: Arc::new(Mutex::new(map)),
            learned: Arc::new(Mutex::new(HashMap::new())),
            replica_reads: Arc::new(AtomicU64::new(0)),
            primary_reads: Arc::new(AtomicU64::new(0)),
            fallbacks: Arc::new(AtomicU64::new(0)),
            wrong_node_redirects: Arc::new(AtomicU64::new(0)),
            forwarded_writes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A one-node cluster: every campaign lives on `primary`, reads fan
    /// out to `replicas` — the primary + read-replicas deployment shape.
    pub fn single(id: NodeId, primary: ServiceHandle, replicas: Vec<ServiceHandle>) -> Self {
        Self::new(
            vec![ClusterNode {
                id,
                primary,
                replicas,
            }],
            ClusterMap::new(id),
        )
    }

    /// The routing directory the router currently follows (learned
    /// placements not included — they are transient hints).
    pub fn map(&self) -> ClusterMap {
        self.map.lock().clone()
    }

    /// Adopts a fresher directory (stale epochs are ignored) and drops
    /// every learned placement — the map is authoritative now. Returns
    /// whether the map was adopted.
    pub fn install_map(&self, map: &ClusterMap) -> bool {
        let mut current = self.map.lock();
        if map.epoch() <= current.epoch() && *current != *map {
            return false;
        }
        *current = map.clone();
        self.learned.lock().clear();
        true
    }

    /// Routing accounting so far.
    pub fn stats(&self) -> ClusterRouterStats {
        ClusterRouterStats {
            replica_reads: self.replica_reads.load(Ordering::Relaxed),
            primary_reads: self.primary_reads.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            wrong_node_redirects: self.wrong_node_redirects.load(Ordering::Relaxed),
            forwarded_writes: self.forwarded_writes.load(Ordering::Relaxed),
        }
    }

    /// The node currently believed to own `campaign`: a learned placement
    /// if one is pending, the directory otherwise.
    fn owner_of(&self, campaign: CampaignId) -> NodeId {
        if let Some(&owner) = self.learned.lock().get(&campaign) {
            return owner;
        }
        self.map.lock().owner(campaign)
    }

    fn entry_of(&self, id: NodeId) -> Option<&NodeEntry> {
        self.nodes.iter().find(|e| e.node.id == id)
    }

    /// The owning node's primary. An owner outside the router's node set
    /// surfaces as the same `WrongNode` rejection the service would send:
    /// there is nowhere to forward to, so retrying cannot help.
    fn owner_primary(&self, campaign: CampaignId) -> Result<&ServiceHandle, ServiceError> {
        let owner = self.owner_of(campaign);
        match self.entry_of(owner) {
            Some(entry) => Ok(&entry.node.primary),
            None => Err(ServiceError::Rejected(RejectReason::WrongNode { owner })),
        }
    }

    /// The node serving reads of `campaign` and its next replica in
    /// round-robin order (`None` when it has no replicas). An owner
    /// outside the router's node set falls back to the first node — a
    /// fenced ex-owner still serves reads as a consistent-but-stale
    /// replica, so any node beats an error for read traffic.
    fn read_target(&self, campaign: CampaignId) -> (&NodeEntry, Option<&ServiceHandle>) {
        let entry = self
            .entry_of(self.owner_of(campaign))
            .unwrap_or(&self.nodes[0]);
        let replicas = &entry.node.replicas;
        let replica = (!replicas.is_empty()).then(|| {
            &replicas[entry.next_replica.fetch_add(1, Ordering::Relaxed) % replicas.len()]
        });
        (entry, replica)
    }

    /// Where one un-retried submission of `op` goes: the owner's primary
    /// for a write, the owning node's next replica (its primary when it
    /// has none) for a read — counted as a replica/primary read here, at
    /// aim time, since the ticket's outcome is the caller's to harvest.
    fn aim<T>(&self, op: &Op<T>) -> Result<&ServiceHandle, ServiceError> {
        if !op.is_read() {
            return self.owner_primary(op.campaign());
        }
        let (entry, replica) = self.read_target(op.campaign());
        let counter = match replica {
            Some(_) => &self.replica_reads,
            None => &self.primary_reads,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(replica.unwrap_or(&entry.node.primary))
    }

    /// Runs one write with redirect-retry — the only redirect-absorb loop
    /// in the workspace: resolve the owner, call its primary, and absorb
    /// `WrongNode` answers by learning the named owner and retrying
    /// there. The first retry is immediate (the settled stale-map case
    /// converges in one); later ones park ~1 ms, riding out a migration's
    /// fence window in which source and destination both redirect until
    /// the tail is adopted.
    fn write<T>(&self, op: Op<T>) -> Result<T, ServiceError> {
        let campaign = op.campaign();
        let started = Instant::now();
        let mut redirects = 0usize;
        loop {
            let primary = self.owner_primary(campaign)?;
            // Routing work so far — directory lookup plus every absorbed
            // redirect and fence-window park — is what this hop cost the
            // request before it reached the node it is about to try.
            primary
                .metrics()
                .observe(Stage::RouterHop, started.elapsed().as_nanos() as u64);
            match primary.call(op.clone()) {
                Ok(value) => {
                    if redirects > 0 {
                        self.forwarded_writes.fetch_add(1, Ordering::Relaxed);
                        primary.metrics().count(Counter::ForwardedSubmissions, 1);
                    }
                    return Ok(value);
                }
                Err(ServiceError::Rejected(RejectReason::WrongNode { owner })) => {
                    redirects += 1;
                    if redirects > WRITE_REDIRECT_LIMIT {
                        return Err(ServiceError::Rejected(RejectReason::WrongNode { owner }));
                    }
                    self.wrong_node_redirects.fetch_add(1, Ordering::Relaxed);
                    self.learned.lock().insert(campaign, owner);
                    if redirects > 1 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs one read on the owning node: next replica in round-robin
    /// order, primary fallback.
    fn read<T>(&self, op: Op<T>) -> Result<T, ServiceError> {
        let (entry, replica) = self.read_target(op.campaign());
        let Some(replica) = replica else {
            self.primary_reads.fetch_add(1, Ordering::Relaxed);
            return entry.node.primary.call(op);
        };
        match replica.call(op.clone()) {
            Ok(value) => {
                self.replica_reads.fetch_add(1, Ordering::Relaxed);
                Ok(value)
            }
            // The replica is gone, lagging (campaign not bootstrapped
            // yet), or was promoted/demoted out from under the router.
            Err(
                ServiceError::Disconnected
                | ServiceError::Busy { .. }
                | ServiceError::Rejected(RejectReason::UnknownCampaign(_)),
            ) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.primary_reads.fetch_add(1, Ordering::Relaxed);
                entry.node.primary.call(op)
            }
            Err(e) => Err(e),
        }
    }
}

impl Client for ClusterRouter {
    fn submit<T>(&self, op: Op<T>) -> Result<Ticket<T>, ServiceError> {
        self.aim(&op)?.submit(op)
    }

    fn try_submit<T>(&self, op: Op<T>) -> Result<Ticket<T>, ServiceError> {
        self.aim(&op)?.try_submit(op)
    }

    /// Submit + wait under the router's retry policies: redirect-absorb
    /// for writes, primary fallback for reads.
    fn call<T>(&self, op: Op<T>) -> Result<T, ServiceError> {
        if op.is_read() {
            self.read(op)
        } else {
            self.write(op)
        }
    }
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("nodes", &self.nodes.len())
            .field("epoch", &self.map.lock().epoch())
            .field("stats", &self.stats())
            .finish()
    }
}
