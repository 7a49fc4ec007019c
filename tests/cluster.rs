//! Multi-primary cluster routing + live campaign migration: the headline
//! invariants of the scale-out runtime.
//!
//! 1. **Rebalance under traffic loses nothing** — across the
//!    `shards × task_shards` matrix, a campaign is migrated between two
//!    primary nodes *while a driver keeps submitting through the
//!    [`ClusterRouter`]*: every submission is acknowledged exactly once
//!    (redirects during the fence window are retried, never surfaced),
//!    and the final truths are byte-identical to the single-node oracle.
//!    The destination's own durable log then proves the hand-off: a cold
//!    recovery from it reproduces the same report.
//! 2. **A stale map self-heals in one retry** — a client router still
//!    holding the pre-migration epoch sends a write to the old owner,
//!    absorbs the `WrongNode` answer, and converges on the new owner with
//!    exactly one redirect.

mod common;

use common::{assert_byte_identical, oracle, publish, send, tmp_dir, Op};
use docs_replication::{migrate_campaign, replication_channel, MigrationSource, ReplicationHub};
use docs_service::{
    AdaptiveCommit, Client, ClusterNode, ClusterRouter, Counter, DocsService, DurabilityConfig,
    ServiceConfig, ServiceError, ServiceHandle,
};
use docs_storage::FlushPolicy;
use docs_types::{Answer, CampaignId, ClusterMap, NodeId, TaskId, WorkerId};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Submits one op through the router. Every op of the oracle stream is
/// fresh (no duplicates), so under migration the only acceptable outcomes
/// are an ack — possibly after redirect-retries the router absorbs — or a
/// panic: a surfaced rejection here would be a *lost* acknowledged-stream
/// submission.
fn submit_via(router: &ClusterRouter, campaign: CampaignId, op: &Op) {
    send(router, campaign, op).expect("submission must be acknowledged");
}

fn durable_node(shards: usize, dir: &Path, node: NodeId) -> ServiceConfig {
    ServiceConfig {
        shards,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: FlushPolicy::EveryEvent,
            snapshot_every: 6,
            adaptive: Some(AdaptiveCommit),
        }),
        ..Default::default()
    }
    .with_node(node)
}

/// A router over the two nodes' primaries, routing by `map`.
fn router_over(node0: &ServiceHandle, node1: &ServiceHandle, map: ClusterMap) -> ClusterRouter {
    let node = |id, primary: &ServiceHandle| ClusterNode {
        id: NodeId(id),
        primary: primary.clone(),
        replicas: vec![],
    };
    ClusterRouter::new(vec![node(0, node0), node(1, node1)], map)
}

/// A two-node cluster around one campaign living on node 0: pools, hub,
/// and a router whose map says so.
struct Cluster {
    node0: (DocsService, ServiceHandle),
    node1: (DocsService, ServiceHandle),
    hub: ReplicationHub,
    router: ClusterRouter,
    campaign: CampaignId,
    dir0: PathBuf,
    dir1: PathBuf,
}

fn two_nodes(shards: usize, task_shards: usize, label: &str) -> Cluster {
    let dir0 = tmp_dir(&format!("{label}-{shards}-{task_shards}-n0"));
    let dir1 = tmp_dir(&format!("{label}-{shards}-{task_shards}-n1"));
    let (sink, feed) = replication_channel();
    let config0 = durable_node(shards, &dir0, NodeId(0)).with_replication(sink);
    let (service0, handle0) = DocsService::spawn_empty(config0).unwrap();
    let campaign = handle0
        .create_campaign(publish(task_shards, Some(FlushPolicy::EveryEvent)))
        .unwrap();
    let hub = ReplicationHub::spawn(feed);
    let (service1, handle1) =
        DocsService::spawn_empty(durable_node(shards, &dir1, NodeId(1))).expect("spawn node 1");
    let router = router_over(&handle0, &handle1, ClusterMap::new(NodeId(0)));
    Cluster {
        node0: (service0, handle0),
        node1: (service1, handle1),
        hub,
        router,
        campaign,
        dir0,
        dir1,
    }
}

impl Cluster {
    /// Flips the directory after a migration: epoch bump, campaign on
    /// node 1, installed on the router and on both nodes' shards.
    fn flip_directory(&self) {
        let mut map = self.router.map();
        map.assign(self.campaign, NodeId(1));
        assert!(self.router.install_map(&map), "router adopts the new epoch");
        self.node0.1.install_cluster_map(&map).unwrap();
        self.node1.1.install_cluster_map(&map).unwrap();
    }

    /// Stops both pools and the hub, leaving the durability directories
    /// on disk (the rebalance test cold-recovers node 1's afterwards).
    fn shutdown(self) -> (PathBuf, PathBuf) {
        let Cluster {
            node0,
            node1,
            hub,
            router,
            dir0,
            dir1,
            ..
        } = self;
        drop(router);
        drop(node0.1);
        node0.0.join_all();
        hub.join();
        drop(node1.1);
        node1.0.join_all();
        (dir0, dir1)
    }

    fn teardown(self) {
        let (dir0, dir1) = self.shutdown();
        let _ = std::fs::remove_dir_all(&dir0);
        let _ = std::fs::remove_dir_all(&dir1);
    }
}

/// One matrix cell of invariant 1: migrate mid-traffic, lose nothing,
/// finish byte-identical, and recover the destination's own log.
fn rebalance_under_traffic_case(shards: usize, task_shards: usize) {
    let label = format!("shards {shards}, task_shards {task_shards}");
    let (ops, reference) = oracle(task_shards);
    let cluster = two_nodes(shards, task_shards, "rebalance");
    let campaign = cluster.campaign;

    // First half of the stream lands on node 0, the campaign's birthplace.
    let half = ops.len() / 2;
    for op in &ops[..half] {
        submit_via(&cluster.router, campaign, op);
    }

    // Keep the second half flowing from a driver thread while the main
    // thread migrates the campaign out from under it. One driver thread:
    // the oracle's op order is the campaign's serialization.
    let driver = {
        let router = cluster.router.clone();
        let suffix: Vec<Op> = ops[half..].to_vec();
        std::thread::Builder::new()
            .name("cluster-driver".into())
            .spawn(move || {
                for op in &suffix {
                    submit_via(&router, campaign, op);
                    // Pace the stream so the fence lands mid-traffic.
                    std::thread::sleep(Duration::from_micros(300));
                }
            })
            .expect("spawn driver thread")
    };

    // Let the driver get going, then move the campaign.
    std::thread::sleep(Duration::from_millis(2));
    let outcome = migrate_campaign(
        campaign,
        &MigrationSource {
            handle: &cluster.node0.1,
            node: NodeId(0),
            dir: &cluster.dir0,
            hub: &cluster.hub,
        },
        &cluster.node1.1,
        NodeId(1),
    )
    .expect("live migration");
    cluster.flip_directory();
    driver.join().expect("driver thread panicked");

    assert_eq!(outcome.campaign, campaign, "{label}");
    assert!(
        outcome.fence_watermark > 0,
        "{label}: fence recorded a real watermark"
    );
    assert!(
        outcome.bootstrap_frames > 0,
        "{label}: migration shipped a snapshot"
    );

    // The write path now lives on node 1; finishing through the router
    // must produce the oracle's bytes — nothing was lost in the hand-off.
    let report = cluster
        .router
        .call(docs_service::Op::finish(campaign))
        .expect("finish after migration");
    assert_byte_identical(&report, &reference, &label);

    // The destination refuses nothing it owns: a direct finish also works.
    let direct = cluster
        .node1
        .1
        .call(docs_service::Op::peek_report(campaign))
        .unwrap();
    assert_eq!(direct.truths, reference.truths, "{label}: direct read");

    // Migration observability: the campaign was fenced on node 0 and
    // adopted on node 1; both nodes adopted the flipped directory.
    let (metrics0, metrics1) = (cluster.node0.1.metrics(), cluster.node1.1.metrics());
    assert_eq!(metrics0.counter(Counter::CampaignsFenced), 1, "{label}");
    assert_eq!(metrics1.counter(Counter::MigrationsAdopted), 1, "{label}");
    assert!(metrics0.counter(Counter::MapsInstalled) >= 1, "{label}");
    assert!(metrics1.counter(Counter::MapsInstalled) >= 1, "{label}");

    // The destination's own durable log carries the whole campaign:
    // snapshot + migrated suffix + post-migration traffic. Cold-recover
    // it and reproduce the report — the "no acked event lost" receipt.
    let (dir0, dir1) = cluster.shutdown();
    let (recovered_service, recovered_handle) =
        DocsService::recover(durable_node(shards, &dir1, NodeId(1))).expect("recover node 1");
    let recovered = recovered_handle
        .call(docs_service::Op::finish(campaign))
        .expect("finish after recovery");
    assert_byte_identical(&recovered, &reference, &format!("{label}: recovery"));
    drop(recovered_handle);
    recovered_service.join_all();
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

#[test]
fn rebalance_under_traffic_loses_nothing_across_the_matrix() {
    for shards in [1usize, 4] {
        for task_shards in [1usize, 4] {
            rebalance_under_traffic_case(shards, task_shards);
        }
    }
}

/// Invariant 2, pinned across shard counts: a router holding the
/// pre-migration map converges on the new owner with exactly one redirect.
fn stale_map_case(shards: usize) {
    let label = format!("shards {shards}");
    let task_shards = 1;
    let (ops, _) = oracle(task_shards);
    let cluster = two_nodes(shards, task_shards, "stale");
    let campaign = cluster.campaign;

    // Some traffic, then a quiet migration.
    let prefix = 10.min(ops.len().saturating_sub(2));
    for op in &ops[..prefix] {
        submit_via(&cluster.router, campaign, op);
    }
    migrate_campaign(
        campaign,
        &MigrationSource {
            handle: &cluster.node0.1,
            node: NodeId(0),
            dir: &cluster.dir0,
            hub: &cluster.hub,
        },
        &cluster.node1.1,
        NodeId(1),
    )
    .expect("quiet migration");
    cluster.flip_directory();

    // A second client still routing by the epoch-0 map: its next write
    // goes to node 0, absorbs the WrongNode answer, and must land on
    // node 1 with exactly one redirect.
    let stale = router_over(
        &cluster.node0.1,
        &cluster.node1.1,
        ClusterMap::new(NodeId(0)),
    );
    submit_via(&stale, campaign, &ops[prefix]);
    let stats = stale.stats();
    assert_eq!(
        stats.wrong_node_redirects, 1,
        "{label}: stale map must converge in one retry"
    );
    assert_eq!(stats.forwarded_writes, 1, "{label}");

    // The service side kept score too: node 0 refused with WrongNode at
    // least once (the stale write, plus any fence-window traffic), and
    // node 1 counted the forwarded submission.
    let (metrics0, metrics1) = (cluster.node0.1.metrics(), cluster.node1.1.metrics());
    assert!(
        metrics0.counter(Counter::WrongNodeRejections) >= 1,
        "{label}"
    );
    assert!(
        metrics1.counter(Counter::ForwardedSubmissions) >= 1,
        "{label}"
    );

    // A learned placement is a hint, not an epoch: once the real map
    // arrives, the stale router serves with no further redirects.
    let fresh = cluster.router.map();
    assert!(stale.install_map(&fresh));
    submit_via(&stale, campaign, &ops[prefix + 1]);
    assert_eq!(
        stale.stats().wrong_node_redirects,
        1,
        "{label}: no redirect after the real map is installed"
    );
    // The extra router holds handle clones; the pools only stop once
    // every handle is gone.
    drop(stale);
    cluster.teardown();
}

#[test]
fn a_stale_cluster_map_converges_to_the_new_owner_in_one_retry() {
    for shards in [1usize, 4] {
        stale_map_case(shards);
    }
}

/// The service-level ownership gate, end to end: after a directory that
/// places the campaign elsewhere is installed, the node refuses the
/// mutation with `WrongNode` naming the owner — and reads still serve.
#[test]
fn an_installed_directory_redirects_mutations_but_keeps_serving_reads() {
    let (ops, _) = oracle(1);
    let cluster = two_nodes(1, 1, "gate");
    let campaign = cluster.campaign;
    for op in &ops[..6.min(ops.len())] {
        submit_via(&cluster.router, campaign, op);
    }

    // A directory claiming node 1 owns the campaign — without migrating.
    let mut map = cluster.router.map();
    map.assign(campaign, NodeId(1));
    cluster.node0.1.install_cluster_map(&map).unwrap();

    let err = cluster
        .node0
        .1
        .call(docs_service::Op::submit_answer(
            campaign,
            Answer::new(WorkerId(0), TaskId(0), 0),
        ))
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::Rejected(docs_types::RejectReason::WrongNode { owner: NodeId(1) })
    );
    assert!(err.to_string().contains("owned by cluster node n1"));
    // Reads are never redirected: the local copy serves them.
    assert!(cluster
        .node0
        .1
        .call(docs_service::Op::status(campaign))
        .is_ok());
    cluster.teardown();
}
