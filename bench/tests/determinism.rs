//! The noise discipline rests on repeats being *identical* runs: the same
//! seed must give the same op stream and the same outputs, whatever the
//! timing, the repeat, or the shard count.

use docs_canonical_bench::inputs::{generate, Inputs, Topology, Workload};
use docs_canonical_bench::run::{repeat, repeat_direct, Observe, Repeat};
use docs_canonical_bench::window::Exact;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    // Each test has its own directory: tests run on parallel threads.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{tag}", std::process::id()))
}

fn run(inputs: &Inputs, tag: &str) -> Repeat {
    let topology = inputs.spec.workload.topology();
    let (rep, _) = repeat(inputs, topology, &scratch(tag), Observe::Nothing).expect("repeat runs");
    assert_eq!(rep.failed(), 0, "{:?}", rep.failures().collect::<Vec<_>>());
    rep
}

#[test]
fn same_seed_same_outputs_across_repeats_and_shard_counts() {
    for workload in [Workload::TenantsDurable, Workload::TenantsReplicated] {
        let mut inputs = generate(workload, true, 11);
        let first = run(&inputs, &format!("{}-a", workload.name()));
        let second = run(&inputs, &format!("{}-b", workload.name()));
        // Truth hash, answers accepted, calls, failures, WAL bytes.
        assert_eq!(Exact::of(&first), Exact::of(&second), "{}", workload.name());
        assert!(first.disk_bytes.is_some_and(|b| b > 0));
        assert_eq!(first.drive.events, second.drive.events, "op stream repeats");

        // Two shards: every campaign still sees its own calls in the same
        // order, so truths and counts cannot move. (WAL bytes do: the
        // snapshot cadence counts events per shard.)
        inputs.spec.shards = 2;
        let sharded = run(&inputs, &format!("{}-s2", workload.name()));
        assert_eq!(sharded.truth_hash, first.truth_hash, "{}", workload.name());
        assert_eq!(sharded.drive.answers, first.drive.answers);
        assert_eq!(sharded.drive.ops, first.drive.ops);
        assert_eq!(sharded.drive.events, first.drive.events);
    }
}

#[test]
fn a_different_seed_changes_the_op_stream() {
    for workload in [Workload::PaperQaMem, Workload::TenantsMem] {
        let one = run(
            &generate(workload, true, 1),
            &format!("{}-seed1", workload.name()),
        );
        let two = run(
            &generate(workload, true, 2),
            &format!("{}-seed2", workload.name()),
        );
        assert_ne!(one.drive.events, two.drive.events, "{}", workload.name());
        assert_ne!(one.truth_hash, two.truth_hash, "{}", workload.name());
        // ... and the same seed does not.
        let again = run(
            &generate(workload, true, 1),
            &format!("{}-again", workload.name()),
        );
        assert_eq!(one.drive.events, again.drive.events, "{}", workload.name());
        assert_eq!(one.truth_hash, again.truth_hash, "{}", workload.name());
    }
}

#[test]
fn every_rung_of_the_ladder_infers_the_same_truths() {
    let inputs = generate(Workload::TenantsReplicated, true, 5);
    let (direct, _) = repeat_direct(&inputs).expect("docs-only rung");
    assert_eq!(direct.failed(), 0);
    for topology in [Topology::Mem, Topology::Durable, Topology::Replicated] {
        let dir = scratch(&format!("rung-{topology:?}"));
        let (rung, _) = repeat(&inputs, topology, &dir, Observe::Nothing).expect("rung runs");
        assert_eq!(rung.failed(), 0, "{topology:?}: {:?}", rung.checks.notes);
        assert_eq!(rung.truth_hash, direct.truth_hash, "{topology:?}");
        assert_eq!(rung.drive.events, direct.drive.events, "{topology:?}");
    }
}

#[test]
fn docs_does_not_lose_to_majority_vote_on_the_paper_workload() {
    let rep = run(&generate(Workload::PaperQaMem, true, 3), "paper-mv");
    let majority = rep
        .majority_correct
        .expect("the paper workload grades majority vote");
    assert!(rep.graded_correct >= majority);
    assert_eq!(rep.graded_total, 100, "smoke size grades 100 tasks");
}
