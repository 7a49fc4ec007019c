//! Shard-partitioned view over per-task inference state.
//!
//! The paper's deployment keeps one flat task-state arena behind a single
//! server loop; at service scale the OTA benefit scan (O(n) per worker
//! request, Section 5.1) becomes the bottleneck. [`ShardedTiState`]
//! partitions the task index space by [`TaskId::shard`] hash so that:
//!
//! * the benefit scan runs as independent per-shard scans, each cut to its
//!   own top-`k`, and one final top-`k` over the survivors — same result
//!   as the flat scan, but parallelizable,
//! * answer ingestion (Section 4.2's incremental Step 1) touches only the
//!   owning shard's state, which the view records per shard so runtimes can
//!   observe ingestion balance and schedule periodic full inference,
//! * periodic *full* truth inference still runs over the union — sharding
//!   partitions the scan, never the statistical model, so truths converge
//!   globally exactly as in the single-shard deployment.

use docs_types::TaskId;

/// Partition of `n` dense task ids across `num_shards` shards.
#[derive(Debug, Clone)]
pub struct ShardedTiState {
    num_shards: usize,
    /// Task indices owned by each shard, ascending within a shard.
    index: Vec<Vec<usize>>,
    /// Answers ingested per shard since construction.
    ingested: Vec<u64>,
}

impl ShardedTiState {
    /// Partitions tasks `0..num_tasks` across `num_shards` shards.
    pub fn new(num_tasks: usize, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let mut index = vec![Vec::new(); num_shards];
        for i in 0..num_tasks {
            index[TaskId::from(i).shard(num_shards)].push(i);
        }
        ShardedTiState {
            num_shards,
            index,
            ingested: vec![0; num_shards],
        }
    }

    /// Rebuilds a partition with previously recorded ingestion counters —
    /// the snapshot/restore path of the durable runtime. The index is
    /// recomputed (it is a pure function of `num_tasks` and `num_shards`);
    /// only the counters are observable state worth persisting.
    ///
    /// # Panics
    /// Panics if `ingested.len() != num_shards`.
    pub fn restore(num_tasks: usize, num_shards: usize, ingested: Vec<u64>) -> Self {
        assert_eq!(ingested.len(), num_shards, "one counter per shard");
        let mut view = Self::new(num_tasks, num_shards);
        view.ingested = ingested;
        view
    }

    /// The per-shard ingestion counters, in shard order (for snapshots).
    pub fn ingestion_counters(&self) -> &[u64] {
        &self.ingested
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Total number of partitioned tasks.
    pub fn num_tasks(&self) -> usize {
        self.index.iter().map(Vec::len).sum()
    }

    /// The shard owning a task.
    #[inline]
    pub fn shard_of(&self, task: TaskId) -> usize {
        task.shard(self.num_shards)
    }

    /// Task indices owned by one shard (ascending).
    pub fn tasks_of(&self, shard: usize) -> &[usize] {
        &self.index[shard]
    }

    /// Records one ingested answer on the owning shard and returns that
    /// shard's index.
    pub fn record_ingest(&mut self, task: TaskId) -> usize {
        let shard = self.shard_of(task);
        self.ingested[shard] += 1;
        shard
    }

    /// Answers ingested by one shard so far.
    pub fn ingested(&self, shard: usize) -> u64 {
        self.ingested[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_and_disjoint() {
        for shards in [1, 2, 3, 8] {
            let view = ShardedTiState::new(100, shards);
            assert_eq!(view.num_shards(), shards);
            assert_eq!(view.num_tasks(), 100);
            let mut seen = [false; 100];
            for s in 0..shards {
                for &i in view.tasks_of(s) {
                    assert!(!seen[i], "task {i} owned twice");
                    seen[i] = true;
                    assert_eq!(view.shard_of(TaskId::from(i)), s);
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn hash_partition_balances_dense_ids() {
        let view = ShardedTiState::new(10_000, 8);
        for s in 0..8 {
            let len = view.tasks_of(s).len();
            assert!((1000..1600).contains(&len), "shard {s} owns {len} of 10000");
        }
    }

    #[test]
    fn ingestion_counters_follow_ownership() {
        let mut view = ShardedTiState::new(10, 3);
        let t = TaskId(4);
        let owner = view.shard_of(t);
        assert_eq!(view.record_ingest(t), owner);
        assert_eq!(view.record_ingest(t), owner);
        assert_eq!(view.ingested(owner), 2);
        assert_eq!((0..3).map(|s| view.ingested(s)).sum::<u64>(), 2);
    }

    #[test]
    fn single_shard_owns_everything() {
        let view = ShardedTiState::new(7, 1);
        assert_eq!(view.tasks_of(0), &[0, 1, 2, 3, 4, 5, 6]);
    }
}
