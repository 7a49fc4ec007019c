//! Truth Inference (Section 4).
//!
//! Two inherent relations drive everything here:
//!
//! 1. a worker's answer for a task is trustworthy if her quality is high on
//!    the task's domains (Step 1, Eqs. 2–4), and
//! 2. a worker has high quality on a domain if she often answers tasks of
//!    that domain correctly (Step 2, Eq. 5).
//!
//! [`TruthInference`] alternates the two steps until convergence (the
//! *iterative approach* of Section 4.1). [`IncrementalTi`] applies the
//! constant-time update policy of Section 4.2 on every single answer, and
//! periodically re-runs the iterative approach (every `z` submissions,
//! `z = 100` in the paper). [`WorkerStats`] implements the long-run quality
//! maintenance of Theorem 1.

//!
//! [`ShardedTiState`] partitions the per-task state space by `TaskId` hash
//! for the sharded service runtime: ingestion touches only the owning
//! shard, the OTA benefit scan runs shard-by-shard, and the periodic full
//! inference still converges globally over the union.

#[cfg(test)]
mod fingerprint;
mod incremental;
mod iterative;
#[cfg(test)]
pub(crate) mod oracle;
mod sharded;
mod state;
mod stats;
mod stopping;

pub use incremental::{IncrementalTi, RunCounts, TiSnapshot};
pub use iterative::{TiConfig, TiResult, TruthInference};
pub use sharded::ShardedTiState;
pub(crate) use state::miss_likelihood;
pub use state::{clamp_quality, TaskArena, TaskView};
pub use stats::{WorkerRegistry, WorkerStats};
pub use stopping::{stable_point_of_curve, StoppingPolicy};
