//! System configuration.

use docs_core::ti::StoppingPolicy;
use docs_kb::LinkerConfig;
use docs_storage::FlushPolicy;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Deployment knobs of the DOCS system, defaulting to the paper's values.
///
/// The config is serializable because it is part of a campaign's snapshot:
/// a recovered campaign must resume with the exact knobs (budget, stopping
/// policy, shard geometry, …) it was published with.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DocsConfig {
    /// Entity-linker configuration for DVE (top-20 concepts by default).
    pub linker: LinkerConfig,
    /// Number of golden tasks (`n′ = 20` in the deployment).
    pub num_golden: usize,
    /// Golden-initialization smoothing pseudo-weight.
    pub golden_smoothing: f64,
    /// Full iterative inference every `z` submissions (`z = 100`).
    pub z: usize,
    /// Tasks per HIT (`k = 20` on AMT).
    pub k_per_hit: usize,
    /// Collection budget: answers per task (10 in Section 6.1). `0` means
    /// unlimited.
    pub answers_per_task: usize,
    /// Optional parameter-database directory; `None` keeps state in memory
    /// only.
    pub storage_dir: Option<PathBuf>,
    /// Optional per-task adaptive stopping (the Figure 4(c) stable-point
    /// extension): tasks whose truth satisfies the policy stop receiving
    /// assignments even before the `answers_per_task` cap, releasing budget
    /// for harder tasks. `None` reproduces the paper's uniform protocol.
    pub stopping: Option<StoppingPolicy>,
    /// Number of shards the per-campaign task state is hash-partitioned
    /// into for the OTA benefit scan and TI ingestion accounting. Purely a
    /// walk-order/parallelism knob: truths are byte-identical for every
    /// value. `1` reproduces the paper's flat scan.
    pub task_shards: usize,
    /// Strict budget admission: when `true`, answers arriving after the
    /// collection budget is consumed are rejected
    /// ([`docs_types::Error::BudgetExhausted`]) instead of absorbed. The
    /// paper's deployment absorbs late answers (workers who raced on the
    /// final HITs still get paid), so the default is `false`; a
    /// cost-strict requester flips it on and the service surfaces the
    /// refusal as a matchable `RejectReason::BudgetExhausted`.
    ///
    /// Within one batch, admission is per answer against the **flat cap**
    /// (a straddling batch truncates exactly where sequential submission
    /// would). When combined with an adaptive [`StoppingPolicy`], the
    /// stopping condition is evaluated against the state *before* the
    /// batch — a batch whose earlier answers would tip every task into
    /// its stopping condition does not refuse its own tail.
    pub strict_budget: bool,
    /// Per-campaign opt-in to the service's event-sourced durability:
    /// `Some(policy)` makes the owning shard write this campaign's events
    /// to its write-ahead log (group-committed per `policy`) so the
    /// campaign survives a service crash. `None` keeps the campaign
    /// memory-only (the paper's deployment). This field is the only place
    /// a campaign's durability is decided: create, snapshot install and
    /// recovery all read it, and every snapshot records it. Orthogonal to
    /// `storage_dir`, which persists *cross-requester* worker statistics.
    pub durable_flush: Option<FlushPolicy>,
}

impl Default for DocsConfig {
    fn default() -> Self {
        DocsConfig {
            linker: LinkerConfig {
                top_c: 20,
                context_weight: 0.5,
            },
            num_golden: 20,
            golden_smoothing: 1.0,
            z: 100,
            k_per_hit: 20,
            answers_per_task: 10,
            storage_dir: None,
            stopping: None,
            task_shards: 1,
            strict_budget: false,
            durable_flush: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DocsConfig::default();
        assert_eq!(c.linker.top_c, 20);
        assert_eq!(c.num_golden, 20);
        assert_eq!(c.z, 100);
        assert_eq!(c.k_per_hit, 20);
        assert_eq!(c.answers_per_task, 10);
        assert!(c.storage_dir.is_none());
        assert!(c.stopping.is_none(), "uniform protocol by default");
        assert_eq!(c.task_shards, 1, "flat scan by default");
        assert!(!c.strict_budget, "late answers absorbed by default");
        assert!(c.durable_flush.is_none(), "memory-only by default");
    }
}
