//! Declarative scenario harness: dataset × worker population × arrival
//! pattern × service topology, one seeded manifest per run, scored for
//! inference **quality** next to throughput.
//!
//! Every bench before this crate measured *speed* on one honest synthetic
//! workload. The paper's actual claim is statistical — per-domain truth
//! inference beats majority vote, and the golden gate calibrates worker
//! quality — and that claim can silently die under a perf refactor or an
//! adversarial crowd. A [`ScenarioSpec`] pins one end-to-end experiment:
//!
//! * a regenerated evaluation dataset ([`DatasetRef`]),
//! * a worker population with a behavioral mix ([`PopulationClass`]:
//!   honest, uniform spammers, golden-gaming sleepers, colluding cliques,
//!   quality drifters),
//! * an arrival pattern ([`ArrivalSpec`], including flash-crowd bursts),
//! * a service topology ([`ServiceSpec`]: in-memory, durable, or
//!   replicated) — the run goes through the *real*
//!   `docs-service` request path, not a simulation shortcut,
//! * budget knobs and a single seed.
//!
//! [`run_scenario`] executes the manifest deterministically (same spec →
//! byte-identical answer log and truths, across shard counts) and
//! [`score`] reduces the run to a [`QualityReport`]: DOCS accuracy vs the
//! majority-vote baseline on the same answers, golden-calibration error,
//! per-domain accuracy, budget per correct label, and throughput. The
//! `quality` bench merges these into `BENCH_quality.json`, which
//! `scripts/bench_gate.py` gates like any perf number — a PR that makes
//! the service faster but dumber now fails CI.
//!
//! The crowd drivers live here too, so no production layer links a
//! simulated crowd: [`drive_workers_on`] (pipelined, many client threads),
//! its byte-identical reference [`drive_workers_blocking_on`], and the
//! in-process [`run_campaign`].

mod campaign;
mod drivers;
mod run;
mod score;
mod spec;

pub use campaign::{run_campaign, CampaignReport};
pub use drivers::{drive_workers_blocking_on, drive_workers_on, DriveOutcome, DriveReport};
pub use run::{run_scenario, DriveMirror, ScenarioOutcome};
pub use score::{bench_metrics, render_table, score, QualityReport};
pub use spec::{
    named, registry, ArrivalSpec, DatasetRef, PopulationClass, PopulationSpec, ScenarioSpec,
    ServiceSpec,
};
