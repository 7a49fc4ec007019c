//! The canonical DOCS benchmark: four workloads driven through the public
//! API of the real service, end-to-end metrics taken from a window of
//! deterministic repeats, and an outside-in per-layer ledger.
//!
//! See `bench/README.md` for what each workload loads, what every metric
//! means, and how to read the ledger.

pub mod alloc;
pub mod facts;
pub mod inputs;
pub mod ledger;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod window;
