//! The end-to-end DOCS system — the architecture of Figure 1.
//!
//! A requester publishes tasks with text descriptions; [`Docs`] then:
//!
//! 1. runs **DVE** against the knowledge base to obtain each task's domain
//!    vector (Section 3),
//! 2. selects **golden tasks** to profile new workers (Section 5.2),
//! 3. serves the platform loop: on *answer submission* it runs incremental
//!    **TI** with periodic full re-inference (Section 4), on *task request*
//!    it runs **OTA** with the benefit function (Section 5.1),
//! 4. persists worker statistics and task state in the parameter database
//!    (`docs-storage`), merging a returning worker's history by Theorem 1,
//! 5. returns the inferred truths to the requester when the budget is
//!    consumed. Scoring those truths against ground truth is the
//!    evaluation's job, not the requester's: the simulated crowd and its
//!    scoring live in `docs-crowd` and `docs-scenarios`.

mod config;
mod ownership;
mod system;
mod watermark;

pub use config::DocsConfig;
pub use ownership::{MutationAdmission, OwnershipTable};
pub use system::{
    BatchSubmitReport, CampaignSnapshot, CampaignStatus, Docs, ReplayStats, RequesterReport,
    WorkRequest,
};
pub use watermark::{ReplicaWatermarks, WatermarkAdmission};
