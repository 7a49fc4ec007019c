//! The DOCS contribution: the three modules of Figure 1.
//!
//! * [`dve`] — **Domain Vector Estimation** (Section 3): computes a task's
//!   domain vector `r^t` from entity-linking output, via the exact
//!   polynomial-time Algorithm 1 (and the exponential enumeration baseline
//!   used in Table 3).
//! * [`ti`] — **Truth Inference** (Section 4): the iterative approach
//!   (Eqs. 2–5), the incremental approach of Section 4.2, and long-run
//!   worker-quality maintenance (Theorem 1).
//! * [`ota`] — **Online Task Assignment** (Section 5.1): the
//!   entropy-reduction benefit function (Definition 5, Theorems 2–4) and the
//!   linear top-`k` selection.
//! * [`golden`] — **Golden-task selection** (Section 5.2): the KL-divergence
//!   objective (Eq. 11), its approximation algorithm, and the exact
//!   enumeration baseline of Figure 7(a).
//!
//! The substrate inputs (knowledge base, entity linker) come from `docs-kb`;
//! the data model comes from `docs-types`.

pub mod dve;
pub mod golden;
pub mod ota;
pub mod ti;

pub use dve::{domain_vector, domain_vector_enumeration};
pub use golden::{golden_counts, golden_counts_enumeration, select_golden_tasks};
pub use ota::{Assigner, AssignerConfig};
pub use ti::{
    IncrementalTi, TaskArena, TaskView, TiConfig, TiResult, TruthInference, WorkerRegistry,
    WorkerStats,
};
