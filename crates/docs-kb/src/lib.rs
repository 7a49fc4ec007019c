//! Synthetic knowledge base and entity linking — the Freebase + Wikifier
//! substrate of DOCS (Section 3, Step 1).
//!
//! The paper's DVE pipeline needs, for each task:
//!
//! 1. the set of detected entities `E_t` in the task text,
//! 2. for each entity `e_i`, a distribution `p_i` over its top-`c` candidate
//!    concepts (Wikipedia pages in the paper), and
//! 3. for each candidate concept, an indicator vector `h_{i,j}` marking which
//!    domains of `D` the concept belongs to (derived from Freebase).
//!
//! Freebase is gone and Wikifier is a closed web service, so this crate
//! builds the same contract from scratch:
//!
//! * [`KnowledgeBase`] — concepts with domain memberships and aliases,
//!   including deliberately *ambiguous* aliases (one surface form linking to
//!   concepts in different domains, like the paper's "Michael Jordan"),
//! * [`EntityLinker`] — longest-match mention detection plus a light
//!   context-based disambiguation pass producing calibrated top-`c`
//!   distributions.
//!
//! [`LinkedEntity`] is exactly the `(p_i, h_{i,*})` input of Algorithm 1, so
//! `docs-core::dve` consumes this crate's output without adaptation.

mod concept;
mod indicator;
mod kb;
mod linking;

pub use concept::{Concept, ConceptId};
pub use indicator::IndicatorVector;
pub use kb::{table2_example_kb, KbBuilder, KnowledgeBase};
pub use linking::{EntityLinker, LinkedEntity, LinkerConfig};
