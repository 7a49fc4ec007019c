//! Topic models — the domain detection of the iCrowd and FaitCrowd baselines.
//!
//! The paper's two domain-aware competitors detect task domains with topic
//! models instead of a knowledge base: iCrowd \[18\] runs LDA \[6\] over task
//! descriptions and FaitCrowd \[30\] runs TwitterLDA \[51\] (an LDA variant for
//! short texts where each document carries a *single* topic plus a shared
//! background word distribution). Both need the number of latent topics set
//! by hand and learn latent, unlabeled domains — the property the Figure 3
//! experiment shows losing to explicit KB domains on heterogeneous text.
//!
//! This crate implements both models from scratch with collapsed Gibbs
//! sampling, for the Figure 3 reproduction (`docs-bench`'s `fig3`), their
//! one caller:
//!
//! * [`Vocabulary`] / [`tokenize`] — shared text preprocessing,
//! * [`Lda`] — standard latent Dirichlet allocation,
//! * [`TwitterLda`] — one topic per document + background/topic word switch.
//!
//! Each trainer exposes one entry point, `fit_texts_best_of` (the run with
//! the highest training log-likelihood over seeded Gibbs restarts), and
//! each model one reading, `dominant_topic` (a task's hard topic).

mod lda;
mod twitter;
mod vocab;

pub use lda::{Lda, LdaConfig, LdaModel};
pub use twitter::{TwitterLda, TwitterLdaConfig, TwitterLdaModel};
pub use vocab::{tokenize, Vocabulary};
