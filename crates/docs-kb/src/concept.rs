//! Concepts — the KB-side referents of entity mentions (Wikipedia pages /
//! Freebase topics in the paper).

use crate::IndicatorVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a concept within one [`crate::KnowledgeBase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConceptId(pub u32);

impl ConceptId {
    /// Returns the id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A real-world concept: a canonical name, the set of domains it belongs to,
/// and a popularity prior.
///
/// The popularity prior plays the role of Wikifier's "frequency of the
/// linking" feature: when a surface form is ambiguous, more popular concepts
/// receive more of the link probability mass before context is considered.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Concept {
    /// Dense id within the owning knowledge base.
    pub id: ConceptId,
    /// Canonical name, e.g. `"Michael Jordan (basketball player)"`.
    pub name: String,
    /// Domain memberships `h` w.r.t. the deployment's `DomainSet`.
    pub domains: IndicatorVector,
    /// Relative popularity weight (> 0); link priors are proportional to it.
    pub popularity: f64,
}

impl Concept {
    /// Creates a concept; popularity defaults to 1.0 via [`Concept::with_popularity`].
    pub fn new(id: ConceptId, name: impl Into<String>, domains: IndicatorVector) -> Self {
        Concept {
            id,
            name: name.into(),
            domains,
            popularity: 1.0,
        }
    }

    /// Sets the popularity prior weight.
    pub fn with_popularity(mut self, popularity: f64) -> Self {
        assert!(
            popularity > 0.0 && popularity.is_finite(),
            "popularity must be positive and finite"
        );
        self.popularity = popularity;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concept_construction() {
        let c = Concept::new(
            ConceptId(0),
            "Kobe Bryant",
            IndicatorVector::from_bits(&[0, 1, 0]),
        )
        .with_popularity(3.0);
        assert_eq!(c.id.index(), 0);
        assert_eq!(c.popularity, 3.0);
        assert_eq!(c.domains.get(1), 1);
        assert_eq!(c.id.to_string(), "c0");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_popularity_rejected() {
        let _ = Concept::new(ConceptId(0), "x", IndicatorVector::empty(3)).with_popularity(0.0);
    }
}
