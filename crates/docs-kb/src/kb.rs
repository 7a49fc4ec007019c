//! The knowledge base: concepts, domain memberships, and the alias index the
//! entity linker searches.

use crate::{Concept, ConceptId, IndicatorVector};
use docs_types::DomainSet;
use std::collections::HashMap;

/// An in-memory knowledge base over a fixed [`DomainSet`].
///
/// Structurally this mirrors what DOCS extracts from Freebase: every concept
/// knows which of the `m` deployment domains it belongs to, and every concept
/// is reachable through one or more *aliases* (surface forms). Ambiguity is
/// first-class: an alias may map to several concepts, each with a popularity
/// prior, reproducing the "Michael Jordan → player / professor / actor"
/// situation that makes domain vector computation non-trivial.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    domain_set: DomainSet,
    concepts: Vec<Concept>,
    /// Lower-cased alias → candidate concept ids.
    alias_index: HashMap<String, Vec<ConceptId>>,
    /// First word of a lower-cased alias → the longest alias starting with
    /// it, in words: the linker's match window at a token, and the one
    /// probe a token that starts no alias costs.
    longest_from: HashMap<String, usize>,
}

impl KnowledgeBase {
    /// Starts an empty KB over the given domain set.
    pub fn builder(domain_set: DomainSet) -> KbBuilder {
        KbBuilder {
            kb: KnowledgeBase {
                domain_set,
                concepts: Vec::new(),
                alias_index: HashMap::new(),
                longest_from: HashMap::new(),
            },
        }
    }

    /// Number of domains `m`.
    pub fn num_domains(&self) -> usize {
        self.domain_set.len()
    }

    /// Looks up a concept by id.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Candidate concepts for a (lower-cased) alias, or `None` if the surface
    /// form is unknown to the KB.
    pub fn candidates(&self, alias_lower: &str) -> Option<&[ConceptId]> {
        self.alias_index.get(alias_lower).map(|v| v.as_slice())
    }

    /// Words in the longest alias whose first word is `word` (lower-cased),
    /// or `0` if no alias starts with it.
    ///
    /// Words are split at `' '`, the separator the linker joins tokens
    /// with, so every alias a phrase of tokens can equal is counted.
    pub fn longest_alias_from(&self, word: &str) -> usize {
        self.longest_from.get(word).copied().unwrap_or(0)
    }
}

/// Builder used by the curated dataset KBs and the Table 2 example.
#[derive(Debug)]
pub struct KbBuilder {
    kb: KnowledgeBase,
}

impl KbBuilder {
    /// Adds a concept with its aliases; returns the assigned id.
    ///
    /// Aliases are indexed case-insensitively. The canonical name is *not*
    /// automatically an alias — callers list every surface form explicitly,
    /// which keeps ambiguity under test control.
    pub fn add_concept<I, S>(
        &mut self,
        name: impl Into<String>,
        domains: IndicatorVector,
        popularity: f64,
        aliases: I,
    ) -> ConceptId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        assert_eq!(
            domains.num_domains(),
            self.kb.domain_set.len(),
            "indicator vector length must match the domain set"
        );
        let id = ConceptId(self.kb.concepts.len() as u32);
        self.kb
            .concepts
            .push(Concept::new(id, name, domains).with_popularity(popularity));
        for alias in aliases {
            let alias_lower = alias.as_ref().to_lowercase();
            assert!(
                alias_lower.split_whitespace().next().is_some(),
                "aliases must be non-empty"
            );
            let first = alias_lower.split(' ').next().unwrap_or_default();
            let words = alias_lower.split(' ').count();
            let longest = self.kb.longest_from.entry(first.to_owned()).or_default();
            *longest = (*longest).max(words);
            self.kb.alias_index.entry(alias_lower).or_default().push(id);
        }
        id
    }

    /// Finalizes the KB.
    pub fn build(self) -> KnowledgeBase {
        self.kb
    }
}

/// Builds the 3-domain example KB of Table 2: the three "Michael Jordan"
/// concepts, the two "NBA" concepts, and Kobe Bryant, with popularity priors
/// chosen so the linker reproduces the paper's `p_i` distributions.
pub fn table2_example_kb() -> KnowledgeBase {
    let d = DomainSet::example3();
    let mut b = KnowledgeBase::builder(d);
    // p_1 = [0.7, 0.2, 0.1] over the three Michael Jordans.
    b.add_concept(
        "Michael Jordan (basketball)",
        IndicatorVector::from_bits(&[0, 1, 1]),
        0.7,
        ["Michael Jordan"],
    );
    b.add_concept(
        "Michael I. Jordan (scientist)",
        IndicatorVector::from_bits(&[0, 0, 0]),
        0.2,
        ["Michael Jordan"],
    );
    b.add_concept(
        "Michael B. Jordan (actor)",
        IndicatorVector::from_bits(&[0, 0, 1]),
        0.1,
        ["Michael Jordan"],
    );
    // p_2 = [0.8, 0.2] over the two NBAs.
    b.add_concept(
        "National Basketball Association",
        IndicatorVector::from_bits(&[0, 1, 0]),
        0.8,
        ["NBA"],
    );
    b.add_concept(
        "National Bar Association",
        IndicatorVector::from_bits(&[0, 0, 0]),
        0.2,
        ["NBA"],
    );
    // p_3 = [1.0].
    b.add_concept(
        "Kobe Bryant",
        IndicatorVector::from_bits(&[0, 1, 0]),
        1.0,
        ["Kobe Bryant"],
    );
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_kb_shape() {
        let kb = table2_example_kb();
        assert_eq!(kb.num_domains(), 3);
        assert_eq!(kb.concept(ConceptId(5)).name, "Kobe Bryant");
        let mj = kb.candidates("michael jordan").unwrap();
        assert_eq!(mj.len(), 3);
        let nba = kb.candidates("nba").unwrap();
        assert_eq!(nba.len(), 2);
        assert_eq!(kb.candidates("kobe bryant").unwrap().len(), 1);
        assert!(kb.candidates("lebron james").is_none());
        assert_eq!(kb.longest_alias_from("michael"), 2);
        assert_eq!(kb.longest_alias_from("nba"), 1);
        assert_eq!(kb.longest_alias_from("kobe"), 2);
        assert_eq!(kb.longest_alias_from("bryant"), 0);
        assert_eq!(kb.longest_alias_from("jordan"), 0);
    }

    #[test]
    #[should_panic(expected = "must match the domain set")]
    fn mismatched_indicator_rejected() {
        let mut b = KnowledgeBase::builder(DomainSet::example3());
        b.add_concept("x", IndicatorVector::empty(5), 1.0, ["x"]);
    }

    #[test]
    fn alias_lookup_is_case_insensitive() {
        let kb = table2_example_kb();
        // The index stores lower-case keys; the linker lower-cases queries.
        assert!(kb.candidates("NBA").is_none());
        assert!(kb.candidates("nba").is_some());
    }
}
