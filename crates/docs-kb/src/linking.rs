//! Entity linking: from task text to `(E_t, p_i, h_{i,j})`.
//!
//! This reproduces the role of Wikifier [36, 10] in the paper's pipeline:
//! detect entity mentions in the task description, link each to its top-`c`
//! candidate concepts, and emit a probability distribution per mention. Two
//! signals shape the distribution, mirroring Wikifier's features:
//!
//! * **popularity prior** — "the frequency of the linking": candidates start
//!   with mass proportional to their popularity weight;
//! * **context coherence** — "the semantic meanings in the text": candidates
//!   whose domains overlap the domains suggested by the *other* mentions in
//!   the same task get boosted (so "Michael Jordan" next to "NBA" leans
//!   toward the basketball player).

use crate::{ConceptId, IndicatorVector, KnowledgeBase};
use serde::{Deserialize, Serialize};

/// Configuration of the entity linker.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkerConfig {
    /// Keep at most this many candidate concepts per mention — the paper's
    /// Wikifier deployment keeps the top 20, and Table 3 evaluates the
    /// top-10/top-3 pruning heuristics.
    pub top_c: usize,
    /// Strength of the context-coherence boost; `0.0` disables
    /// disambiguation and yields pure popularity priors.
    pub context_weight: f64,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        LinkerConfig {
            top_c: 20,
            context_weight: 0.0,
        }
    }
}

/// One detected entity `e_i` with its candidate linkings: the distribution
/// `p_i` and the per-candidate indicator vectors `h_{i,j}`.
///
/// This is exactly the per-entity input of Algorithm 1.
#[derive(Debug, Clone)]
pub struct LinkedEntity {
    /// Candidate concept ids, most probable first.
    pub candidates: Vec<ConceptId>,
    /// `p_i`: probability that each candidate is the correct linking; sums
    /// to 1 over the retained top-`c` candidates.
    pub probs: Vec<f64>,
    /// `h_{i,j}`: domain indicator of each candidate.
    pub indicators: Vec<IndicatorVector>,
}

impl LinkedEntity {
    /// Number of retained candidates `|p_i|`.
    pub fn num_candidates(&self) -> usize {
        self.probs.len()
    }
}

/// The entity linker over a [`KnowledgeBase`].
#[derive(Debug, Clone)]
pub struct EntityLinker<'kb> {
    kb: &'kb KnowledgeBase,
    config: LinkerConfig,
}

impl<'kb> EntityLinker<'kb> {
    /// Creates a linker with the given configuration.
    pub fn new(kb: &'kb KnowledgeBase, config: LinkerConfig) -> Self {
        assert!(config.top_c >= 1, "top_c must be at least 1");
        EntityLinker { kb, config }
    }

    /// Detects entity mentions and links them: the full Step 1 of Section 3.
    ///
    /// Mention detection is greedy longest-match over the KB alias index:
    /// at each token position the longest alias starting there wins, and
    /// matching resumes after it. Unmatched tokens are skipped — they are
    /// ordinary words, handled by the topic-model baselines instead.
    pub fn link(&self, text: &str) -> Vec<LinkedEntity> {
        let tokens = tokenize(text);
        let mut mentions: Vec<&[ConceptId]> = Vec::new();
        let max_window = self.kb.max_alias_words().max(1);
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = None;
            let upper = (i + max_window).min(tokens.len());
            // Longest match first.
            for end in (i + 1..=upper).rev() {
                let phrase = tokens[i..end].join(" ");
                if let Some(cands) = self.kb.candidates(&phrase) {
                    matched = Some((cands, end));
                    break;
                }
            }
            match matched {
                Some((cands, end)) => {
                    mentions.push(cands);
                    i = end;
                }
                None => i += 1,
            }
        }

        // First pass: popularity priors per mention.
        let mut entities: Vec<LinkedEntity> = mentions
            .into_iter()
            .map(|cands| self.prior_distribution(cands))
            .collect();

        // Second pass: context coherence (skipped when disabled or when the
        // task has a single mention — no context to lean on).
        if self.config.context_weight > 0.0 && entities.len() > 1 {
            self.apply_context(&mut entities);
        }

        // Truncate to top-c and renormalize.
        for e in &mut entities {
            truncate_top_c(e, self.config.top_c);
        }
        entities
    }

    fn prior_distribution(&self, cands: &[ConceptId]) -> LinkedEntity {
        let mut probs: Vec<f64> = cands
            .iter()
            .map(|&id| self.kb.concept(id).popularity)
            .collect();
        docs_types::prob::normalize_in_place(&mut probs);
        let indicators = cands
            .iter()
            .map(|&id| self.kb.concept(id).domains)
            .collect();
        let mut e = LinkedEntity {
            candidates: cands.to_vec(),
            probs,
            indicators,
        };
        sort_by_prob(&mut e);
        e
    }

    /// Boosts candidates whose domains cohere with the other mentions:
    /// candidate `j` of entity `i` is reweighted by
    /// `1 + w · Σ_{i'≠i} Σ_{j'} p_{i',j'} · overlap(h_{i,j}, h_{i',j'})`.
    fn apply_context(&self, entities: &mut [LinkedEntity]) {
        let m = self.kb.num_domains();
        // Domain vote vector per entity: expected indicator under p_i.
        let votes: Vec<Vec<f64>> = entities
            .iter()
            .map(|e| {
                let mut v = vec![0.0; m];
                for (j, h) in e.indicators.iter().enumerate() {
                    let p = e.probs[j];
                    for (k, slot) in v.iter_mut().enumerate() {
                        *slot += p * h.get(k) as f64;
                    }
                }
                v
            })
            .collect();

        let w = self.config.context_weight;
        for (i, e) in entities.iter_mut().enumerate() {
            for (j, h) in e.indicators.iter().enumerate() {
                let mut coherence = 0.0;
                for (i2, vote) in votes.iter().enumerate() {
                    if i2 == i {
                        continue;
                    }
                    for (k, v) in vote.iter().enumerate() {
                        coherence += h.get(k) as f64 * v;
                    }
                }
                e.probs[j] *= 1.0 + w * coherence;
            }
            docs_types::prob::normalize_in_place(&mut e.probs);
            sort_by_prob(e);
        }
    }
}

fn sort_by_prob(e: &mut LinkedEntity) {
    let mut order: Vec<usize> = (0..e.probs.len()).collect();
    order.sort_by(|&a, &b| {
        e.probs[b]
            .partial_cmp(&e.probs[a])
            .expect("probs are finite")
    });
    e.candidates = order.iter().map(|&j| e.candidates[j]).collect();
    e.indicators = order.iter().map(|&j| e.indicators[j]).collect();
    e.probs = order.iter().map(|&j| e.probs[j]).collect();
}

fn truncate_top_c(e: &mut LinkedEntity, c: usize) {
    if e.probs.len() > c {
        e.candidates.truncate(c);
        e.indicators.truncate(c);
        e.probs.truncate(c);
        docs_types::prob::normalize_in_place(&mut e.probs);
    }
}

/// Lower-cases and splits text into alphanumeric word tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|ch: char| !ch.is_alphanumeric() && ch != '\'' && ch != '.')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim_matches('.').to_lowercase())
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::table2_example_kb;

    const TASK_T1: &str = "Does Michael Jordan win more NBA championships than Kobe Bryant?";

    #[test]
    fn tokenize_strips_punctuation() {
        let toks = tokenize("Does Michael Jordan win? Yes, he does.");
        assert_eq!(
            toks,
            vec!["does", "michael", "jordan", "win", "yes", "he", "does"]
        );
    }

    #[test]
    fn detects_table2_entities_in_order() {
        let kb = table2_example_kb();
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        let entities = linker.link(TASK_T1);
        assert_eq!(entities.len(), 3);
        // Each mention's most popular candidate names it.
        let top = |i: usize| &kb.concept(entities[i].candidates[0]).name;
        assert_eq!(top(0), "Michael Jordan (basketball)");
        assert_eq!(top(1), "National Basketball Association");
        assert_eq!(top(2), "Kobe Bryant");
    }

    #[test]
    fn priors_match_table2() {
        let kb = table2_example_kb();
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        let entities = linker.link(TASK_T1);
        // p_1 = [0.7, 0.2, 0.1], sorted descending.
        let p1 = &entities[0].probs;
        assert!((p1[0] - 0.7).abs() < 1e-12);
        assert!((p1[1] - 0.2).abs() < 1e-12);
        assert!((p1[2] - 0.1).abs() < 1e-12);
        // p_2 = [0.8, 0.2].
        let p2 = &entities[1].probs;
        assert!((p2[0] - 0.8).abs() < 1e-12);
        assert!((p2[1] - 0.2).abs() < 1e-12);
        // p_3 = [1.0].
        assert_eq!(entities[2].probs, vec![1.0]);
    }

    #[test]
    fn context_boost_favors_coherent_candidate() {
        let kb = table2_example_kb();
        let plain = EntityLinker::new(&kb, LinkerConfig::default());
        let ctx = EntityLinker::new(
            &kb,
            LinkerConfig {
                top_c: 20,
                context_weight: 1.0,
            },
        );
        let without = plain.link(TASK_T1);
        let with = ctx.link(TASK_T1);
        // With NBA and Kobe Bryant as context, the basketball player should
        // gain probability mass relative to the prior-only linking.
        assert!(with[0].probs[0] > without[0].probs[0]);
        // And the distribution stays normalized.
        let sum: f64 = with[0].probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_c_truncation_renormalizes() {
        let kb = table2_example_kb();
        let linker = EntityLinker::new(
            &kb,
            LinkerConfig {
                top_c: 2,
                context_weight: 0.0,
            },
        );
        let entities = linker.link(TASK_T1);
        assert_eq!(entities[0].num_candidates(), 2);
        let sum: f64 = entities[0].probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Top-2 of [0.7, 0.2, 0.1] renormalized: [7/9, 2/9].
        assert!((entities[0].probs[0] - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_text_yields_no_entities() {
        let kb = table2_example_kb();
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        assert!(linker.link("completely unrelated words here").is_empty());
    }

    #[test]
    fn longest_match_wins() {
        // "kobe bryant" must match as one two-word entity, not fail at
        // "kobe" (which is not an alias on its own).
        let kb = table2_example_kb();
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        let entities = linker.link("kobe bryant and NBA");
        assert_eq!(entities.len(), 2);
        assert_eq!(kb.concept(entities[0].candidates[0]).name, "Kobe Bryant");
    }
}
