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
    /// disambiguation and yields pure popularity priors. At most
    /// [`LinkerConfig::MAX_CONTEXT_WEIGHT`].
    pub context_weight: f64,
}

impl LinkerConfig {
    /// The largest `context_weight` whose boost `1 + w · coherence` is
    /// finite for any task. A candidate's coherence sums, over the task's
    /// other mentions, its `≤ 64` related domains' votes, each at most 1; a
    /// task has fewer than `2^58` mentions (each takes two bytes of text),
    /// so coherence stays below `2^64` and the boost below `f64::MAX`. So
    /// does the normalizing sum, a `p`-weighted mean of boosts.
    pub const MAX_CONTEXT_WEIGHT: f64 = f64::MAX / 18_446_744_073_709_551_616.0;
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
        assert!(
            (0.0..=LinkerConfig::MAX_CONTEXT_WEIGHT).contains(&config.context_weight),
            "context_weight must be in 0..=MAX_CONTEXT_WEIGHT, found {}",
            config.context_weight
        );
        EntityLinker { kb, config }
    }

    /// Detects entity mentions and links them: the full Step 1 of Section 3.
    ///
    /// Mention detection is greedy longest-match over the KB alias index:
    /// at each token position the longest alias starting there wins, and
    /// matching resumes after it. Unmatched tokens are skipped — they are
    /// ordinary words, handled by the topic-model baselines instead.
    pub fn link(&self, text: &str) -> Vec<LinkedEntity> {
        let (joined, spans) = tokenize(text);
        let mut mentions: Vec<&[ConceptId]> = Vec::new();
        let mut i = 0;
        while i < spans.len() {
            // Only an alias starting with this token can match here, and
            // none longer than the longest of those: a token that starts
            // no alias costs this one probe. Longest match first; the
            // window `i..end` is the slice of `joined` its tokens span.
            let (start, first_end) = spans[i];
            let longest = self.kb.longest_alias_from(&joined[start..first_end]);
            let mut end = (i + longest).min(spans.len());
            let mut matched = None;
            while end > i {
                if let Some(cands) = self.kb.candidates(&joined[start..spans[end - 1].1]) {
                    matched = Some((cands, end));
                    break;
                }
                end -= 1;
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
    ///
    /// Both sums visit only set indicator bits: an unset bit's term is
    /// `p · 0` or `0 · v`, an exact `+0.0` on a non-negative sum.
    fn apply_context(&self, entities: &mut [LinkedEntity]) {
        let m = self.kb.num_domains();
        // Domain vote vector per entity (row `i` of `votes`): expected
        // indicator under p_i.
        let mut votes = vec![0.0; entities.len() * m];
        for (e, vote) in entities.iter().zip(votes.chunks_mut(m)) {
            for (h, &p) in e.indicators.iter().zip(&e.probs) {
                for k in h.ones() {
                    vote[k] += p;
                }
            }
        }

        let w = self.config.context_weight;
        for (i, e) in entities.iter_mut().enumerate() {
            for (h, p) in e.indicators.iter().zip(&mut e.probs) {
                let mut coherence = 0.0;
                for (i2, vote) in votes.chunks(m).enumerate() {
                    if i2 == i {
                        continue;
                    }
                    for k in h.ones() {
                        coherence += vote[k];
                    }
                }
                *p *= 1.0 + w * coherence;
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
    // Already in order (as most priors are): nothing to permute.
    if order.iter().enumerate().all(|(at, &j)| at == j) {
        return;
    }
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

/// Splits text into alphanumeric word tokens, lower-cased and joined by
/// single spaces (the separator aliases are indexed with), so any run of
/// consecutive tokens is one slice of the joined string. Returns that
/// string and each token's byte range in it.
fn tokenize(text: &str) -> (String, Vec<(usize, usize)>) {
    let mut joined = String::with_capacity(text.len());
    let mut spans = Vec::new();
    let words = text
        .split(|ch: char| !ch.is_alphanumeric() && ch != '\'' && ch != '.')
        .map(|s| s.trim_matches('.'))
        .filter(|s| !s.is_empty());
    for word in words {
        if !joined.is_empty() {
            joined.push(' ');
        }
        let start = joined.len();
        if word.is_ascii() {
            joined.extend(word.bytes().map(|b| b.to_ascii_lowercase() as char));
        } else {
            joined.push_str(&word.to_lowercase());
        }
        spans.push((start, joined.len()));
    }
    (joined, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::table2_example_kb;

    const TASK_T1: &str = "Does Michael Jordan win more NBA championships than Kobe Bryant?";

    /// The tokens as first computed: one lower-cased `String` each.
    fn tokens_reference(text: &str) -> Vec<String> {
        text.split(|ch: char| !ch.is_alphanumeric() && ch != '\'' && ch != '.')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim_matches('.').to_lowercase())
            .filter(|s| !s.is_empty())
            .collect()
    }

    #[test]
    fn tokenize_strips_punctuation() {
        let (joined, spans) = tokenize("Does Michael Jordan win? Yes, he does.");
        assert_eq!(joined, "does michael jordan win yes he does");
        let toks: Vec<&str> = spans.iter().map(|&(a, b)| &joined[a..b]).collect();
        assert_eq!(
            toks,
            ["does", "michael", "jordan", "win", "yes", "he", "does"]
        );
    }

    #[test]
    fn tokenize_matches_the_per_token_reference() {
        for text in [
            "",
            "...",
            "U.S. Open vs. St. Louis' ÉCOLE and ΟΔΟΣ ΣΑΣ",
            "İstanbul KAİSER straße ǅemal 3.5 x.y. 'quoted' — ok",
            "  Michael   Jordan\tNBA\nKobe--Bryant  ",
        ] {
            let (joined, spans) = tokenize(text);
            let toks: Vec<&str> = spans.iter().map(|&(a, b)| &joined[a..b]).collect();
            let reference = tokens_reference(text);
            assert_eq!(toks, reference, "{text:?}");
            assert_eq!(joined, reference.join(" "), "{text:?}");
        }
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

    /// The linker as first written: every window up to the KB's longest
    /// alias probed at every token through a freshly joined phrase of
    /// per-token strings, and the context votes and coherence summed over
    /// all `m` domains.
    fn link_reference(
        linker: &EntityLinker,
        max_alias_words: usize,
        text: &str,
    ) -> Vec<LinkedEntity> {
        let tokens = tokens_reference(text);
        let mut mentions: Vec<&[ConceptId]> = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = None;
            let upper = (i + max_alias_words).min(tokens.len());
            for end in (i + 1..=upper).rev() {
                if let Some(cands) = linker.kb.candidates(&tokens[i..end].join(" ")) {
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
        let mut entities: Vec<LinkedEntity> = mentions
            .into_iter()
            .map(|cands| linker.prior_distribution(cands))
            .collect();
        if linker.config.context_weight > 0.0 && entities.len() > 1 {
            let m = linker.kb.num_domains();
            let votes: Vec<Vec<f64>> = entities
                .iter()
                .map(|e| {
                    let mut v = vec![0.0; m];
                    for (j, h) in e.indicators.iter().enumerate() {
                        for (k, slot) in v.iter_mut().enumerate() {
                            *slot += e.probs[j] * h.get(k) as f64;
                        }
                    }
                    v
                })
                .collect();
            for (i, e) in entities.iter_mut().enumerate() {
                for (j, h) in e.indicators.iter().enumerate() {
                    let mut coherence = 0.0;
                    for (i2, vote) in votes.iter().enumerate() {
                        if i2 != i {
                            for (k, v) in vote.iter().enumerate() {
                                coherence += h.get(k) as f64 * v;
                            }
                        }
                    }
                    e.probs[j] *= 1.0 + linker.config.context_weight * coherence;
                }
                docs_types::prob::normalize_in_place(&mut e.probs);
                sort_by_prob(e);
            }
        }
        for e in &mut entities {
            truncate_top_c(e, linker.config.top_c);
        }
        entities
    }

    /// Overlapping multi-word aliases over 5 domains: a 3-word alias whose
    /// 2-word prefix is another alias, a 4-word alias whose prefix and
    /// middle are aliases, shared and empty indicators. Most aliases are
    /// ambiguous, with popularities whose probabilities are not dyadic, so
    /// the context sums round and their order shows in the bits.
    fn overlapping_kb() -> KnowledgeBase {
        let mut b =
            KnowledgeBase::builder(docs_types::DomainSet::new(["d0", "d1", "d2", "d3", "d4"]));
        let h = |domains: &[usize]| IndicatorVector::from_domains(5, domains);
        b.add_concept("NYC", h(&[0, 1]), 2.0, ["New York City"]);
        b.add_concept("NYC (song)", h(&[2, 4]), 0.7, ["New York City"]);
        b.add_concept("NY state", h(&[1]), 1.1, ["New York"]);
        b.add_concept("NY film", h(&[2]), 3.0, ["new york", "The Big Apple"]);
        b.add_concept("York", h(&[3]), 1.3, ["York"]);
        b.add_concept("York (ship)", h(&[1, 3]), 0.9, ["York"]);
        b.add_concept("City", h(&[]), 1.0, ["city"]);
        b.add_concept("City (band)", h(&[4]), 0.3, ["City"]);
        b.add_concept("ABCD", h(&[0, 4]), 1.0, ["a b c d"]);
        b.add_concept("BC", h(&[2, 3]), 2.0, ["b c"]);
        b.add_concept("BC (province)", h(&[0, 1, 3]), 1.7, ["b c"]);
        b.add_concept("AB", h(&[1]), 1.0, ["a b", "the big"]);
        b.add_concept("Michael", h(&[0, 2, 3]), 1.0, ["michael"]);
        b.add_concept("Michael (angel)", h(&[3, 4]), 0.6, ["michael"]);
        b.build()
    }

    #[test]
    fn linking_matches_the_windowed_reference_bit_for_bit() {
        let kb = overlapping_kb();
        let words = [
            "new", "York", "city", "a", "b", "c", "d", "Michael", "the", "big", "apple", "of", "x",
        ];
        let separators = [" ", " ", ", ", "? ", " - "];
        let mut state = 0x5EED_u64;
        let mut below = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut linked = 0;
        for case in 0..2_000 {
            let mut text = String::new();
            for _ in 0..below(16) {
                text.push_str(words[below(words.len())]);
                text.push_str(separators[below(separators.len())]);
            }
            let config = LinkerConfig {
                top_c: [1, 2, 20][case % 3],
                context_weight: [0.0, 0.5, 3.0][case / 3 % 3],
            };
            let linker = EntityLinker::new(&kb, config);
            let fast = linker.link(&text);
            let reference = link_reference(&linker, 4, &text);
            assert_eq!(fast.len(), reference.len(), "{text:?}");
            for (a, b) in fast.iter().zip(&reference) {
                assert_eq!(a.candidates, b.candidates, "{text:?}");
                assert_eq!(a.indicators, b.indicators, "{text:?}");
                let bits =
                    |e: &LinkedEntity| e.probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{text:?} {config:?}");
            }
            linked += fast.len();
        }
        assert!(linked > 3_000, "only {linked} mentions");
    }

    #[test]
    fn a_failed_long_window_falls_back_to_the_longest_alias_inside_it() {
        let kb = overlapping_kb();
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        let names = |text: &str| {
            linker
                .link(text)
                .iter()
                .map(|e| kb.concept(e.candidates[0]).name.clone())
                .collect::<Vec<_>>()
        };
        // "new york city" matches whole; "new york x" falls back to the
        // 2-word alias; "a b c x" to "a b", then "c" starts no alias.
        assert_eq!(names("New York City"), ["NYC"]);
        assert_eq!(names("new york x york"), ["NY film", "York"]);
        assert_eq!(names("a b c x"), ["AB"]);
        assert_eq!(names("x b c d"), ["BC"]);
        assert_eq!(names("a b c d city"), ["ABCD", "City"]);
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
