//! Text preprocessing shared by both topic models.

use std::collections::HashMap;

/// Minimal English stop-word list; topic models on short task descriptions
/// drown in function words otherwise. Kept deliberately small — the point of
/// the Figure 3 experiment is that even reasonable preprocessing does not
/// save latent-topic methods on heterogeneous text.
const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "between", "by", "did", "do", "does", "for", "from",
    "has", "have", "he", "her", "his", "how", "in", "is", "it", "its", "more", "of", "on", "or",
    "she", "than", "that", "the", "their", "them", "there", "they", "this", "to", "was", "were",
    "what", "when", "where", "which", "who", "will", "with",
];

/// Lower-cases, strips punctuation, and drops stop words.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric() && c != '\'')
        .map(|t| t.to_lowercase())
        .filter(|t| !t.is_empty() && !STOP_WORDS.contains(&t.as_str()))
        .collect()
}

/// Word → id mapping over a corpus; ids are dense, in first-seen order.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    word_to_id: HashMap<String, usize>,
}

impl Vocabulary {
    /// Builds the vocabulary and encodes each document as word ids in one
    /// pass over the corpus.
    pub fn encode_corpus(texts: &[String]) -> (Vocabulary, Vec<Vec<usize>>) {
        let mut vocab = Vocabulary::default();
        let docs = texts
            .iter()
            .map(|t| tokenize(t).into_iter().map(|w| vocab.intern(w)).collect())
            .collect();
        (vocab, docs)
    }

    /// Returns the id of a word, inserting it if new.
    pub fn intern(&mut self, word: String) -> usize {
        let next = self.word_to_id.len();
        *self.word_to_id.entry(word).or_insert(next)
    }

    /// Vocabulary size `V`.
    pub fn len(&self) -> usize {
        self.word_to_id.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.word_to_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_drops_stopwords_and_punct() {
        let toks = tokenize("Is Stephen Curry a PF?");
        assert_eq!(toks, vec!["stephen", "curry", "pf"]);
    }

    #[test]
    fn encode_corpus_interns_consistently() {
        let texts = vec![
            "curry curry warriors".to_string(),
            "warriors curry".to_string(),
        ];
        let (vocab, docs) = Vocabulary::encode_corpus(&texts);
        assert_eq!(vocab.len(), 2);
        // Ids follow first appearance: "curry" is 0, "warriors" is 1.
        assert_eq!(docs[0], vec![0, 0, 1]);
        assert_eq!(docs[1], vec![1, 0]);
    }

    #[test]
    fn empty_corpus() {
        let (vocab, docs) = Vocabulary::encode_corpus(&[]);
        assert!(vocab.is_empty());
        assert!(docs.is_empty());
    }
}
