//! Latent Dirichlet Allocation [6] with collapsed Gibbs sampling — the topic
//! model the iCrowd baseline uses for task-domain detection.

use crate::Vocabulary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// LDA hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct LdaConfig {
    /// Number of latent topics (the `m′` iCrowd sets by hand).
    pub num_topics: usize,
    /// Dirichlet prior on the document-topic distribution.
    pub alpha: f64,
    /// Dirichlet prior on the topic-word distribution.
    pub beta: f64,
    /// Gibbs sweeps.
    pub iterations: usize,
    /// Sweeps discarded before accumulating the posterior.
    pub burn_in: usize,
    /// RNG seed; sampling is deterministic given the seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            num_topics: 4,
            alpha: 0.5,
            beta: 0.1,
            iterations: 200,
            burn_in: 100,
            seed: 0x1DA,
        }
    }
}

/// Fitted LDA model: per-document topic distributions.
#[derive(Debug, Clone)]
pub struct LdaModel {
    /// θ_d per document — a distribution over the latent topics.
    pub doc_topics: Vec<Vec<f64>>,
    /// Training pseudo log-likelihood `Σ_tokens ln Σ_k θ_dk·φ_kw` of the
    /// final state — used to pick the best of several Gibbs restarts
    /// (collapsed Gibbs is prone to local optima on small corpora).
    pub log_likelihood: f64,
}

impl LdaModel {
    /// The dominant latent topic of a document.
    pub fn dominant_topic(&self, doc: usize) -> usize {
        docs_types::prob::argmax(&self.doc_topics[doc])
    }
}

/// The LDA trainer.
#[derive(Debug, Clone, Default)]
pub struct Lda {
    config: LdaConfig,
}

impl Lda {
    /// Creates a trainer with the given configuration.
    pub fn new(config: LdaConfig) -> Self {
        assert!(config.num_topics >= 1);
        assert!(config.iterations > config.burn_in);
        Lda { config }
    }

    /// Fits the model to encoded documents over a vocabulary of size `v`.
    fn fit(&self, docs: &[Vec<usize>], v: usize) -> LdaModel {
        let t = self.config.num_topics;
        let alpha = self.config.alpha;
        let beta = self.config.beta;
        let mut rng = SmallRng::seed_from_u64(self.config.seed);

        // Counts: document-topic, topic-word, topic totals.
        let mut ndt = vec![vec![0usize; t]; docs.len()];
        let mut ntw = vec![vec![0usize; v]; t];
        let mut nt = vec![0usize; t];
        // Topic assignment per token.
        let mut z: Vec<Vec<usize>> = docs
            .iter()
            .map(|doc| doc.iter().map(|_| rng.gen_range(0..t)).collect())
            .collect();
        for (d, doc) in docs.iter().enumerate() {
            for (i, &w) in doc.iter().enumerate() {
                let topic = z[d][i];
                ndt[d][topic] += 1;
                ntw[topic][w] += 1;
                nt[topic] += 1;
            }
        }

        let mut theta_acc = vec![vec![0.0; t]; docs.len()];
        let mut samples = 0usize;
        let mut weights = vec![0.0; t];

        for sweep in 0..self.config.iterations {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let old = z[d][i];
                    ndt[d][old] -= 1;
                    ntw[old][w] -= 1;
                    nt[old] -= 1;

                    // p(z = k | rest) ∝ (n_dk + α)(n_kw + β)/(n_k + Vβ)
                    let mut total = 0.0;
                    for (k, wk) in weights.iter_mut().enumerate() {
                        let p = (ndt[d][k] as f64 + alpha) * (ntw[k][w] as f64 + beta)
                            / (nt[k] as f64 + v as f64 * beta);
                        *wk = p;
                        total += p;
                    }
                    let mut draw = rng.gen::<f64>() * total;
                    let mut new = t - 1;
                    for (k, &wk) in weights.iter().enumerate() {
                        draw -= wk;
                        if draw < 0.0 {
                            new = k;
                            break;
                        }
                    }

                    z[d][i] = new;
                    ndt[d][new] += 1;
                    ntw[new][w] += 1;
                    nt[new] += 1;
                }
            }
            if sweep >= self.config.burn_in {
                samples += 1;
                for (d, doc) in docs.iter().enumerate() {
                    let nd = doc.len() as f64;
                    for k in 0..t {
                        theta_acc[d][k] += (ndt[d][k] as f64 + alpha) / (nd + t as f64 * alpha);
                    }
                }
            }
        }

        let doc_topics: Vec<Vec<f64>> = theta_acc
            .into_iter()
            .map(|mut acc| {
                if samples > 0 {
                    acc.iter_mut().for_each(|x| *x /= samples as f64);
                } else {
                    acc = docs_types::prob::uniform(t);
                }
                docs_types::prob::normalize_in_place(&mut acc);
                acc
            })
            .collect();

        // The training pseudo log-likelihood under the final-state
        // topic-word distributions φ.
        let phi: Vec<Vec<f64>> = (0..t)
            .map(|k| {
                (0..v)
                    .map(|w| (ntw[k][w] as f64 + beta) / (nt[k] as f64 + v as f64 * beta))
                    .collect()
            })
            .collect();
        let mut log_likelihood = 0.0;
        for (d, doc) in docs.iter().enumerate() {
            for &w in doc {
                let p: f64 = (0..t).map(|k| doc_topics[d][k] * phi[k][w]).sum();
                log_likelihood += p.max(1e-300).ln();
            }
        }

        LdaModel {
            doc_topics,
            log_likelihood,
        }
    }

    /// Fits the model `restarts` times with derived seeds and returns the
    /// run with the highest training log-likelihood — the standard guard
    /// against collapsed-Gibbs local optima.
    pub fn fit_texts_best_of(&self, texts: &[String], restarts: usize) -> LdaModel {
        assert!(restarts >= 1);
        let (vocab, docs) = Vocabulary::encode_corpus(texts);
        let v = vocab.len().max(1);
        (0..restarts)
            .map(|r| {
                let mut cfg = self.config;
                cfg.seed = self.config.seed.wrapping_add(r as u64 * 0x9E3779B9);
                Lda::new(cfg).fit(&docs, v)
            })
            .max_by(|a, b| {
                a.log_likelihood
                    .partial_cmp(&b.log_likelihood)
                    .expect("finite log-likelihood")
            })
            .expect("at least one restart")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cleanly separated vocabularies ⇒ LDA with 2 topics must put
    /// same-cluster documents in the same dominant topic.
    fn clustered_corpus() -> Vec<String> {
        let sports = [
            "curry dunks basketball playoffs",
            "basketball playoffs dunks",
            "curry basketball court dunks",
        ];
        let food = [
            "chocolate calories honey sugar",
            "sugar honey recipe calories",
            "chocolate recipe sugar dessert",
        ];
        sports
            .iter()
            .chain(food.iter())
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn separates_clean_clusters() {
        let corpus = clustered_corpus();
        let lda = Lda::new(LdaConfig {
            num_topics: 2,
            ..Default::default()
        });
        let model = lda.fit_texts_best_of(&corpus, 1);
        let t0 = model.dominant_topic(0);
        assert_eq!(model.dominant_topic(1), t0);
        assert_eq!(model.dominant_topic(2), t0);
        let t1 = model.dominant_topic(3);
        assert_ne!(t0, t1);
        assert_eq!(model.dominant_topic(4), t1);
        assert_eq!(model.dominant_topic(5), t1);
    }

    #[test]
    fn doc_topics_are_distributions() {
        let corpus = clustered_corpus();
        let model = Lda::default().fit_texts_best_of(&corpus, 1);
        for theta in &model.doc_topics {
            assert!(docs_types::prob::is_distribution(theta), "{theta:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = clustered_corpus();
        let a = Lda::default().fit_texts_best_of(&corpus, 1);
        let b = Lda::default().fit_texts_best_of(&corpus, 1);
        assert_eq!(a.doc_topics, b.doc_topics);
    }

    #[test]
    fn handles_empty_documents() {
        let corpus = vec!["".to_string(), "curry basketball".to_string()];
        let model = Lda::default().fit_texts_best_of(&corpus, 1);
        assert!(docs_types::prob::is_distribution(&model.doc_topics[0]));
        let empty = Lda::default().fit_texts_best_of(&[], 1);
        assert!(empty.doc_topics.is_empty());
    }
}
