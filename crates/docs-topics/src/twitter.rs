//! TwitterLDA [51] — the short-text topic model the FaitCrowd baseline uses.
//!
//! TwitterLDA differs from vanilla LDA in two ways suited to tweets (and to
//! short crowdsourcing task descriptions): every document carries a *single*
//! latent topic, and every token is either drawn from that topic's word
//! distribution or from a corpus-wide *background* distribution (a Bernoulli
//! switch), which soaks up template words like "compare" or "which".

use crate::Vocabulary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// TwitterLDA hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TwitterLdaConfig {
    /// Number of latent topics (the `m″` FaitCrowd sets by hand).
    pub num_topics: usize,
    /// Dirichlet prior on the corpus topic distribution.
    pub alpha: f64,
    /// Dirichlet prior on topic/background word distributions.
    pub beta: f64,
    /// Beta prior on the background-vs-topic switch.
    pub gamma: f64,
    /// Gibbs sweeps.
    pub iterations: usize,
    /// Sweeps discarded before accumulating the posterior.
    pub burn_in: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwitterLdaConfig {
    fn default() -> Self {
        TwitterLdaConfig {
            num_topics: 4,
            alpha: 0.5,
            beta: 0.1,
            gamma: 1.0,
            iterations: 200,
            burn_in: 100,
            seed: 0x771,
        }
    }
}

/// Fitted TwitterLDA model.
#[derive(Debug, Clone)]
pub struct TwitterLdaModel {
    /// Posterior distribution over the document's single topic, one row per
    /// document (relative frequency of sampled assignments after burn-in).
    pub doc_topics: Vec<Vec<f64>>,
    /// Training pseudo log-likelihood of the final state (each token
    /// explained by the background/topic mixture under the document's most
    /// probable topic) — used to pick the best Gibbs restart.
    pub log_likelihood: f64,
}

impl TwitterLdaModel {
    /// The document's most probable topic — FaitCrowd's hard topic
    /// assignment per task.
    pub fn dominant_topic(&self, doc: usize) -> usize {
        docs_types::prob::argmax(&self.doc_topics[doc])
    }
}

/// The TwitterLDA trainer.
#[derive(Debug, Clone, Default)]
pub struct TwitterLda {
    config: TwitterLdaConfig,
}

impl TwitterLda {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TwitterLdaConfig) -> Self {
        assert!(config.num_topics >= 1);
        assert!(config.iterations > config.burn_in);
        TwitterLda { config }
    }

    /// Fits the model to encoded documents over a vocabulary of size `v`.
    fn fit(&self, docs: &[Vec<usize>], v: usize) -> TwitterLdaModel {
        let t = self.config.num_topics;
        let cfg = self.config;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // Per-document topic and per-token switch (true = topic word).
        let mut z: Vec<usize> = (0..docs.len()).map(|_| rng.gen_range(0..t)).collect();
        let mut y: Vec<Vec<bool>> = docs
            .iter()
            .map(|doc| doc.iter().map(|_| rng.gen_bool(0.5)).collect())
            .collect();

        // Counts.
        let mut n_z = vec![0usize; t]; // docs per topic
        let mut ntw = vec![vec![0usize; v]; t]; // topic-word
        let mut nt = vec![0usize; t]; // topic totals
        let mut nbw = vec![0usize; v]; // background-word
        let mut nb = 0usize; // background total
        let mut n_switch = [0usize; 2]; // [background, topic] token counts

        for (d, doc) in docs.iter().enumerate() {
            n_z[z[d]] += 1;
            for (i, &w) in doc.iter().enumerate() {
                if y[d][i] {
                    ntw[z[d]][w] += 1;
                    nt[z[d]] += 1;
                    n_switch[1] += 1;
                } else {
                    nbw[w] += 1;
                    nb += 1;
                    n_switch[0] += 1;
                }
            }
        }

        let vb = v as f64 * cfg.beta;
        let mut topic_acc = vec![vec![0.0; t]; docs.len()];
        let mut samples = 0usize;
        let mut log_weights = vec![0.0f64; t];

        for sweep in 0..cfg.iterations {
            // --- Resample the document topics. ---
            for (d, doc) in docs.iter().enumerate() {
                let old = z[d];
                n_z[old] -= 1;
                for (i, &w) in doc.iter().enumerate() {
                    if y[d][i] {
                        ntw[old][w] -= 1;
                        nt[old] -= 1;
                    }
                }
                // log p(z_d = k) = log(n_z + α) + Σ_topic-words log likelihood,
                // with counts advanced per token to stay exact on repeats.
                for (k, lw) in log_weights.iter_mut().enumerate() {
                    let mut lp = (n_z[k] as f64 + cfg.alpha).ln();
                    let mut added: Vec<(usize, usize)> = Vec::new();
                    let mut added_total = 0usize;
                    for (i, &w) in doc.iter().enumerate() {
                        if !y[d][i] {
                            continue;
                        }
                        let dup = added
                            .iter()
                            .find(|(ww, _)| *ww == w)
                            .map(|(_, c)| *c)
                            .unwrap_or(0);
                        lp += ((ntw[k][w] + dup) as f64 + cfg.beta).ln()
                            - ((nt[k] + added_total) as f64 + vb).ln();
                        match added.iter_mut().find(|(ww, _)| *ww == w) {
                            Some((_, c)) => *c += 1,
                            None => added.push((w, 1)),
                        }
                        added_total += 1;
                    }
                    *lw = lp;
                }
                // Normalize in log space and sample.
                let max = log_weights
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut total = 0.0;
                let weights: Vec<f64> = log_weights
                    .iter()
                    .map(|&lp| {
                        let p = (lp - max).exp();
                        total += p;
                        p
                    })
                    .collect();
                let mut draw = rng.gen::<f64>() * total;
                let mut new = t - 1;
                for (k, &wk) in weights.iter().enumerate() {
                    draw -= wk;
                    if draw < 0.0 {
                        new = k;
                        break;
                    }
                }
                z[d] = new;
                n_z[new] += 1;
                for (i, &w) in doc.iter().enumerate() {
                    if y[d][i] {
                        ntw[new][w] += 1;
                        nt[new] += 1;
                    }
                }
            }

            // --- Resample the background/topic switches. ---
            for (d, doc) in docs.iter().enumerate() {
                let zd = z[d];
                for (i, &w) in doc.iter().enumerate() {
                    // Remove current assignment.
                    if y[d][i] {
                        ntw[zd][w] -= 1;
                        nt[zd] -= 1;
                        n_switch[1] -= 1;
                    } else {
                        nbw[w] -= 1;
                        nb -= 1;
                        n_switch[0] -= 1;
                    }
                    let p_bg = (n_switch[0] as f64 + cfg.gamma) * (nbw[w] as f64 + cfg.beta)
                        / (nb as f64 + vb);
                    let p_topic = (n_switch[1] as f64 + cfg.gamma) * (ntw[zd][w] as f64 + cfg.beta)
                        / (nt[zd] as f64 + vb);
                    let topic_word = rng.gen::<f64>() * (p_bg + p_topic) < p_topic;
                    y[d][i] = topic_word;
                    if topic_word {
                        ntw[zd][w] += 1;
                        nt[zd] += 1;
                        n_switch[1] += 1;
                    } else {
                        nbw[w] += 1;
                        nb += 1;
                        n_switch[0] += 1;
                    }
                }
            }

            if sweep >= cfg.burn_in {
                samples += 1;
                for (d, &zd) in z.iter().enumerate() {
                    topic_acc[d][zd] += 1.0;
                }
            }
        }

        let doc_topics: Vec<Vec<f64>> = topic_acc
            .into_iter()
            .map(|mut acc| {
                if samples == 0 {
                    acc = docs_types::prob::uniform(t);
                }
                docs_types::prob::normalize_in_place(&mut acc);
                acc
            })
            .collect();

        // Final-state pseudo log-likelihood: each token under the
        // background/topic mixture of its document's dominant topic.
        let p_topic = (n_switch[1] as f64 + cfg.gamma)
            / ((n_switch[0] + n_switch[1]) as f64 + 2.0 * cfg.gamma);
        let p_bg = 1.0 - p_topic;
        let mut log_likelihood = 0.0;
        for (d, doc) in docs.iter().enumerate() {
            let zd = docs_types::prob::argmax(&doc_topics[d]);
            for &w in doc {
                let phi_bg = (nbw[w] as f64 + cfg.beta) / (nb as f64 + vb);
                let phi_t = (ntw[zd][w] as f64 + cfg.beta) / (nt[zd] as f64 + vb);
                log_likelihood += (p_bg * phi_bg + p_topic * phi_t).max(1e-300).ln();
            }
        }

        TwitterLdaModel {
            doc_topics,
            log_likelihood,
        }
    }

    /// Fits `restarts` times with derived seeds; returns the run with the
    /// highest training log-likelihood.
    pub fn fit_texts_best_of(&self, texts: &[String], restarts: usize) -> TwitterLdaModel {
        assert!(restarts >= 1);
        let (vocab, docs) = Vocabulary::encode_corpus(texts);
        let v = vocab.len().max(1);
        (0..restarts)
            .map(|r| {
                let mut cfg = self.config;
                cfg.seed = self.config.seed.wrapping_add(r as u64 * 0x9E3779B9);
                TwitterLda::new(cfg).fit(&docs, v)
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

    fn clustered_corpus() -> Vec<String> {
        // Shared template words ("compare", "contains") act as background;
        // content words separate the clusters.
        let sports = [
            "compare curry dunks basketball",
            "compare basketball playoffs dunks",
            "compare curry basketball playoffs",
        ];
        let food = [
            "compare chocolate calories honey",
            "compare sugar honey calories",
            "compare chocolate sugar calories",
        ];
        sports
            .iter()
            .chain(food.iter())
            .map(|s| s.to_string())
            .collect()
    }

    /// One Gibbs run on `corpus` with the configured seed.
    fn fit_once(config: TwitterLdaConfig, corpus: &[String]) -> TwitterLdaModel {
        TwitterLda::new(config).fit_texts_best_of(corpus, 1)
    }

    #[test]
    fn more_restarts_never_lower_the_likelihood() {
        // Restart r's seed does not depend on the restart count, so
        // best-of-n takes the maximum over a growing prefix of one run list.
        let corpus = clustered_corpus();
        let best_of = |restarts| {
            TwitterLda::new(TwitterLdaConfig {
                num_topics: 2,
                ..Default::default()
            })
            .fit_texts_best_of(&corpus, restarts)
            .log_likelihood
        };
        let (one, two, three) = (best_of(1), best_of(2), best_of(3));
        assert!(one <= two && two <= three, "{one} {two} {three}");
    }

    #[test]
    fn separates_clusters_despite_shared_template() {
        let corpus = clustered_corpus();
        let model = fit_once(
            TwitterLdaConfig {
                num_topics: 2,
                ..Default::default()
            },
            &corpus,
        );
        let t0 = model.dominant_topic(0);
        assert_eq!(model.dominant_topic(1), t0);
        assert_eq!(model.dominant_topic(2), t0);
        let t1 = model.dominant_topic(3);
        assert_ne!(t0, t1, "clusters should land in different topics");
        assert_eq!(model.dominant_topic(4), t1);
        assert_eq!(model.dominant_topic(5), t1);
    }

    #[test]
    fn doc_topics_are_distributions() {
        let corpus = clustered_corpus();
        let model = fit_once(TwitterLdaConfig::default(), &corpus);
        for row in &model.doc_topics {
            assert!(docs_types::prob::is_distribution(row), "{row:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = clustered_corpus();
        let a = fit_once(TwitterLdaConfig::default(), &corpus);
        let b = fit_once(TwitterLdaConfig::default(), &corpus);
        assert_eq!(a.doc_topics, b.doc_topics);
    }

    #[test]
    fn single_topic_degenerates_gracefully() {
        let corpus = clustered_corpus();
        let model = fit_once(
            TwitterLdaConfig {
                num_topics: 1,
                ..Default::default()
            },
            &corpus,
        );
        for d in 0..corpus.len() {
            assert_eq!(model.dominant_topic(d), 0);
        }
    }

    #[test]
    fn handles_empty_documents() {
        let corpus = vec!["".to_string(), "curry basketball curry".to_string()];
        let model = fit_once(TwitterLdaConfig::default(), &corpus);
        assert!(docs_types::prob::is_distribution(&model.doc_topics[0]));
    }
}
