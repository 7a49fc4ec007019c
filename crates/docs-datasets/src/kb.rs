//! The curated knowledge base shared by all four datasets — the Freebase
//! slice the paper's deployment consults.

use crate::pools::{self, domains, PoolEntry};
use docs_kb::{IndicatorVector, KnowledgeBase};
use docs_types::DomainSet;

fn add_pool(
    builder: &mut docs_kb::KbBuilder,
    pool: &[PoolEntry],
    popularity: f64,
    extra_aliases: &[(&str, &str)],
) {
    let m = 26;
    for entry in pool {
        let indicators = IndicatorVector::from_domains(m, entry.domains);
        let mut aliases: Vec<&str> = vec![entry.name];
        for &(canonical, alias) in extra_aliases {
            if canonical == entry.name {
                aliases.push(alias);
            }
        }
        builder.add_concept(entry.name, indicators, popularity, aliases);
    }
}

/// Builds the curated 26-domain knowledge base covering every entity pool.
///
/// Ambiguity is deliberate and mirrors the paper's examples:
/// * `"Jaguar"` resolves to a car (popular) and a big cat (less popular),
/// * `"Mustang"` resolves to the Ford Mustang and a horse,
/// * `"Lincoln"` resolves to the car make and to Abraham Lincoln,
/// * `"Michael Jordan"`, `"Space Jam"`, `"Rocky"` are multi-domain concepts.
pub fn curated_kb() -> KnowledgeBase {
    let mut b = KnowledgeBase::builder(DomainSet::yahoo_answers());
    add_pool(&mut b, pools::NBA_PLAYERS, 5.0, &[]);
    add_pool(&mut b, pools::NBA_TEAMS, 4.0, &[]);
    add_pool(&mut b, pools::FOODS, 3.0, &[]);
    add_pool(
        &mut b,
        pools::CARS_POOL,
        3.0,
        &[("Ford Mustang", "Mustang")],
    );
    add_pool(&mut b, pools::COUNTRIES, 3.0, &[]);
    add_pool(&mut b, pools::FILMS, 3.0, &[]);
    add_pool(&mut b, pools::MOUNTAINS, 3.0, &[]);
    add_pool(
        &mut b,
        pools::PEOPLE,
        4.0,
        &[("Abraham Lincoln", "Lincoln")],
    );
    add_pool(&mut b, pools::ANIMALS, 1.0, &[]);
    b.build()
}

/// Common template nouns that a real entity linker (Wikifier) also links:
/// each maps to a concept in its natural domain. They both densify `E_t`
/// (more detected entities per task, as in the paper's deployment) and add
/// weak domain evidence.
const COMMON_CONCEPTS: &[(&str, usize)] = &[
    ("championships", domains::SPORTS),
    ("playoffs", domains::SPORTS),
    ("player", domains::SPORTS),
    ("team", domains::SPORTS),
    ("calories", domains::FOOD),
    ("food", domains::FOOD),
    ("recipe", domains::FOOD),
    ("car", domains::CARS),
    ("engine", domains::CARS),
    ("population", domains::TRAVEL),
    ("country", domains::TRAVEL),
    ("movie", domains::ENTERTAINMENT),
    ("film", domains::ENTERTAINMENT),
    ("soundtrack", domains::ENTERTAINMENT),
    ("award", domains::ENTERTAINMENT),
    ("summit", domains::SCIENCE),
    ("glaciers", domains::SCIENCE),
    ("battery", domains::SCIENCE),
    ("company", domains::BUSINESS),
    ("stock", domains::BUSINESS),
    ("charity", domains::BUSINESS),
];

/// Attribute nouns that a real linker also detects as mentions but that map
/// to no deployment domain (dictionary/wiki pages). They densify `E_t` — the
/// paper's QA/SFV tasks carry many such mentions — without adding domain
/// signal.
const NOISE_WORDS: &[&str] = &[
    "age",
    "height",
    "worth",
    "price",
    "awards",
    "record",
    "season",
    "titles",
    "birth year",
    "siblings",
    "education",
    "languages",
    "books",
    "speeches",
    "degrees",
    "foundations",
    "patents",
    "interviews",
    "houses",
];

/// The curated KB plus Wikifier-grade candidate noise: every alias
/// additionally resolves to `distractors` low-popularity concepts that
/// belong to *no* deployment domain (like the paper's "Michael I. Jordan"
/// page). With `distractors = 19` each mention carries ~20 candidates —
/// the top-20 setting of Table 3 — making brute-force enumeration of
/// linkings exponential while leaving the domain signal (and hence DVE
/// accuracy) intact.
pub fn curated_kb_with_distractors(distractors: usize) -> KnowledgeBase {
    let mut b = KnowledgeBase::builder(DomainSet::yahoo_answers());
    let m = 26;
    let mut all_aliases: Vec<(String, f64)> = Vec::new();

    let add = |b: &mut docs_kb::KbBuilder,
               pool: &[PoolEntry],
               popularity: f64,
               extra: &[(&str, &str)],
               all_aliases: &mut Vec<(String, f64)>| {
        for entry in pool {
            let indicators = IndicatorVector::from_domains(m, entry.domains);
            let mut aliases: Vec<&str> = vec![entry.name];
            for &(canonical, alias) in extra {
                if canonical == entry.name {
                    aliases.push(alias);
                }
            }
            for a in &aliases {
                all_aliases.push((a.to_string(), popularity));
            }
            b.add_concept(entry.name, indicators, popularity, aliases);
        }
    };

    add(&mut b, pools::NBA_PLAYERS, 5.0, &[], &mut all_aliases);
    add(&mut b, pools::NBA_TEAMS, 4.0, &[], &mut all_aliases);
    add(&mut b, pools::FOODS, 3.0, &[], &mut all_aliases);
    add(
        &mut b,
        pools::CARS_POOL,
        3.0,
        &[("Ford Mustang", "Mustang")],
        &mut all_aliases,
    );
    add(&mut b, pools::COUNTRIES, 3.0, &[], &mut all_aliases);
    add(&mut b, pools::FILMS, 3.0, &[], &mut all_aliases);
    add(&mut b, pools::MOUNTAINS, 3.0, &[], &mut all_aliases);
    add(
        &mut b,
        pools::PEOPLE,
        4.0,
        &[("Abraham Lincoln", "Lincoln")],
        &mut all_aliases,
    );
    add(&mut b, pools::ANIMALS, 1.0, &[], &mut all_aliases);

    for &(word, domain) in COMMON_CONCEPTS {
        b.add_concept(
            format!("{word} (concept)"),
            IndicatorVector::from_domains(m, &[domain]),
            2.0,
            [word],
        );
        all_aliases.push((word.to_string(), 2.0));
    }

    for &word in NOISE_WORDS {
        b.add_concept(
            format!("{word} (dictionary)"),
            IndicatorVector::empty(m),
            2.0,
            [word],
        );
        all_aliases.push((word.to_string(), 2.0));
    }

    // Wikifier-style noise: per alias, `distractors` domain-free candidate
    // pages with a small share of the link probability each.
    for (alias, popularity) in all_aliases {
        for d in 0..distractors {
            b.add_concept(
                format!("{alias} (disambiguation {d})"),
                IndicatorVector::empty(m),
                popularity * 0.02,
                [alias.as_str()],
            );
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_kb::{ConceptId, EntityLinker, LinkerConfig};

    #[test]
    fn kb_covers_all_pools() {
        let kb = curated_kb();
        assert_eq!(kb.num_domains(), 26);
        // 20·7 pools + 8 teams + 5 animals = 153 concepts, the animals last.
        let last = kb.concept(ConceptId(152));
        assert_eq!(last.name, pools::ANIMALS[pools::ANIMALS.len() - 1].name);
    }

    #[test]
    fn jaguar_and_lincoln_are_ambiguous() {
        let kb = curated_kb();
        assert_eq!(kb.candidates("jaguar").unwrap().len(), 2);
        assert_eq!(kb.candidates("lincoln").unwrap().len(), 2);
        assert_eq!(kb.candidates("mustang").unwrap().len(), 2);
    }

    #[test]
    fn distractor_kb_has_wikifier_grade_ambiguity() {
        let kb = curated_kb_with_distractors(19);
        // Every alias now has ~20 candidates.
        assert_eq!(kb.candidates("kobe bryant").unwrap().len(), 20);
        assert_eq!(kb.candidates("calories").unwrap().len(), 20);
        // The correct concept still dominates the link probability.
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        let es = linker.link("Kobe Bryant");
        assert_eq!(es[0].num_candidates(), 20);
        assert!(es[0].probs[0] > 0.5, "correct concept keeps the mass");
    }

    #[test]
    fn linker_resolves_curated_text() {
        let kb = curated_kb();
        let linker = EntityLinker::new(&kb, LinkerConfig::default());
        let es = linker.link("Compare the height of Stephen Curry and Mount Everest");
        assert_eq!(es.len(), 2);
        assert_eq!(kb.concept(es[0].candidates[0]).name, "Stephen Curry");
        assert_eq!(kb.concept(es[1].candidates[0]).name, "Mount Everest");
    }
}
