//! The [`Dataset`] container and the four dataset regenerations.

use crate::kb::curated_kb_with_distractors;
use crate::pools::{self, entity_score, PoolEntry};
use docs_core::dve;
use docs_kb::{EntityLinker, KnowledgeBase, LinkerConfig};
use docs_types::{DomainSet, Task, TaskBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A regenerated evaluation dataset: tasks plus the knowledge base and the
/// subset of Yahoo domains the dataset actually exercises.
pub struct Dataset {
    /// Display name ("Item", "4D", "QA", "SFV").
    pub name: &'static str,
    /// The full 26-domain deployment domain set.
    pub domain_set: DomainSet,
    /// Published tasks with text, ground truth, and true domain; domain
    /// vectors are filled by [`Dataset::run_dve`].
    pub tasks: Vec<Task>,
    /// The knowledge base the dataset's texts were generated from.
    pub kb: KnowledgeBase,
    /// Yahoo domain indices the dataset focuses on (4 per dataset, matching
    /// the paper's per-domain accuracy plots).
    pub focus_domains: Vec<usize>,
    /// The paper's display names of the focus domains (e.g. "NBA").
    pub focus_names: Vec<&'static str>,
}

impl Dataset {
    /// Number of tasks `n`.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All task texts, for the topic-model baselines.
    pub fn texts(&self) -> Vec<String> {
        self.tasks.iter().map(|t| t.text.clone()).collect()
    }

    /// Runs the real DVE pipeline (entity linking + Algorithm 1) over every
    /// task and stores the resulting domain vectors.
    pub fn run_dve(&mut self, linker_config: LinkerConfig) {
        let linker = EntityLinker::new(&self.kb, linker_config);
        let m = self.domain_set.len();
        for task in &mut self.tasks {
            let entities = linker.link(&task.text);
            task.domain_vector = Some(dve::domain_vector(&entities, m));
        }
    }

    /// Runs DVE with the paper's defaults (top-20 candidates, context
    /// disambiguation on).
    pub fn run_dve_default(&mut self) {
        self.run_dve(LinkerConfig {
            top_c: 20,
            context_weight: 0.5,
        });
    }

    /// Per-domain quality vectors for a simulated crowd matched to this
    /// dataset — see [`focus_population_qualities`]. The scenario harness
    /// and the figure benches both build their worker populations from
    /// this shape; it is what makes per-domain inference worth its extra
    /// parameters on these tasks (a crowd whose experts are scattered over
    /// all 26 domains leaves nothing for domain weighting to exploit).
    pub fn worker_qualities(&self, size: usize, seed: u64) -> Vec<Vec<f64>> {
        focus_population_qualities(self.domain_set.len(), &self.focus_domains, size, seed)
    }
}

/// Quality vectors of a worker population whose expertise concentrates on
/// the given focus domains, reproducing the domain structure of the
/// paper's AMT crowd (Figure 6(a)): most workers strong on the first focus
/// domain and weaker on later ones, with experts spread unevenly.
///
/// * A rotating share of workers are *experts* in exactly one focus domain
///   (quality 0.85–0.97 there).
/// * Every domain has a population-wide base level that differs per focus
///   domain (first focus domain easiest, last hardest).
/// * 10% are spammers (0.42–0.55 everywhere).
pub fn focus_population_qualities(
    m: usize,
    focus_domains: &[usize],
    size: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    assert!(!focus_domains.is_empty());
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..size)
        .map(|i| {
            let mut q: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..0.65)).collect();
            // Per-focus-domain base skew: later focus domains are harder.
            for (j, &fd) in focus_domains.iter().enumerate() {
                let base_lo = 0.62 - 0.05 * j as f64;
                q[fd] = rng.gen_range(base_lo..base_lo + 0.12);
            }
            if i % 10 == 9 {
                // Spammer.
                for slot in q.iter_mut() {
                    *slot = rng.gen_range(0.42..0.55);
                }
            } else if i % 2 == 0 {
                // Expert in one rotating focus domain.
                let fd = focus_domains[(i / 2) % focus_domains.len()];
                q[fd] = rng.gen_range(0.85..0.97);
            }
            q
        })
        .collect()
}

/// Draws a random pair of distinct indices.
fn pair(rng: &mut SmallRng, len: usize) -> (usize, usize) {
    let a = rng.gen_range(0..len);
    let mut b = rng.gen_range(0..len - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

/// Comparison task: choices are the two entity names; ground truth is the
/// entity with the higher latent score for the attribute.
fn comparison_task(
    id: usize,
    text: String,
    a: &PoolEntry,
    b: &PoolEntry,
    attribute: &str,
    domain: usize,
) -> Task {
    let truth = usize::from(entity_score(a.name, attribute) <= entity_score(b.name, attribute));
    TaskBuilder::new(id, text)
        .with_choices([a.name, b.name])
        .with_ground_truth(truth)
        .with_true_domain(domain)
        .build()
        .expect("valid comparison task")
}

/// Yes/no task whose ground truth is derived from the entity's latent score
/// parity (deterministic but uncorrelated across attributes).
fn yes_no_task(id: usize, text: String, subject: &str, attribute: &str, domain: usize) -> Task {
    let truth = (entity_score(subject, attribute) & 1) as usize;
    TaskBuilder::new(id, text)
        .yes_no()
        .with_ground_truth(truth)
        .with_true_domain(domain)
        .build()
        .expect("valid yes/no task")
}

/// **Item** \[18\]: 360 tasks, 90 per domain (NBA, Food, Auto, Country), one
/// fixed comparison template per domain — the high intra-domain text
/// similarity regime where topic models do fine (Figure 3(a)).
pub fn item() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(0x17E0);
    let mut tasks = Vec::with_capacity(360);
    let specs: [(&[PoolEntry], &str, &str, usize); 4] = [
        (
            pools::NBA_PLAYERS,
            "Who has a higher career scoring average: {A} or {B}?",
            "scoring",
            pools::domains::SPORTS,
        ),
        (
            pools::FOODS,
            "Which food contains more calories: {A} or {B}?",
            "calories",
            pools::domains::FOOD,
        ),
        (
            pools::CARS_POOL,
            "Which car is more expensive to buy: {A} or {B}?",
            "price",
            pools::domains::CARS,
        ),
        (
            pools::COUNTRIES,
            "Which country has a larger population: {A} or {B}?",
            "population",
            pools::domains::TRAVEL,
        ),
    ];
    for (pool, template, attr, domain) in specs {
        let mut seen = std::collections::HashSet::new();
        while seen.len() < 90 {
            let (i, j) = pair(&mut rng, pool.len());
            if !seen.insert((i.min(j), i.max(j))) {
                continue;
            }
            let (a, b) = (&pool[i], &pool[j]);
            let text = template.replace("{A}", a.name).replace("{B}", b.name);
            tasks.push(comparison_task(tasks.len(), text, a, b, attr, domain));
        }
    }
    Dataset {
        name: "Item",
        domain_set: DomainSet::yahoo_answers(),
        tasks,
        kb: curated_kb_with_distractors(19),
        focus_domains: vec![
            pools::domains::SPORTS,
            pools::domains::FOOD,
            pools::domains::CARS,
            pools::domains::TRAVEL,
        ],
        focus_names: vec!["NBA", "Food", "Auto", "Country"],
    }
}

/// **4D**: 400 tasks, 100 per domain (NBA, Car, Film, Mountain), with
/// *varied* templates per domain and templates *shared across domains*
/// ("Compare the height of X and Y" asked about players and mountains) —
/// the regime where string similarity misleads topic models (Figure 3(b)).
pub fn four_domain() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(0x4D4D);
    let mut tasks: Vec<Task> = Vec::with_capacity(400);

    // Shared cross-domain templates (comparison form).
    let shared_cmp = [
        "Compare the height of {A} and {B}: which one is higher?",
        "Which is older: {A} or {B}?",
        "Is {A} more famous than {B}?",
    ];

    // Domain NBA (Sports).
    {
        let d = pools::domains::SPORTS;
        for i in 0..100 {
            let id = tasks.len();
            let t = match i % 5 {
                0 => {
                    let (a, b) = pair(&mut rng, pools::NBA_PLAYERS.len());
                    let (a, b) = (&pools::NBA_PLAYERS[a], &pools::NBA_PLAYERS[b]);
                    let tpl = shared_cmp[i / 5 % shared_cmp.len()];
                    comparison_task(
                        id,
                        tpl.replace("{A}", a.name).replace("{B}", b.name),
                        a,
                        b,
                        "stature",
                        d,
                    )
                }
                1 => {
                    let p = &pools::NBA_PLAYERS[rng.gen_range(0..pools::NBA_PLAYERS.len())];
                    yes_no_task(
                        id,
                        format!("Is {} a point guard?", p.name),
                        p.name,
                        "position",
                        d,
                    )
                }
                2 => {
                    let (a, b) = pair(&mut rng, pools::NBA_PLAYERS.len());
                    let (a, b) = (&pools::NBA_PLAYERS[a], &pools::NBA_PLAYERS[b]);
                    comparison_task(
                        id,
                        format!("Has {} won more NBA championships than {}?", a.name, b.name),
                        a,
                        b,
                        "rings",
                        d,
                    )
                }
                3 => {
                    let (a, b) = pair(&mut rng, pools::NBA_TEAMS.len());
                    let (a, b) = (&pools::NBA_TEAMS[a], &pools::NBA_TEAMS[b]);
                    comparison_task(
                        id,
                        format!("Which team wins more titles: {} or {}?", a.name, b.name),
                        a,
                        b,
                        "titles",
                        d,
                    )
                }
                _ => {
                    let t = &pools::NBA_TEAMS[rng.gen_range(0..pools::NBA_TEAMS.len())];
                    yes_no_task(
                        id,
                        format!("Has {} ever won back to back championships?", t.name),
                        t.name,
                        "b2b",
                        d,
                    )
                }
            };
            tasks.push(t);
        }
    }

    // Domain Car.
    {
        let d = pools::domains::CARS;
        for i in 0..100 {
            let id = tasks.len();
            let t = match i % 4 {
                0 => {
                    let (a, b) = pair(&mut rng, pools::CARS_POOL.len());
                    let (a, b) = (&pools::CARS_POOL[a], &pools::CARS_POOL[b]);
                    let tpl = shared_cmp[i / 4 % shared_cmp.len()];
                    comparison_task(
                        id,
                        tpl.replace("{A}", a.name).replace("{B}", b.name),
                        a,
                        b,
                        "stature",
                        d,
                    )
                }
                1 => {
                    let (a, b) = pair(&mut rng, pools::CARS_POOL.len());
                    let (a, b) = (&pools::CARS_POOL[a], &pools::CARS_POOL[b]);
                    comparison_task(
                        id,
                        format!("Which car accelerates faster: {} or {}?", a.name, b.name),
                        a,
                        b,
                        "speed",
                        d,
                    )
                }
                2 => {
                    let c = &pools::CARS_POOL[rng.gen_range(0..pools::CARS_POOL.len())];
                    yes_no_task(
                        id,
                        format!("Does the {} come with all wheel drive?", c.name),
                        c.name,
                        "awd",
                        d,
                    )
                }
                _ => {
                    let (a, b) = pair(&mut rng, pools::CARS_POOL.len());
                    let (a, b) = (&pools::CARS_POOL[a], &pools::CARS_POOL[b]);
                    comparison_task(
                        id,
                        format!("Is {} more reliable than {}?", a.name, b.name),
                        a,
                        b,
                        "reliability",
                        d,
                    )
                }
            };
            tasks.push(t);
        }
    }

    // Domain Film (Entertainment).
    {
        let d = pools::domains::ENTERTAINMENT;
        for i in 0..100 {
            let id = tasks.len();
            let t = match i % 4 {
                0 => {
                    let (a, b) = pair(&mut rng, pools::FILMS.len());
                    let (a, b) = (&pools::FILMS[a], &pools::FILMS[b]);
                    let tpl = shared_cmp[i / 4 % shared_cmp.len()];
                    comparison_task(
                        id,
                        tpl.replace("{A}", a.name).replace("{B}", b.name),
                        a,
                        b,
                        "stature",
                        d,
                    )
                }
                1 => {
                    let (a, b) = pair(&mut rng, pools::FILMS.len());
                    let (a, b) = (&pools::FILMS[a], &pools::FILMS[b]);
                    comparison_task(
                        id,
                        format!("Did {} win more Oscars than {}?", a.name, b.name),
                        a,
                        b,
                        "oscars",
                        d,
                    )
                }
                2 => {
                    let f = &pools::FILMS[rng.gen_range(0..pools::FILMS.len())];
                    yes_no_task(
                        id,
                        format!("Was {} released in the last century?", f.name),
                        f.name,
                        "era",
                        d,
                    )
                }
                _ => {
                    let (a, b) = pair(&mut rng, pools::FILMS.len());
                    let (a, b) = (&pools::FILMS[a], &pools::FILMS[b]);
                    comparison_task(
                        id,
                        format!("Which film runs longer: {} or {}?", a.name, b.name),
                        a,
                        b,
                        "runtime",
                        d,
                    )
                }
            };
            tasks.push(t);
        }
    }

    // Domain Mountain (Science).
    {
        let d = pools::domains::SCIENCE;
        for i in 0..100 {
            let id = tasks.len();
            let t = match i % 4 {
                0 => {
                    let (a, b) = pair(&mut rng, pools::MOUNTAINS.len());
                    let (a, b) = (&pools::MOUNTAINS[a], &pools::MOUNTAINS[b]);
                    let tpl = shared_cmp[i / 4 % shared_cmp.len()];
                    comparison_task(
                        id,
                        tpl.replace("{A}", a.name).replace("{B}", b.name),
                        a,
                        b,
                        "stature",
                        d,
                    )
                }
                1 => {
                    let m = &pools::MOUNTAINS[rng.gen_range(0..pools::MOUNTAINS.len())];
                    yes_no_task(
                        id,
                        format!("Is {} located in Asia?", m.name),
                        m.name,
                        "asia",
                        d,
                    )
                }
                2 => {
                    let (a, b) = pair(&mut rng, pools::MOUNTAINS.len());
                    let (a, b) = (&pools::MOUNTAINS[a], &pools::MOUNTAINS[b]);
                    comparison_task(
                        id,
                        format!(
                            "Which mountain has a higher summit: {} or {}?",
                            a.name, b.name
                        ),
                        a,
                        b,
                        "elevation",
                        d,
                    )
                }
                _ => {
                    let m = &pools::MOUNTAINS[rng.gen_range(0..pools::MOUNTAINS.len())];
                    yes_no_task(
                        id,
                        format!("Can {} be climbed without supplemental oxygen?", m.name),
                        m.name,
                        "oxygen",
                        d,
                    )
                }
            };
            tasks.push(t);
        }
    }

    Dataset {
        name: "4D",
        domain_set: DomainSet::yahoo_answers(),
        tasks,
        kb: curated_kb_with_distractors(19),
        focus_domains: vec![
            pools::domains::SPORTS,
            pools::domains::CARS,
            pools::domains::ENTERTAINMENT,
            pools::domains::SCIENCE,
        ],
        focus_names: vec!["NBA", "Car", "Film", "Mountain"],
    }
}

/// **QA** \[35\]: 1000 search-engine-style questions focused on Entertain,
/// Science, Sports, and Business — heterogeneous natural-question phrasing
/// within each domain (Figure 3(c)).
pub fn yahoo_qa() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(0x0A0A);
    let mut tasks: Vec<Task> = Vec::with_capacity(1000);

    let ent_people: Vec<&PoolEntry> = pools::PEOPLE
        .iter()
        .filter(|p| p.domains.contains(&pools::domains::ENTERTAINMENT))
        .collect();
    let biz_people: Vec<&PoolEntry> = pools::PEOPLE
        .iter()
        .filter(|p| p.domains[0] == pools::domains::BUSINESS)
        .collect();
    let sport_people: Vec<&PoolEntry> = pools::PEOPLE
        .iter()
        .filter(|p| p.domains[0] == pools::domains::SPORTS)
        .collect();

    for i in 0..1000 {
        let id = tasks.len();
        let t = match i % 4 {
            // Entertainment.
            0 => match (i / 4) % 3 {
                0 => {
                    let (a, b) = pair(&mut rng, pools::FILMS.len());
                    let (a, b) = (&pools::FILMS[a], &pools::FILMS[b]);
                    comparison_task(
                        id,
                        format!(
                            "which movie should i watch first, {} or {}?",
                            a.name, b.name
                        ),
                        a,
                        b,
                        "watch",
                        pools::domains::ENTERTAINMENT,
                    )
                }
                1 => {
                    let p = ent_people[rng.gen_range(0..ent_people.len())];
                    yes_no_task(
                        id,
                        format!("has {} ever hosted an award show?", p.name),
                        p.name,
                        "host",
                        pools::domains::ENTERTAINMENT,
                    )
                }
                _ => {
                    let f = &pools::FILMS[rng.gen_range(0..pools::FILMS.len())];
                    yes_no_task(
                        id,
                        format!("is the soundtrack of {} available on vinyl?", f.name),
                        f.name,
                        "vinyl",
                        pools::domains::ENTERTAINMENT,
                    )
                }
            },
            // Science.
            1 => match (i / 4) % 3 {
                0 => {
                    let (a, b) = pair(&mut rng, pools::MOUNTAINS.len());
                    let (a, b) = (&pools::MOUNTAINS[a], &pools::MOUNTAINS[b]);
                    comparison_task(
                        id,
                        format!("what formed first geologically, {} or {}?", a.name, b.name),
                        a,
                        b,
                        "geology",
                        pools::domains::SCIENCE,
                    )
                }
                1 => {
                    let m = &pools::MOUNTAINS[rng.gen_range(0..pools::MOUNTAINS.len())];
                    yes_no_task(
                        id,
                        format!("does {} have glaciers year round?", m.name),
                        m.name,
                        "glacier",
                        pools::domains::SCIENCE,
                    )
                }
                _ => {
                    let m = &pools::MOUNTAINS[rng.gen_range(0..pools::MOUNTAINS.len())];
                    yes_no_task(
                        id,
                        format!("did {} form on a tectonic plate boundary?", m.name),
                        m.name,
                        "tectonic",
                        pools::domains::SCIENCE,
                    )
                }
            },
            // Sports.
            2 => match (i / 4) % 3 {
                0 => {
                    let (a, b) = pair(&mut rng, pools::NBA_PLAYERS.len());
                    let (a, b) = (&pools::NBA_PLAYERS[a], &pools::NBA_PLAYERS[b]);
                    comparison_task(
                        id,
                        format!("who would win one on one, {} or {}?", a.name, b.name),
                        a,
                        b,
                        "oneonone",
                        pools::domains::SPORTS,
                    )
                }
                1 => {
                    let p = sport_people[rng.gen_range(0..sport_people.len())];
                    yes_no_task(
                        id,
                        format!("did {} ever hold a world record?", p.name),
                        p.name,
                        "record",
                        pools::domains::SPORTS,
                    )
                }
                _ => {
                    let t = &pools::NBA_TEAMS[rng.gen_range(0..pools::NBA_TEAMS.len())];
                    yes_no_task(
                        id,
                        format!("are {} tickets hard to get this season?", t.name),
                        t.name,
                        "tickets",
                        pools::domains::SPORTS,
                    )
                }
            },
            // Business.
            _ => match (i / 4) % 3 {
                0 => {
                    let (a, b) = pair(&mut rng, biz_people.len().max(2));
                    let (a, b) = (
                        biz_people[a % biz_people.len()],
                        biz_people[b % biz_people.len()],
                    );
                    if a.name == b.name {
                        let p = biz_people[rng.gen_range(0..biz_people.len())];
                        yes_no_task(
                            id,
                            format!("did {} start more than one company?", p.name),
                            p.name,
                            "companies",
                            pools::domains::BUSINESS,
                        )
                    } else {
                        comparison_task(
                            id,
                            format!("who donated more to charity, {} or {}?", a.name, b.name),
                            a,
                            b,
                            "charity",
                            pools::domains::BUSINESS,
                        )
                    }
                }
                1 => {
                    let p = biz_people[rng.gen_range(0..biz_people.len())];
                    yes_no_task(
                        id,
                        format!("is {} still on the board of directors?", p.name),
                        p.name,
                        "board",
                        pools::domains::BUSINESS,
                    )
                }
                _ => {
                    let p = &pools::PEOPLE[rng.gen_range(0..pools::PEOPLE.len())];
                    yes_no_task(
                        id,
                        format!("does {} own stock in a car company?", p.name),
                        p.name,
                        "stock",
                        pools::domains::BUSINESS,
                    )
                }
            },
        };
        tasks.push(t);
    }

    Dataset {
        name: "QA",
        domain_set: DomainSet::yahoo_answers(),
        tasks,
        kb: curated_kb_with_distractors(19),
        focus_domains: vec![
            pools::domains::ENTERTAINMENT,
            pools::domains::SCIENCE,
            pools::domains::SPORTS,
            pools::domains::BUSINESS,
        ],
        focus_names: vec!["Entertain", "Science", "Sports", "Business"],
    }
}

/// **SFV** \[30\]: 328 person-attribute tasks with 4 candidate values per task
/// (choices gathered from QA systems in the paper). The true domain of a
/// task is the person's most renowned field (Figure 3(d)).
pub fn sfv() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(0x5F5F);
    let attributes = [
        "age",
        "height in centimeters",
        "birth year",
        "net worth in millions",
        "number of awards",
        "number of siblings",
        "years of education",
        "houses owned",
        "countries visited",
        "languages spoken",
        "books written",
        "public speeches given",
        "honorary degrees",
        "wikipedia page views in thousands",
        "charity foundations",
        "patents filed",
        "interviews given",
    ];
    let mut tasks: Vec<Task> = Vec::with_capacity(328);
    'outer: for attr in attributes {
        for person in pools::PEOPLE {
            if tasks.len() == 328 {
                break 'outer;
            }
            let id = tasks.len();
            let base = entity_score(person.name, attr) % 80 + 10;
            let truth = rng.gen_range(0..4usize);
            let choices: Vec<String> = (0..4)
                .map(|j| {
                    let delta = (j as i64 - truth as i64) * ((id % 7 + 2) as i64);
                    format!("{}", base as i64 + delta)
                })
                .collect();
            tasks.push(
                TaskBuilder::new(id, format!("What is the {} of {}?", attr, person.name))
                    .with_choices(choices)
                    .with_ground_truth(truth)
                    .with_true_domain(person.domains[0])
                    .build()
                    .expect("valid SFV task"),
            );
        }
    }

    Dataset {
        name: "SFV",
        domain_set: DomainSet::yahoo_answers(),
        tasks,
        kb: curated_kb_with_distractors(19),
        focus_domains: vec![
            pools::domains::ENTERTAINMENT,
            pools::domains::BUSINESS,
            pools::domains::SPORTS,
            pools::domains::POLITICS,
        ],
        focus_names: vec!["Entertain", "Business", "Sports", "Politics"],
    }
}

/// All four datasets, in the paper's order.
pub fn all_datasets() -> Vec<Dataset> {
    vec![item(), four_domain(), yahoo_qa(), sfv()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focus_qualities_have_experts_in_every_focus_domain() {
        let d = item();
        let qualities = d.worker_qualities(40, 7);
        assert_eq!(qualities.len(), 40);
        for &fd in &d.focus_domains {
            assert!(
                qualities.iter().any(|q| q[fd] >= 0.85),
                "no expert in focus domain {fd}"
            );
        }
        // Deterministic per seed.
        assert_eq!(qualities, d.worker_qualities(40, 7));
        assert_ne!(qualities, d.worker_qualities(40, 8));
    }

    #[test]
    fn dataset_sizes_match_paper() {
        assert_eq!(item().len(), 360);
        assert_eq!(four_domain().len(), 400);
        assert_eq!(yahoo_qa().len(), 1000);
        assert_eq!(sfv().len(), 328);
    }

    #[test]
    fn item_has_90_tasks_per_domain() {
        let d = item();
        for &fd in &d.focus_domains {
            let count = d.tasks.iter().filter(|t| t.true_domain == Some(fd)).count();
            assert_eq!(count, 90);
        }
    }

    #[test]
    fn four_domain_has_100_tasks_per_domain() {
        let d = four_domain();
        for &fd in &d.focus_domains {
            let count = d.tasks.iter().filter(|t| t.true_domain == Some(fd)).count();
            assert_eq!(count, 100);
        }
    }

    #[test]
    fn all_tasks_have_truth_and_domain() {
        for d in all_datasets() {
            for t in &d.tasks {
                assert!(
                    t.ground_truth.is_some(),
                    "{}: task {} lacks truth",
                    d.name,
                    t.id
                );
                assert!(t.true_domain.is_some());
                assert!(t.num_choices() >= 2);
                assert!(t.ground_truth.unwrap() < t.num_choices());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = four_domain();
        let b = four_domain();
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.ground_truth, y.ground_truth);
        }
    }

    /// Fraction of tasks whose DVE-dominant domain is the true domain —
    /// the Figure 3 domain-detection accuracy.
    fn detection_accuracy(d: &Dataset) -> f64 {
        let hits = d.tasks.iter().filter(|t| {
            let r = t.domain_vector.as_ref().expect("DVE ran");
            Some(r.dominant_domain()) == t.true_domain
        });
        hits.count() as f64 / d.tasks.len() as f64
    }

    #[test]
    fn dve_detects_item_domains_well() {
        let mut d = item();
        d.run_dve_default();
        let acc = detection_accuracy(&d);
        assert!(acc > 0.9, "Item DVE accuracy {acc}");
    }

    #[test]
    fn dve_detects_4d_domains_well() {
        let mut d = four_domain();
        d.run_dve_default();
        let acc = detection_accuracy(&d);
        // Paper reports >95% overall on 4D.
        assert!(acc > 0.85, "4D DVE accuracy {acc}");
    }

    #[test]
    fn sfv_tasks_have_four_choices() {
        let d = sfv();
        for t in &d.tasks {
            assert_eq!(t.num_choices(), 4);
        }
    }

    #[test]
    fn domain_vectors_are_distributions_after_dve() {
        let mut d = sfv();
        d.run_dve_default();
        for t in &d.tasks {
            let r = t.domain_vector.as_ref().unwrap();
            assert!(docs_types::prob::is_distribution(r.as_slice()));
        }
    }
}
