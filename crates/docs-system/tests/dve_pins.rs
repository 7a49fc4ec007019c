//! Bit-level pins of Section 3's DVE pipeline as `Docs::publish` runs it:
//! entity linking, then Algorithm 1. Every task of the four paper dataset
//! regenerations (`Dataset::run_dve_default`) and 120 tenants-shaped tasks
//! over the Table 2 KB are linked and vectorized; each case hashes every
//! domain vector's `to_bits()` and, separately, every linked entity's
//! candidate order and `probs` bits. A faster linker or DVE kernel must
//! keep every constant: they were recorded before either was optimized.
//! Run with `--release` as well.

use docs_core::dve;
use docs_kb::{EntityLinker, KnowledgeBase, LinkedEntity};
use docs_system::DocsConfig;
use docs_types::Task;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(domain vector hash, linked entity hash)` over `tasks`, whose domain
/// vectors are already filled. Entities are re-linked with the linker
/// configuration `Docs::publish` uses by default.
fn hashes(kb: &KnowledgeBase, tasks: &[Task]) -> (u64, u64) {
    let linker = EntityLinker::new(kb, DocsConfig::default().linker);
    let mut vectors = FNV_OFFSET;
    let mut entities = FNV_OFFSET;
    for task in tasks {
        let r = task.domain_vector.as_ref().expect("DVE ran");
        for &v in r.as_slice() {
            vectors = fnv(vectors, &v.to_bits().to_le_bytes());
        }
        let linked: Vec<LinkedEntity> = linker.link(&task.text);
        entities = fnv(entities, &(linked.len() as u32).to_le_bytes());
        for e in &linked {
            entities = fnv(entities, &(e.num_candidates() as u32).to_le_bytes());
            for (c, p) in e.candidates.iter().zip(&e.probs) {
                entities = fnv(entities, &c.0.to_le_bytes());
                entities = fnv(entities, &p.to_bits().to_le_bytes());
            }
        }
    }
    (vectors, entities)
}

#[test]
fn paper_datasets_link_and_vectorize_to_the_pinned_bits() {
    let expected: [(&str, usize, u64, u64); 4] = [
        ("Item", 360, 0x36a273fdebe3cc07, 0xd710cd9e0992706f),
        ("4D", 400, 0xf1e9eb055c4ad24e, 0xb54ae731ae60d1ba),
        ("QA", 1000, 0x66d10dfead9d5eee, 0x60969ea1b9c5dfaf),
        ("SFV", 328, 0x31bbd626cf93b65d, 0x87ec19e58090180d),
    ];
    let mut mismatches = Vec::new();
    for (mut dataset, (name, len, vectors, entities)) in
        docs_datasets::all_datasets().into_iter().zip(expected)
    {
        assert_eq!(dataset.name, name);
        assert_eq!(dataset.len(), len);
        dataset.run_dve_default();
        let got = hashes(&dataset.kb, &dataset.tasks);
        if got != (vectors, entities) {
            mismatches.push(format!("{name}: {:#018x}, {:#018x}", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "(vectors, entities): {mismatches:?}");
}

/// Tenants-shaped texts over the Table 2 KB: one subject per task, as the
/// tenants workloads publish, and every third task naming two subjects, so
/// context disambiguation reweights their candidates.
fn tenant_tasks() -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    (0..120)
        .map(|i| {
            let a = subjects[(i * 5 + i / 7) % subjects.len()];
            let text = if i % 3 == 2 {
                let b = subjects[(i / 3) % subjects.len()];
                format!("Is {a} greater than {b}? (t{i})")
            } else {
                format!("Is {a} great? (t{i})")
            };
            docs_types::TaskBuilder::new(i, text)
                .yes_no()
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn tenants_tasks_link_and_vectorize_to_the_pinned_bits() {
    let kb = docs_kb::table2_example_kb();
    let docs = docs_system::Docs::publish(
        &kb,
        tenant_tasks(),
        DocsConfig {
            num_golden: 0,
            ..DocsConfig::default()
        },
    )
    .unwrap();
    let linker = EntityLinker::new(&kb, DocsConfig::default().linker);
    let mut tasks = tenant_tasks();
    for (task, published) in tasks.iter_mut().zip(docs.tasks()) {
        let direct = dve::domain_vector(&linker.link(&task.text), kb.num_domains());
        assert_eq!(Some(&direct), published.domain_vector.as_ref());
        task.domain_vector = Some(direct);
    }
    let got = hashes(&kb, &tasks);
    assert_eq!(
        got,
        (0xea466180724fb934, 0x4c643a639c005941),
        "tenants: (vectors, entities)"
    );
}
