//! Worker-quality maintenance across requesters (Section 4.2, Theorem 1).
//!
//! ```text
//! cargo run --release --example persistent_requesters
//! ```
//!
//! Two requesters publish batches to the same DOCS deployment, backed by
//! the WAL-based parameter database. Workers profiled during the first
//! campaign are recognized when they return for the second: no golden HIT
//! again, and their merged quality statistics (Theorem 1) seed inference
//! immediately.

use docs_crowd::WorkerPopulation;
use docs_datasets::pools::domains::{FOOD, SPORTS};
use docs_scenarios::run_campaign;
use docs_system::DocsConfig;
use docs_types::TaskBuilder;

fn sports_tasks(n: usize) -> Vec<docs_types::Task> {
    let players = ["Kobe Bryant", "Stephen Curry", "Tim Duncan", "James Harden"];
    (0..n)
        .map(|i| {
            TaskBuilder::new(i, format!("Is {} a championship winner?", players[i % 4]))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(SPORTS)
                .build()
                .unwrap()
        })
        .collect()
}

fn food_tasks(n: usize) -> Vec<docs_types::Task> {
    let foods = ["Chocolate", "Avocado", "Salmon", "Lentils"];
    (0..n)
        .map(|i| {
            TaskBuilder::new(
                i,
                format!("Does {} contain more calories than Honey?", foods[i % 4]),
            )
            .yes_no()
            .with_ground_truth(i % 2)
            .with_true_domain(FOOD)
            .build()
            .unwrap()
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("docs-example-params-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let kb = docs_datasets::curated_kb();
    // One shared crowd: sports experts are food novices and vice versa.
    let population = WorkerPopulation::from_qualities(
        (0..16)
            .map(|i| {
                let mut q = vec![0.6; 26];
                if i % 2 == 0 {
                    q[SPORTS] = 0.93;
                    q[FOOD] = 0.55;
                } else {
                    q[SPORTS] = 0.55;
                    q[FOOD] = 0.93;
                }
                q
            })
            .collect(),
    );

    let config = DocsConfig {
        num_golden: 4,
        k_per_hit: 4,
        answers_per_task: 6,
        storage_dir: Some(dir.clone()),
        ..Default::default()
    };

    println!("requester 1: 40 sports tasks");
    let r1 = run_campaign(&kb, sports_tasks(40), &population, config.clone(), 1)?;
    println!(
        "  accuracy {:.1}% from {} answers ({} workers profiled)\n",
        100.0 * r1.accuracy,
        r1.answers_collected,
        r1.workers_used
    );

    println!("requester 2: 40 food tasks — same platform, same worker pool");
    let r2 = run_campaign(&kb, food_tasks(40), &population, config, 2)?;
    println!(
        "  accuracy {:.1}% from {} answers ({} workers participated)",
        100.0 * r2.accuracy,
        r2.answers_collected,
        r2.workers_used
    );

    // Show what the parameter database now knows.
    let store = docs_storage::ParamStore::open(&dir)?;
    let workers = store.worker_ids();
    println!(
        "\nparameter database: {} workers on file at {}",
        workers.len(),
        dir.display()
    );
    for w in workers.iter().take(4) {
        let stats: docs_core::ti::WorkerStats = store.get_worker(*w)?.expect("stored");
        println!(
            "  {w}: sports q={:.2} (u={:.1})  food q={:.2} (u={:.1})",
            stats.quality[SPORTS], stats.weight[SPORTS], stats.quality[FOOD], stats.weight[FOOD],
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
