//! Quickstart: publish a handful of tasks through the full DOCS pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the Figure 1 architecture end to end on the paper's own running
//! example: domain vector estimation against a small knowledge base, golden
//! task selection, online assignment, truth inference, and the final report.

use docs_crowd::WorkerPopulation;
use docs_datasets::pools::domains::SPORTS;
use docs_scenarios::run_campaign;
use docs_system::DocsConfig;
use docs_types::TaskBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A knowledge base. Here: the small curated KB the simulated
    //    datasets share, with deliberately ambiguous mentions such as
    //    "Michael Jordan"; a real deployment links against a large KB.
    let kb = docs_datasets::curated_kb();

    // 2. The requester's tasks: multiple-choice questions with plain-text
    //    descriptions. Ground truth is evaluation-only — DOCS never reads it
    //    for inference (golden tasks excepted).
    let questions = [
        (
            "Does Michael Jordan win more NBA championships than Kobe Bryant?",
            0,
        ),
        ("Who has more MVP awards: LeBron James or Stephen Curry?", 0),
        ("Is Kevin Durant taller than Chris Paul?", 0),
        ("Has Tim Duncan ever played for the Chicago Bulls?", 1),
        (
            "Did Magic Johnson win a championship with the Los Angeles Lakers?",
            0,
        ),
        ("Is Allen Iverson in the Hall of Fame?", 0),
        (
            "Does Dirk Nowitzki have more championships than Shaquille O'Neal?",
            1,
        ),
        ("Was Larry Bird drafted by the Boston Celtics?", 0),
    ];
    let tasks: Vec<_> = questions
        .iter()
        .enumerate()
        .map(|(i, (text, truth))| {
            TaskBuilder::new(i, *text)
                .yes_no()
                .with_ground_truth(*truth)
                .with_true_domain(SPORTS)
                .build()
                .expect("valid task")
        })
        .collect();

    // 3. A simulated crowd (stand-in for AMT): a couple of NBA experts, a
    //    few average workers, one spammer.
    let population = WorkerPopulation::from_qualities(
        (0..12)
            .map(|i| {
                let mut q = vec![0.6; 26];
                q[SPORTS] = [0.95, 0.9, 0.65, 0.6][i % 4];
                q
            })
            .collect(),
    );

    // 4. Run the campaign: DVE → golden selection → OTA/TI loop → report.
    let config = DocsConfig {
        num_golden: 2,
        k_per_hit: 3,
        answers_per_task: 5,
        ..Default::default()
    };
    let report = run_campaign(&kb, tasks.clone(), &population, config, 42)?;

    println!(
        "collected {} answers from {} workers",
        report.answers_collected, report.workers_used
    );
    for (task, &truth) in tasks.iter().zip(&report.truths) {
        println!(
            "[{}] {}  →  {}",
            if Some(truth) == task.ground_truth {
                "ok "
            } else {
                "MISS"
            },
            task.text,
            task.choices[truth],
        );
    }
    println!("accuracy: {:.1}%", 100.0 * report.accuracy);
    Ok(())
}
