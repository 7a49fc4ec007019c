//! Regenerates every table and figure of the paper's evaluation and prints
//! the rows/series the paper reports.
//!
//! ```text
//! cargo run --release -p docs-bench --bin figures            # everything
//! cargo run --release -p docs-bench --bin figures -- fig5    # one figure
//! ```
//!
//! Accepted selectors: `table3 fig3 fig4a fig4b fig4c fig4d fig4e fig5 fig6
//! fig7a fig7b fig8 fig8c ext` (any subset, in any order; `ext` prints the
//! one extension experiment, adaptive stopping).

use docs_bench::{
    extensions, fig3, fig4, fig5, fig6, fig7, fig8, pct, population, protocol, table3,
};
use std::time::Duration;

fn wants(args: &[String], key: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a == key)
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = 0xD0C5_2016;

    // Shared prepared datasets (Section 6.1 protocol: 10 answers/task,
    // 20 golden tasks, 50 simulated workers).
    let prepare_all = || {
        docs_datasets::all_datasets()
            .into_iter()
            .map(|d| protocol::prepare(d, 10, 20, 50, seed))
            .collect::<Vec<_>>()
    };

    if wants(&args, "table3") {
        println!("== Table 3: DVE efficiency (Algorithm 1 vs Enumeration) ==");
        println!(
            "{:<8} {:<8} {:>14} {:>22}",
            "Dataset", "Top-c", "Alg. 1", "Enumeration"
        );
        // Cap enumeration work per task; exceeding it = the paper's "> 1 day".
        for row in table3::run(100_000) {
            println!(
                "{:<8} {:<8} {:>14} {:>22}",
                row.dataset,
                format!("top-{}", row.top_c),
                table3::format_duration(Some(row.algorithm1)),
                table3::format_duration(row.enumeration),
            );
        }
        println!();
    }

    if wants(&args, "fig3") {
        println!("== Figure 3: domain detection accuracy (IC=LDA, FC=TwitterLDA, DOCS=KB) ==");
        for panel in fig3::run_all(seed) {
            println!("-- {} --", panel.dataset);
            println!("{:<10} {:>8} {:>8} {:>8}", "Domain", "IC", "FC", "DOCS");
            for (j, name) in panel.domain_names.iter().enumerate() {
                println!(
                    "{:<10} {:>8} {:>8} {:>8}",
                    name,
                    pct(panel.ic[j]),
                    pct(panel.fc[j]),
                    pct(panel.docs[j])
                );
            }
            println!(
                "{:<10} {:>8} {:>8} {:>8}",
                "Overall",
                pct(panel.ic_overall),
                pct(panel.fc_overall),
                pct(panel.docs_overall)
            );
        }
        println!();
    }

    let needs_prepared = ["fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6", "fig8"]
        .iter()
        .any(|k| wants(&args, k));
    let prepared = if needs_prepared {
        prepare_all()
    } else {
        Vec::new()
    };

    if wants(&args, "fig4a") {
        println!("== Figure 4(a): TI convergence (Δ per iteration) ==");
        for p in &prepared {
            let deltas = fig4::fig4a_convergence(p, 20);
            let series: Vec<String> = deltas.iter().map(|d| format!("{d:.4}")).collect();
            println!("{:<5} {}", p.dataset.name, series.join(" "));
        }
        println!();
    }

    if wants(&args, "fig4b") {
        println!("== Figure 4(b): accuracy vs #golden tasks ==");
        let budgets = [0usize, 5, 10, 15, 20, 30, 40];
        for p in &prepared {
            let sweep = fig4::fig4b_golden_sweep(p, &budgets);
            let series: Vec<String> = sweep
                .iter()
                .map(|(n, a)| format!("{n}:{}", pct(*a)))
                .collect();
            println!("{:<5} {}", p.dataset.name, series.join("  "));
        }
        println!();
    }

    if wants(&args, "fig4c") {
        println!("== Figure 4(c): accuracy vs #answers per task ==");
        let caps = [1usize, 2, 4, 6, 8, 10];
        for p in &prepared {
            let sweep = fig4::fig4c_answer_sweep(p, &caps);
            let series: Vec<String> = sweep
                .iter()
                .map(|(n, a)| format!("{n}:{}", pct(*a)))
                .collect();
            println!("{:<5} {}", p.dataset.name, series.join("  "));
        }
        println!();
    }

    if wants(&args, "fig4d") {
        println!("== Figure 4(d): worker quality deviation vs #answered tasks ==");
        let caps = [1usize, 20, 40, 60, 80, 100];
        for p in &prepared {
            let sweep = fig4::fig4d_quality_deviation(p, &caps);
            let series: Vec<String> = sweep.iter().map(|(n, d)| format!("{n}:{d:.3}")).collect();
            println!("{:<5} {}", p.dataset.name, series.join("  "));
        }
        println!();
    }

    if wants(&args, "fig4e") {
        println!("== Figure 4(e): TI scalability (m=20, 10 answers/task) ==");
        let ns = [2_000usize, 4_000, 6_000, 8_000, 10_000];
        let points = fig4::fig4e_scalability(&ns, &[10, 100, 500], seed);
        println!("{:<10} {:>10} {:>12}", "#tasks", "#workers", "TI time");
        for p in points {
            println!("{:<10} {:>10} {:>12}", p.n, p.workers, fmt_ms(p.time));
        }
        println!();
    }

    if wants(&args, "fig5") {
        println!("== Figure 5: truth inference comparison (+ GLAD/CRH extensions) ==");
        let mut header = format!("{:<5}", "");
        let mut first = true;
        for p in &prepared {
            let results = fig5::run(p);
            if first {
                for r in &results {
                    header.push_str(&format!(" {:>8}", r.method));
                }
                println!("{header}");
                first = false;
            }
            let mut acc_line = format!("{:<5}", p.dataset.name);
            let mut time_line = format!("{:<5}", "");
            for r in &results {
                acc_line.push_str(&format!(" {:>8}", pct(r.accuracy)));
                time_line.push_str(&format!(" {:>8}", fmt_ms(r.time)));
            }
            println!("{acc_line}   (accuracy)");
            println!("{time_line}   (time)");
        }
        println!();
    }

    if wants(&args, "fig6") {
        println!("== Figure 6: worker quality case study (Item) ==");
        let item = prepared
            .iter()
            .find(|p| p.dataset.name == "Item")
            .expect("Item prepared");
        println!("(a) #workers per true-quality bin (rows: domain; cols: bins 0.0-0.1 … 0.9-1.0)");
        for (name, bins) in fig6::fig6a_histogram(item) {
            let cells: Vec<String> = bins.iter().map(|b| format!("{b:>3}")).collect();
            println!("{:<8} {}", name, cells.join(" "));
        }
        println!("(b) calibration of the 3 most active workers (true→est per domain)");
        for (w, points) in fig6::fig6b_top_worker_calibration(item) {
            let cells: Vec<String> = points
                .iter()
                .map(|(tq, eq)| format!("{tq:.2}→{eq:.2}"))
                .collect();
            println!("{:<6} {}", w.to_string(), cells.join("  "));
        }
        let nba = fig6::fig6c_nba_calibration(item);
        println!(
            "(c) NBA-domain calibration over {} multi-HIT workers: mean |q̃−q| = {:.3}",
            nba.len(),
            fig6::calibration_error(&nba)
        );
        println!();
    }

    if wants(&args, "fig7a") {
        println!("== Figure 7(a): golden selection — approximation vs enumeration (m=10) ==");
        println!(
            "{:<6} {:>12} {:>14} {:>10}",
            "n'", "DOCS", "Enumeration", "gamma"
        );
        let points = fig7::fig7a(&[2, 4, 6, 8, 10, 12, 14, 16, 18, 20], seed);
        let mut gammas = Vec::new();
        for p in &points {
            println!(
                "{:<6} {:>12} {:>14} {:>9.4}%",
                p.n_prime,
                fmt_ms(p.approx_time),
                fmt_ms(p.enum_time),
                100.0 * p.gamma
            );
            gammas.push(p.gamma);
        }
        println!(
            "average gamma = {:.4}%",
            100.0 * gammas.iter().sum::<f64>() / gammas.len() as f64
        );
        println!();
    }

    if wants(&args, "fig7b") {
        println!("== Figure 7(b): golden selection scalability ==");
        println!("{:<8} {:<6} {:>12}", "n'", "m", "time");
        let ns = [1_000usize, 4_000, 7_000, 10_000];
        for p in fig7::fig7b(&ns, &[10, 20, 50], seed) {
            println!("{:<8} {:<6} {:>12}", p.n_prime, p.m, fmt_ms(p.time));
        }
        println!();
    }

    if wants(&args, "fig8") {
        println!("== Figure 8(a)(b): online task assignment comparison (+ Bandit extension) ==");
        let mut first = true;
        for p in &prepared {
            let outcomes = fig8::run_comparison(p, 10, seed);
            if first {
                let mut header = format!("{:<5}", "");
                for o in &outcomes {
                    header.push_str(&format!(" {:>9}", o.name));
                }
                println!("{header}");
                first = false;
            }
            let mut acc_line = format!("{:<5}", p.dataset.name);
            let mut time_line = format!("{:<5}", "");
            for o in &outcomes {
                acc_line.push_str(&format!(" {:>9}", pct(o.accuracy)));
                time_line.push_str(&format!(" {:>9}", fmt_ms(o.worst_assign_time)));
            }
            println!("{acc_line}   (accuracy)");
            println!("{time_line}   (worst assign)");
        }
        println!();
    }

    if wants(&args, "fig8c") {
        println!("== Figure 8(c): OTA scalability (m=20) ==");
        println!("{:<10} {:<6} {:>12}", "#tasks", "k", "assign time");
        let ns = [2_000usize, 4_000, 6_000, 8_000, 10_000];
        for p in fig8::fig8c(&ns, &[5, 10, 50], seed) {
            println!("{:<10} {:<6} {:>12}", p.n, p.k, fmt_ms(p.time));
        }
        println!();
    }

    if wants(&args, "ext") {
        println!("== Extension: adaptive stopping vs uniform 10/task ==");
        println!(
            "{:<5} {:>14} {:>14} {:>14} {:>14} {:>12}",
            "", "uniform #ans", "uniform acc", "adaptive #ans", "adaptive acc", "stable pt"
        );
        for d in docs_datasets::all_datasets() {
            let row = extensions::adaptive_stopping(d, seed);
            println!(
                "{:<5} {:>14} {:>14} {:>14} {:>14} {:>12}",
                row.dataset,
                row.uniform_answers,
                pct(row.uniform_accuracy),
                row.adaptive_answers,
                pct(row.adaptive_accuracy),
                row.stable_point
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        println!();
    }

    // Keep the population module linked in (used by protocol internally).
    let _ = population::dataset_population(4, &[0], 1, 0);
}
