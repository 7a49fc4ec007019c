//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 6) on the simulated substrate, plus one experiment
//! beyond it ([`extensions`]: adaptive stopping).
//!
//! Each module computes one table/figure's data series and returns plain
//! structs; the `figures` binary prints them in the paper's row/series
//! format, and the criterion benches in `benches/` measure the timing
//! claims.

pub mod extensions;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod population;
pub mod protocol;
pub mod table3;

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Merges headline bench numbers into a `BENCH_<name>.json` file at the
/// workspace root (read–merge–sort–write, creating the file if absent), so
/// every bench tracks its perf trajectory from PR to PR in one flat
/// `{key: number}` document. Shared by the service-level benches.
pub fn merge_bench_json(file_name: &str, updates: &[(String, f64)]) {
    // Anchor at the workspace root whatever cargo set as the bench CWD.
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name);
    let mut map: std::collections::HashMap<String, f64> = std::fs::read(&path)
        .ok()
        .and_then(|bytes| serde_json::from_slice(&bytes).ok())
        .unwrap_or_default();
    for (key, value) in updates {
        map.insert(key.clone(), *value);
    }
    let mut entries: Vec<(String, f64)> = map.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))).expect("write bench json");
    println!("bench numbers merged into {}", path.display());
}
