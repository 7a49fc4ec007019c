//! Command line of the canonical DOCS benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- [options]
//!
//!   --workload <name>   run one workload in this process and end with the
//!                       one-line JSON result (what BENCHMARK.json's driver
//!                       calls); without it, every workload runs in its own
//!                       child process, one after the other
//!   --seed <n>          reseeds every input generator (default 1)
//!   --seconds <s>       length of a workload's window of repeats (default 20)
//!   --trace [0|1]       1: the traced run and per-layer ledger instead of
//!                       the end-to-end metrics
//!   --smoke             ~1/10 size, one repeat, nothing written
//!   --benchmark-json    print BENCHMARK.json as the metric tables define it
//! ```
//!
//! Exits non-zero when any correctness check fails.

use docs_canonical_bench::facts::Facts;
use docs_canonical_bench::inputs::{generate, Workload};
use docs_canonical_bench::metrics::{benchmark_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use docs_canonical_bench::{ledger, window};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: docs-canonical-bench [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("seconds out of range: {v}"));
                }
            }
            "--trace" => match argv.next() {
                Some(v) if v == "0" => args.trace = false,
                Some(v) if v == "1" => args.trace = true,
                // A bare `--trace`: the next word is another flag.
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--smoke" => args.smoke = true,
            "--benchmark-json" => {
                print!("{}", benchmark_json());
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

/// `bench/out` of the checkout the benchmark runs in: under the current
/// directory when that is a checkout root, else beside this package's
/// manifest. Everything the benchmark writes goes below it.
fn out_root() -> PathBuf {
    let here = Path::new("bench");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line result the driver reads.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    line.push_str("}}");
    line
}

fn run_workload(workload: Workload, args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let out = out_root();
    let wal_dir = out.join(format!("wal-{}", std::process::id()));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let facts = Facts::read(&out);
    let inputs = generate(workload, args.smoke, args.seed);
    println!(
        "workload {} | seed {} | {}{}",
        workload.name(),
        args.seed,
        facts,
        if args.smoke { " | SMOKE size" } else { "" }
    );
    println!("  why: {}", workload.why());

    let outcome = if args.trace {
        let report = ledger::run(
            &inputs,
            args.seed,
            &wal_dir,
            &out,
            if args.smoke { 0.0 } else { args.seconds },
            !args.smoke,
        )?;
        println!(
            "  traced run (per-layer; end-to-end numbers come from --trace 0 only), {:.1} s",
            started.elapsed().as_secs_f64()
        );
        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for def in PER_LAYER {
            let value = report.values.get(def.name).copied().unwrap_or(0.0);
            println!(
                "  {:<42} {:>16.4} {:<6} {}-is-better",
                def.name,
                value,
                def.unit,
                def.better.name()
            );
            metrics.push((def.name, value, def.unit));
        }
        for note in &report.checks.notes {
            println!("  ! {note}");
        }
        println!(
            "  ladder climbed {} times; every timing is the best of them",
            report.passes
        );
        match &report.spans_file {
            Some(path) => println!("  spans written to {}", path.display()),
            None => println!("  spans not written (smoke)"),
        }
        let (attempted, failed) = (report.checks.made.max(1), report.checks.failed);
        println!("  attempted {attempted}  failed {failed}");
        let correct = failed == 0;
        println!("{}", result_line(correct, attempted, failed, &metrics));
        correct
    } else {
        let w = window::run(&inputs, &wal_dir, args.seconds, args.smoke)?;
        let readings = w.end_to_end();
        println!(
            "  {} repeats and {} set-ups in {:.1} s (inputs included); answers_per_s takes every drive segment at its best over the repeats",
            w.samples.len(),
            w.setups_s.len(),
            started.elapsed().as_secs_f64()
        );
        let mut metrics = Vec::with_capacity(END_TO_END.len());
        for (def, reading) in END_TO_END.iter().zip(&readings) {
            assert_eq!(def.name, reading.name, "metric tables out of step");
            println!(
                "  {:<18} {:>14.4} {:<6} {}-is-better  bound {:.2}{}",
                def.name,
                reading.value,
                def.unit,
                def.better.name(),
                def.bound,
                reading.diagnostics()
            );
            metrics.push((def.name, reading.value, def.unit));
        }
        let exact = &w.samples[0].exact;
        if let Some(recover) = w.recover_s() {
            println!("  recover_s          {recover:>14.4} s      (per-layer metric; best repeat)");
        }
        if let Some(bytes) = exact.disk_bytes {
            println!("  bytes on disk      {bytes:>14} B      (segments + latest snapshots, after the last ack)");
        }
        if let Some(mv) = exact.majority_correct {
            println!(
                "  DOCS grades {} of {} tasks correct, majority vote over the same answers {mv}",
                exact.graded_correct, exact.graded_total
            );
        }
        for note in &w.notes {
            println!("  ! {note}");
        }
        println!(
            "  answers {}  calls {}  truth hash {:016x}  identical across repeats: {}",
            exact.answers,
            exact.calls,
            exact.truth_hash,
            if w.deterministic { "yes" } else { "NO" }
        );
        println!(
            "  attempted {}  failed {}  failed_op_ratio {}",
            w.attempted(),
            w.failed(),
            w.failed() as f64 / w.attempted() as f64
        );
        println!(
            "{}",
            result_line(w.correct(), w.attempted(), w.failed(), &metrics)
        );
        w.correct()
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(outcome)
}

/// Every workload, each in its own child process (so `peak_rss_mb` and the
/// allocation counter belong to one workload only).
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &trace in traces {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end.
            let status = child
                .status()
                .map_err(|e| format!("run {}: {e}", workload.name()))?;
            if !status.success() {
                all_correct = false;
                println!("workload {} FAILED ({status})", workload.name());
            }
            println!();
        }
    }
    println!(
        "{} workloads in {:.1} s: {}",
        Workload::ALL.len(),
        started.elapsed().as_secs_f64(),
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark error: {message}");
            ExitCode::from(3)
        }
    }
}
