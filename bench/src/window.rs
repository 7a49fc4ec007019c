//! A workload's measured run: a window of repeats, the determinism check
//! across them, and the end-to-end metrics taken from the window.
//!
//! The reference box's interference is one-sided and arrives in bursts of
//! 5–20 s (see the README), so every wall-derived metric is computed per
//! repeat and the window reports its best value; medians and spreads are
//! printed beside it as diagnostics only.

use crate::inputs::Inputs;
use crate::run::{repeat, setup, teardown, Observe, Repeat};
use crate::stats::{median, spread};
use std::path::Path;
use std::time::Instant;

/// Fewest repeats a full-size window makes, however long they take.
pub const MIN_REPEATS: usize = 3;

/// Set-ups a full-size run times in all: the repeats' own plus extra
/// set-up/teardown cycles, so `setup_s` is a median over at least this
/// many even when only a few repeats fit the window.
pub const SETUP_SAMPLES: usize = 12;

/// What is kept of one repeat (the repeat's own event mirror and latency
/// samples are dropped, so the process's peak RSS does not grow with the
/// number of repeats that happened to fit).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The drive's wall, whole and by segment.
    pub wall_s: f64,
    pub segments_s: Vec<f64>,
    pub allocs_per_answer: f64,
    pub recover_s: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The outputs that must be bit-identical on every repeat.
    pub exact: Exact,
}

/// A repeat's deterministic outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exact {
    pub truth_hash: u64,
    pub answers: u64,
    pub calls: u64,
    pub failed: u64,
    pub disk_bytes: Option<u64>,
    pub graded_correct: u64,
    pub graded_total: u64,
    pub majority_correct: Option<u64>,
}

impl Exact {
    pub fn of(rep: &Repeat) -> Exact {
        Exact {
            truth_hash: rep.truth_hash,
            answers: rep.drive.answers,
            calls: rep.drive.ops,
            failed: rep.failed(),
            disk_bytes: rep.disk_bytes,
            graded_correct: rep.graded_correct,
            graded_total: rep.graded_total,
            majority_correct: rep.majority_correct,
        }
    }
}

impl Sample {
    fn of(rep: &Repeat) -> Sample {
        Sample {
            wall_s: rep.drive.wall.as_secs_f64(),
            segments_s: rep.drive.segments.iter().map(|d| d.as_secs_f64()).collect(),
            allocs_per_answer: rep.drive.allocs as f64 / rep.drive.answers.max(1) as f64,
            recover_s: rep.recover.map(|d| d.as_secs_f64()),
            attempted: rep.attempted(),
            failed: rep.failed(),
            exact: Exact::of(rep),
        }
    }
}

/// The repeats of one run.
pub struct Window {
    pub samples: Vec<Sample>,
    /// Every set-up timed, the repeats' first.
    pub setups_s: Vec<f64>,
    /// Outputs that must be bit-identical across repeats were.
    pub deterministic: bool,
    pub notes: Vec<String>,
}

/// One metric's value with the window's diagnostics.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    /// Per-repeat values the reading was taken from (empty: not per repeat).
    pub samples: Vec<f64>,
}

/// Runs repeats until the next one would overrun `seconds` (at least
/// [`MIN_REPEATS`]; exactly one when `single`), then tops the set-up
/// samples up to [`SETUP_SAMPLES`].
pub fn run(inputs: &Inputs, dir: &Path, seconds: f64, single: bool) -> Result<Window, String> {
    let started = Instant::now();
    let topology = inputs.spec.workload.topology();
    let mut samples: Vec<Sample> = Vec::new();
    let mut setups_s = Vec::new();
    let mut notes = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let t = Instant::now();
        let (rep, _) = repeat(inputs, topology, dir, Observe::Nothing)?;
        longest = longest.max(t.elapsed().as_secs_f64());
        setups_s.push(rep.setup.total.as_secs_f64());
        notes.extend(rep.failures().cloned());
        samples.push(Sample::of(&rep));
        let fits = started.elapsed().as_secs_f64() + longest <= seconds;
        if single || (samples.len() >= MIN_REPEATS && !fits) {
            break;
        }
    }
    while !single && setups_s.len() < SETUP_SAMPLES {
        let (stack, times) = setup(inputs, topology, dir, 0)?;
        setups_s.push(times.total.as_secs_f64());
        teardown(stack);
    }
    let _ = std::fs::remove_dir_all(dir);
    let first = &samples[0].exact;
    let mut deterministic = true;
    for (i, sample) in samples.iter().enumerate().skip(1) {
        if sample.exact != *first {
            deterministic = false;
            notes.push(format!(
                "repeat {i} differs from repeat 0: {:?} vs {first:?}",
                sample.exact
            ));
        }
    }
    notes.truncate(16);
    Ok(Window {
        samples,
        setups_s,
        deterministic,
        notes,
    })
}

fn best_low(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn best_high(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Peak resident set of this process in MB (`VmHWM`; 0 where `/proc` has
/// no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.attempted).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().map(|s| s.failed).sum::<u64>() + u64::from(!self.deterministic)
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Best `recover_s` of the window (durable workload only).
    pub fn recover_s(&self) -> Option<f64> {
        let times: Vec<f64> = self.samples.iter().filter_map(|s| s.recover_s).collect();
        (!times.is_empty()).then(|| best_low(&times))
    }

    /// The drive's wall with every segment at its best over the window.
    /// The call stream is identical on every repeat, so segment `k` does
    /// the same work each time; interference only ever adds time, and it
    /// comes and goes within seconds, so a segment's minimum over the
    /// repeats is that work's time on the quiet machine even when no
    /// single repeat ran quiet from end to end.
    pub fn best_wall_s(&self) -> f64 {
        let segments = self.samples[0].segments_s.len();
        if self.samples.iter().any(|s| s.segments_s.len() != segments) {
            // Only a non-deterministic run gets here; it is failed anyway.
            return best_low(&self.per_repeat(|s| s.wall_s));
        }
        (0..segments)
            .map(|k| best_low(&self.per_repeat(|s| s.segments_s[k])))
            .sum()
    }

    fn per_repeat(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    /// The end-to-end metrics, in `metrics::END_TO_END` order.
    pub fn end_to_end(&self) -> Vec<Reading> {
        let exact = &self.samples[0].exact;
        let rate = self.per_repeat(|s| exact.answers as f64 / s.wall_s);
        let allocs = self.per_repeat(|s| s.allocs_per_answer);
        let reading = |name, value, samples| Reading {
            name,
            value,
            samples,
        };
        vec![
            reading("setup_s", best_low(&self.setups_s), self.setups_s.clone()),
            reading(
                "answers_per_s",
                exact.answers as f64 / self.best_wall_s(),
                rate,
            ),
            reading(
                "truth_accuracy",
                exact.graded_correct as f64 / exact.graded_total.max(1) as f64,
                Vec::new(),
            ),
            reading("peak_rss_mb", peak_rss_mb(), Vec::new()),
            reading("allocs_per_answer", median(&allocs), allocs),
        ]
    }
}

impl Reading {
    /// The window's median, best, spread and count beside a reading.
    pub fn diagnostics(&self) -> String {
        if self.samples.len() < 2 {
            return String::new();
        }
        format!(
            "  (window: median {:.4}, min {:.4}, max {:.4}, spread {:.3}, n {})",
            median(&self.samples),
            best_low(&self.samples),
            best_high(&self.samples),
            spread(&self.samples),
            self.samples.len()
        )
    }
}
