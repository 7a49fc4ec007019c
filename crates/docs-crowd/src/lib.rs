//! Simulated crowdsourcing platform — the AMT substitute.
//!
//! The paper evaluates on Amazon Mechanical Turk with live workers; we
//! cannot, so this crate simulates the platform end:
//!
//! * [`WorkerPopulation`] — workers with ground-truth per-domain quality
//!   vectors `q̃^w` drawn from an expert/normal/spammer mixture (matching the
//!   per-domain quality histogram shape of Figure 6(a)),
//! * [`AnswerModel`] — how a worker turns her true quality into an answer;
//!   the default is exactly the model DOCS assumes (correct with probability
//!   `q̃_k`, otherwise uniform over the `ℓ−1` wrong choices, Eq. 4), plus
//!   the three adversarial models (uniform spammer, sleeper, clique) that
//!   [`AdversarialPopulation`]'s classes map to,
//! * [`AssignmentStrategy`] — the protocol every task-assignment method
//!   implements to talk to the platform,
//! * [`Platform`] — the parallel-comparison experiment protocol of
//!   Section 6.1: when a worker arrives, *every* method under comparison
//!   assigns `k` tasks, all answers are collected into per-method logs, and
//!   every method ends with the same number of answers,
//! * [`AdversarialPopulation`] — behavioral classes layered over a
//!   population (uniform spammers, golden-gaming sleepers, colluding
//!   cliques, quality drifters) for the scenario harness's adversarial
//!   workloads, with [`ArrivalProcess::Bursty`] supplying the matching
//!   flash-crowd arrival pattern.

mod behavior;
mod platform;
mod strategy;
mod worker;

pub use behavior::{AdversarialConfig, AdversarialPopulation, WorkerClass};
pub use platform::{
    accuracy_of, try_accuracy_of, ArrivalProcess, ArrivalSampler, ExperimentOutcome, Platform,
    PlatformConfig,
};
pub use strategy::AssignmentStrategy;
pub use worker::{AnswerContext, AnswerModel, PopulationConfig, SimulatedWorker, WorkerPopulation};
