//! Concurrent crowd driver: runs a simulated worker population against a
//! live `docs_service::DocsService` from many client threads at once.
//!
//! On AMT the workers are independent humans hitting the web server in
//! parallel; the single-threaded [`run_campaign`](crate::run_campaign) loop
//! cannot exercise that. [`drive_workers_on`] shards the population across
//! `threads` OS threads, each of which repeatedly: picks one of its workers,
//! requests work, answers the golden HIT on first contact, answers and
//! submits assigned tasks, and stops once the service reports the budget
//! consumed.
//!
//! The driver **pipelines**: each client thread submits a HIT's answers as
//! a ticket and immediately puts the *next* work request on the wire,
//! harvesting the submission ack only after the next assignment arrives.
//! The owning shard serves one client's operations strictly in submission
//! order, so the request stream (and therefore every truth) is
//! byte-identical to the blocking driver's — only the idle client-side
//! round-trip gaps disappear. [`drive_workers_blocking_on`] keeps the
//! strict request/response loop as the byte-identity reference the
//! pipelined driver is tested against.

use docs_crowd::{AnswerModel, WorkerPopulation};
use docs_service::{BatchOutcome, Op, ServiceError, ServiceHandle, Ticket};
use docs_system::WorkRequest;
use docs_types::{Answer, CampaignId, Task, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-thread outcome of a drive run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Task-request round-trips made.
    pub arrivals: usize,
    /// Golden HITs submitted (one per first-time worker).
    pub golden_hits: usize,
    /// Ordinary answers successfully submitted.
    pub answers: usize,
    /// Submissions the service rejected (e.g. duplicate answers when the
    /// same worker raced on two HITs).
    pub rejected: usize,
}

/// Aggregate report of a drive run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Per-thread outcomes, indexed by thread.
    pub per_thread: Vec<DriveOutcome>,
}

impl DriveReport {
    /// Total answers submitted across threads.
    pub fn total_answers(&self) -> usize {
        self.per_thread.iter().map(|o| o.answers).sum()
    }
}

/// How a drive's client threads interact with the service.
#[derive(Clone, Copy)]
enum DriveMode {
    /// Submit a HIT's answers, then put the next work request on the wire
    /// before harvesting the ack — two operations in flight per client.
    Pipelined,
    /// One synchronous round-trip at a time (the seed architecture).
    Blocking,
}

/// Drives `population` against one campaign from `threads` parallel client
/// threads until every thread observes [`WorkRequest::Done`], pipelining
/// each client's next request behind its in-flight submission. Several
/// campaigns can be driven concurrently from independent thread pools;
/// each campaign's request stream stays deterministic for a given `seed`
/// because campaigns share no state.
///
/// Workers are sharded round-robin across threads (worker `w` lives on
/// thread `w % threads`), so a given worker identity never races with
/// itself; different workers still interleave arbitrarily at the service,
/// which is the concurrency the deployment sees.
///
/// `tasks` must be the campaign's published task list (ids align by
/// index); the simulated workers need the ground truth and true domain it
/// carries.
///
/// Returns the first [`ServiceError`] a client thread could not absorb
/// (rejections are absorbed into the report; disconnects are not).
///
/// # Panics
/// Panics if `threads` is zero or the population is empty.
pub fn drive_workers_on(
    client: &ServiceHandle,
    campaign: CampaignId,
    tasks: Arc<Vec<Task>>,
    population: &WorkerPopulation,
    model: AnswerModel,
    threads: usize,
    seed: u64,
) -> Result<DriveReport, ServiceError> {
    run_drive(
        client,
        campaign,
        tasks,
        population,
        model,
        threads,
        seed,
        DriveMode::Pipelined,
    )
}

/// The strict request/response driver: every operation is one synchronous
/// round-trip, exactly like the paper's HTTP clients. Kept as the
/// reference the pipelined driver is measured — and pinned byte-identical
/// — against.
pub fn drive_workers_blocking_on(
    client: &ServiceHandle,
    campaign: CampaignId,
    tasks: Arc<Vec<Task>>,
    population: &WorkerPopulation,
    model: AnswerModel,
    threads: usize,
    seed: u64,
) -> Result<DriveReport, ServiceError> {
    run_drive(
        client,
        campaign,
        tasks,
        population,
        model,
        threads,
        seed,
        DriveMode::Blocking,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_drive(
    client: &ServiceHandle,
    campaign: CampaignId,
    tasks: Arc<Vec<Task>>,
    population: &WorkerPopulation,
    model: AnswerModel,
    threads: usize,
    seed: u64,
    mode: DriveMode,
) -> Result<DriveReport, ServiceError> {
    assert!(threads >= 1, "need at least one client thread");
    assert!(!population.is_empty(), "need at least one worker");
    let population = Arc::new(population.clone());

    let joins: Vec<_> = (0..threads)
        .map(|shard| {
            let client = client.clone();
            let tasks = Arc::clone(&tasks);
            let population = Arc::clone(&population);
            std::thread::Builder::new()
                .name(format!("crowd-client-{campaign}-{shard}"))
                .spawn(move || {
                    drive_shard(
                        &client,
                        campaign,
                        &tasks,
                        &population,
                        model,
                        shard,
                        threads,
                        seed,
                        mode,
                    )
                })
                .expect("spawn crowd client thread")
        })
        .collect();

    let mut report = DriveReport::default();
    let mut first_error = None;
    for join in joins {
        match join.join().expect("crowd client thread panicked") {
            Ok(outcome) => report.per_thread.push(outcome),
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// A submission whose ack is still in flight, with what its settlement
/// contributes to the drive accounting.
enum PendingAck {
    /// A golden HIT; counts one golden submission when acked.
    Golden(Ticket<()>),
    /// A batch of `len` answers; counts per-answer outcomes.
    Batch {
        ticket: Ticket<BatchOutcome>,
        len: usize,
    },
}

/// Harvests a pending ack into the outcome. Ordinary rejections are
/// absorbed (they are per-worker races, exactly what the deployment
/// sees); anything else aborts the drive.
fn settle(
    pending: &mut Option<PendingAck>,
    outcome: &mut DriveOutcome,
) -> Result<(), ServiceError> {
    match pending.take() {
        None => {}
        Some(PendingAck::Golden(ticket)) => match ticket.wait() {
            Ok(()) => outcome.golden_hits += 1,
            Err(ServiceError::Rejected(_)) => outcome.rejected += 1,
            Err(e) => return Err(e),
        },
        Some(PendingAck::Batch { ticket, len }) => match ticket.wait() {
            Ok(batch) => {
                outcome.answers += batch.accepted;
                outcome.rejected += batch.rejected.len();
            }
            Err(ServiceError::Rejected(_)) => outcome.rejected += len,
            Err(e) => return Err(e),
        },
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn drive_shard(
    client: &ServiceHandle,
    campaign: CampaignId,
    tasks: &[Task],
    population: &WorkerPopulation,
    model: AnswerModel,
    shard: usize,
    threads: usize,
    seed: u64,
    mode: DriveMode,
) -> Result<DriveOutcome, ServiceError> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9));
    let my_workers: Vec<WorkerId> = (0..population.len())
        .filter(|w| w % threads == shard)
        .map(WorkerId::from)
        .collect();
    let mut outcome = DriveOutcome::default();
    if my_workers.is_empty() {
        return Ok(outcome);
    }
    // A generous guard so a logic bug cannot spin forever.
    let max_arrivals = tasks.len() * 400 / threads + 200;

    // The pipeline state: at most one submission ack in flight. The next
    // work request is enqueued *behind* the submission on the owning
    // shard's FIFO queue, so by the time its assignment arrives, the ack
    // is guaranteed to be sitting in its completion slot — harvesting it
    // then costs nothing and the request stream the shard sees is
    // byte-identical to the blocking driver's.
    let mut pending: Option<PendingAck> = None;
    while outcome.arrivals < max_arrivals {
        outcome.arrivals += 1;
        let w = my_workers[rng.gen_range(0..my_workers.len())];
        let work = client.call(Op::request_tasks(campaign, w))?;
        settle(&mut pending, &mut outcome)?;
        match work {
            WorkRequest::Golden(golden) => {
                let worker = population.worker(w);
                let answers: Vec<_> = golden
                    .iter()
                    .map(|&gid| (gid, worker.answer(&tasks[gid.index()], model, &mut rng)))
                    .collect();
                let op = Op::submit_golden(campaign, w, answers);
                pending = Some(PendingAck::Golden(client.submit(op)?));
            }
            WorkRequest::Tasks(hit) => {
                // The whole HIT goes back in one batched round-trip — the
                // deployment's submit path. Per-answer acceptance matches
                // individual submissions exactly (same validation, same
                // order), so the drive's accounting is unchanged.
                let worker = population.worker(w);
                let answers: Vec<Answer> = hit
                    .iter()
                    .map(|&tid| {
                        let choice = worker.answer(&tasks[tid.index()], model, &mut rng);
                        Answer::new(w, tid, choice)
                    })
                    .collect();
                let len = answers.len();
                let op = Op::submit_answer_batch(campaign, answers);
                pending = Some(PendingAck::Batch {
                    ticket: client.submit(op)?,
                    len,
                });
            }
            WorkRequest::Done => break,
        }
        if matches!(mode, DriveMode::Blocking) {
            // Strict request/response: the ack rendezvous happens before
            // the next arrival, like the paper's HTTP clients.
            settle(&mut pending, &mut outcome)?;
        }
    }
    settle(&mut pending, &mut outcome)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_crowd::PopulationConfig;
    use docs_kb::table2_example_kb;
    use docs_service::{DocsService, ServiceConfig};
    use docs_system::{Docs, DocsConfig};
    use docs_types::TaskBuilder;

    /// A one-shard pool serving one published `n`-task campaign.
    fn publish(
        n: usize,
        answers_per_task: usize,
    ) -> (DocsService, ServiceHandle, CampaignId, Arc<Vec<Task>>) {
        let kb = table2_example_kb();
        let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("Is {} great?", subjects[i % 3]))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(1)
                    .build()
                    .unwrap()
            })
            .collect();
        let config = DocsConfig {
            num_golden: 3,
            k_per_hit: 4,
            answers_per_task,
            z: 25,
            ..Default::default()
        };
        let docs = Docs::publish(&kb, tasks, config).unwrap();
        let published = Arc::new(docs.tasks().to_vec());
        let (service, handle) = DocsService::spawn_empty(ServiceConfig::default()).unwrap();
        let c = handle.create_campaign(docs).unwrap();
        (service, handle, c, published)
    }

    fn population(workers: usize) -> WorkerPopulation {
        WorkerPopulation::generate(&PopulationConfig {
            m: 3,
            size: workers,
            seed: 42,
            ..Default::default()
        })
    }

    #[test]
    fn concurrent_drive_consumes_the_budget() {
        let (service, handle, c, tasks) = publish(24, 4);
        let pop = population(12);
        let report =
            drive_workers_on(&handle, c, tasks, &pop, AnswerModel::DomainUniform, 4, 7).unwrap();
        // Budget is answers_per_task × n; the drive must reach it (golden
        // answers are accounted separately).
        assert!(
            report.total_answers() >= 24 * 4,
            "collected {} answers",
            report.total_answers()
        );
        assert!(report.per_thread.iter().any(|o| o.golden_hits >= 1));
        let final_report = handle.call(Op::finish(c)).unwrap();
        assert_eq!(final_report.truths.len(), 24);
        assert!(final_report.answers_collected >= 24 * 4);
        drop(handle);
        service.join_all();
    }

    #[test]
    fn single_thread_drive_matches_protocol() {
        let workers = 6;
        let (service, handle, c, tasks) = publish(12, 2);
        let pop = population(workers);
        let report =
            drive_workers_on(&handle, c, tasks, &pop, AnswerModel::DomainUniform, 1, 9).unwrap();
        assert_eq!(report.per_thread.len(), 1);
        assert!(report.total_answers() >= 12 * 2);
        // One golden HIT per *first-time* worker: at least one worker
        // participated, and no worker can pass the golden gate twice, so
        // the count is bounded by the population size.
        let golden = report.per_thread[0].golden_hits;
        assert!(golden >= 1, "somebody passed the golden gate");
        assert!(
            golden <= workers,
            "{golden} golden HITs from a population of {workers}"
        );
        drop(handle);
        service.join_all();
    }

    #[test]
    fn more_threads_than_workers_is_fine() {
        let (service, handle, c, tasks) = publish(8, 2);
        let pop = population(2);
        let report =
            drive_workers_on(&handle, c, tasks, &pop, AnswerModel::DomainUniform, 6, 11).unwrap();
        let rejected: usize = report.per_thread.iter().map(|o| o.rejected).sum();
        assert!(report.total_answers() >= 8 * 2 || rejected > 0);
        drop(handle);
        service.join_all();
    }

    /// The pipelining invariant at the driver level: a single-client drive
    /// produces the *same* per-thread accounting and the same final truths
    /// whether the acks are harvested synchronously or pipelined — the
    /// shard sees one identical request stream either way.
    #[test]
    fn pipelined_drive_is_byte_identical_to_blocking_drive() {
        let run = |blocking: bool| {
            let (service, handle, c, tasks) = publish(15, 3);
            let pop = population(5);
            let report = if blocking {
                drive_workers_blocking_on(
                    &handle,
                    c,
                    tasks,
                    &pop,
                    AnswerModel::DomainUniform,
                    1,
                    0xAB,
                )
            } else {
                drive_workers_on(&handle, c, tasks, &pop, AnswerModel::DomainUniform, 1, 0xAB)
            }
            .unwrap();
            let final_report = handle.call(Op::finish(c)).unwrap();
            drop(handle);
            service.join_all();
            (
                report,
                final_report.truths,
                final_report.truth_distributions,
            )
        };
        let (blocking_report, blocking_truths, blocking_dists) = run(true);
        let (pipelined_report, pipelined_truths, pipelined_dists) = run(false);
        assert_eq!(
            pipelined_report, blocking_report,
            "drive accounting diverged"
        );
        assert_eq!(pipelined_truths, blocking_truths, "truths diverged");
        assert_eq!(pipelined_dists, blocking_dists, "distributions diverged");
    }
}
