//! Open-loop assignment-latency harness: pull vs push vs hybrid dispatch
//! under Poisson worker arrivals at 100 / 1 000 / 5 000 concurrent workers.
//!
//! ```text
//! cargo bench -p docs-bench --bench open_loop               # full matrix
//! LOAD_SMOKE=1 cargo bench -p docs-bench --bench open_loop  # CI size
//! ```
//!
//! Closed-loop drivers (`service_pipeline`) measure throughput; they cannot
//! see tail latency honestly because a slow response *delays the next
//! request* and the backlog hides itself (coordinated omission). This
//! harness is open-loop: every worker interaction gets a **scheduled**
//! arrival time drawn from an exponential inter-arrival distribution, and
//! every latency is measured from that scheduled instant — if the service
//! (or a saturated client thread) falls behind, the backlog shows up in
//! the percentiles instead of silently stretching the schedule.
//!
//! One interaction = one worker finishing its held HIT: the answer batch is
//! submitted and the *next* assignment is obtained, both measured from the
//! scheduled instant.
//!
//! * **pull** — the batch submission and a `RequestWork` poll are
//!   pipelined back-to-back; per-campaign FIFO guarantees the poll picks
//!   post-submit state, but it waits its own turn in the ingress queue, so
//!   at high worker concurrency every other in-flight worker's requests
//!   can interleave between a worker's submit and its next HIT.
//! * **push** — the worker holds a standing assignment subscription
//!   (parked server-side at its in-flight cap); the submit itself triggers
//!   the dispatch pass that resolves the subscription, so the next HIT
//!   rides the submit's processing with nothing interleaved — the
//!   assignment path never re-enters the queue.
//! * **hybrid** — push with a pull fallback: the client waits a bounded
//!   time on its subscription and falls back to unsubscribe + poll on a
//!   miss (the unsubscribe/poll race against an in-flight dispatch is
//!   resolved by re-checking the subscription ticket, which the server
//!   always settles).
//!
//! Picks stay byte-identical across modes (`tests/dispatch.rs` proves it
//! under proptest); this harness measures *when* the picks arrive.
//! Latencies land in the fixed-footprint log-bucketed
//! [`docs_bench::hist::LatencyHistogram`]; the full run merges
//! p50/p99/p999 assignment and p99 submit latency per cell into
//! `BENCH_latency.json`. The smoke run (`LOAD_SMOKE=1`) prints and
//! asserts a generous p99 assignment bound instead of merging, so CI
//! never writes machine-speed-dependent numbers over the committed
//! trajectory.

use docs_bench::hist::LatencyHistogram;
use docs_service::{
    Client, DispatchMode, DocsService, Op, ServiceConfig, ServiceError, ServiceHandle, Ticket,
    TicketWait,
};
use docs_system::{Docs, DocsConfig, WorkRequest};
use docs_types::{Answer, CampaignId, Task, TaskBuilder, TaskId, WorkerId};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::{Duration, Instant};

/// How long a hybrid client waits on its subscription before the pull
/// fallback. Generous against scheduler noise, far below the smoke bound.
const HYBRID_FALLBACK: Duration = Duration::from_millis(25);

fn smoke() -> bool {
    std::env::var("LOAD_SMOKE").is_ok()
}

/// One matrix cell: worker count, total arrival rate, measured duration.
struct Cell {
    workers: u32,
    arrivals_per_s: f64,
    duration: Duration,
}

fn cells() -> Vec<Cell> {
    if smoke() {
        // The CI cell from the issue: 200 workers for ~5 s.
        vec![Cell {
            workers: 200,
            arrivals_per_s: 600.0,
            duration: Duration::from_secs(5),
        }]
    } else {
        vec![
            Cell {
                workers: 100,
                arrivals_per_s: 600.0,
                duration: Duration::from_secs(4),
            },
            // Same arrival rate for the two big cells: worker concurrency
            // is the experiment's axis, load is held constant across it.
            Cell {
                workers: 1000,
                arrivals_per_s: 2000.0,
                duration: Duration::from_secs(4),
            },
            Cell {
                workers: 5000,
                arrivals_per_s: 2000.0,
                duration: Duration::from_secs(4),
            },
        ]
    }
}

/// An unbounded-budget campaign (`answers_per_task: 0`): the run stays in
/// steady state instead of racing toward budget exhaustion, and a worker
/// only runs dry after answering every task once.
fn publish_campaign() -> Docs {
    let kb = docs_kb::table2_example_kb();
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    let tasks: Vec<Task> = (0..160)
        .map(|i| {
            TaskBuilder::new(i, format!("Is {} great? ({i})", subjects[i % 3]))
                .yes_no()
                .with_ground_truth(i % 2)
                .with_true_domain(1)
                .build()
                .unwrap()
        })
        .collect();
    Docs::publish(
        &kb,
        tasks,
        DocsConfig {
            num_golden: 4,
            k_per_hit: 2,
            answers_per_task: 0,
            z: 50,
            task_shards: 2,
            ..Default::default()
        },
    )
    .expect("publish open-loop campaign")
}

fn mode_name(mode: DispatchMode) -> &'static str {
    match mode {
        DispatchMode::Pull => "pull",
        DispatchMode::Push => "push",
        DispatchMode::Hybrid => "hybrid",
    }
}

/// The deterministic answer a worker gives a task (same rule as the
/// replication bench: a worker-dependent half of each HIT is "yes").
fn answers_for(worker: WorkerId, hit: &[TaskId]) -> Vec<Answer> {
    hit.iter()
        .map(|&t| Answer::new(worker, t, (t.index() + worker.0 as usize) % 2))
        .collect()
}

/// One simulated worker's client-side state.
struct Worker {
    id: WorkerId,
    /// The HIT currently held (answered at the next scheduled arrival).
    hit: Vec<TaskId>,
    /// The standing assignment subscription (push/hybrid; parked
    /// server-side while the worker is at its in-flight cap).
    standing: Option<Ticket<WorkRequest>>,
}

/// What one load-generator thread measured.
#[derive(Default)]
struct ThreadReport {
    assign: Option<LatencyHistogram>,
    submit: Option<LatencyHistogram>,
    cycles: u64,
    fallbacks: u64,
    retired: u64,
}

/// Aggregated cell result.
struct CellResult {
    assign: LatencyHistogram,
    submit: LatencyHistogram,
    cycles: u64,
    fallbacks: u64,
    retired: u64,
    dispatched_tasks: u64,
}

/// Golden bootstrap + first HIT + (push/hybrid) the standing subscription,
/// all before the clock starts.
fn prime_worker(
    handle: &ServiceHandle,
    campaign: CampaignId,
    mode: DispatchMode,
    id: WorkerId,
) -> Worker {
    let golden = match handle
        .call(Op::request_tasks(campaign, id))
        .expect("golden req")
    {
        WorkRequest::Golden(g) => g,
        other => panic!("fresh worker got {other:?}"),
    };
    let picks: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
    handle
        .call(Op::submit_golden(campaign, id, picks))
        .expect("golden submit");
    let hit = match mode {
        DispatchMode::Pull => handle
            .call(Op::request_tasks(campaign, id))
            .expect("first hit"),
        // A subscribe below the in-flight cap serves immediately — and
        // leases, so the standing subscription issued next parks.
        DispatchMode::Push | DispatchMode::Hybrid => handle
            .submit(Op::subscribe(campaign, id))
            .expect("first subscribe")
            .wait()
            .expect("first pushed hit"),
    };
    let hit = match hit {
        WorkRequest::Tasks(hit) => hit,
        other => panic!("primed worker got {other:?}"),
    };
    let standing = match mode {
        DispatchMode::Pull => None,
        DispatchMode::Push | DispatchMode::Hybrid => Some(
            handle
                .submit(Op::subscribe(campaign, id))
                .expect("standing subscribe"),
        ),
    };
    Worker { id, hit, standing }
}

/// Resolves one cycle's next assignment for a push/hybrid worker whose
/// submit is already on the wire. Returns the work, whether it arrived
/// through the subscription (and is therefore leased server-side), and
/// whether the pull fallback fired.
fn next_assignment_pushed(
    handle: &ServiceHandle,
    campaign: CampaignId,
    mode: DispatchMode,
    worker: &mut Worker,
) -> (Result<WorkRequest, ServiceError>, bool, bool) {
    let Some(standing) = worker.standing.take() else {
        // Re-establishing after a fallback: the fresh subscription is
        // queued *behind* this cycle's submit, so it serves immediately
        // with the post-submit pick — and leases it.
        let ticket = match handle.submit(Op::subscribe(campaign, worker.id)) {
            Ok(t) => t,
            Err(e) => return (Err(e), false, false),
        };
        return (ticket.wait(), true, false);
    };
    if mode == DispatchMode::Push {
        // The submit's dispatch pass resolves the parked subscription;
        // the assignment never re-enters the ingress queue.
        return (standing.wait(), true, false);
    }
    // Hybrid: bounded wait, then unsubscribe + poll. The unsubscribe races
    // an in-flight dispatch (FIFO: our submit — whose pass may resolve the
    // subscription — processes first), so the ticket is re-checked: the
    // server always settles it, either with pushed work or with the
    // unsubscribe's `Done`.
    match standing.wait_timeout(HYBRID_FALLBACK) {
        TicketWait::Ready(work) => (work, true, false),
        TicketWait::Pending(ticket) => {
            if let Err(e) = handle.call(Op::unsubscribe(campaign, worker.id)) {
                return (Err(e), false, false);
            }
            match ticket.wait() {
                Ok(WorkRequest::Done) => {
                    // True subscription miss: fall back to a plain poll
                    // (unleased — the next standing subscribe is deferred
                    // to ride behind the next submit, so it cannot
                    // double-pick the poll's HIT).
                    (
                        handle.call(Op::request_tasks(campaign, worker.id)),
                        false,
                        true,
                    )
                }
                work => (work, true, true),
            }
        }
    }
}

/// Runs one load-generator thread: a Poisson arrival schedule over its
/// share of the workers, latencies measured from each *scheduled* arrival.
#[allow(clippy::too_many_arguments)]
fn generator_thread(
    handle: ServiceHandle,
    campaign: CampaignId,
    mode: DispatchMode,
    mut workers: Vec<Worker>,
    rate_per_s: f64,
    start: Instant,
    deadline: Instant,
    seed: u64,
) -> ThreadReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut assign = LatencyHistogram::new();
    let mut submit = LatencyHistogram::new();
    let mut report = ThreadReport::default();
    let mean_gap = 1.0 / rate_per_s;
    let mut scheduled = start;
    let mut next = 0usize;
    while !workers.is_empty() {
        // Exponential inter-arrival gap: a Poisson process on this thread.
        let gap = -mean_gap * (1.0 - rng.next_f64()).ln();
        scheduled += Duration::from_secs_f64(gap);
        if scheduled >= deadline {
            break;
        }
        // Open loop: sleep until the scheduled instant if we are ahead;
        // if we are behind, do NOT stretch the schedule — the backlog is
        // charged to the measured latencies below.
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        next = if next >= workers.len() { 0 } else { next };
        let worker = &mut workers[next];
        let batch = answers_for(worker.id, &worker.hit);
        let submit_ticket = handle
            .submit(Op::submit_answer_batch(campaign, batch))
            .expect("submit batch");
        let (work, leased, fell_back) = match mode {
            DispatchMode::Pull => {
                // Pipelined poll: picks post-submit state (FIFO), but
                // waits its own turn in the ingress queue.
                let ticket = handle
                    .submit(Op::request_tasks(campaign, worker.id))
                    .expect("poll");
                (ticket.wait(), false, false)
            }
            DispatchMode::Push | DispatchMode::Hybrid => {
                next_assignment_pushed(&handle, campaign, mode, worker)
            }
        };
        assign.record(scheduled.elapsed());
        let outcome = submit_ticket.wait().expect("batch outcome");
        submit.record(scheduled.elapsed());
        assert!(
            outcome.rejected.is_empty(),
            "an open-loop batch was partially refused: {:?}",
            outcome.rejected
        );
        report.cycles += 1;
        report.fallbacks += fell_back as u64;
        match work.expect("assignment") {
            WorkRequest::Tasks(hit) => {
                worker.hit = hit;
                if leased {
                    worker.standing = Some(
                        handle
                            .submit(Op::subscribe(campaign, worker.id))
                            .expect("standing subscribe"),
                    );
                }
                next += 1;
            }
            // The worker answered every task it can: retire it.
            WorkRequest::Done => {
                workers.swap_remove(next);
                report.retired += 1;
            }
            WorkRequest::Golden(_) => unreachable!("primed workers are known"),
        }
    }
    report.assign = Some(assign);
    report.submit = Some(submit);
    report
}

/// Runs one (mode, cell) combination end to end.
fn run_cell(mode: DispatchMode, cell: &Cell) -> CellResult {
    let config = ServiceConfig::sharded(1).with_dispatch(mode);
    let (service, handle) = DocsService::spawn_sharded(publish_campaign(), config);
    let campaign = handle.default_campaign();

    let threads = 8.min(cell.workers as usize);
    let mut partitions: Vec<Vec<Worker>> = (0..threads).map(|_| Vec::new()).collect();
    for w in 0..cell.workers {
        let worker = prime_worker(&handle, campaign, mode, WorkerId(w));
        partitions[w as usize % threads].push(worker);
    }

    let start = Instant::now();
    let deadline = start + cell.duration;
    let rate_per_thread = cell.arrivals_per_s / threads as f64;
    let cell_workers = cell.workers;
    let joins: Vec<_> = partitions
        .into_iter()
        .enumerate()
        .map(|(i, workers)| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                generator_thread(
                    handle,
                    campaign,
                    mode,
                    workers,
                    rate_per_thread,
                    start,
                    deadline,
                    0x0DEA_D0C5 ^ ((i as u64) << 17) ^ cell_workers as u64,
                )
            })
        })
        .collect();

    let mut assign = LatencyHistogram::new();
    let mut submit = LatencyHistogram::new();
    let mut result = CellResult {
        assign: LatencyHistogram::new(),
        submit: LatencyHistogram::new(),
        cycles: 0,
        fallbacks: 0,
        retired: 0,
        dispatched_tasks: 0,
    };
    for join in joins {
        let report = join.join().expect("generator thread panicked");
        assign.merge(report.assign.as_ref().unwrap());
        submit.merge(report.submit.as_ref().unwrap());
        result.cycles += report.cycles;
        result.fallbacks += report.fallbacks;
        result.retired += report.retired;
    }
    result.assign = assign;
    result.submit = submit;
    result.dispatched_tasks = handle.metrics().shard(0).dispatched_tasks;
    drop(handle);
    let _ = service.join_all();
    result
}

fn main() {
    println!(
        "open_loop: Poisson arrivals, latency from *scheduled* arrival time \
         (smoke={}, hybrid fallback {:?})\n",
        smoke(),
        HYBRID_FALLBACK
    );

    let mut merged: Vec<(String, f64)> = Vec::new();
    // pull p99 per worker count, for the speedup summary keys.
    let mut pull_p99: Vec<(u32, f64)> = Vec::new();

    // Best-of-N alternating repeats, the same noise-resistant estimator as
    // the `service_pipeline` bench: on a loaded (or single-core) runner a
    // scheduler hiccup lands directly in a single run's tail, so each
    // mode's reported run is the repeat with the lowest p99 assignment
    // latency, with modes alternated so drift hits them evenly.
    let repeats = if smoke() { 1 } else { 3 };

    for cell in cells() {
        println!(
            "— {} workers, {:.0} arrivals/s for {:?} (best of {repeats}) —",
            cell.workers, cell.arrivals_per_s, cell.duration
        );
        let mut best: [Option<CellResult>; 3] = [None, None, None];
        for _ in 0..repeats {
            for (slot, mode) in [DispatchMode::Pull, DispatchMode::Push, DispatchMode::Hybrid]
                .into_iter()
                .enumerate()
            {
                let run = run_cell(mode, &cell);
                if best[slot]
                    .as_ref()
                    .is_none_or(|b| run.assign.quantile(0.99) < b.assign.quantile(0.99))
                {
                    best[slot] = Some(run);
                }
            }
        }
        for (slot, mode) in [DispatchMode::Pull, DispatchMode::Push, DispatchMode::Hybrid]
            .into_iter()
            .enumerate()
        {
            let r = best[slot].take().expect("cell ran");
            let name = mode_name(mode);
            let (p50, p99, p999) = (
                r.assign.quantile_ms(0.50),
                r.assign.quantile_ms(0.99),
                r.assign.quantile_ms(0.999),
            );
            println!(
                "{name:>7}: assign p50 {p50:.3} ms  p99 {p99:.3} ms  p999 {p999:.3} ms  \
                 | submit p99 {:.3} ms  | {} cycles, {} pushed tasks, \
                 {} fallbacks, {} retired",
                r.submit.quantile_ms(0.99),
                r.cycles,
                r.dispatched_tasks,
                r.fallbacks,
                r.retired,
            );
            assert!(r.cycles > 0, "{name}: the load generator never ran");
            if smoke() {
                // The CI gate: generous against shared-runner noise, tight
                // enough to catch an assignment path that re-queues or
                // leaks (which lands in seconds, not milliseconds).
                assert!(
                    p99 < 250.0,
                    "{name}: smoke p99 assignment latency {p99:.1} ms ≥ 250 ms"
                );
            } else {
                let prefix = format!("openloop_{name}_w{}", cell.workers);
                merged.push((format!("{prefix}_assign_p50_ms"), p50));
                merged.push((format!("{prefix}_assign_p99_ms"), p99));
                merged.push((format!("{prefix}_assign_p999_ms"), p999));
                merged.push((
                    format!("{prefix}_submit_p99_ms"),
                    r.submit.quantile_ms(0.99),
                ));
                if mode == DispatchMode::Pull {
                    pull_p99.push((cell.workers, p99));
                } else if let Some(&(_, pull)) = pull_p99.iter().find(|(w, _)| *w == cell.workers) {
                    merged.push((
                        format!("openloop_{name}_p99_assign_speedup_w{}", cell.workers),
                        pull / p99.max(1e-9),
                    ));
                }
            }
        }
        println!();
    }

    if !merged.is_empty() {
        docs_bench::merge_bench_json("BENCH_latency.json", &merged);
    }
}
