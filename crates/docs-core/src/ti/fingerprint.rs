//! Output fingerprints of the inference kernels: FNV-1a hashes of the
//! `to_bits()` of every `s`, `H(s)`, truth, worker quality and weight, and
//! Δ that full inference and the incremental stream produce, compared with
//! committed values.
//!
//! The oracle proptests (`ti/oracle.rs`) hold the kernels to the dense
//! loop; this holds both paths to what they computed when the values were
//! recorded, so a change that moves every path the same way — a weight
//! that comes out `-0.0`, a reordered sum — fails here. A change that is
//! *meant* to move outputs regenerates the table in the same diff, with
//! the reason.

use super::oracle::{campaign, Sparsity};
use super::state::{clamp_quality, miss_likelihood, RESCALE_BELOW};
use super::{IncrementalTi, TruthInference, WorkerRegistry, WorkerStats};
use crate::ota::{Assigner, AssignerConfig, ScanScratch};
use docs_types::{
    codec, Answer, AnswerLog, ChoiceIndex, DomainVector, Task, TaskBuilder, TaskId, WorkerId,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// `s`, `H(s)` and truths of the engine's states, then every tracked
/// worker's quality and weight in id order.
fn hash_engine(h: &mut Fnv, engine: &IncrementalTi) {
    for state in engine.states().iter() {
        h.floats(state.s());
        h.word(state.entropy().to_bits());
    }
    for truth in engine.truths() {
        h.word(truth as u64);
    }
    let mut workers: Vec<(WorkerId, &WorkerStats)> = engine.registry().iter().collect();
    workers.sort_unstable_by_key(|&(w, _)| w);
    for (w, stats) in workers {
        h.word(w.0 as u64);
        h.floats(&stats.quality);
        h.floats(&stats.weight);
    }
}

/// Standalone full inference: states, truths, qualities (id order), Δ.
fn run_fingerprint(tasks: &[Task], log: &AnswerLog, registry: &WorkerRegistry) -> u64 {
    let result = TruthInference::default().run(tasks, log, registry);
    let mut h = Fnv::new();
    for state in result.states.iter() {
        h.floats(state.s());
        h.word(state.entropy().to_bits());
    }
    for &truth in &result.truths {
        h.word(truth as u64);
    }
    let mut workers: Vec<_> = result.qualities.iter().collect();
    workers.sort_unstable_by_key(|&(w, _)| *w);
    for (w, q) in workers {
        h.word(w.0 as u64);
        h.floats(q);
    }
    h.floats(&result.deltas);
    h.0
}

/// The log replayed through an [`IncrementalTi`] that runs full inference
/// every `z` submissions (so periodic full runs fire mid-stream),
/// round-robin over the tasks, through a codec snapshot → restore halfway;
/// hashed after the stream, then after one more explicit full run together
/// with that run's Δ.
fn stream_fingerprint(
    tasks: Vec<Task>,
    log: &AnswerLog,
    registry: WorkerRegistry,
    z: usize,
) -> u64 {
    let stream = round_robin(log);
    let half = stream.len() / 2;
    let mut engine = IncrementalTi::new(tasks, registry, z);
    for &answer in &stream[..half] {
        engine.submit(answer).expect("the campaign's own answers");
    }
    let bytes = codec::to_bytes(&engine.snapshot());
    let mut engine = IncrementalTi::restore(codec::from_bytes(&bytes).expect("own snapshot"))
        .expect("own snapshot restores");
    for &answer in &stream[half..] {
        engine.submit(answer).expect("the campaign's own answers");
    }
    let mut h = Fnv::new();
    hash_engine(&mut h, &engine);
    let deltas = engine.run_full();
    h.floats(deltas);
    hash_engine(&mut h, &engine);
    h.0
}

/// The log's answers round-robin over the tasks: every task's first answer,
/// then every task's second, and so on.
fn round_robin(log: &AnswerLog) -> Vec<Answer> {
    let mut stream: Vec<(usize, Answer)> = log
        .iter_tasks()
        .flat_map(|(task, votes)| {
            let answers = votes
                .iter()
                .map(move |&(w, choice)| Answer::new(w, task, choice));
            answers.enumerate()
        })
        .collect();
    stream.sort_by_key(|&(at, a)| (at, a.task));
    stream.into_iter().map(|(_, answer)| answer).collect()
}

/// One task in domain 0 of 2, answered by a worker whose stored weight in
/// the untouched domain 1 is `-0.0`: a full run must store `+0.0` there,
/// as `û + Σ r_k` over every domain always did.
fn negative_zero_weight() -> (Vec<Task>, AnswerLog, WorkerRegistry) {
    let task = TaskBuilder::new(0usize, "t")
        .yes_no()
        .with_domain_vector(DomainVector::one_hot(2, 0))
        .build()
        .expect("valid task");
    let mut log = AnswerLog::new(1);
    log.record(Answer::new(WorkerId(4), TaskId(0), 1))
        .expect("first answer");
    let mut registry = WorkerRegistry::new(2, 0.7);
    registry.put(
        WorkerId(4),
        WorkerStats {
            quality: vec![0.6, -0.0],
            weight: vec![1.0, -0.0],
        },
    );
    (vec![task], log, registry)
}

/// The paper's deployment shape (Section 6): yes/no tasks over 26 domains,
/// each task's domain vector on one or two of them, 8–12 answers per task
/// from workers graded on golden tasks (Section 5.2), and one last task
/// answered by [`BIG`] golden-graded workers. Every row of that task's
/// likelihood product falls below the rescale threshold (see
/// [`the_paper_shaped_case_reaches_the_rescale_fallback`]), so full
/// inference rebuilds it through the rescale fallback.
fn paper_shaped() -> (Vec<Task>, AnswerLog, WorkerRegistry) {
    const M: usize = 26;
    const N: usize = 300;
    const WORKERS: usize = 60;
    const GOLDEN: usize = 20;
    let mut rng = SmallRng::seed_from_u64(26);
    let domain_vector = |rng: &mut SmallRng| {
        let k = rng.gen_range(0..M);
        if rng.gen_range(0..3) == 0 {
            return DomainVector::one_hot(M, k);
        }
        let mut w = vec![0.0; M];
        w[k] = rng.gen_range(0.5..1.0);
        w[(k + rng.gen_range(1..M)) % M] = rng.gen_range(0.05..0.5);
        DomainVector::from_weights(&w).expect("non-negative weights")
    };
    // The domain a task is mostly about: its answers follow the worker's
    // quality there.
    let main_domain = |r: &DomainVector| {
        let best = r.support().max_by(|a, b| a.1.total_cmp(&b.1));
        best.expect("a non-empty support").0
    };
    let tasks: Vec<Task> = (0..=N)
        .map(|i| {
            // The big task spans two domains, so both of its rows rescale.
            let r = if i < N {
                domain_vector(&mut rng)
            } else {
                let mut w = vec![0.0; M];
                (w[3], w[17]) = (0.7, 0.3);
                DomainVector::from_weights(&w).expect("non-negative weights")
            };
            TaskBuilder::new(i, format!("t{i}"))
                .yes_no()
                .with_ground_truth(rng.gen_range(0..2usize))
                .with_domain_vector(r)
                .build()
                .expect("valid task")
        })
        .collect();
    // Sparse ids, so the dense index is not the id itself; the big task's
    // answerers come after the regular crowd.
    let id = |w: usize| WorkerId::from(2 * w + 5);
    let num_workers = WORKERS + BIG;
    let true_quality: Vec<Vec<f64>> = (0..num_workers)
        .map(|_| (0..M).map(|_| rng.gen_range(0.5..0.95)).collect())
        .collect();
    let answer = |rng: &mut SmallRng, w: usize, truth: ChoiceIndex, k: usize| {
        if rng.gen_range(0.0..1.0) < true_quality[w][k] {
            truth
        } else {
            1 - truth
        }
    };

    let mut stream = Vec::new();
    let mut crowd: Vec<usize> = (0..WORKERS).collect();
    for task in &tasks[..N] {
        let (truth, k) = (
            task.ground_truth.unwrap(),
            main_domain(task.domain_vector()),
        );
        crowd.shuffle(&mut rng);
        for &w in &crowd[..rng.gen_range(8..=12usize)] {
            stream.push(Answer::new(id(w), task.id, answer(&mut rng, w, truth, k)));
        }
    }
    let big = &tasks[N];
    let (truth, k) = (big.ground_truth.unwrap(), main_domain(big.domain_vector()));
    for w in WORKERS..num_workers {
        stream.push(Answer::new(id(w), big.id, answer(&mut rng, w, truth, k)));
    }
    stream.shuffle(&mut rng);
    let mut log = AnswerLog::new(tasks.len());
    for a in stream {
        log.record(a).expect("one answer per (task, worker)");
    }

    // Regular workers are graded on 5 of `GOLDEN` golden tasks; the big
    // task's answerers on 10 golden tasks of its own domain vector, which
    // keeps their qualities there moderate through Step 2 (Theorem 1's
    // stored weight), so its products stay small.
    let mut golden: Vec<(DomainVector, ChoiceIndex)> = (0..GOLDEN)
        .map(|_| (domain_vector(&mut rng), rng.gen_range(0..2usize)))
        .collect();
    golden.extend((0..10).map(|_| (big.domain_vector().clone(), rng.gen_range(0..2usize))));
    let mut registry = WorkerRegistry::new(M, 0.7);
    let mut picks: Vec<usize> = (0..GOLDEN).collect();
    for w in 0..num_workers {
        picks.shuffle(&mut rng);
        let graded_on = if w < WORKERS {
            picks[..5].to_vec()
        } else {
            (GOLDEN..golden.len()).collect()
        };
        let given: Vec<(TaskId, ChoiceIndex)> = graded_on
            .into_iter()
            .map(|g| {
                let (r, truth) = &golden[g];
                (TaskId::from(g), answer(&mut rng, w, *truth, main_domain(r)))
            })
            .collect();
        registry.init_from_golden(id(w), &given, |t| golden[t.index()].clone(), 1.0);
    }
    (tasks, log, registry)
}

/// How many workers answer the last task of [`paper_shaped`].
const BIG: usize = 760;

/// Every support row of the big task's plain likelihood product ends below
/// the rescale threshold at the converged qualities, so at least the run's
/// last Step 1 rebuilds it through the fallback.
#[test]
fn the_paper_shaped_case_reaches_the_rescale_fallback() {
    let (tasks, log, registry) = paper_shaped();
    let result = TruthInference::default().run(&tasks, &log, &registry);
    let big = tasks.last().expect("the big task");
    let votes = log.task_answers(big.id);
    assert!(votes.len() >= 750, "{} answers", votes.len());
    assert_eq!(
        big.domain_vector().support().count(),
        2,
        "both rows rescale"
    );
    for (k, _) in big.domain_vector().support() {
        let mut hat = [1.0_f64; 2];
        for &(w, choice) in votes {
            let hit = clamp_quality(result.qualities[&w][k]);
            for (j, slot) in hat.iter_mut().enumerate() {
                *slot *= if j == choice {
                    hit
                } else {
                    miss_likelihood(hit, 2)
                };
            }
        }
        let max = hat[0].max(hat[1]);
        assert!(max < RESCALE_BELOW, "domain {k}: {hat:?}");
    }
}

/// The work of full inference on the paper-shaped case, as exact counts: per
/// run `W × m` (every quality the first iteration finalizes), the active
/// cells (the distinct (worker, domain) pairs of `V(i) ⋈ supp(i)`, each
/// refreshed and finalized once per later iteration), the plan's length
/// (`Σ |V(i)|·|supp(i)|`, Step 1's factor pairs and Step 2's credits) and
/// the iterations. Pinned for the last run over the whole log, whose active
/// cells the test also counts from the log itself, and summed over the
/// periodic runs of the log replayed at `z = 100`; with them the (answer,
/// support row) entries each run's set-up indexed, summed over all runs.
#[test]
fn the_paper_shaped_runs_do_the_pinned_work() {
    let (tasks, log, registry) = paper_shaped();
    let mut pairs = std::collections::BTreeSet::new();
    let mut plan = 0;
    for task in &tasks {
        let support: Vec<usize> = task.domain_vector().support().map(|(k, _)| k).collect();
        for &(w, _) in log.task_answers(task.id) {
            pairs.extend(support.iter().map(|&k| (w, k)));
        }
        plan += log.answer_count(task.id) * support.len();
    }

    let (mut runs, mut dense, mut cells, mut planned, mut iterations) = (0, 0, 0, 0, 0);
    let mut indexed = 0;
    let mut engine = IncrementalTi::new(tasks, registry, 100);
    for answer in round_robin(&log) {
        if engine.submit(answer).expect("the campaign's own answers") {
            let shape = engine.run_shape();
            runs += 1;
            dense += shape.dense_cells;
            cells += shape.cells;
            planned += shape.plan;
            indexed += shape.indexed;
            iterations += engine.last_deltas().len();
        }
    }
    let last = engine.run_full().len();
    let shape = engine.run_shape();
    indexed += shape.indexed;
    assert_eq!(
        shape.cells,
        pairs.len(),
        "the active cells, counted from the log"
    );
    assert_eq!(shape.plan, plan, "Σ |V(i)|·|supp(i)|, counted from the log");
    assert_eq!(
        (shape.dense_cells, shape.cells, shape.plan, last),
        (21_320, 3_008, 6_518, 16),
        "the last run: W × m, active cells, plan, iterations"
    );
    assert_eq!(
        (runs, dense, cells, planned, iterations),
        (37, 126_568, 49_175, 116_728, 665),
        "the periodic runs: count, Σ W × m, Σ active cells, Σ plan, Σ iterations"
    );
    // Each run indexes only the answers that arrived since the one before
    // it: over all the runs, every entry of the last plan once.
    assert_eq!(
        indexed, 6_518,
        "the entries the periodic runs and the last one indexed"
    );
}

/// The OTA scan's work over a campaign replayed through one engine at
/// period `z`: before every `every`-th answer its worker requests a HIT
/// of `k` tasks under the answer cap, through one reused [`ScanScratch`].
/// Returns the requests, the eligible tasks summed over them and the
/// benefit-kernel evaluations the bounds left.
fn scan_work(
    (tasks, stream, registry): (Vec<Task>, Vec<Answer>, WorkerRegistry),
    z: usize,
    (k, cap, every): (usize, usize, usize),
) -> (usize, usize, usize) {
    let assigner = Assigner::new(AssignerConfig {
        k,
        max_answers_per_task: Some(cap),
        ..Default::default()
    });
    let mut scratch = ScanScratch::new(registry.num_domains());
    let mut engine = IncrementalTi::new(tasks, registry, z);
    let (mut requests, mut eligible, mut evaluated) = (0, 0, 0);
    for (j, &answer) in stream.iter().enumerate() {
        if j % every == 0 {
            let quality = engine.registry().quality(answer.worker);
            let (tasks, states, log, sharding, ()) = engine.assign_view();
            let picks = assigner.assign_sharded_with(
                &mut scratch,
                &quality,
                tasks,
                states,
                sharding,
                |t| log.has_answered(answer.worker, t),
                |t| log.answer_count(t),
            );
            let (e, v) = scratch.last_work();
            assert!(picks.len() == k.min(e) && v <= e, "request {requests}");
            (requests, eligible, evaluated) = (requests + 1, eligible + e, evaluated + v);
        }
        engine.submit(answer).expect("the campaign's own answers");
    }
    (requests, eligible, evaluated)
}

/// The OTA scan's work as exact counts, so a change to it shows up as
/// "did less work" whatever the machine's noise: eligible tasks and
/// benefit-kernel evaluations summed over the requests of the
/// paper-shaped campaign (`k = 20`, 10 answers per task, `z = 100`, a
/// request every 20 answers of its round-robin stream) and of a
/// tenants-shaped one (`k = 4`, 4 answers per task, `z = 50`, a request
/// every 4 answers). Every eligible task not evaluated was skipped on its
/// benefit bound.
#[test]
fn the_replayed_requests_do_the_pinned_scan_work() {
    let (tasks, log, registry) = paper_shaped();
    let stream = round_robin(&log);
    assert_eq!(
        scan_work((tasks, stream, registry), 100, (20, 10, 20)),
        (190, 44_024, 28_180),
        "paper-shaped: requests, Σ eligible, Σ evaluated"
    );
    assert_eq!(
        scan_work(tenants_shaped(1), 50, (4, 4, 4)),
        (120, 10_752, 7_085),
        "tenants-shaped: requests, Σ eligible, Σ evaluated"
    );
}

/// A `tenants_*` campaign's shape: 120 yes/no tasks over 3 domains, each
/// task's domain vector on one or two of them, 4 answers per task from a
/// crowd of 20 workers graded on 4 golden tasks, the answers in a random
/// order.
fn tenants_shaped(seed: u64) -> (Vec<Task>, Vec<Answer>, WorkerRegistry) {
    const M: usize = 3;
    const WORKERS: usize = 20;
    let mut rng = SmallRng::seed_from_u64(seed);
    let domain_vector = |rng: &mut SmallRng| {
        let mut w = vec![0.0; M];
        let k = rng.gen_range(0..M);
        w[k] = 1.0;
        if rng.gen_range(0..2) == 0 {
            w[(k + rng.gen_range(1..M)) % M] = rng.gen_range(0.1..0.9);
        }
        DomainVector::from_weights(&w).expect("non-negative weights")
    };
    let tasks: Vec<Task> = (0..120usize)
        .map(|i| {
            TaskBuilder::new(i, format!("t{i}"))
                .yes_no()
                .with_domain_vector(domain_vector(&mut rng))
                .build()
                .expect("valid task")
        })
        .collect();
    let mut crowd: Vec<usize> = (0..WORKERS).collect();
    let mut stream = Vec::new();
    for task in &tasks {
        crowd.shuffle(&mut rng);
        for &w in &crowd[..4] {
            let choice = rng.gen_range(0..2usize);
            stream.push(Answer::new(WorkerId::from(w), task.id, choice));
        }
    }
    stream.shuffle(&mut rng);
    let golden: Vec<(DomainVector, ChoiceIndex)> = (0..4)
        .map(|_| (domain_vector(&mut rng), rng.gen_range(0..2usize)))
        .collect();
    let mut registry = WorkerRegistry::new(M, 0.7);
    for w in 0..WORKERS {
        let given: Vec<(TaskId, ChoiceIndex)> = (0..golden.len())
            .map(|g| (TaskId::from(g), rng.gen_range(0..2usize)))
            .collect();
        registry.init_from_golden(
            WorkerId::from(w),
            &given,
            |t| golden[t.index()].clone(),
            1.0,
        );
    }
    (tasks, stream, registry)
}

/// Two tenants-shaped campaigns fed alternately on one thread, an answer to
/// each in turn, as campaigns alternate on a shard thread: each engine's
/// runs extend its own run index, whatever ran on the thread between them,
/// so the (answer, support row) entries its set-ups index, summed over its
/// runs, are its last plan, each entry indexed once.
#[test]
fn alternating_engines_each_index_their_plan_once() {
    let campaigns = [tenants_shaped(1), tenants_shaped(2)];
    let mut engines: Vec<(IncrementalTi, usize, usize, usize)> = campaigns
        .iter()
        .map(|(tasks, _, registry)| {
            let engine = IncrementalTi::new(tasks.clone(), registry.clone(), 50);
            (engine, 0, 0, 0)
        })
        .collect();
    for j in 0..campaigns[0].1.len() {
        for (c, (engine, runs, indexed, plan)) in engines.iter_mut().enumerate() {
            let answer = campaigns[c].1[j];
            if engine.submit(answer).expect("the campaign's own answers") {
                let shape = engine.run_shape();
                (*runs, *indexed, *plan) = (*runs + 1, *indexed + shape.indexed, shape.plan);
            }
        }
    }
    for (c, &(_, runs, indexed, plan)) in engines.iter().enumerate() {
        assert_eq!(runs, 9, "campaign {c}: 480 answers at z = 50");
        assert_eq!(indexed, plan, "campaign {c}: each entry indexed once");
    }
}

/// `(case, full-inference hash, stream hash)`, recorded at the commit that
/// added this test.
const EXPECTED: [(&str, u64, u64); 11] = [
    ("seed 8 Dense", 0x45c7d83f128150d3, 0xac66fc2c8497c007),
    ("seed 8 OneHot", 0xef0cda14ee8658ca, 0x324b5f7f8da8b1dd),
    ("seed 8 Mixed", 0x55b8e7fae987fab9, 0x7fc10537f4ab2c95),
    ("seed 33 Dense", 0x36c7a7f761cb55bb, 0xe2ea3525ec71e423),
    ("seed 33 OneHot", 0xcfd5632ca5330f2f, 0xd8968e3569eff0b0),
    ("seed 33 Mixed", 0xfec96a111ba36dab, 0x17eceedbd6e23609),
    ("seed 37 Dense", 0xf326f9c91b702673, 0x73113693d2df8fac),
    ("seed 37 OneHot", 0x2be14e7a8becf806, 0x20a2843c576914d7),
    ("seed 37 Mixed", 0xe5c44ec8c2303cb1, 0x0aeabc20ed3f3419),
    ("-0.0 weight", 0x5cdd75c53034f5c7, 0x9e2215be9a913c38),
    ("paper-shaped", 0xa455c0fc32fdf5bf, 0xa3d8ee0e4bb8515a),
];

#[test]
fn kernel_outputs_match_their_recorded_fingerprints() {
    let fingerprint =
        |case: String, z: usize, (tasks, log, registry): (Vec<Task>, AnswerLog, WorkerRegistry)| {
            let run = run_fingerprint(&tasks, &log, &registry);
            (case, run, stream_fingerprint(tasks, &log, registry, z))
        };
    let mut got = Vec::new();
    for seed in [8u64, 33, 37] {
        for sparsity in Sparsity::ALL {
            let case = format!("seed {seed} {sparsity:?}");
            got.push(fingerprint(case, 3, campaign(seed, sparsity)));
        }
    }
    got.push(fingerprint("-0.0 weight".into(), 3, negative_zero_weight()));
    // The paper's `z = 100`: a full run every 100 answers, ~40 of them.
    got.push(fingerprint("paper-shaped".into(), 100, paper_shaped()));
    let table: String = got
        .iter()
        .map(|(case, run, stream)| format!("    ({case:?}, {run:#018x}, {stream:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = EXPECTED
        .iter()
        .map(|&(case, run, stream)| (case.to_string(), run, stream))
        .collect();
    assert_eq!(got, want, "fingerprints moved; computed table:\n{table}");
}
