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
use super::{IncrementalTi, TruthInference, WorkerRegistry, WorkerStats};
use docs_types::{codec, Answer, AnswerLog, DomainVector, Task, TaskBuilder, TaskId, WorkerId};

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

/// The log replayed through an [`IncrementalTi`] with `z = 3` (so periodic
/// full runs fire mid-stream), round-robin over the tasks, through a codec
/// snapshot → restore halfway; hashed after the stream, then after one
/// more explicit full run together with that run's Δ.
fn stream_fingerprint(tasks: Vec<Task>, log: &AnswerLog, registry: WorkerRegistry) -> u64 {
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
    let half = stream.len() / 2;
    let mut engine = IncrementalTi::new(tasks, registry, 3);
    for &(_, answer) in &stream[..half] {
        engine.submit(answer).expect("the campaign's own answers");
    }
    let bytes = codec::to_bytes(&engine.snapshot());
    let mut engine = IncrementalTi::restore(codec::from_bytes(&bytes).expect("own snapshot"))
        .expect("own snapshot restores");
    for &(_, answer) in &stream[half..] {
        engine.submit(answer).expect("the campaign's own answers");
    }
    let mut h = Fnv::new();
    hash_engine(&mut h, &engine);
    let deltas = engine.run_full();
    h.floats(&deltas);
    hash_engine(&mut h, &engine);
    h.0
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

/// `(case, full-inference hash, stream hash)`, recorded at the commit that
/// added this test.
const EXPECTED: [(&str, u64, u64); 10] = [
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
];

#[test]
fn kernel_outputs_match_their_recorded_fingerprints() {
    let fingerprint =
        |case: String, (tasks, log, registry): (Vec<Task>, AnswerLog, WorkerRegistry)| {
            let run = run_fingerprint(&tasks, &log, &registry);
            (case, run, stream_fingerprint(tasks, &log, registry))
        };
    let mut got = Vec::new();
    for seed in [8u64, 33, 37] {
        for sparsity in Sparsity::ALL {
            let case = format!("seed {seed} {sparsity:?}");
            got.push(fingerprint(case, campaign(seed, sparsity)));
        }
    }
    got.push(fingerprint("-0.0 weight".into(), negative_zero_weight()));
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
