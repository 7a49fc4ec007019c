//! Workload definitions and seed-derived inputs.
//!
//! Everything the system is fed is generated here from `--seed` before any
//! clock starts: the worker population, every worker's answer to every
//! task (a lookup table, so the closed loop's op stream is a function of
//! the seed and of the system's own picks, never of an rng consumed at a
//! timing-dependent moment), and each campaign's worker arrival order.

use docs_crowd::{AnswerModel, WorkerPopulation};
use docs_kb::KnowledgeBase;
use docs_system::DocsConfig;
use docs_types::{ChoiceIndex, Task, TaskBuilder, TaskId, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Where the campaigns live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Memory-only pool.
    Mem,
    /// `EveryEvent` + adaptive group commit, crash/recover at the end.
    Durable,
    /// Durable primary plus hub and one follower serving reads.
    Replicated,
}

/// The four workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperQaMem,
    TenantsMem,
    TenantsDurable,
    TenantsReplicated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperQaMem,
        Workload::TenantsMem,
        Workload::TenantsDurable,
        Workload::TenantsReplicated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQaMem => "paper_qa_mem",
            Workload::TenantsMem => "tenants_mem",
            Workload::TenantsDurable => "tenants_durable",
            Workload::TenantsReplicated => "tenants_replicated",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — repeated in `BENCHMARK.json` and the README.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperQaMem => {
                "the paper's deployment shape (QA tasks, 26 domains, k=20, z=100, 10 answers/task, one blocking session): full TI and the OTA scan in docs-core are ~95% of the wall, service and storage almost none"
            }
            Workload::TenantsMem => {
                "64 small 3-domain campaigns, 8 sessions in flight, in memory: core work per call is tens of us, so docs-service's envelope, queue and wake-up cost is a third of the wall and shows nowhere else"
            }
            Workload::TenantsDurable => {
                "the tenants traffic with EveryEvent + adaptive group commit and the default snapshot cadence, then crash and recover: loads codec, WAL append, fdatasync batching, snapshots and replay"
            }
            Workload::TenantsReplicated => {
                "the durable tenants traffic shipped to one follower that also serves a status read every 4th op: loads ship, frame codec and follower apply beside reads"
            }
        }
    }

    pub fn topology(self) -> Topology {
        match self {
            Workload::PaperQaMem | Workload::TenantsMem => Topology::Mem,
            Workload::TenantsDurable => Topology::Durable,
            Workload::TenantsReplicated => Topology::Replicated,
        }
    }

    /// The workload's shape at full or smoke (~1/10) size.
    pub fn spec(self, smoke: bool) -> Spec {
        let paper = self == Workload::PaperQaMem;
        let docs = if paper {
            // The paper's deployment defaults: n' = 20, k = 20, z = 100,
            // 10 answers per task.
            DocsConfig::default()
        } else {
            // The shape every committed BENCH_*.json drives.
            DocsConfig {
                num_golden: 4,
                k_per_hit: 4,
                answers_per_task: 4,
                z: 50,
                ..Default::default()
            }
        };
        let (campaigns, tasks, workers) = match (paper, smoke) {
            (true, false) => (1, 500, 200),
            (true, true) => (1, 100, 40),
            (false, false) => (64, 120, 20),
            (false, true) => (8, 96, 20),
        };
        Spec {
            workload: self,
            campaigns,
            tasks_per_campaign: tasks,
            workers_per_campaign: workers,
            shards: 1,
            sessions_in_flight: if paper { 1 } else { 8 },
            follower_read_every: if self == Workload::TenantsReplicated {
                4
            } else {
                0
            },
            segment_calls: if paper { 8 } else { 64 },
            docs,
        }
    }
}

/// A workload's fixed shape (sizes are for `nproc = 2`; nothing here reads
/// the machine).
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub campaigns: usize,
    pub tasks_per_campaign: usize,
    pub workers_per_campaign: usize,
    /// Shard threads of the primary pool. Every workload runs on one (the
    /// sizes are fixed for a 2-core box: one core for the client, one for
    /// the shard); the self-tests also run two.
    pub shards: usize,
    /// Campaign sessions the single client thread keeps in flight.
    pub sessions_in_flight: usize,
    /// Issue one follower `status_in` read after every n-th op (0 = never).
    pub follower_read_every: usize,
    /// The drive is timed in segments of this many calls (about sixteen a
    /// drive): the call stream is the same on every repeat, so a segment
    /// does identical work each time and the window can keep each
    /// segment's best time.
    pub segment_calls: u64,
    pub docs: DocsConfig,
}

impl Spec {
    /// Ordinary answers one campaign collects before its budget closes.
    pub fn budget_per_campaign(&self) -> usize {
        self.docs.answers_per_task * self.tasks_per_campaign
    }
}

/// One campaign's generated inputs.
#[derive(Debug, Clone)]
pub struct CampaignInput {
    /// Published tasks: text, choices, ground truth, true domain; no
    /// domain vectors (DVE at publish fills them).
    pub tasks: Vec<Task>,
    workers: usize,
    /// `choices[w * tasks + t]`: what worker `w` answers on task `t`.
    choices: Vec<u8>,
    /// Worker arrival order, walked cyclically.
    arrivals: Vec<u32>,
}

impl CampaignInput {
    pub fn answer(&self, worker: WorkerId, task: TaskId) -> ChoiceIndex {
        self.choices[worker.index() * self.tasks.len() + task.index()] as ChoiceIndex
    }

    pub fn arrival(&self, position: usize) -> WorkerId {
        WorkerId(self.arrivals[position % self.arrivals.len()])
    }

    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// Everything one workload run feeds the system.
pub struct Inputs {
    pub spec: Spec,
    pub kb: KnowledgeBase,
    pub campaigns: Vec<CampaignInput>,
}

/// splitmix64 step: decorrelates the per-campaign rng seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn campaign_input(
    tasks: Vec<Task>,
    population: &WorkerPopulation,
    budget: usize,
    k: usize,
    rng: &mut SmallRng,
) -> CampaignInput {
    let workers = population.len();
    let mut choices = Vec::with_capacity(workers * tasks.len());
    for worker in population.workers() {
        for task in &tasks {
            let choice = worker.answer(task, AnswerModel::DomainUniform, rng);
            choices.push(u8::try_from(choice).expect("tasks have at most 255 choices"));
        }
    }
    // Every worker arrives once first, in a shuffled order (each takes the
    // golden HIT): the number of golden HITs, and with it the order of call
    // kinds in a session, is then the same for every seed. On a durable
    // pool that order decides how the eight sessions' writes fall into
    // group commits, which moved throughput by 20% from seed to seed while
    // arrivals were drawn uniformly from the start. After the warm-up,
    // arrivals are uniform — enough for the whole budget several times
    // over (the walk is cyclic, this only keeps the stream aperiodic).
    let mut arrivals: Vec<u32> = (0..workers as u32).collect();
    for i in (1..workers).rev() {
        arrivals.swap(i, rng.gen_range(0..=i));
    }
    arrivals
        .extend((0..(budget / k.max(1) + workers) * 4).map(|_| rng.gen_range(0..workers) as u32));
    CampaignInput {
        tasks,
        workers,
        choices,
        arrivals,
    }
}

/// A tenant campaign's crowd: the default mixture of `PopulationConfig`
/// (40% experts in one of the three domains, 10% spammers, the rest
/// ordinary) with every quality at its range's midpoint. The mixture is
/// the workload's shape, not an input: drawing it from the seed moved
/// `truth_accuracy` by 3% from seed to seed, three times what the answers
/// themselves do.
fn tenant_population(size: usize) -> WorkerPopulation {
    let qualities = (0..size)
        .map(|i| {
            if i % 10 == 9 {
                return vec![0.475; 3];
            }
            let mut q = vec![0.6; 3];
            if i % 5 < 2 {
                q[i % 3] = 0.91;
            }
            q
        })
        .collect();
    WorkerPopulation::from_qualities(qualities)
}

/// Generates a workload's inputs. The same `(workload, smoke, seed)` gives
/// the same inputs on every call.
pub fn generate(workload: Workload, smoke: bool, seed: u64) -> Inputs {
    let spec = workload.spec(smoke);
    let budget = spec.budget_per_campaign();
    let k = spec.docs.k_per_hit;
    if workload == Workload::PaperQaMem {
        // The QA regeneration's texts are fixed (they are the dataset);
        // the crowd, its answers and its arrival order come from the seed.
        let mut dataset = docs_datasets::yahoo_qa();
        dataset.tasks.truncate(spec.tasks_per_campaign);
        let population = WorkerPopulation::from_qualities(
            dataset.worker_qualities(spec.workers_per_campaign, mix(seed, 0)),
        );
        let mut rng = SmallRng::seed_from_u64(mix(seed, 1));
        let tasks = std::mem::take(&mut dataset.tasks);
        let campaign = campaign_input(tasks, &population, budget, k, &mut rng);
        return Inputs {
            spec,
            kb: dataset.kb,
            campaigns: vec![campaign],
        };
    }
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    let campaigns = (0..spec.campaigns)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(mix(seed, 2 + c as u64));
            let tasks: Vec<Task> = (0..spec.tasks_per_campaign)
                .map(|i| {
                    let subject = subjects[rng.gen_range(0..subjects.len())];
                    TaskBuilder::new(i, format!("Is {subject} great? (c{c} t{i})"))
                        .yes_no()
                        .with_ground_truth(rng.gen_range(0..2))
                        .with_true_domain(1)
                        .build()
                        .expect("valid yes/no task")
                })
                .collect();
            let population = tenant_population(spec.workers_per_campaign);
            campaign_input(tasks, &population, budget, k, &mut rng)
        })
        .collect();
    Inputs {
        spec,
        kb: docs_kb::table2_example_kb(),
        campaigns,
    }
}
