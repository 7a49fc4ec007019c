//! The traced run and the outside-in layer ledger.
//!
//! `--trace 1` measures nothing end to end. It runs the workload once
//! untraced and once with client spans plus in-service sampled traces,
//! climbs the topology ladder below the workload (`Docs` only → in-memory
//! service → durable → replicated, same traffic on every rung), and then
//! replays the traced run's own acknowledged event stream through each
//! layer's public functions in isolation. Every rung and every replay must
//! reproduce the same truths.

use crate::inputs::{Inputs, Topology};
use crate::run::{
    answers_in, repeat, repeat_direct, Checks, ClientSpan, DirectBackend, Harvest, Observe, Repeat,
};
use crate::stats::percentile_us;
use docs_core::ota::{Assigner, AssignerConfig};
use docs_core::ti::{IncrementalTi, WorkerRegistry};
use docs_kb::EntityLinker;
use docs_obs::SpanKind;
use docs_replication::{decode_frame, encode_frame};
use docs_service::OpKind;
use docs_storage::{CampaignLog, FlushPolicy};
use docs_system::{CampaignSnapshot, Docs};
use docs_types::codec::{self, decode_event, encode_event};
use docs_types::{CampaignEvent, CampaignId, EventFrame, ReplicationFrame, Task};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The traced run's outcome: every per-layer metric by name.
pub struct LayerReport {
    pub values: BTreeMap<&'static str, f64>,
    /// Calls and checks of every rung and replay.
    pub checks: Checks,
    /// Times the ladder was climbed; every timing is the best of them.
    pub passes: usize,
    /// Where the spans went (`None`: not written).
    pub spans_file: Option<PathBuf>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

fn us_per_answer(rep: &Repeat) -> f64 {
    per(us(rep.drive.wall), rep.drive.answers as f64)
}

/// docs-kb + docs-core in isolation: DVE over every task, then the
/// acknowledged stream through `Assigner` and `IncrementalTi` alone.
#[derive(Default)]
struct CoreReplay {
    link_ns: u64,
    vector_ns: u64,
    tasks: u64,
    ota_ns: u64,
    ota_requests: u64,
    ota_tasks: u64,
    /// Batches that crossed no `z` boundary.
    plain_ns: u64,
    plain_answers: u64,
    /// Batches that did, and the final full run of `finish`.
    crossing_ns: u64,
    crossing_answers: u64,
    full_runs: u64,
    checks: Checks,
}

impl CoreReplay {
    /// Keeps each clock's better reading of two replays of one stream.
    fn keep_best(&mut self, other: CoreReplay) {
        if self.checks.failed != 0 {
            return;
        }
        if other.checks.failed != 0 {
            *self = other;
            return;
        }
        self.link_ns = self.link_ns.min(other.link_ns);
        self.vector_ns = self.vector_ns.min(other.vector_ns);
        self.ota_ns = self.ota_ns.min(other.ota_ns);
        self.plain_ns = self.plain_ns.min(other.plain_ns);
        self.crossing_ns = self.crossing_ns.min(other.crossing_ns);
    }

    fn submit_ns_per_answer(&self) -> f64 {
        per(self.plain_ns as f64, self.plain_answers as f64)
    }

    /// Time the periodic (and final) full inferences took: the crossing
    /// batches minus what their answers cost incrementally.
    fn full_ns(&self) -> f64 {
        (self.crossing_ns as f64 - self.crossing_answers as f64 * self.submit_ns_per_answer())
            .max(0.0)
    }
}

fn core_replay(inputs: &Inputs, traced: &Repeat, published: &[Docs]) -> CoreReplay {
    let mut out = CoreReplay::default();
    let config = &inputs.spec.docs;
    let m = inputs.kb.num_domains();
    let linker = EntityLinker::new(&inputs.kb, config.linker);
    let assigner = Assigner::new(AssignerConfig {
        k: config.k_per_hit,
        max_answers_per_task: (config.answers_per_task > 0).then_some(config.answers_per_task),
        linear_select: true,
    });
    for (index, input) in inputs.campaigns.iter().enumerate() {
        // DVE, layer by layer, checked against what `Docs::publish` stored.
        let mut tasks: Vec<Task> = input.tasks.clone();
        for task in &mut tasks {
            let t = Instant::now();
            let entities = linker.link(&task.text);
            out.link_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let vector = docs_core::dve::domain_vector(&entities, m);
            out.vector_ns += t.elapsed().as_nanos() as u64;
            task.domain_vector = Some(vector);
        }
        out.tasks += tasks.len() as u64;
        let system_tasks = published[index].tasks();
        let same = tasks
            .iter()
            .zip(system_tasks)
            .all(|(a, b)| a.domain_vector == b.domain_vector);
        out.checks.check(same, || {
            format!("campaign {index}: replayed DVE differs from the published vectors")
        });

        let registry = published[index].engine().registry();
        let lookup_tasks = tasks.clone();
        let lookup = |tid: docs_types::TaskId| {
            let t = &lookup_tasks[tid.index()];
            (
                t.domain_vector().clone(),
                t.ground_truth.expect("golden tasks carry a ground truth"),
            )
        };
        let mut engine = IncrementalTi::new(
            tasks,
            WorkerRegistry::new(registry.num_domains(), registry.prior_quality()),
            config.z,
        )
        .with_shards(config.task_shards.max(1));
        let z = config.z.max(1);
        let mut picks_differ = 0u64;
        for event in &traced.drive.events[index] {
            match event {
                CampaignEvent::GoldenSubmitted(g) => {
                    engine.init_worker_from_golden(
                        g.worker,
                        &g.answers,
                        lookup,
                        config.golden_smoothing,
                    );
                }
                CampaignEvent::AnswerBatchSubmitted(b) => {
                    let worker = b.answers[0].worker;
                    let quality = engine.registry().quality(worker);
                    let t = Instant::now();
                    let (tasks, states, log, sharding, _) = engine.assign_view();
                    let picks = assigner.assign_sharded(
                        &quality,
                        tasks,
                        states,
                        sharding,
                        |task| log.has_answered(worker, task),
                        |task| log.answer_count(task),
                    );
                    out.ota_ns += t.elapsed().as_nanos() as u64;
                    out.ota_requests += 1;
                    out.ota_tasks += picks.len() as u64;
                    picks_differ += u64::from(!picks.iter().eq(b.answers.iter().map(|a| &a.task)));

                    let before = engine.submissions() / z;
                    let t = Instant::now();
                    let submitted = engine.submit_batch(&b.answers);
                    let ns = t.elapsed().as_nanos() as u64;
                    let crossed = (engine.submissions() / z - before) as u64;
                    if crossed > 0 {
                        out.crossing_ns += ns;
                        out.crossing_answers += b.answers.len() as u64;
                        out.full_runs += crossed;
                    } else {
                        out.plain_ns += ns;
                        out.plain_answers += b.answers.len() as u64;
                    }
                    out.checks.check(submitted.is_ok(), || {
                        format!("campaign {index}: core replay refused a batch: {submitted:?}")
                    });
                }
                CampaignEvent::Finished(_) => {
                    let t = Instant::now();
                    black_box(engine.run_full());
                    out.crossing_ns += t.elapsed().as_nanos() as u64;
                    out.full_runs += 1;
                }
                CampaignEvent::Published(_) | CampaignEvent::AnswerSubmitted(_) => {}
            }
        }
        out.checks.check(picks_differ == 0, || {
            format!(
                "campaign {index}: {picks_differ} isolated OTA picks differ from the served HITs"
            )
        });
        let truths = engine.truths();
        let served = traced.drive.reports[index].as_ref().map(|r| &r.truths);
        out.checks.check(served == Some(&truths), || {
            format!("campaign {index}: docs-core replay infers different truths than the service")
        });
    }
    out
}

/// Runs `pass` over the stream until at least ~20k items were timed;
/// returns ns per item.
fn timed_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let passes = (20_000 / items).max(1);
    let t = Instant::now();
    for _ in 0..passes {
        pass();
    }
    t.elapsed().as_nanos() as f64 / (passes * items) as f64
}

fn write_spans(
    path: &Path,
    inputs: &Inputs,
    seed: u64,
    spans: &[ClientSpan],
    traces: &[docs_obs::Trace],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        f,
        "{{\"workload\":\"{}\",\"seed\":{seed},\"trace_sampling\":{},\n\"client_spans\":[",
        inputs.spec.workload.name(),
        crate::run::TRACE_EVERY
    )?;
    for (i, s) in spans.iter().enumerate() {
        // A client span is the parent of the in-service trace whose
        // trace_id equals its correlation (when that request was sampled).
        let parent_of = if s.correlation == u64::MAX {
            "null".to_string()
        } else {
            s.correlation.to_string()
        };
        write!(
            f,
            "{}\n{{\"id\":{i},\"op\":\"{}\",\"campaign\":{},\"parent_of_trace\":{parent_of},\"start_ns\":{},\"submit_ns\":{},\"dur_ns\":{}}}",
            if i > 0 { "," } else { "" },
            s.kind.name(),
            s.campaign,
            s.start_ns,
            s.submit_ns,
            s.total_ns
        )?;
    }
    write!(f, "],\n\"service_traces\":[")?;
    for (i, t) in traces.iter().enumerate() {
        write!(f, "{}\n{}", if i > 0 { "," } else { "" }, t.to_json())?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

/// One climb of the topology ladder, or the best of several.
struct Ladder {
    /// The workload on its own topology, untraced and traced.
    top: Repeat,
    traced: Repeat,
    harvest: Harvest,
    /// The `Docs`-only rung, its state machines and validate/apply clocks.
    direct: Repeat,
    backend: DirectBackend,
    /// docs-kb and docs-core replayed alone over the traced stream.
    core: CoreReplay,
    /// The in-memory service rung (below a durable or replicated workload).
    mem: Option<Repeat>,
    /// The durable rung (below a replicated workload), where recovery is
    /// measured: the replicated run itself ends in a promotion.
    durable: Option<Repeat>,
    durable_harvest: Option<Harvest>,
    passes: usize,
}

impl Ladder {
    fn climb(inputs: &Inputs, wal_dir: &Path) -> Result<Ladder, String> {
        let own = inputs.spec.workload.topology();
        let (top, _) = repeat(inputs, own, wal_dir, Observe::Nothing)?;
        let (traced, harvest) = repeat(inputs, own, wal_dir, Observe::Traced)?;
        let harvest = harvest.expect("a traced repeat returns its harvest");
        let (direct, backend) = repeat_direct(inputs)?;
        let core = core_replay(inputs, &traced, &backend.docs());
        let mem = match own {
            Topology::Mem => None,
            _ => Some(repeat(inputs, Topology::Mem, wal_dir, Observe::Nothing)?.0),
        };
        let (durable, durable_harvest) = match own {
            Topology::Replicated => {
                let (rep, harvest) = repeat(inputs, Topology::Durable, wal_dir, Observe::Recovery)?;
                (Some(rep), harvest)
            }
            _ => (None, None),
        };
        Ok(Ladder {
            top,
            traced,
            harvest,
            direct,
            backend,
            core,
            mem,
            durable,
            durable_harvest,
            passes: 1,
        })
    }

    /// Folds another climb in: every rung keeps each of its timings at the
    /// better value (see `Repeat::keep_best`); counters, spans and
    /// harvested metrics stay those of the first climb.
    fn keep_best(&mut self, other: Ladder) {
        self.passes += other.passes;
        self.top.keep_best(other.top);
        self.traced.keep_best(other.traced);
        self.direct.keep_best(other.direct);
        self.core.keep_best(other.core);
        for (mine, theirs) in [
            (&self.backend.validate_ns, &other.backend.validate_ns),
            (&self.backend.apply_ns, &other.backend.apply_ns),
        ] {
            mine.set(mine.get().min(theirs.get()));
        }
        if let (Some(mine), Some(theirs)) = (self.mem.as_mut(), other.mem) {
            mine.keep_best(theirs);
        }
        if let (Some(mine), Some(theirs)) = (self.durable.as_mut(), other.durable) {
            mine.keep_best(theirs);
        }
    }
}

/// The traced run of one workload.
pub fn run(
    inputs: &Inputs,
    seed: u64,
    wal_dir: &Path,
    out_dir: &Path,
    seconds: f64,
    write: bool,
) -> Result<LayerReport, String> {
    let own = inputs.spec.workload.topology();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut checks = Checks::default();

    // The rungs: the workload untraced, the workload traced, and the same
    // traffic on every topology below it. The whole ladder is climbed
    // again while it fits `seconds`, and every rung keeps each segment
    // of its drive at the best time seen: the rows of the ledger are
    // differences between rungs, and a slow burst of the box on one rung
    // would land in a row as cost.
    let started = Instant::now();
    let mut ladder = Ladder::climb(inputs, wal_dir)?;
    loop {
        let pass = started.elapsed().as_secs_f64() / ladder.passes as f64;
        if started.elapsed().as_secs_f64() + pass > seconds {
            break;
        }
        ladder.keep_best(Ladder::climb(inputs, wal_dir)?);
    }
    let Ladder {
        top,
        traced,
        harvest,
        direct,
        backend,
        core,
        mem,
        durable,
        durable_harvest,
        passes,
    } = ladder;
    let _ = std::fs::remove_dir_all(wal_dir);
    let mut rungs: Vec<(&str, &Repeat)> = vec![("docs", &direct), ("traced", &traced)];
    rungs.extend(mem.as_ref().map(|r| ("mem", r)));
    rungs.extend(durable.as_ref().map(|r| ("durable", r)));
    for (name, rung) in std::iter::once(("untraced", &top)).chain(rungs) {
        checks.made += rung.attempted();
        checks.failed += rung.failed();
        checks.notes.extend(rung.failures().cloned());
        checks.check(rung.truth_hash == top.truth_hash, || {
            format!("rung {name} infers different truths than the workload's own run")
        });
    }
    let answers = top.drive.answers as f64;
    let top_wall_ns = top.drive.wall.as_nanos() as f64;

    // docs-kb + docs-core, replayed alone.
    let validate_ns = backend.validate_ns.get() as f64;
    let apply_ns = backend.apply_ns.get() as f64;
    let applied_events = backend.events.get() as f64;
    let published = backend.docs();
    checks.made += core.checks.made;
    checks.failed += core.checks.failed;
    checks.notes.extend(core.checks.notes.iter().cloned());
    v.insert(
        "dve.link_us_per_task",
        per(core.link_ns as f64 / 1e3, core.tasks as f64),
    );
    v.insert(
        "dve.vector_us_per_task",
        per(core.vector_ns as f64 / 1e3, core.tasks as f64),
    );
    v.insert("dve.tasks", core.tasks as f64);
    v.insert("ti.submit_ns_per_answer", core.submit_ns_per_answer());
    v.insert(
        "ti.full_ms_per_run",
        per(core.full_ns() / 1e6, core.full_runs as f64),
    );
    v.insert("ti.full_runs", core.full_runs as f64);
    v.insert("ti.full_share", per(core.full_ns(), top_wall_ns));
    v.insert(
        "ota.assign_us_per_request",
        per(core.ota_ns as f64 / 1e3, core.ota_requests as f64),
    );
    v.insert(
        "ota.tasks_per_request",
        per(core.ota_tasks as f64, core.ota_requests as f64),
    );
    v.insert("ota.share", per(core.ota_ns as f64, top_wall_ns));

    // docs-system: the `Docs`-only rung and the snapshot round trip.
    v.insert(
        "system.request_us_p50",
        percentile_us(&direct.drive.request_ns, 0.5),
    );
    v.insert(
        "system.submit_batch_us_p50",
        percentile_us(&direct.drive.submit_ns, 0.5),
    );
    v.insert(
        "system.validate_ns_per_event",
        per(validate_ns, applied_events),
    );
    v.insert("system.apply_ns_per_event", per(apply_ns, applied_events));
    let finish_ns: f64 = direct.drive.finish_ns.iter().map(|&n| n as f64).sum();
    v.insert(
        "system.finish_ms",
        per(finish_ns / 1e6, direct.drive.finish_ns.len() as f64),
    );
    v.insert(
        "system.answers_per_s",
        per(direct.drive.answers as f64, direct.drive.wall.as_secs_f64()),
    );
    let rounds = 5;
    let mut snapshot_bytes = Vec::new();
    let t = Instant::now();
    for _ in 0..rounds {
        snapshot_bytes = codec::to_bytes(&published[0].snapshot());
    }
    let snapshot_ms = ms(t.elapsed()) / rounds as f64;
    v.insert("system.snapshot_ms", snapshot_ms);
    let t = Instant::now();
    for _ in 0..rounds {
        let restored = codec::from_bytes::<CampaignSnapshot>(&snapshot_bytes)
            .map_err(|e| format!("decode snapshot: {e}"))
            .and_then(|s| Docs::restore(s).map_err(|e| format!("restore: {e}")))?;
        black_box(restored);
    }
    v.insert("system.restore_ms", ms(t.elapsed()) / rounds as f64);

    // docs-service: sampled spans, its own histograms, set-up pieces.
    let span_p50 = |kind: SpanKind| {
        let ns: Vec<u64> = traced
            .drive
            .traces
            .iter()
            .filter_map(|t| t.span_ns(kind))
            .collect();
        percentile_us(&ns, 0.5)
    };
    v.insert(
        "service.client_submit_us_p50",
        span_p50(SpanKind::ClientSubmit),
    );
    v.insert("service.queue_wait_us_p50", span_p50(SpanKind::QueueWait));
    v.insert("service.apply_us_p50", span_p50(SpanKind::Apply));
    v.insert("service.flush_wait_us_p50", span_p50(SpanKind::FlushWait));
    v.insert("service.ship_us_p50", span_p50(SpanKind::Ship));
    let metrics = &harvest.metrics;
    v.insert(
        "service.request_p50_us",
        metrics.op_histogram(OpKind::Assign).quantile(0.5) as f64 / 1e3,
    );
    v.insert(
        "service.submit_batch_p50_us",
        metrics.op_histogram(OpKind::SubmitBatch).quantile(0.5) as f64 / 1e3,
    );
    v.insert(
        "service.submit_p50_us",
        percentile_us(&top.drive.submit_ns, 0.5),
    );
    let shards = metrics.all_shards();
    v.insert(
        "service.queue_depth_max",
        shards.iter().map(|s| s.max_queued).max().unwrap_or(0) as f64,
    );
    v.insert(
        "service.busy_rejections",
        shards.iter().map(|s| s.busy_rejections).sum::<u64>() as f64,
    );
    v.insert("service.spawn_ms", ms(top.setup.spawn));
    v.insert(
        "service.create_campaign_us",
        per(us(top.setup.create), inputs.campaigns.len() as f64),
    );
    let mem_rung = mem.as_ref().unwrap_or(&top);
    v.insert(
        "service.overhead_us_per_op",
        per(
            us(mem_rung.drive.wall) - us(direct.drive.wall),
            mem_rung.drive.ops as f64,
        ),
    );

    // The acknowledged stream, as the log and the wire carry it.
    let stream: Vec<(CampaignId, u64, &CampaignEvent)> = traced
        .drive
        .events
        .iter()
        .enumerate()
        .flat_map(|(c, events)| {
            // Sequence 1 is the `Published` event the service wrote itself.
            events
                .iter()
                .enumerate()
                .map(move |(i, e)| (CampaignId(c as u32), i as u64 + 2, e))
        })
        .collect();
    let mut attributed_ns = direct.drive.wall.as_nanos() as f64
        + traced
            .drive
            .spans
            .iter()
            .map(|s| s.submit_ns as f64)
            .sum::<f64>();
    if own != Topology::Mem {
        // docs-types::codec
        let encoded: Vec<Vec<u8>> = stream.iter().map(|(_, _, e)| encode_event(e)).collect();
        let encode_ns = timed_per_item(stream.len(), || {
            for (_, _, e) in &stream {
                black_box(encode_event(e));
            }
        });
        let mut decoded_ok = true;
        let decode_ns = timed_per_item(stream.len(), || {
            for bytes in &encoded {
                decoded_ok &= black_box(decode_event(bytes)).is_ok();
            }
        });
        checks.check(decoded_ok, || {
            "codec replay: an encoded event did not decode".to_string()
        });
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        v.insert("codec.encode_ns_per_event", encode_ns);
        v.insert("codec.decode_ns_per_event", decode_ns);
        v.insert(
            "codec.bytes_per_event",
            per(bytes as f64, stream.len() as f64),
        );

        // docs-storage: append the stream to a fresh log, no sync inside.
        let replay_dir = wal_dir.join("replay");
        let _ = std::fs::remove_dir_all(&replay_dir);
        let mut log =
            CampaignLog::open(&replay_dir).map_err(|e| format!("open replay log: {e}"))?;
        log.set_adaptive(None);
        for c in 0..inputs.campaigns.len() {
            log.register(CampaignId(c as u32), FlushPolicy::Batch(usize::MAX), 1);
        }
        let t = Instant::now();
        for ((campaign, _, _), payload) in stream.iter().zip(&encoded) {
            log.append_event(*campaign, payload)
                .map_err(|e| format!("replay append: {e}"))?;
        }
        let append_ns = t.elapsed().as_nanos() as f64;
        log.flush().map_err(|e| format!("replay flush: {e}"))?;
        let wal_bytes = log.on_disk_bytes();
        let t = Instant::now();
        for _ in 0..rounds {
            log.write_snapshot(CampaignId(0), &snapshot_bytes)
                .map_err(|e| format!("replay snapshot: {e}"))?;
        }
        let snapshot_write_ms = ms(t.elapsed()) / rounds as f64;
        drop(log);
        let _ = std::fs::remove_dir_all(&replay_dir);
        let durability = metrics.durability();
        let sync_total_ns = metrics.flush_sync_histogram().sum_ns() as f64;
        v.insert(
            "storage.append_ns_per_event",
            per(append_ns, stream.len() as f64),
        );
        v.insert(
            "storage.sync_us_p50",
            metrics.flush_sync_histogram().quantile(0.5) as f64 / 1e3,
        );
        v.insert(
            "storage.events_per_sync",
            metrics.flush_batch_histogram().mean_ns(),
        );
        v.insert(
            "storage.syncs_per_answer",
            per(durability.log_flushes as f64, traced.drive.answers as f64),
        );
        v.insert("storage.snapshot_write_ms", snapshot_write_ms);
        v.insert(
            "storage.snapshots_written",
            durability.snapshots_written as f64,
        );
        v.insert("storage.snapshot_bytes", snapshot_bytes.len() as f64);
        v.insert("storage.bytes_on_disk", top.disk_bytes.unwrap_or(0) as f64);
        v.insert(
            "wal_bytes_per_answer",
            per(wal_bytes as f64, answers_in_stream(&traced) as f64),
        );
        let recover_tree = durable_harvest
            .as_ref()
            .map_or(harvest.recover_tree, |h| h.recover_tree);
        if let Some((time, events)) = recover_tree {
            v.insert(
                "storage.recover_tree_us_per_event",
                per(us(time), events as f64),
            );
        }
        if let Some(recover) = durable.as_ref().map_or(top.recover, |d| d.recover) {
            v.insert("recover_s", recover.as_secs_f64());
        }
        attributed_ns += encode_ns * stream.len() as f64
            + append_ns
            + sync_total_ns
            + durability.snapshots_written as f64 * (snapshot_ms + snapshot_write_ms) * 1e6;

        if own == Topology::Replicated {
            // docs-replication: the stream framed as the hub framed it.
            let hub = harvest.hub.unwrap_or_default();
            let event_frames = hub
                .frames_shipped
                .saturating_sub(durability.snapshots_written)
                .max(1);
            let per_frame = per(hub.events_shipped as f64, event_frames as f64).max(1.0);
            let frames: Vec<ReplicationFrame> = stream
                .chunks(per_frame.round() as usize)
                .zip(encoded.chunks(per_frame.round() as usize))
                .map(|(events, payloads)| {
                    ReplicationFrame::Events(
                        events
                            .iter()
                            .zip(payloads)
                            .map(|((campaign, seq, _), payload)| EventFrame {
                                campaign: *campaign,
                                seq: *seq,
                                payload: payload.clone(),
                            })
                            .collect(),
                    )
                })
                .collect();
            let records: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
            let frame_encode_ns = timed_per_item(stream.len(), || {
                for frame in &frames {
                    black_box(encode_frame(frame));
                }
            });
            let mut frames_ok = true;
            let frame_decode_ns = timed_per_item(stream.len(), || {
                for record in &records {
                    frames_ok &= black_box(decode_frame(record)).is_ok();
                }
            });
            checks.check(frames_ok, || {
                "frame replay: an encoded frame did not decode".to_string()
            });
            v.insert("replication.frame_encode_ns_per_event", frame_encode_ns);
            v.insert("replication.frame_decode_ns_per_event", frame_decode_ns);
            v.insert(
                "replication.wire_bytes_per_event",
                per(hub.bytes_shipped as f64, hub.events_shipped as f64),
            );
            v.insert("replication.events_per_frame", per_frame);
            if let Some(follower) = &harvest.follower_metrics {
                let lag = follower.replication_lag_histogram();
                v.insert("replication.lag_p50_us", lag.quantile(0.5) as f64 / 1e3);
                v.insert("replication.lag_p95_us", lag.quantile(0.95) as f64 / 1e3);
            }
            v.insert(
                "replication.follower_read_p50_us",
                percentile_us(&top.drive.read_ns, 0.5),
            );
            v.insert("replication.bootstrap_ms", ms(top.setup.bootstrap));
            v.insert("replication.promote_ms", harvest.promote.map_or(0.0, ms));
            attributed_ns += frame_encode_ns * stream.len() as f64;
        }
    }

    // docs-obs: what the traced run itself cost.
    v.insert(
        "obs.trace_overhead_ratio",
        per(
            traced.drive.answers as f64 / traced.drive.wall.as_secs_f64(),
            answers / top.drive.wall.as_secs_f64(),
        ),
    );

    // The ledger: each rung's cost per answer minus the rung below.
    let docs_us = us_per_answer(&direct);
    let mem_us = us_per_answer(mem_rung);
    v.insert("ledger.core_us_per_answer", docs_us);
    v.insert("ledger.service_us_per_answer", mem_us - docs_us);
    match own {
        Topology::Mem => {}
        Topology::Durable => {
            v.insert("ledger.durable_us_per_answer", us_per_answer(&top) - mem_us);
        }
        Topology::Replicated => {
            let durable_us = durable.as_ref().map_or(mem_us, us_per_answer);
            v.insert("ledger.durable_us_per_answer", durable_us - mem_us);
            v.insert(
                "ledger.replicated_us_per_answer",
                us_per_answer(&top) - durable_us,
            );
        }
    }
    // What the isolated costs (the `Docs` rung, client-side submits, codec,
    // append, fdatasync, snapshots, framing) leave unexplained of the
    // workload's wall: hand-off, wake-up and idle time between layers.
    v.insert(
        "ledger.unattributed_share",
        1.0 - per(attributed_ns, top_wall_ns),
    );
    v.insert("assign_p50_us", percentile_us(&top.drive.request_ns, 0.50));
    v.insert("assign_p95_us", percentile_us(&top.drive.request_ns, 0.95));
    v.insert("submit_p95_us", percentile_us(&top.drive.submit_ns, 0.95));
    v.insert(
        "failed_op_ratio",
        per(checks.failed as f64, checks.made as f64),
    );

    let spans_file = if write {
        let path = out_dir.join(format!("trace-{}.json", inputs.spec.workload.name()));
        write_spans(
            &path,
            inputs,
            seed,
            &traced.drive.spans,
            &traced.drive.traces,
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };
    checks.notes.truncate(16);
    Ok(LayerReport {
        values: v,
        checks,
        passes,
        spans_file,
    })
}

fn answers_in_stream(rep: &Repeat) -> u64 {
    rep.drive.events.iter().map(|e| answers_in(e)).sum()
}
