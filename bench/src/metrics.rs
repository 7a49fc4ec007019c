//! The benchmark's metric names, units, directions and bounds — the one
//! table `BENCHMARK.json`, the reports and `compare.py` agree on (a
//! self-test checks `BENCHMARK.json` against it).

use crate::inputs::Workload;
use std::fmt::Write as _;

/// How long one measured run lasts (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// The command `BENCHMARK.json` names: cargo builds this package (into
/// `CARGO_TARGET_DIR`) on the first call and only checks freshness after.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the service would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, with tracing off.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "answers_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "truth_accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "allocs_per_answer",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every workload's traced run reports every one of these; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // docs-kb + docs-core::dve
    lower("dve.link_us_per_task", "us"),
    lower("dve.vector_us_per_task", "us"),
    higher("dve.tasks", "count"),
    // docs-core::ti
    lower("ti.submit_ns_per_answer", "ns"),
    lower("ti.full_ms_per_run", "ms"),
    lower("ti.full_runs", "count"),
    lower("ti.full_share", "ratio"),
    // docs-core::ota
    lower("ota.assign_us_per_request", "us"),
    higher("ota.tasks_per_request", "count"),
    lower("ota.share", "ratio"),
    // docs-system
    lower("system.request_us_p50", "us"),
    lower("system.submit_batch_us_p50", "us"),
    lower("system.validate_ns_per_event", "ns"),
    lower("system.apply_ns_per_event", "ns"),
    lower("system.snapshot_ms", "ms"),
    lower("system.restore_ms", "ms"),
    lower("system.finish_ms", "ms"),
    higher("system.answers_per_s", "1/s"),
    // docs-types::codec
    lower("codec.encode_ns_per_event", "ns"),
    lower("codec.decode_ns_per_event", "ns"),
    lower("codec.bytes_per_event", "B"),
    // docs-storage
    lower("storage.append_ns_per_event", "ns"),
    lower("storage.sync_us_p50", "us"),
    higher("storage.events_per_sync", "count"),
    lower("storage.syncs_per_answer", "ratio"),
    lower("storage.snapshot_write_ms", "ms"),
    lower("storage.snapshots_written", "count"),
    lower("storage.snapshot_bytes", "B"),
    lower("storage.recover_tree_us_per_event", "us"),
    lower("storage.bytes_on_disk", "B"),
    // docs-service
    lower("service.client_submit_us_p50", "us"),
    lower("service.queue_wait_us_p50", "us"),
    lower("service.apply_us_p50", "us"),
    lower("service.flush_wait_us_p50", "us"),
    lower("service.ship_us_p50", "us"),
    lower("service.request_p50_us", "us"),
    lower("service.submit_batch_p50_us", "us"),
    lower("service.submit_p50_us", "us"),
    lower("service.queue_depth_max", "count"),
    lower("service.busy_rejections", "count"),
    lower("service.spawn_ms", "ms"),
    lower("service.create_campaign_us", "us"),
    lower("service.overhead_us_per_op", "us"),
    // docs-replication
    lower("replication.frame_encode_ns_per_event", "ns"),
    lower("replication.frame_decode_ns_per_event", "ns"),
    lower("replication.wire_bytes_per_event", "B"),
    higher("replication.events_per_frame", "count"),
    lower("replication.lag_p50_us", "us"),
    lower("replication.lag_p95_us", "us"),
    lower("replication.follower_read_p50_us", "us"),
    lower("replication.bootstrap_ms", "ms"),
    lower("replication.promote_ms", "ms"),
    // docs-obs
    higher("obs.trace_overhead_ratio", "ratio"),
    // the ledger: each rung minus the one below
    lower("ledger.core_us_per_answer", "us"),
    lower("ledger.service_us_per_answer", "us"),
    lower("ledger.durable_us_per_answer", "us"),
    lower("ledger.replicated_us_per_answer", "us"),
    lower("ledger.unattributed_share", "ratio"),
    // end-to-end quantities that not every workload has, that are 0 when
    // all is well, or that this box cannot hold to a bound; kept under
    // their end-to-end names
    lower("assign_p50_us", "us"),
    lower("assign_p95_us", "us"),
    lower("submit_p95_us", "us"),
    lower("recover_s", "s"),
    lower("wal_bytes_per_answer", "B"),
    lower("failed_op_ratio", "ratio"),
];

/// `BENCHMARK.json`, rendered from the tables above (`--benchmark-json`
/// prints it; a self-test compares the committed file with it).
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let items: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        items.join(", ")
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"bench\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"end_to_end\": [");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"per_layer\": [");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
