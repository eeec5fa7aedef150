//! Seeded benchmark inputs: the simulated enterprise trace, its segmented
//! event store and its JSONL rendering, plus the query deployment every
//! workload runs. Everything here is built before any timed section.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use saql_collector::{AttackConfig, AttackStep, SimConfig, Simulator};
use saql_lang::corpus;
use saql_stream::{SharedEvent, StoreWriter};

/// Simulated trace length. The APT attack sits at fixed trace times
/// (~38–51 min) and the invariant query trains on the first windows, so
/// the trace must be well past an hour; 300 minutes of 8 clients plus four
/// servers is ~146k events — a replay repetition of a few tenths of a
/// second, and ~3 s of paced serving.
pub const TRACE_MINUTES: u64 = 300;
/// Windows clients in the simulated enterprise.
pub const CLIENTS: usize = 8;

/// Name of the process-start audit query deployed beside the demo queries.
pub const AUDIT_QUERY: &str = "audit-proc-start";
/// The audit query: every process start raises an alert (~15% of events),
/// the steady alert stream detection latency is sampled from.
pub const AUDIT_SOURCE: &str = "proc p start proc q as e\nreturn p, q";

/// The deployment every workload runs, in registration order: the eight
/// demo queries of the paper's §III, then the audit query.
pub fn queries() -> Vec<(&'static str, &'static str)> {
    let mut q: Vec<(&str, &str)> = corpus::DEMO_QUERIES.to_vec();
    q.push((AUDIT_QUERY, AUDIT_SOURCE));
    q
}

/// Demo query that targets each attack step (c1–c5, in step order).
pub fn step_query(step: AttackStep) -> &'static str {
    let idx = AttackStep::ALL
        .iter()
        .position(|s| *s == step)
        .expect("every step is in ALL");
    corpus::DEMO_QUERIES[idx].0
}

/// One seed's generated inputs.
pub struct Inputs {
    pub seed: u64,
    /// The trace, shared for in-process reference runs.
    pub events: Vec<SharedEvent>,
    pub hosts: usize,
    /// Ground truth: event ids of each attack step.
    pub attack_ids: Vec<(AttackStep, Vec<u64>)>,
    /// Segmented store directory holding the trace (replay workloads).
    pub store: Option<PathBuf>,
    pub store_bytes: u64,
    /// The trace as JSON lines (serve workloads).
    pub jsonl: Vec<u8>,
    /// Byte offset one past each line's newline, in event order.
    pub line_ends: Vec<usize>,
}

impl Inputs {
    /// Generate the trace for `seed`; write the store under `dir` when
    /// `store`, render JSONL when `jsonl`.
    pub fn generate(seed: u64, dir: &Path, store: bool, jsonl: bool) -> Result<Inputs, String> {
        let trace = Simulator::generate(&SimConfig {
            seed,
            clients: CLIENTS,
            duration_ms: TRACE_MINUTES * 60_000,
            attack: Some(AttackConfig::default()),
        });
        let hosts = trace.topology.hosts.len();
        let mut inputs = Inputs {
            seed,
            events: Vec::new(),
            hosts,
            attack_ids: trace.attack_ids.clone(),
            store: None,
            store_bytes: 0,
            jsonl: Vec::new(),
            line_ends: Vec::new(),
        };
        if store {
            let path = dir.join("store");
            let mut writer = StoreWriter::create_segmented(&path).map_err(|e| e.to_string())?;
            writer.append(&trace.events).map_err(|e| e.to_string())?;
            writer
                .seal()
                .and_then(|_| writer.sync())
                .map_err(|e| e.to_string())?;
            inputs.store_bytes = dir_bytes(&path);
            inputs.store = Some(path);
        }
        if jsonl {
            let mut line = String::with_capacity(256);
            for event in &trace.events {
                line.clear();
                saql_model::json::encode_event_json(&mut line, event);
                inputs.jsonl.extend_from_slice(line.as_bytes());
                inputs.line_ends.push(inputs.jsonl.len());
            }
        }
        inputs.events = trace.events.into_iter().map(Arc::new).collect();
        Ok(inputs)
    }

    pub fn len(&self) -> u64 {
        self.events.len() as u64
    }

    /// Bytes of the input format a workload reads, per event.
    pub fn bytes_per_event(&self, jsonl: bool) -> f64 {
        let bytes = if jsonl {
            self.jsonl.len() as u64
        } else {
            self.store_bytes
        };
        bytes as f64 / self.len().max(1) as f64
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The machine and build a result was measured on, as one JSON object.
pub fn environment(seed: u64) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"rustc\":{},\"git_sha\":{},\"seed\":{seed}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc),
        json_str(&git_sha().unwrap_or_else(|| "unknown".into())),
    )
}

/// The checked-out commit, when run from a git work tree.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// A JSON string literal (the values stamped here are plain text).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
