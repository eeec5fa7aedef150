//! In-process jobs: a deployed engine pumped from a store or JSONL source
//! through a `RunSession` (untraced), or through the traced pump copy.
//! The replay workloads are such jobs; the serve workloads run the same
//! job in-process as their traced copy and as the baseline their serving
//! overhead is measured against.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use saql_engine::alert::AlertOrigin;
use saql_engine::scheduler::SchedulerStats;
use saql_engine::sink::{AlertSink, JsonLinesSink};
use saql_engine::{Alert, CheckpointConfig, Engine, EngineConfig, SessionStatus};
use saql_model::Duration;
use saql_model::Event;
use saql_stream::merge::{Lateness, MergeConfig};
use saql_stream::source::{EventSource, JsonLinesSource, StoreSource};
use saql_stream::store::Selection;
use saql_stream::{SharedEvent, StoreReader, StoreWriter};

use crate::inputs::{self, Inputs};
use crate::stats::{self, RssPeak};
use crate::trace::{span, Spans, Stage, TimedSource, TracedPump};

/// Serve checkpoint cadence in events: `saql serve --checkpoint-every`'s
/// default.
pub const CHECKPOINT_EVERY: u64 = 4096;
/// Replay checkpoint cadence in events (`--checkpoint-every 65536`, about
/// two checkpoints a second). A checkpoint stalls its pump round for a
/// capture and an fsync; at the 4096 default that stall holds back ~6% of
/// alerts, so the replays' p99 tracked the host's fsync latency (IQR/median
/// 0.46 over five seeds). At this cadence it touches ~0.4% of alerts and
/// the p99 measures the pipeline; checkpoint cost stays in `events_per_s`
/// and in the `checkpoint.*` layer metrics.
pub const REPLAY_CHECKPOINT_EVERY: u64 = 65_536;
/// Events per serve pump round before the control plane gets a turn (the
/// server's round budget).
pub const SERVE_ROUND_BUDGET: usize = 65_536;

/// How one in-process job is deployed and driven.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    pub workers: usize,
    pub record_latency: bool,
    pub merge: MergeConfig,
    pub round_budget: usize,
    /// Cadence checkpoints every this many events (0 = none).
    pub checkpoint_every: u64,
    /// Append and sync every round to a segmented store before the engine
    /// consumes it (the serve tap).
    pub durable: bool,
    /// Flush open windows at the end (`Engine::finish`). A checkpointing
    /// server keeps them open for a resume instead.
    pub finish: bool,
    /// Read the JSONL rendering instead of the store.
    pub jsonl: bool,
    /// Attach the source in arrival order instead of under the merge's
    /// lateness bound (as the paced ingest connection declares).
    pub arrival_order: bool,
}

impl JobSpec {
    /// `saql replay --source store:… --checkpoint-dir … [--workers N]`.
    pub fn replay(workers: usize) -> JobSpec {
        JobSpec {
            workers,
            record_latency: false,
            merge: MergeConfig::default(),
            round_budget: usize::MAX,
            checkpoint_every: REPLAY_CHECKPOINT_EVERY,
            durable: false,
            finish: true,
            jsonl: false,
            arrival_order: false,
        }
    }

    /// The serve core's work over the same JSONL, without the network:
    /// the server's engine and merge settings, round budget, durable tap
    /// and checkpoint cadence.
    pub fn serve_copy(durable: bool) -> JobSpec {
        JobSpec {
            workers: 0,
            record_latency: true,
            merge: MergeConfig {
                lateness: Duration::from_secs(1),
                pull_batch: 256,
            },
            round_budget: SERVE_ROUND_BUDGET,
            checkpoint_every: if durable { CHECKPOINT_EVERY } else { 0 },
            durable,
            finish: !durable,
            jsonl: true,
            arrival_order: !durable,
        }
    }

    fn lateness(&self) -> Lateness {
        if self.arrival_order {
            Lateness::ArrivalOrder
        } else {
            Lateness::Bounded(self.merge.lateness)
        }
    }

    fn engine(&self) -> Engine {
        Engine::new(EngineConfig {
            workers: self.workers,
            record_latency: self.record_latency,
            ..EngineConfig::default()
        })
    }
}

/// Per-layer measurements of a traced job.
#[derive(Default)]
pub struct Traced {
    pub self_ns: [u64; Stage::ALL.len()],
    pub pulled: u64,
    pub sink_alerts: u64,
    pub sink_bytes: u64,
    pub checkpoint_bytes: u64,
    pub capture_ns: Vec<f64>,
    pub write_ns: Vec<f64>,
    pub sync_ns: Vec<f64>,
}

/// One job repetition.
#[derive(Default)]
pub struct JobRun {
    pub setup_s: f64,
    pub register_s: f64,
    /// First event offered to end of stream (finish and sink flush
    /// included).
    pub wall_s: f64,
    pub cpu_s: f64,
    pub events: u64,
    pub rss_growth_mb: f64,
    pub alerts_jsonl: Vec<u8>,
    /// Match alerts: (when the pump round that released the triggering
    /// event began, s after the first round; latency from then to the
    /// alert's delivery into the sink, ms).
    pub latencies: Vec<(f64, f64)>,
    pub dropped_late: u64,
    pub source_failures: u64,
    pub dropped_alerts: u64,
    pub stats: SchedulerStats,
    pub shard_stats: Vec<SchedulerStats>,
    pub traced: Option<Traced>,
}

fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    path.to_path_buf()
}

fn register_all(engine: &mut Engine) -> Result<(), String> {
    for (name, src) in inputs::queries() {
        engine
            .register(name, src)
            .map_err(|e| format!("query {name}: {}", e.render(src)))?;
    }
    Ok(())
}

fn open_source<'a>(
    inputs: &'a Inputs,
    reader: Option<&StoreReader>,
) -> Result<Box<dyn EventSource + 'a>, String> {
    match reader {
        Some(reader) => Ok(Box::new(
            StoreSource::open("store", reader, &Selection::all()).map_err(|e| e.to_string())?,
        )),
        None => Ok(Box::new(JsonLinesSource::new("jsonl", &inputs.jsonl[..]))),
    }
}

/// The durable write-ahead tap's append: copy the round's events into the
/// store (the caller syncs).
fn durable_append(writer: &mut StoreWriter, events: &[SharedEvent]) -> Result<(), String> {
    let fresh: Vec<Event> = events.iter().map(|e| Event::clone(e)).collect();
    writer.append(&fresh).map(|_| ()).map_err(|e| e.to_string())
}

/// Round-start times by stream offset, for alert latency.
struct Rounds {
    t0: Instant,
    starts: Vec<(u64, Instant)>,
}

impl Rounds {
    /// When the event at `offset` was released into the engine.
    fn offered(&self, offset: u64) -> Option<Instant> {
        let idx = self.starts.partition_point(|(o, _)| *o <= offset);
        idx.checked_sub(1).map(|i| self.starts[i].1)
    }

    fn record(&mut self, alert: &Alert, latencies: &mut Vec<(f64, f64)>) {
        if let AlertOrigin::Match { event_ids } = &alert.origin {
            // Trace ids are dense from 1 in stream order.
            let offset = event_ids.iter().max().map(|id| id - 1);
            if let Some(t) = offset.and_then(|o| self.offered(o)) {
                latencies.push(((t - self.t0).as_secs_f64(), t.elapsed().as_secs_f64() * 1e3));
            }
        }
    }
}

/// What both runners set up before the first event.
struct Deployment {
    t_setup: Instant,
    engine: Engine,
    register_s: f64,
    reader: Option<StoreReader>,
    /// The durable tap's store.
    writer: Option<StoreWriter>,
    ckpt_dir: PathBuf,
}

fn deploy(spec: &JobSpec, inputs: &Inputs, work: &Path) -> Result<Deployment, String> {
    let ckpt_dir = fresh_dir(&work.join("ckpt"));
    let tap_dir = fresh_dir(&work.join("tap-store"));
    let t_setup = Instant::now();
    let mut engine = spec.engine();
    let t_reg = Instant::now();
    register_all(&mut engine)?;
    let register_s = stats::secs(t_reg);
    let reader = match &inputs.store {
        Some(path) if !spec.jsonl => Some(StoreReader::open(path).map_err(|e| e.to_string())?),
        _ => None,
    };
    let writer = if spec.durable {
        Some(StoreWriter::create_segmented(&tap_dir).map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok(Deployment {
        t_setup,
        engine,
        register_s,
        reader,
        writer,
        ckpt_dir,
    })
}

/// Run the job once through the real `RunSession`.
pub fn run_untraced(spec: &JobSpec, inputs: &Inputs, work: &Path) -> Result<JobRun, String> {
    let mut rss = RssPeak::start();
    let Deployment {
        t_setup,
        mut engine,
        register_s,
        reader,
        mut writer,
        ckpt_dir,
    } = deploy(spec, inputs, work)?;
    let mut run = JobRun {
        register_s,
        ..JobRun::default()
    };
    let mut sink = JsonLinesSink::new(Vec::with_capacity(8 << 20));
    let mut tap_err: Option<String> = None;
    {
        let source = open_source(inputs, reader.as_ref())?;
        let mut session = engine.session_with(spec.merge);
        session.attach_with(source, spec.lateness());
        if spec.checkpoint_every > 0 {
            session.enable_checkpoints(CheckpointConfig {
                dir: ckpt_dir.clone(),
                every_events: spec.checkpoint_every,
            });
        }
        run.setup_s = stats::secs(t_setup);

        let cpu0 = stats::process_cpu_s();
        let t0 = Instant::now();
        let mut rounds = Rounds {
            t0,
            starts: Vec::new(),
        };
        let mut tap = |_: u64, events: &[SharedEvent]| {
            if let Some(w) = writer.as_mut() {
                if let Err(e) =
                    durable_append(w, events).and_then(|_| w.sync().map_err(|e| e.to_string()))
                {
                    tap_err.get_or_insert(e);
                }
            }
        };
        loop {
            rounds.starts.push((session.offset(), Instant::now()));
            let round = session.pump_tapped(spec.round_budget, &mut tap);
            for alert in &round.alerts {
                sink.deliver(alert);
                rounds.record(alert, &mut run.latencies);
            }
            if rounds.starts.len().is_multiple_of(16) {
                rss.sample();
            }
            match round.status {
                SessionStatus::Done => break,
                SessionStatus::Active => {}
                SessionStatus::Idle => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        if spec.finish {
            for alert in session.engine().finish() {
                sink.deliver(&alert);
            }
        }
        sink.flush();
        run.wall_s = stats::secs(t0);
        run.cpu_s = stats::process_cpu_s() - cpu0;
        run.events = session.processed();
        run.dropped_late = session
            .source_stats()
            .iter()
            .map(|(_, s)| s.dropped_late)
            .sum();
        run.source_failures = session
            .source_stats()
            .iter()
            .filter(|(_, s)| s.failure.is_some())
            .count() as u64;
        if session.checkpoint_failure().is_some() {
            return Err(format!(
                "checkpoint failed: {}",
                session.checkpoint_failure().expect("checked")
            ));
        }
    }
    if let Some(e) = tap_err {
        return Err(format!("durable tap failed: {e}"));
    }
    run.rss_growth_mb = rss.growth_mb();
    finish_run(&mut run, &engine, sink);
    Ok(run)
}

/// Run the job once through the traced pump copy.
pub fn run_traced(spec: &JobSpec, inputs: &Inputs, work: &Path) -> Result<JobRun, String> {
    let spans = Spans::new();
    let pulled = Rc::new(RefCell::new(0u64));
    let mut traced = Traced::default();
    let Deployment {
        t_setup,
        mut engine,
        register_s,
        reader,
        mut writer,
        ckpt_dir,
    } = deploy(spec, inputs, work)?;
    let mut run = JobRun {
        register_s,
        ..JobRun::default()
    };
    let mut sink = JsonLinesSink::new(Vec::with_capacity(8 << 20));
    let mut tap_err: Option<String> = None;
    {
        let source = open_source(inputs, reader.as_ref())?;
        let mut pump = TracedPump::new(&mut engine, spec.merge, Rc::clone(&spans));
        pump.attach_with(
            TimedSource::new(source, Rc::clone(&spans), Rc::clone(&pulled)),
            spec.lateness(),
        );
        if spec.checkpoint_every > 0 {
            pump.enable_checkpoints(ckpt_dir.clone(), spec.checkpoint_every);
        }
        run.setup_s = stats::secs(t_setup);

        let cpu0 = stats::process_cpu_s();
        let t0 = Instant::now();
        let spans_tap = Rc::clone(&spans);
        let mut tap = |_: u64, events: &[SharedEvent]| {
            if let Some(w) = writer.as_mut() {
                let appended = span(&spans_tap, Stage::DurableAppend, || {
                    durable_append(w, events)
                });
                let synced = appended.and_then(|_| {
                    span(&spans_tap, Stage::DurableSync, || w.sync()).map_err(|e| e.to_string())
                });
                if let Err(e) = synced {
                    tap_err.get_or_insert(e);
                }
            }
        };
        loop {
            let round = pump
                .pump_tapped(spec.round_budget, &mut tap)
                .map_err(|e| e.to_string())?;
            for alert in &round.alerts {
                span(&spans, Stage::Sink, || sink.deliver(alert));
                traced.sink_alerts += 1;
            }
            match round.status {
                SessionStatus::Done => break,
                SessionStatus::Active => {}
                SessionStatus::Idle => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        if spec.finish {
            for alert in pump.finish() {
                span(&spans, Stage::Sink, || sink.deliver(&alert));
                traced.sink_alerts += 1;
            }
        }
        span(&spans, Stage::Sink, || sink.flush());
        run.wall_s = stats::secs(t0);
        run.cpu_s = stats::process_cpu_s() - cpu0;
        run.events = pump.processed();
        run.dropped_late = pump.dropped_late();
        run.source_failures = pump.source_failures();
        traced.checkpoint_bytes = pump.checkpoint_bytes;
    }
    if let Some(e) = tap_err {
        return Err(format!("durable tap failed: {e}"));
    }
    let spans = spans.borrow();
    traced.self_ns = spans.self_ns();
    traced.pulled = *pulled.borrow();
    traced.capture_ns = spans.durations(Stage::CheckpointCapture);
    traced.write_ns = spans.durations(Stage::CheckpointWrite);
    traced.sync_ns = spans.durations(Stage::DurableSync);
    finish_run(&mut run, &engine, sink);
    traced.sink_bytes = run.alerts_jsonl.len() as u64;
    run.traced = Some(traced);
    Ok(run)
}

fn finish_run(run: &mut JobRun, engine: &Engine, sink: JsonLinesSink<Vec<u8>>) {
    run.dropped_alerts = engine.dropped_alerts();
    run.stats = engine.scheduler_stats();
    run.shard_stats = engine.shard_stats().into_iter().map(|(_, s)| s).collect();
    run.alerts_jsonl = sink.into_inner();
}

/// Time each query alone in a one-query serial engine over the trace's
/// engine batches — the hot-query table. Returns `(name, ns/event)`.
pub fn query_table(inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let batch = EngineConfig::default().batch_size.max(1);
    let batches: Vec<saql_stream::EventBatch> = inputs
        .events
        .chunks(batch)
        .map(|c| saql_stream::EventBatch::from_events(c.to_vec()))
        .collect();
    inputs::queries()
        .into_iter()
        .map(|(name, src)| {
            let mut engine = Engine::new(EngineConfig::default());
            engine
                .register(name, src)
                .expect("benchmark queries compile");
            let t = Instant::now();
            let mut alerts = 0usize;
            for b in &batches {
                alerts += engine.process_batch(b).expect("serial engine").len();
            }
            alerts += engine.finish().len();
            std::hint::black_box(alerts);
            (
                name,
                t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64,
            )
        })
        .collect()
}
