//! Tracing from outside the program: in-memory spans around calls into
//! each layer's public functions, a timing [`EventSource`] wrapper, and a
//! bench-side copy of `RunSession::pump_tapped` that opens a span at every
//! layer boundary the real pump crosses.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use saql_engine::{Alert, Engine, EngineError, SessionStatus};
use saql_model::Timestamp;
use saql_stream::merge::{Lateness, MergeConfig, MergeStatus, WatermarkMerge};
use saql_stream::source::{EventSource, SourcePoll};
use saql_stream::{EventBatch, SharedEvent};

/// The layers a traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `EventSource::poll` — store decode or JSONL parse.
    Source,
    /// `WatermarkMerge::poll`, minus the source polls inside it.
    Merge,
    /// `EventBatch::from_events` over one engine chunk.
    Batch,
    /// `Engine::process_batch` (the serial scheduler, or the parallel
    /// runtime's coordinator).
    Drive,
    /// `Engine::finish`.
    Finish,
    /// `AlertSink::deliver` (alert rendering and write).
    Sink,
    /// `Engine::checkpoint`.
    CheckpointCapture,
    /// `Checkpoint::write_atomic`.
    CheckpointWrite,
    /// `StoreWriter::append` in the durable tap (event copies included).
    DurableAppend,
    /// `StoreWriter::sync` in the durable tap.
    DurableSync,
}

impl Stage {
    pub const ALL: [Stage; 10] = [
        Stage::Source,
        Stage::Merge,
        Stage::Batch,
        Stage::Drive,
        Stage::Finish,
        Stage::Sink,
        Stage::CheckpointCapture,
        Stage::CheckpointWrite,
        Stage::DurableAppend,
        Stage::DurableSync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Source => "source",
            Stage::Merge => "merge",
            Stage::Batch => "batch",
            Stage::Drive => "drive",
            Stage::Finish => "finish",
            Stage::Sink => "sink",
            Stage::CheckpointCapture => "checkpoint.capture",
            Stage::CheckpointWrite => "checkpoint.write",
            Stage::DurableAppend => "durable.append",
            Stage::DurableSync => "durable.sync",
        }
    }

    /// Position in [`Stage::ALL`] (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    stage: Stage,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans recorded in memory; nesting follows call nesting.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Rc<RefCell<Spans>> {
        Rc::new(RefCell::new(Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, stage: Stage) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stage,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    fn exit(&mut self) {
        let idx = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Per-stage self time (span time minus child span time), ns.
    pub fn self_ns(&self) -> [u64; Stage::ALL.len()] {
        let mut out = [0u64; Stage::ALL.len()];
        for span in &self.spans {
            let dur = span.end_ns - span.start_ns;
            out[span.stage.index()] += dur;
            if span.parent != NO_PARENT {
                let parent = self.spans[span.parent as usize].stage;
                out[parent.index()] -= dur;
            }
        }
        out
    }

    /// Durations of every span of `stage`, ns.
    pub fn durations(&self, stage: Stage) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Run `f` inside a span of `stage`. The borrow is released while `f`
/// runs, so spans nest.
pub fn span<T>(spans: &RefCell<Spans>, stage: Stage, f: impl FnOnce() -> T) -> T {
    spans.borrow_mut().enter(stage);
    let out = f();
    spans.borrow_mut().exit();
    out
}

/// An [`EventSource`] that times every poll and counts what it pulled,
/// forwarding everything else to the wrapped source untouched.
pub struct TimedSource<S> {
    inner: S,
    spans: Rc<RefCell<Spans>>,
    pulled: Rc<RefCell<u64>>,
}

impl<S: EventSource> TimedSource<S> {
    pub fn new(inner: S, spans: Rc<RefCell<Spans>>, pulled: Rc<RefCell<u64>>) -> Self {
        TimedSource {
            inner,
            spans,
            pulled,
        }
    }
}

impl<S: EventSource> EventSource for TimedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> SourcePoll {
        let before = out.len();
        let poll = span(&self.spans, Stage::Source, || self.inner.poll(out, max));
        *self.pulled.borrow_mut() += (out.len() - before) as u64;
        poll
    }

    fn watermark(&self) -> Option<Timestamp> {
        self.inner.watermark()
    }

    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
}

/// What one traced pump round produced (mirror of `saql_engine::Pump`).
pub struct Round {
    pub alerts: Vec<Alert>,
    pub status: SessionStatus,
}

/// A copy of `RunSession::pump_tapped` with a span at each layer call:
/// merge poll (source polls nest inside), batch build, engine drive, and
/// the cadence checkpoint's capture and atomic write. Alert order and
/// content are those of the real pump (see the tests).
pub struct TracedPump<'e> {
    engine: &'e mut Engine,
    merge: WatermarkMerge<'e>,
    batch: Vec<SharedEvent>,
    processed: u64,
    spans: Rc<RefCell<Spans>>,
    checkpoints: Option<(PathBuf, u64)>,
    since_checkpoint: u64,
    /// Size of the last checkpoint file written.
    pub checkpoint_bytes: u64,
}

impl<'e> TracedPump<'e> {
    pub fn new(engine: &'e mut Engine, config: MergeConfig, spans: Rc<RefCell<Spans>>) -> Self {
        TracedPump {
            engine,
            merge: WatermarkMerge::new(config),
            batch: Vec::new(),
            processed: 0,
            spans,
            checkpoints: None,
            since_checkpoint: 0,
            checkpoint_bytes: 0,
        }
    }

    /// Attach a source with an explicit ordering contract.
    pub fn attach_with<S: EventSource + 'e>(&mut self, source: S, lateness: Lateness) {
        self.merge.attach_with(Box::new(source), lateness);
    }

    /// Checkpoint into `dir` after every `every` events, at round
    /// boundaries (the session's cadence rule).
    pub fn enable_checkpoints(&mut self, dir: PathBuf, every: u64) {
        self.checkpoints = Some((dir, every));
    }

    pub fn processed(&self) -> u64 {
        self.processed
    }

    pub fn dropped_late(&self) -> u64 {
        self.merge
            .source_stats()
            .iter()
            .map(|(_, s)| s.dropped_late)
            .sum()
    }

    pub fn source_failures(&self) -> u64 {
        self.merge
            .source_stats()
            .iter()
            .filter(|(_, s)| s.failure.is_some())
            .count() as u64
    }

    pub fn pump_tapped(
        &mut self,
        max: usize,
        tap: &mut dyn FnMut(u64, &[SharedEvent]),
    ) -> Result<Round, EngineError> {
        self.batch.clear();
        let status = span(&self.spans, Stage::Merge, || {
            self.merge.poll(&mut self.batch, max)
        });
        if !self.batch.is_empty() {
            tap(self.processed, &self.batch);
        }
        let mut alerts = Vec::new();
        for chunk in self.batch.chunks(self.engine.batch_size()) {
            let batch = span(&self.spans, Stage::Batch, || {
                EventBatch::from_events(chunk.to_vec())
            });
            let engine = &mut *self.engine;
            alerts.extend(span(&self.spans, Stage::Drive, || {
                engine.process_batch(&batch)
            })?);
        }
        let events = self.batch.len() as u64;
        self.processed += events;
        if let Some((dir, every)) = &self.checkpoints {
            self.since_checkpoint += events;
            if *every > 0 && self.since_checkpoint >= *every {
                let (offset, frontier) = (self.processed, self.merge.frontier());
                let engine = &mut *self.engine;
                let checkpoint = span(&self.spans, Stage::CheckpointCapture, || {
                    engine.checkpoint(offset, frontier)
                })?;
                let path = span(&self.spans, Stage::CheckpointWrite, || {
                    checkpoint.write_atomic(dir)
                })?;
                self.since_checkpoint = 0;
                self.checkpoint_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            }
        }
        Ok(Round {
            alerts,
            status: match status {
                MergeStatus::Active => SessionStatus::Active,
                MergeStatus::Idle => SessionStatus::Idle,
                MergeStatus::Done => SessionStatus::Done,
            },
        })
    }

    /// `Engine::finish`, traced.
    pub fn finish(&mut self) -> Vec<Alert> {
        let engine = &mut *self.engine;
        span(&self.spans, Stage::Finish, || engine.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_collector::{AttackConfig, SimConfig, Simulator};
    use saql_engine::sink::{AlertSink, JsonLinesSink};
    use saql_engine::EngineConfig;
    use saql_stream::source::{push_source, IterSource};

    fn small_trace() -> Vec<SharedEvent> {
        Simulator::generate(&SimConfig {
            seed: 3,
            clients: 3,
            duration_ms: 60 * 60_000,
            attack: Some(AttackConfig::default()),
        })
        .shared()
    }

    fn deployed() -> Engine {
        let mut engine = Engine::new(EngineConfig {
            batch_size: 64,
            ..EngineConfig::default()
        });
        for (name, src) in crate::inputs::queries() {
            engine.register(name, src).unwrap();
        }
        engine
    }

    #[test]
    fn traced_pump_matches_run_session() {
        let events = small_trace();
        let config = MergeConfig {
            pull_batch: 100,
            ..MergeConfig::default()
        };

        let mut real = deployed();
        let mut want = JsonLinesSink::new(Vec::new());
        let mut session = real.session_with(config);
        session.attach(IterSource::new("t", events.clone()));
        let n = session.drain_into(&mut want);
        assert!(n > 100, "the audit query fires on process starts");

        let mut copy = deployed();
        let spans = Spans::new();
        let pulled = Rc::new(RefCell::new(0));
        let mut got = JsonLinesSink::new(Vec::new());
        let mut pump = TracedPump::new(&mut copy, config, Rc::clone(&spans));
        pump.attach_with(
            TimedSource::new(
                IterSource::new("t", events.clone()),
                Rc::clone(&spans),
                Rc::clone(&pulled),
            ),
            Lateness::Bounded(config.lateness),
        );
        loop {
            let round = pump.pump_tapped(usize::MAX, &mut |_, _| {}).unwrap();
            for alert in &round.alerts {
                got.deliver(alert);
            }
            if round.status == SessionStatus::Done {
                break;
            }
        }
        for alert in pump.finish() {
            got.deliver(&alert);
        }
        assert_eq!(pump.processed(), events.len() as u64);
        assert_eq!(*pulled.borrow(), events.len() as u64);
        assert_eq!(
            String::from_utf8(got.into_inner()).unwrap(),
            String::from_utf8(want.into_inner()).unwrap(),
            "same alerts in the same order"
        );
        let self_ns = spans.borrow().self_ns();
        assert!(self_ns[Stage::Source.index()] > 0);
        assert!(self_ns[Stage::Drive.index()] > 0);
    }

    #[test]
    fn timed_source_forwards_watermark_and_failure() {
        let (push, source) = push_source("live", 8);
        let spans = Spans::new();
        let pulled = Rc::new(RefCell::new(0));
        let mut timed = TimedSource::new(source, Rc::clone(&spans), Rc::clone(&pulled));
        assert_eq!(timed.watermark(), None);
        assert_eq!(timed.failure(), None);
        push.advance_watermark(Timestamp::from_millis(42));
        push.report_failure("decoder hiccup");
        assert_eq!(timed.watermark(), Some(Timestamp::from_millis(42)));
        assert_eq!(timed.failure().as_deref(), Some("decoder hiccup"));
        assert_eq!(timed.name(), "live");
        let mut out = Vec::new();
        assert_eq!(timed.poll(&mut out, 4), SourcePoll::Idle);
        assert_eq!(spans.borrow().durations(Stage::Source).len(), 1);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new();
        span(&spans, Stage::Merge, || {
            span(&spans, Stage::Source, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            })
        });
        let s = spans.borrow().self_ns();
        assert!(s[Stage::Source.index()] >= 20_000_000);
        assert!(s[Stage::Merge.index()] < s[Stage::Source.index()]);
    }
}
