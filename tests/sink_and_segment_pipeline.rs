//! End-to-end plumbing around the engine: alert sinks feeding consumer
//! threads and JSON exports, and the segmented store serving pruned replays
//! into live queries.

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::engine::sink::{ChannelSink, CollectSink, JsonLinesSink, TeeSink};
use saql::engine::{Engine, EngineConfig};
use saql::model::Timestamp;
use saql::stream::source::StoreSource;
use saql::stream::store::Selection;
use saql::stream::{StoreReader, StoreWriter};

fn small_attack_trace() -> saql::collector::Trace {
    Simulator::generate(&SimConfig {
        seed: 31,
        clients: 4,
        duration_ms: 45 * 60_000,
        attack: Some(AttackConfig {
            start: Timestamp::from_millis(20 * 60_000),
            step_gap_ms: 3 * 60_000,
        }),
    })
}

#[test]
fn channel_sink_feeds_consumer_thread() {
    let trace = small_attack_trace();
    let (mut sink, rx) = ChannelSink::new(256);

    // Consumer: counts c5 alerts on its own thread.
    let consumer = std::thread::spawn(move || {
        rx.into_iter()
            .filter(|a| a.query == "c5-exfiltration")
            .count()
    });

    let mut engine = Engine::new(EngineConfig::default());
    for (name, src) in saql::corpus::DEMO_QUERIES {
        engine.register(name, src).unwrap();
    }
    let delivered = engine.run_with_sink(trace.shared(), &mut sink).unwrap();
    drop(sink); // close the channel so the consumer finishes
    let c5_seen = consumer.join().unwrap();

    // The five rule queries plus (at minimum) the SMA and outlier models
    // fire on this shorter trace; the invariant query is still training at
    // the 20-minute attack start (it needs 100 ten-second windows).
    assert!(delivered >= 7, "delivered only {delivered}");
    assert_eq!(c5_seen, 1);
}

#[test]
fn json_lines_export_round_trips_key_fields() {
    let trace = small_attack_trace();
    let mut engine = Engine::new(EngineConfig::default());
    for (name, src) in saql::corpus::DEMO_QUERIES {
        engine.register(name, src).unwrap();
    }
    let mut json = JsonLinesSink::new(Vec::new());
    let mut collect = CollectSink::default();
    {
        let mut tee = TeeSink {
            sinks: vec![&mut json, &mut collect],
        };
        engine.run_with_sink(trace.shared(), &mut tee).unwrap();
    }
    let text = String::from_utf8(json.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), collect.alerts.len());
    // Every line is a JSON object naming its query; the exfil line carries
    // the attacker ip.
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"query\":"), "{line}");
    }
    let exfil = lines
        .iter()
        .find(|l| l.contains("c5-exfiltration"))
        .expect("exfil alert exported");
    assert!(exfil.contains("172.16.9.129"), "{exfil}");
}

/// Persist the trace as a segmented store of `segment_events`-sized
/// segments and open it for reading.
fn stored(
    trace: &saql::collector::Trace,
    tag: &str,
    segment_events: usize,
) -> (std::path::PathBuf, StoreReader) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-seg-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create_segmented_with(&dir, segment_events).unwrap();
    writer.append(&trace.events).unwrap();
    writer.seal().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    (dir, reader)
}

#[test]
fn segmented_store_prunes_and_detects() {
    let trace = small_attack_trace();
    let (dir, reader) = stored(&trace, "pipeline", 4096);

    // Select only the attack tail on the DB server: most segments skip.
    let selection = Selection::host("db-server").between(
        Timestamp::from_millis(25 * 60_000),
        Timestamp::from_millis(45 * 60_000),
    );
    let segments = reader.segments();
    let planned = segments.iter().filter(|m| m.intersects(&selection)).count();
    assert!(
        planned > 0 && planned < segments.len(),
        "{planned} of {}",
        segments.len()
    );

    // The selected slice, streamed in stored order, still powers the
    // exfiltration detection.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("c5", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    let mut session = engine.session();
    session.attach(StoreSource::open("db-tail", &reader, &selection).unwrap());
    let alerts = session.drain();
    assert!(alerts.iter().any(|a| a.query == "c5"), "{alerts:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn segmented_store_selection_matches_trace_filter() {
    let trace = small_attack_trace();
    let (dir, reader) = stored(&trace, "filter", 1000);

    for selection in [
        Selection::all(),
        Selection::host("client-3"),
        Selection::all().between(
            Timestamp::from_millis(0),
            Timestamp::from_millis(10 * 60_000),
        ),
    ] {
        let expected: Vec<_> = trace
            .events
            .iter()
            .filter(|e| selection.matches(e))
            .cloned()
            .collect();
        assert!(!expected.is_empty(), "{selection:?}");
        assert_eq!(reader.read(&selection).unwrap(), expected, "{selection:?}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}
