//! The demo's storage/replay loop (paper Fig. 4): collected monitoring data
//! is stored in the event store, then replayed as a stream so the same
//! queries produce the same alerts — including host and time-range
//! selections.

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::engine::{Alert, Engine, EngineConfig};
use saql::stream::source::{push_source, StoreSource};
use saql::stream::store::Selection;
use saql::stream::{StoreReader, StoreWriter};
use saql::SaqlSystem;

fn trace() -> saql::collector::Trace {
    Simulator::generate(&SimConfig {
        seed: 99,
        clients: 4,
        duration_ms: 45 * 60_000,
        attack: Some(AttackConfig {
            start: saql::model::Timestamp::from_millis(20 * 60_000),
            step_gap_ms: 3 * 60_000,
        }),
    })
}

/// Persist the trace as a segmented store and open it for reading.
fn stored(trace: &saql::collector::Trace, tag: &str) -> (std::path::PathBuf, StoreReader) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-replay-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create_segmented(&dir).unwrap();
    writer.append(&trace.events).unwrap();
    writer.sync().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    (dir, reader)
}

/// Replay a store selection through the demo queries.
fn replay(reader: &StoreReader, selection: &Selection) -> Vec<Alert> {
    let mut system = SaqlSystem::new();
    system.deploy_demo_queries().unwrap();
    let mut session = system.engine().session();
    session.attach(StoreSource::open("replay", reader, selection).unwrap());
    session.drain()
}

#[test]
fn live_and_replayed_streams_produce_identical_alerts() {
    let trace = trace();

    // Live run.
    let mut live = SaqlSystem::new();
    live.deploy_demo_queries().unwrap();
    let mut live_alerts: Vec<String> = live
        .run_events(trace.shared())
        .iter()
        .map(|a| a.to_string())
        .collect();
    live_alerts.sort();

    // Store, then replay the store as a stream.
    let (dir, reader) = stored(&trace, "identical");
    let mut replay_alerts: Vec<String> = replay(&reader, &Selection::all())
        .iter()
        .map(|a| a.to_string())
        .collect();
    replay_alerts.sort();

    assert_eq!(live_alerts, replay_alerts);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn host_selection_replays_only_that_hosts_detections() {
    let trace = trace();
    let (dir, reader) = stored(&trace, "host-sel");

    // Replay only the DB server: the c5 rule query still fires, the
    // client-side c1–c3 queries cannot.
    let selection = Selection::host("db-server");
    assert!(!reader.read(&selection).unwrap().is_empty());
    let alerts = replay(&reader, &selection);
    assert!(alerts.iter().any(|a| a.query == "c5-exfiltration"));
    assert!(!alerts.iter().any(|a| a.query == "c1-initial-compromise"));
    assert!(!alerts.iter().any(|a| a.query == "c2-malware-infection"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn time_range_selection_cuts_the_attack_out() {
    let trace = trace();
    let attack_start = trace.attack_spans[0].1;
    let (dir, reader) = stored(&trace, "time-sel");

    // Replay only the pre-attack prefix: everything must stay quiet.
    let selection = Selection::all().between(saql::model::Timestamp::ZERO, attack_start);
    assert!(!reader.read(&selection).unwrap().is_empty());
    let alerts = replay(&reader, &selection);
    assert!(
        alerts.is_empty(),
        "{:?}",
        alerts.iter().take(3).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn channel_replay_feeds_engine_across_threads() {
    let trace = trace();
    let (dir, reader) = stored(&trace, "channel");

    // A producer thread streams the store into a bounded push channel; the
    // engine's session pulls from the other end.
    let (push, source) = push_source("replay", 1024);
    let producer = std::thread::spawn(move || {
        for event in reader.iter(&Selection::all()) {
            if !push.push(std::sync::Arc::new(event.unwrap())) {
                return;
            }
        }
    });

    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("c5", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    let mut session = engine.session();
    session.attach(source);
    let alerts = session.drain();
    producer.join().unwrap();
    assert!(alerts.iter().any(|a| a.query == "c5"));
    std::fs::remove_dir_all(dir).unwrap();
}
