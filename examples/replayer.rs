//! The stream replayer (paper Fig. 4): store a collected trace, then replay
//! selected hosts and time ranges as a stream for different queries.
//!
//! ```sh
//! cargo run --example replayer
//! ```

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::model::Timestamp;
use saql::stream::source::{EventSource, PacedSource, SourcePoll, StoreSource};
use saql::stream::store::Selection;
use saql::stream::{StoreReader, StoreWriter};
use saql::SaqlSystem;

fn main() {
    // 1. Collect a trace and store it durably (the demo's "databases").
    let trace = Simulator::generate(&SimConfig {
        seed: 7,
        clients: 6,
        duration_ms: 60 * 60_000,
        attack: Some(AttackConfig::default()),
    });
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-replayer-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = StoreWriter::create_segmented(&dir).expect("create store");
    store.append(&trace.events).expect("append trace");
    store.sync().expect("sync store");
    let reader = StoreReader::open(&dir).expect("open store");
    println!(
        "stored {} events from {} hosts in {} segments at {}",
        reader.len(),
        reader.hosts().len(),
        reader.segments().len(),
        dir.display()
    );

    // 2. Replay only the database server for the second half hour — the
    //    replayer UI's host + time-range selection. Segments outside the
    //    selection are skipped by their headers.
    let selection = Selection::host("db-server").between(
        Timestamp::from_millis(30 * 60_000),
        Timestamp::from_millis(60 * 60_000),
    );
    let selected = reader.read(&selection).expect("read selection").len();
    println!(
        "replaying db-server 30..60 min: {selected} events (of {} total)",
        trace.events.len()
    );

    // 3. Run the exfiltration queries over the replayed stream.
    let mut system = SaqlSystem::new();
    system
        .deploy("c5-exfiltration", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    system
        .deploy("outlier-db-peer", saql::corpus::DEMO_OUTLIER_DB)
        .unwrap();
    let mut session = system.engine().session();
    session.attach(StoreSource::open("db-server", &reader, &selection).expect("open source"));
    let alerts = session.drain();
    println!("\n--- alerts from replayed stream ---");
    for a in &alerts {
        println!("{a}");
    }
    assert!(alerts.iter().any(|a| a.query == "c5-exfiltration"));

    // 4. Paced replay: compress one hour of trace into ~1 second of wall
    //    time (what `saql replay --speed 3600` does). The paced source
    //    never blocks; it reports Idle until the next event is due.
    let source =
        StoreSource::open("paced", &reader, &Selection::host("db-server")).expect("open source");
    let mut paced = PacedSource::new(source, 3600.0);
    let started = std::time::Instant::now();
    let mut replayed = Vec::new();
    loop {
        match paced.poll(&mut replayed, 256) {
            SourcePoll::End => break,
            SourcePoll::Ready => {}
            SourcePoll::Idle => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
    println!(
        "\npaced replay: {} events in {:.2}s wall time (3600x compression)",
        replayed.len(),
        started.elapsed().as_secs_f64()
    );

    std::fs::remove_dir_all(&dir).ok();
}
