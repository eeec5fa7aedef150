//! E9 — store replay throughput: open a segmented store and stream it
//! (header-pruned segment decode + selection) through the same
//! `StoreReader` → `StoreSource` path `saql replay --store` takes, plus the
//! record codec on its own. Replay must comfortably outrun the engine so
//! storage never bottlenecks demos. Append cost is e15's
//! `append-sync-50k`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use saql_collector::workload::{synthetic_stream, WorkloadConfig};
use saql_stream::source::{EventSource, SourcePoll, StoreSource};
use saql_stream::store::Selection;
use saql_stream::{StoreReader, StoreWriter};

/// Open the store and drain one selection through a `StoreSource`.
fn replay(dir: &std::path::Path, selection: &Selection) -> usize {
    let reader = StoreReader::open(dir).unwrap();
    let mut source = StoreSource::open("bench", &reader, selection).unwrap();
    let mut out = Vec::with_capacity(4096);
    let mut n = 0;
    loop {
        let status = source.poll(&mut out, 4096);
        n += out.len();
        out.clear();
        if status == SourcePoll::End {
            return n;
        }
    }
}

fn bench_store_roundtrip(c: &mut Criterion) {
    let events = synthetic_stream(&WorkloadConfig {
        seed: 9,
        events: 50_000,
        ..Default::default()
    });

    let mut group = c.benchmark_group("e9_replayer");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    let dir = std::env::temp_dir().join(format!("saql-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create_segmented(&dir).unwrap();
    writer.append(&events).unwrap();
    writer.seal().unwrap();
    drop(writer);

    group.bench_function("replay-all-50k", |b| {
        b.iter(|| replay(&dir, &Selection::all()));
    });

    group.bench_function("replay-host-selected-50k", |b| {
        b.iter(|| replay(&dir, &Selection::host("host-3")));
    });

    group.bench_function("codec-encode-50k", |b| {
        b.iter(|| saql_model::codec::encode_batch(&events).len());
    });

    let encoded = saql_model::codec::encode_batch(&events);
    group.bench_function("codec-decode-50k", |b| {
        b.iter(|| {
            saql_model::codec::decode_batch(encoded.clone())
                .unwrap()
                .len()
        });
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store_roundtrip);
criterion_main!(benches);
