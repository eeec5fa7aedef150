//! Hostile segment headers: an inflated host count or host length makes
//! opening the store an error, and opening never allocates more than the
//! segment file could back. The test binary's allocator records the
//! largest request and refuses any above `REFUSE_ABOVE`, so an unbounded
//! allocation aborts the test instead of exhausting memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use saql_model::event::EventBuilder;
use saql_model::ProcessInfo;
use saql_stream::store::StoreError;
use saql_stream::{StoreReader, StoreWriter};

const REFUSE_ABOVE: usize = 256 << 20;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct PeakRequest;

// SAFETY: every call forwards to `System` with the caller's layout; a
// refused request returns null, which `GlobalAlloc` allows.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakRequest = PeakRequest;

#[test]
fn inflated_host_fields_fail_open_without_large_allocations() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-segment-bounds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create_segmented(&dir).unwrap();
    let event = EventBuilder::new(1, "web", 10)
        .subject(ProcessInfo::new(1, "a.exe", "u"))
        .starts_process(ProcessInfo::new(2, "b.exe", "u"))
        .build();
    writer.append(&[event]).unwrap();
    writer.seal().unwrap();
    drop(writer);
    let segment = dir.join("seg-000000.saqlseg");
    let raw = std::fs::read(&segment).unwrap();

    // Header: magic(8) count(4) min_ts(8) max_ts(8) n_hosts(4) at 28, then
    // the first host's length(4) at 32.
    for at in [28, 32] {
        let mut bad = raw.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&segment, &bad).unwrap();
        LARGEST.store(0, Ordering::Relaxed);
        let read = StoreReader::open(&dir);
        let write = StoreWriter::open(&dir);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(matches!(read, Err(StoreError::BadMagic)), "field at {at}");
        assert!(matches!(write, Err(StoreError::BadMagic)), "field at {at}");
        assert!(
            largest < 1 << 20,
            "field at {at}: a {largest}-byte allocation"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
