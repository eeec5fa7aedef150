//! # saql-stream
//!
//! Stream infrastructure for SAQL: the *system event stream* the paper's
//! architecture (Fig. 1) feeds into the anomaly query engine.
//!
//! * [`channel`] — bounded multi-producer event channels (crossbeam-backed)
//!   carrying `Arc<Event>` so concurrent queries share payloads;
//! * [`batch`] — fixed-capacity event batches, the dispatch unit of the
//!   parallel engine runtime (amortizes channel overhead);
//! * [`merge`] — k-way, timestamp-ordered merging of per-host agent feeds
//!   into the single enterprise-wide stream, including the watermarked
//!   [`merge::WatermarkMerge`] over pull-based sources;
//! * [`source`] — the [`EventSource`] ingestion contract and its adapters:
//!   streamed store selections, JSON-lines readers, push-handle channels,
//!   and [`source::PacedSource`], which replays any of them at a trace-time
//!   speed;
//! * [`store`] — store errors and the host/time [`store::Selection`];
//! * [`durable`] — the event store (the databases behind the demo's
//!   replayer): a segmented directory written by [`StoreWriter`] with
//!   WAL-disciplined appends and recovery-on-open, and read by
//!   [`StoreReader`] with header-pruned selections and global-offset reads
//!   for exact session resume;
//! * [`segment`] — the sealed segment file format and its header index.
//!
//! The stream replayer of the paper's Fig. 4 is the composition
//! [`StoreReader`] → [`source::StoreSource`] (select hosts and a time
//! range) → [`source::PacedSource`] (replay at a speed).

pub mod batch;
pub mod channel;
pub mod durable;
pub mod merge;
pub mod segment;
pub mod source;
pub mod store;

use std::sync::Arc;

use saql_model::Event;

/// The unit flowing through every SAQL stream: shared, immutable events.
pub type SharedEvent = Arc<Event>;

pub use batch::{batched, BatchView, EventBatch, DEFAULT_BATCH_SIZE};
pub use channel::PushError;
pub use durable::{StoreIter, StoreReader, StoreWriter};
pub use merge::{Lateness, MergeConfig, MergeStatus, SourceId, SourceStats, WatermarkMerge};
pub use source::{EventSource, SourcePoll};

/// Wrap raw events into shared stream items.
pub fn share(events: impl IntoIterator<Item = Event>) -> Vec<SharedEvent> {
    events.into_iter().map(Arc::new).collect()
}
