//! Store errors and the host/time [`Selection`] that store reads take.
//!
//! The demo keeps collected monitoring data "in databases" so the stream
//! replayer can re-create the attack stream on demand. Here that store is
//! the segmented directory of [`crate::durable`], written through
//! [`StoreWriter`](crate::StoreWriter) and read back through
//! [`StoreReader`](crate::StoreReader).

use std::io;

use saql_model::codec::DecodeError;
use saql_model::{Event, Timestamp};

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// A segment or WAL file with a wrong magic or a malformed header.
    BadMagic,
    Decode(DecodeError),
    /// Store-level invariant violation (e.g. a WAL that disagrees with the
    /// sealed segments it should extend).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a SAQL store file (bad magic or header)"),
            StoreError::Decode(e) => write!(f, "corrupt store record: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

/// Host/time selection for reads (the replayer UI's knobs).
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Keep only events from these hosts; empty = all hosts.
    pub hosts: Vec<String>,
    /// Inclusive lower bound on event time.
    pub from: Option<Timestamp>,
    /// Exclusive upper bound on event time.
    pub until: Option<Timestamp>,
}

impl Selection {
    /// Select everything.
    pub fn all() -> Self {
        Selection::default()
    }

    /// Restrict to one host.
    pub fn host(host: impl Into<String>) -> Self {
        Selection {
            hosts: vec![host.into()],
            ..Selection::default()
        }
    }

    /// Restrict the time range `[from, until)`.
    pub fn between(mut self, from: Timestamp, until: Timestamp) -> Self {
        self.from = Some(from);
        self.until = Some(until);
        self
    }

    /// Whether an event passes the selection.
    pub fn matches(&self, event: &Event) -> bool {
        if !self.hosts.is_empty() && !self.hosts.iter().any(|h| **h == *event.agent_id) {
            return false;
        }
        if let Some(from) = self.from {
            if event.ts < from {
                return false;
            }
        }
        if let Some(until) = self.until {
            if event.ts >= until {
                return false;
            }
        }
        true
    }
}
