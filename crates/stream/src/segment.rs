//! Segment files: the immutable, sealed half of the store (see
//! [`crate::durable`] for the WAL tail and the append discipline).
//!
//! Each segment holds a bounded run of events, and its header carries the
//! segment's event count, time range and host set. A selection read plans
//! over headers first and decodes only intersecting segments — the classic
//! LSM/data-skipping layout, minimally. Opening a store reads headers only;
//! record bodies are read when an iterator reaches them.
//!
//! Segment file layout:
//! `SAQLSEG1 | count:u32 | min_ts:u64 | max_ts:u64 | n_hosts:u32 |
//!  (len:u32 host-utf8)* | records…` (integers little-endian, records in
//! `saql_model::codec` format).

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

use bytes::{BufMut, Bytes, BytesMut};
use saql_model::{codec, Event, Timestamp};

use crate::store::{Selection, StoreError};

const SEG_MAGIC: &[u8; 8] = b"SAQLSEG1";
/// Fixed header prefix: magic, count, min/max ts, host count.
const FIXED_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;

/// Header metadata of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    pub path: PathBuf,
    pub events: u32,
    pub min_ts: Timestamp,
    pub max_ts: Timestamp,
    pub hosts: BTreeSet<String>,
}

impl SegmentMeta {
    /// Whether a selection could match anything in this segment.
    pub fn intersects(&self, selection: &Selection) -> bool {
        if let Some(from) = selection.from {
            if self.max_ts < from {
                return false;
            }
        }
        if let Some(until) = selection.until {
            if self.min_ts >= until {
                return false;
            }
        }
        if !selection.hosts.is_empty() && !selection.hosts.iter().any(|h| self.hosts.contains(h)) {
            return false;
        }
        true
    }
}

pub(crate) fn write_segment(path: &Path, events: &[Event]) -> Result<(), StoreError> {
    let mut hosts: BTreeSet<&str> = BTreeSet::new();
    let mut min_ts = u64::MAX;
    let mut max_ts = 0u64;
    for e in events {
        hosts.insert(&e.agent_id);
        min_ts = min_ts.min(e.ts.as_millis());
        max_ts = max_ts.max(e.ts.as_millis());
    }
    let mut buf = BytesMut::with_capacity(events.len() * 96 + 256);
    buf.put_slice(SEG_MAGIC);
    buf.put_u32_le(events.len() as u32);
    buf.put_u64_le(min_ts);
    buf.put_u64_le(max_ts);
    buf.put_u32_le(hosts.len() as u32);
    for h in hosts {
        buf.put_u32_le(h.len() as u32);
        buf.put_slice(h.as_bytes());
    }
    for e in events {
        codec::encode_event(&mut buf, e);
    }
    let mut f = File::create(path)?;
    f.write_all(&buf)?;
    // Sealed segments are the durability boundary: they must hit disk
    // before any rename publishes them (see `crate::durable`).
    f.sync_all()?;
    Ok(())
}

/// Read exactly `N` header bytes; a short read means a torn header.
fn read_array<const N: usize>(r: &mut impl Read) -> Result<[u8; N], StoreError> {
    let mut out = [0u8; N];
    r.read_exact(&mut out).map_err(|_| StoreError::BadMagic)?;
    Ok(out)
}

/// Parse a segment header from `r`, where `len` is the byte length of the
/// whole segment. Every length field is capped by the bytes that remain
/// before anything is allocated, so a corrupt header is an error, never a
/// huge allocation. Returns the metadata and the header's byte length.
fn parse_header(
    r: &mut impl Read,
    len: u64,
    path: &Path,
) -> Result<(SegmentMeta, u64), StoreError> {
    let fixed: [u8; FIXED_HEADER_LEN] = read_array(r)?;
    if &fixed[..8] != SEG_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let u32_at = |at: usize| u32::from_le_bytes(fixed[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(fixed[at..at + 8].try_into().unwrap());
    let events = u32_at(8);
    let min_ts = Timestamp::from_millis(u64_at(12));
    let max_ts = Timestamp::from_millis(u64_at(20));
    let n_hosts = u32_at(28);
    let mut consumed = FIXED_HEADER_LEN as u64;
    // Every host entry costs at least its 4-byte length prefix.
    if u64::from(n_hosts) * 4 > len.saturating_sub(consumed) {
        return Err(StoreError::BadMagic);
    }
    let mut hosts = BTreeSet::new();
    for _ in 0..n_hosts {
        let host_len = u64::from(u32::from_le_bytes(read_array(r)?));
        consumed += 4;
        if host_len > len.saturating_sub(consumed) {
            return Err(StoreError::BadMagic);
        }
        let mut raw = vec![0u8; host_len as usize];
        r.read_exact(&mut raw).map_err(|_| StoreError::BadMagic)?;
        consumed += host_len;
        let host = String::from_utf8(raw).map_err(|_| StoreError::BadMagic)?;
        hosts.insert(host);
    }
    let meta = SegmentMeta {
        path: path.to_path_buf(),
        events,
        min_ts,
        max_ts,
        hosts,
    };
    Ok((meta, consumed))
}

/// Read a segment's header without touching its record body.
pub(crate) fn read_meta(path: &Path) -> Result<SegmentMeta, StoreError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let (meta, _) = parse_header(&mut BufReader::new(file), len, path)?;
    Ok(meta)
}

/// Read and decode every record of a segment.
pub(crate) fn read_segment_events(path: &Path) -> Result<Vec<Event>, StoreError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let (meta, header_len) = parse_header(&mut raw.as_slice(), raw.len() as u64, path)?;
    let mut data = Bytes::from(raw).slice(header_len as usize..);
    // Every record is at least one byte: cap the count by the body length.
    let mut out = Vec::with_capacity((meta.events as usize).min(data.len()));
    for _ in 0..meta.events {
        out.push(codec::decode_event(&mut data)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;

    fn ev(id: u64, host: &str, ts: u64) -> Event {
        EventBuilder::new(id, host, ts)
            .subject(ProcessInfo::new(1, "a.exe", "u"))
            .starts_process(ProcessInfo::new(2, "b.exe", "u"))
            .build()
    }

    fn tmp(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("saql-segment-{}-{tag}.saqlseg", std::process::id()));
        p
    }

    /// A valid one-host segment and its bytes.
    fn valid_segment(tag: &str) -> (PathBuf, Vec<u8>) {
        let path = tmp(tag);
        write_segment(&path, &[ev(1, "web", 10), ev(2, "web", 20)]).unwrap();
        let raw = std::fs::read(&path).unwrap();
        (path, raw)
    }

    #[test]
    fn header_roundtrips_without_the_body() {
        let (path, raw) = valid_segment("meta");
        // Chop the body: the header alone still parses.
        let header_len = FIXED_HEADER_LEN + 4 + "web".len();
        std::fs::write(&path, &raw[..header_len]).unwrap();
        let meta = read_meta(&path).unwrap();
        assert_eq!(meta.events, 2);
        assert_eq!(meta.min_ts, Timestamp::from_millis(10));
        assert_eq!(meta.max_ts, Timestamp::from_millis(20));
        assert_eq!(meta.hosts.iter().collect::<Vec<_>>(), vec!["web"]);
        assert!(read_segment_events(&path).is_err(), "missing body");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn inflated_event_count_is_an_error() {
        let (path, mut raw) = valid_segment("count");
        raw[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(read_meta(&path).unwrap().events, u32::MAX);
        assert!(read_segment_events(&path).is_err(), "body runs out");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_or_foreign_header_is_an_error() {
        let (path, raw) = valid_segment("torn");
        std::fs::write(&path, &raw[..FIXED_HEADER_LEN - 1]).unwrap();
        assert!(matches!(read_meta(&path), Err(StoreError::BadMagic)));
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(read_meta(&path), Err(StoreError::BadMagic)));
        std::fs::remove_file(path).unwrap();
    }
}
