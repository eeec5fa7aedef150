//! Bounded event channels.
//!
//! Producer threads (push handles, serve connections) publish events; the
//! engine consumes them. The channel carries `Arc<Event>` — the
//! master–dependent-query scheme depends on every consumer observing the
//! *same allocation*, so cloning a stream item never copies event payloads.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};

use crate::SharedEvent;

/// Producer half of an event channel.
#[derive(Debug, Clone)]
pub struct EventSender {
    tx: Sender<SharedEvent>,
}

/// Consumer half of an event channel. Iterate to drain until all senders
/// drop.
#[derive(Debug, Clone)]
pub struct EventReceiver {
    rx: Receiver<SharedEvent>,
}

/// Create a bounded event channel with room for `capacity` in-flight events.
///
/// A `capacity` of zero clamps to one: the vendored crossbeam stand-in has
/// no rendezvous channels, and a channel that can never buffer an event is
/// a misconfiguration, not a feature (it used to panic here).
pub fn event_channel(capacity: usize) -> (EventSender, EventReceiver) {
    let (tx, rx) = bounded(capacity.max(1));
    (EventSender { tx }, EventReceiver { rx })
}

/// Why a non-blocking send was rejected. `Full` means the consumer is alive
/// but behind — shedding or retrying are both sane; `Closed` means every
/// receiver is gone and no send can ever succeed again. Both hand the
/// undelivered event back.
#[derive(Debug)]
pub enum PushError {
    /// Channel at capacity.
    Full(SharedEvent),
    /// All receivers dropped.
    Closed(SharedEvent),
}

impl PushError {
    /// Recover the undelivered event.
    pub fn into_event(self) -> SharedEvent {
        match self {
            PushError::Full(ev) | PushError::Closed(ev) => ev,
        }
    }

    /// `true` when the consuming side is gone for good.
    pub fn is_closed(&self) -> bool {
        matches!(self, PushError::Closed(_))
    }
}

impl EventSender {
    /// Blocking send; returns `false` if all receivers are gone.
    pub fn send(&self, event: SharedEvent) -> bool {
        self.tx.send(event).is_ok()
    }

    /// Non-blocking send; distinguishes a momentarily full channel from a
    /// permanently closed one so producers can shed load without mistaking
    /// backpressure for shutdown.
    pub fn try_send(&self, event: SharedEvent) -> Result<(), PushError> {
        self.tx.try_send(event).map_err(|e| match e {
            TrySendError::Full(ev) => PushError::Full(ev),
            TrySendError::Disconnected(ev) => PushError::Closed(ev),
        })
    }
}

impl EventReceiver {
    /// Blocking receive; `None` when the stream has ended.
    pub fn recv(&self) -> Option<SharedEvent> {
        self.rx.recv().ok()
    }

    /// Receive with a timeout; `Ok(None)` when the stream ended, `Err(())`
    /// on timeout.
    #[allow(clippy::result_unit_err)] // timeout carries no information
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<SharedEvent>, ()> {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => Ok(Some(ev)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(()),
        }
    }

    /// Non-blocking receive; `Ok(None)` when the stream ended, `Err(())`
    /// when the channel is momentarily empty (the pull-source poll path).
    #[allow(clippy::result_unit_err)] // emptiness carries no information
    pub fn try_recv(&self) -> Result<Option<SharedEvent>, ()> {
        match self.rx.try_recv() {
            Ok(ev) => Ok(Some(ev)),
            Err(TryRecvError::Disconnected) => Ok(None),
            Err(TryRecvError::Empty) => Err(()),
        }
    }

    /// Number of events currently buffered.
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }
}

impl IntoIterator for EventReceiver {
    type Item = SharedEvent;
    type IntoIter = crossbeam::channel::IntoIter<SharedEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.rx.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;
    use std::sync::Arc;

    fn ev(id: u64) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "h", id * 10)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build(),
        )
    }

    #[test]
    fn send_receive_in_order() {
        let (tx, rx) = event_channel(8);
        for i in 0..5 {
            assert!(tx.send(ev(i)));
        }
        drop(tx);
        let ids: Vec<u64> = rx.into_iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_instead_of_panicking() {
        let (tx, rx) = event_channel(0);
        assert!(tx.try_send(ev(1)).is_ok(), "clamped channel buffers one");
        assert!(tx.try_send(ev(2)).is_err(), "clamped capacity is exactly 1");
        assert_eq!(rx.recv().map(|e| e.id), Some(1));
    }

    #[test]
    fn try_send_reports_full() {
        let (tx, _rx) = event_channel(1);
        assert!(tx.try_send(ev(1)).is_ok());
        match tx.try_send(ev(2)) {
            Err(PushError::Full(returned)) => assert_eq!(returned.id, 2),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn try_send_distinguishes_closed_from_full() {
        let (tx, rx) = event_channel(1);
        drop(rx);
        let err = tx.try_send(ev(3)).unwrap_err();
        assert!(err.is_closed());
        assert_eq!(err.into_event().id, 3);
    }

    #[test]
    fn recv_none_after_all_senders_drop() {
        let (tx, rx) = event_channel(4);
        let tx2 = tx.clone();
        tx.send(ev(1));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv().map(|e| e.id), Some(1));
        assert!(rx.recv().is_none());
    }

    #[test]
    fn cross_thread_transfer_shares_allocation() {
        let (tx, rx) = event_channel(4);
        let event = ev(9);
        let clone = event.clone();
        std::thread::spawn(move || tx.send(event)).join().unwrap();
        let got = rx.recv().unwrap();
        assert!(Arc::ptr_eq(&got, &clone));
    }

    #[test]
    fn backlog_counts_buffered() {
        let (tx, rx) = event_channel(8);
        tx.send(ev(1));
        tx.send(ev(2));
        assert_eq!(rx.backlog(), 2);
        rx.recv();
        assert_eq!(rx.backlog(), 1);
    }
}
