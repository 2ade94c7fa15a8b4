//! Bounded structured event ring.
//!
//! The ring keeps the **last N** notable events (drops, NACK
//! dispositions, RTOs, rate changes, flowlet switches) in a fixed-size
//! buffer that overwrites its oldest entry once full. Capacity is fixed
//! at construction, so recording never allocates; `total_seen` keeps
//! counting past the capacity so a report can say how much history was
//! discarded.

/// What happened. Labels are part of the JSON schema and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A packet was dropped (buffer overflow, no route, or targeted).
    PacketDrop,
    /// A receiver QP generated a NACK.
    NackIssued,
    /// A Themis-D hook blocked an invalid NACK (Eq. 3 mismatch).
    NackBlocked,
    /// Themis-D issued a compensating NACK after a real loss.
    NackCompensated,
    /// A sender QP's retransmission timeout fired.
    RtoFired,
    /// DCQCN cut or changed a sender's rate.
    RateChange,
    /// A load balancer started a new flowlet on a different uplink.
    FlowletSwitch,
}

impl EventKind {
    /// Stable snake_case label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::PacketDrop => "packet_drop",
            EventKind::NackIssued => "nack_issued",
            EventKind::NackBlocked => "nack_blocked",
            EventKind::NackCompensated => "nack_compensated",
            EventKind::RtoFired => "rto_fired",
            EventKind::RateChange => "rate_change",
            EventKind::FlowletSwitch => "flowlet_switch",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy)]
pub struct EventRecord {
    /// Simulated time the event was recorded at.
    pub at_ns: u64,
    /// `seq` of the dispatch that recorded the event (merge key for
    /// sharded runs; not part of the JSON schema).
    pub seq: u64,
    /// `lane` of the dispatch that recorded the event (merge key for
    /// sharded runs; not part of the JSON schema).
    pub lane: u32,
    /// Event class.
    pub kind: EventKind,
    /// QP / flow identifier, or 0 when not applicable.
    pub qp: u64,
    /// Kind-specific argument (PSN, rate in Mbit/s, port id, ...).
    pub arg: u64,
}

/// Fixed-capacity overwrite-oldest event buffer.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<EventRecord>,
    capacity: usize,
    next: usize,
    total_seen: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (capacity must be > 0).
    pub fn new(capacity: usize) -> EventRing {
        assert!(capacity > 0, "event ring capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total_seen: 0,
        }
    }

    /// Append an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, ev: EventRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % self.capacity;
        self.total_seen += 1;
    }

    /// Events recorded over the ring's lifetime (including overwritten).
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retained events, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &EventRecord> {
        let (older, newer) = if self.buf.len() < self.capacity {
            (&self.buf[..0], &self.buf[..])
        } else {
            (&self.buf[self.next..], &self.buf[..self.next])
        };
        older.iter().chain(newer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> EventRecord {
        EventRecord {
            at_ns: at,
            seq: 0,
            lane: 0,
            kind: EventKind::PacketDrop,
            qp: 0,
            arg: at,
        }
    }

    #[test]
    fn ring_keeps_insertion_order_before_wrap() {
        let mut r = EventRing::new(4);
        for t in 0..3 {
            r.push(ev(t));
        }
        let order: Vec<u64> = r.iter_in_order().map(|e| e.at_ns).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(r.total_seen(), 3);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_overwrites_oldest_after_wrap() {
        let mut r = EventRing::new(3);
        for t in 0..7 {
            r.push(ev(t));
        }
        let order: Vec<u64> = r.iter_in_order().map(|e| e.at_ns).collect();
        assert_eq!(order, vec![4, 5, 6]);
        assert_eq!(r.total_seen(), 7);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty_ring() {
        let r = EventRing::new(4);
        assert!(r.is_empty());
        assert_eq!(r.iter_in_order().count(), 0);
    }

    #[test]
    fn labels_are_snake_case() {
        assert_eq!(EventKind::NackBlocked.label(), "nack_blocked");
        assert_eq!(EventKind::FlowletSwitch.label(), "flowlet_switch");
    }
}
