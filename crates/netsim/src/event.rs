//! The discrete-event core: a deterministic event queue on virtual time.
//!
//! Everything that *happens* in the simulated Internet — DNS lookups,
//! fault draws, middlebox hops, origin replies, parked orchestrator
//! deadlines — is an entry in an [`EventQueue`]: a `(time, seq)`-ordered
//! priority queue where `seq` is a monotone insertion sequence. Two
//! events at the same virtual instant always pop in the order they were
//! scheduled, which is the tie-break that makes identical seeds replay
//! byte-identically no matter how many flows are in flight.
//!
//! The queue never moves the clock itself: callers pop events (or pop
//! everything due up to an externally advanced `now`) and dispatch them.
//! Cancellation is exact — a cancelled event is removed immediately, not
//! tombstoned — so `len()` always equals the number of live events and
//! `next_deadline()` never reports a dead one.

use std::collections::{BTreeMap, BTreeSet};

use crate::time::SimTime;

/// Stable handle for a scheduled event; doubles as the deterministic
/// tie-break (it is the insertion sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// The underlying sequence number.
    pub const fn value(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ev{}", self.0)
    }
}

/// A deterministic `(time, seq)`-ordered event queue.
///
/// `schedule` returns an [`EventId`] that can later be cancelled;
/// `pop` yields the earliest live event, breaking timestamp ties by
/// insertion order. The representation is a sorted key set plus a
/// payload map (rather than a binary heap with tombstones) so that
/// cancellation is O(log n) and exact, and iteration order is fully
/// specified on every platform.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Live events in pop order.
    order: BTreeSet<(SimTime, u64)>,
    /// Payloads keyed by sequence number, with their deadline.
    payloads: BTreeMap<u64, (SimTime, T)>,
    /// Monotone insertion sequence; never reused, even after cancel.
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            order: BTreeSet::new(),
            payloads: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Number of live (scheduled, not yet popped or cancelled) events.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no events are live.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Schedule `payload` to fire at `at`. Deadlines already in the
    /// past are legal: they simply pop first.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let seq = self.seq;
        self.seq += 1;
        self.order.insert((at, seq));
        self.payloads.insert(seq, (at, payload));
        EventId(seq)
    }

    /// Cancel a scheduled event. Returns `true` if it was still live
    /// (and is now removed), `false` if it had already fired or been
    /// cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.payloads.remove(&id.0) {
            Some((at, _)) => {
                self.order.remove(&(at, id.0));
                true
            }
            None => false,
        }
    }

    /// The deadline of a still-live event.
    pub fn deadline_of(&self, id: EventId) -> Option<SimTime> {
        self.payloads.get(&id.0).map(|(at, _)| *at)
    }

    /// The earliest live deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.order.iter().next().map(|&(at, _)| at)
    }

    /// Remove and return the earliest live event as
    /// `(deadline, id, payload)`, breaking timestamp ties by insertion
    /// sequence.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, T)> {
        let &(at, seq) = self.order.iter().next()?;
        self.order.remove(&(at, seq));
        let (_, payload) = self.payloads.remove(&seq)?;
        Some((at, EventId(seq), payload))
    }

    /// Remove and return every payload whose deadline is `<= now`,
    /// ordered by `(deadline, insertion seq)`.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<T> {
        let mut due = Vec::new();
        while let Some(at) = self.next_deadline() {
            if at > now {
                break;
            }
            if let Some((_, _, payload)) = self.pop() {
                due.push(payload);
            }
        }
        due
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_insertion_tie_break() {
        let mut q = EventQueue::new();
        let _c = q.schedule(SimTime::from_secs(30), "c");
        let _a1 = q.schedule(SimTime::from_secs(10), "a1");
        let _b = q.schedule(SimTime::from_secs(20), "b");
        let _a2 = q.schedule(SimTime::from_secs(10), "a2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_deadline(), Some(SimTime::from_secs(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_exactly_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(5), "a");
        let b = q.schedule(SimTime::from_secs(5), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports dead");
        assert_eq!(q.len(), 1);
        assert_eq!(q.deadline_of(b), Some(SimTime::from_secs(5)));
        assert_eq!(q.deadline_of(a), None);
        let (at, id, p) = q.pop().expect("b is live");
        assert_eq!((at, id, p), (SimTime::from_secs(5), b, "b"));
        assert!(!q.cancel(b), "cancel after pop reports dead");
    }

    #[test]
    fn pop_due_respects_now_and_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 30);
        q.schedule(SimTime::from_secs(1), 10);
        q.schedule(SimTime::from_secs(2), 20);
        q.schedule(SimTime::from_secs(1), 11);
        assert_eq!(q.pop_due(SimTime::from_secs(2)), vec![10, 11, 20]);
        assert_eq!(q.pop_due(SimTime::from_secs(2)), Vec::<i32>::new());
        assert_eq!(q.pop_due(SimTime::from_secs(3)), vec![30]);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::ZERO, ());
        q.cancel(a);
        let b = q.schedule(SimTime::ZERO, ());
        assert_ne!(a, b);
        assert!(b.value() > a.value());
    }

    #[test]
    fn past_deadlines_pop_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_days(2), "future");
        q.schedule(SimTime::ZERO, "past");
        let (_, _, first) = q.pop().expect("non-empty");
        assert_eq!(first, "past");
    }

    #[test]
    fn matches_sorted_reference_model() {
        // Deterministic pseudo-random schedule vs a BTreeMap reference.
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (state >> 33) % 1_000_000;
            q.schedule(SimTime::from_secs(at), i);
            model.insert((at, i), i);
        }
        let mut now = 0;
        for step in [1_000u64, 50_000, 50_000, 400_000, 2_000_000] {
            now += step;
            let fired = q.pop_due(SimTime::from_secs(now));
            let keys: Vec<(u64, u64)> = model.range(..=(now, u64::MAX)).map(|(k, _)| *k).collect();
            let expect: Vec<u64> = keys
                .iter()
                .map(|k| model.remove(k).expect("present"))
                .collect();
            assert_eq!(fired, expect, "now={now}");
        }
        assert!(q.is_empty());
        assert!(model.is_empty());
    }
}
