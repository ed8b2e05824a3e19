//! A deterministic event queue on virtual time.
//!
//! An [`EventQueue`] is a `(time, seq)`-ordered priority queue where
//! `seq` is a monotone insertion sequence. Two events at the same
//! virtual instant always pop in the order they were scheduled, which
//! is the tie-break that makes identical seeds replay byte-identically.
//! The orchestrator's scheduler parks each campaign's `Wait` deadline
//! on one, so crash/resume replays release parked campaigns in the
//! same order.
//!
//! The queue never moves the clock itself: callers pop events (or pop
//! everything due up to an externally advanced `now`) and dispatch them.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

/// Identity of a scheduled event; doubles as the deterministic
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

/// One scheduled event. It is ordered by its `(deadline, seq)` key
/// alone: `seq` is unique, so the key is a total order and the payload
/// needs no `Ord` of its own.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic `(time, seq)`-ordered event queue.
///
/// `schedule` returns the event's [`EventId`]; `pop` yields the earliest
/// event, breaking timestamp ties by insertion order. The representation
/// is a binary min-heap (`Reverse` over the unique `(time, seq)` key),
/// so pop order is fully specified on every platform even though the
/// heap's internal layout is not.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// Monotone insertion sequence; never reused.
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of scheduled events not yet popped.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at `at`. Deadlines already in the
    /// past are legal: they simply pop first.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, payload }));
        EventId(seq)
    }

    /// The earliest scheduled deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Remove and return the earliest event as `(deadline, id,
    /// payload)`, breaking timestamp ties by insertion sequence.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, T)> {
        self.heap
            .pop()
            .map(|Reverse(e)| (e.at, EventId(e.seq), e.payload))
    }

    /// Remove and return every payload whose deadline is `<= now`,
    /// ordered by `(deadline, insertion seq)`.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<T> {
        let mut due = Vec::new();
        while let Some(top) = self.heap.peek_mut() {
            if top.0.at > now {
                break;
            }
            due.push(PeekMut::pop(top).0.payload);
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
    use std::collections::BTreeMap;

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
        assert_eq!(q.pop().map(|(_, id, _)| id), Some(a));
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
