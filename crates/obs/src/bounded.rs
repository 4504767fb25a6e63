//! One bounded FIFO that owns its drop accounting.
//!
//! Every buffer in the stack that can lose data is a [`Bounded`], so the
//! identity `pushed == popped + dropped + len` is stated (and
//! `debug_assert!`ed) here once. It is plain data: callers that share one
//! wrap it in their own `Mutex`, and bump the counters they export from
//! what [`Bounded::push`] hands back.

use std::collections::vec_deque::{self, VecDeque};

/// What a push into a full queue gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overflow {
    /// The oldest counted item, to admit the new one.
    DropOldest,
    /// The incoming item.
    DropNewest,
}

/// Lifetime totals: `pushed == popped + dropped + len`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Items offered to [`Bounded::push`], dropped ones included.
    pub pushed: u64,
    /// Items the caller took out (pop, batch pop, drain, retain).
    pub popped: u64,
    /// Items the overflow policy gave up.
    pub dropped: u64,
}

/// A FIFO holding at most `capacity` *counted* items. A predicate fixed
/// at construction says which items count (by default, all); the others
/// are exempt: they always fit and are never dropped.
#[derive(Debug)]
pub struct Bounded<T> {
    items: VecDeque<T>,
    capacity: usize,
    overflow: Overflow,
    counted: fn(&T) -> bool,
    /// Counted items held.
    held: usize,
    counts: Counts,
}

impl<T> Bounded<T> {
    /// A queue where every item counts. Capacity 0 drops every push.
    pub fn new(capacity: usize, overflow: Overflow) -> Bounded<T> {
        Bounded::with_exempt(capacity, overflow, |_| true)
    }

    /// A queue where only items for which `counted` holds count.
    pub fn with_exempt(capacity: usize, overflow: Overflow, counted: fn(&T) -> bool) -> Bounded<T> {
        Bounded {
            items: VecDeque::new(),
            capacity,
            overflow,
            counted,
            held: 0,
            counts: Counts::default(),
        }
    }

    /// The identity, with `leaving` items about to be drained.
    fn check(&self, leaving: usize) {
        let (c, len) = (self.counts, (self.items.len() - leaving) as u64);
        debug_assert_eq!(c.pushed, c.popped + c.dropped + len);
    }

    /// Append `item`. A counted item pushed into a full queue costs one
    /// item, returned: the oldest counted one under
    /// [`Overflow::DropOldest`] (`item` itself when none is held), `item`
    /// under [`Overflow::DropNewest`].
    pub fn push(&mut self, item: T) -> Option<T> {
        self.counts.pushed += 1;
        let counted = (self.counted)(&item);
        let mut evicted = None;
        if counted && self.held >= self.capacity {
            self.counts.dropped += 1;
            let oldest = match self.overflow {
                Overflow::DropOldest => self.items.iter().position(self.counted),
                Overflow::DropNewest => None,
            };
            let Some(i) = oldest else {
                self.check(0);
                return Some(item);
            };
            evicted = self.items.remove(i);
            self.held -= 1;
        }
        self.held += usize::from(counted);
        self.items.push_back(item);
        self.check(0);
        evicted
    }

    /// Take the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_batch(1).next()
    }

    /// The oldest item, left in place.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Take up to `max` of the oldest items. They count as popped even if
    /// the iterator is dropped unconsumed.
    pub fn pop_batch(&mut self, max: usize) -> vec_deque::Drain<'_, T> {
        let n = max.min(self.items.len());
        self.held -= self.items.range(..n).filter(|i| (self.counted)(i)).count();
        self.counts.popped += n as u64;
        self.check(n);
        self.items.drain(..n)
    }

    /// Take every item.
    pub fn drain(&mut self) -> vec_deque::Drain<'_, T> {
        self.pop_batch(self.items.len())
    }

    /// Keep only the items `keep` accepts; the others count as popped.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let (counted, before) = (self.counted, self.items.len());
        let mut released = 0;
        self.items.retain(|item| {
            let kept = keep(item);
            released += usize::from(!kept && counted(item));
            kept
        });
        self.held -= released;
        self.counts.popped += (before - self.items.len()) as u64;
        self.check(0);
    }

    /// The items held, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Items held, exempt ones included.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Counted items held: what the bound applies to.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Whether a counted push would overflow.
    pub fn is_full(&self) -> bool {
        self.held >= self.capacity
    }

    /// Lifetime totals.
    pub fn counts(&self) -> Counts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::epoch_ns;

    #[test]
    fn keeps_only_the_most_recent() {
        let mut ring = Bounded::new(3, Overflow::DropOldest);
        for i in 0..5u64 {
            ring.push(("tick", epoch_ns(), i));
        }
        let values: Vec<u64> = ring.iter().map(|e| e.2).collect();
        assert_eq!(values, [2, 3, 4]);
        assert!(ring
            .iter()
            .zip(ring.iter().skip(1))
            .all(|(a, b)| a.1 <= b.1));
        assert_eq!(ring.counts().dropped, 2);
    }

    #[test]
    fn partial_fill_in_order() {
        let mut ring = Bounded::new(8, Overflow::DropOldest);
        ring.push("a");
        ring.push("b");
        let stages: Vec<&str> = ring.iter().copied().collect();
        assert_eq!(stages, ["a", "b"]);
    }

    #[test]
    fn drop_newest_refuses_the_incoming_item() {
        let mut q = Bounded::new(2, Overflow::DropNewest);
        assert_eq!(q.push(1), None);
        assert_eq!(q.push(2), None);
        assert_eq!(q.push(3), Some(3));
        assert_eq!(q.drain().collect::<Vec<_>>(), [1, 2]);
        let c = q.counts();
        assert_eq!((c.pushed, c.popped, c.dropped), (3, 2, 1));
    }

    #[test]
    fn exempt_items_always_fit_and_are_never_evicted() {
        // Odd numbers are exempt.
        let mut q = Bounded::with_exempt(1, Overflow::DropOldest, |n: &u32| n.is_multiple_of(2));
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.push(4), Some(2), "the oldest counted item goes");
        assert_eq!((q.len(), q.held()), (3, 1));
        assert_eq!(q.drain().collect::<Vec<_>>(), [1, 3, 4]);
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        let mut q = Bounded::new(0, Overflow::DropOldest);
        assert_eq!(q.push(7), Some(7));
        assert!(q.is_empty());
        assert_eq!(q.counts().dropped, 1);
    }

    #[test]
    fn retain_counts_removed_items_as_popped() {
        let mut q = Bounded::new(8, Overflow::DropOldest);
        for i in 0..6 {
            q.push(i);
        }
        q.retain(|i| i % 3 != 0);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), [1, 2, 4, 5]);
        assert_eq!(q.counts().popped, 2);
        assert_eq!(q.pop_batch(3).collect::<Vec<_>>(), [1, 2, 4]);
        assert_eq!(q.front(), Some(&5));
        assert_eq!(q.counts().popped, 5);
    }
}
