//! The delayed prefetch queue fed by `pEvict` messages.
//!
//! When the LLC evicts a tagged-and-accessed line it sends a `pEvict` to the
//! monitor. The monitor waits `prefetch_delay` cycles (so the prefetch does
//! not contend with the same line's writeback) and then asks the memory fetch
//! queue to bring the line back into the LLC (paper §IV, "Prefetching
//! Ping-Pong lines").
//!
//! The queue is built for the simulator's allocation-free hot path: duplicate
//! suppression is O(1) via a membership set kept in sync with the FIFO
//! (instead of a linear scan of pending entries), draining appends into a
//! caller-owned buffer, and [`next_due`](PrefetchQueue::next_due) exposes the
//! earliest release time so callers only drain when something is ready.

use std::collections::{HashSet, VecDeque};

use cache_sim::{Cycle, LineAddr};

/// A FIFO of pending prefetches with release times.
///
/// # Examples
///
/// ```
/// use cache_sim::LineAddr;
/// use pipomonitor::PrefetchQueue;
///
/// let mut q = PrefetchQueue::new(50);
/// q.schedule(LineAddr(7), 100);
/// assert_eq!(q.next_due(), Some(150));
/// assert!(q.drain_due(149).is_empty()); // not due yet
/// assert_eq!(q.drain_due(150), vec![LineAddr(7)]);
/// ```
#[derive(Debug, Default)]
pub struct PrefetchQueue {
    delay: Cycle,
    pending: VecDeque<(Cycle, LineAddr)>,
    /// Lines currently in `pending`, for O(1) duplicate suppression.
    members: HashSet<LineAddr>,
    scheduled_total: u64,
}

impl PrefetchQueue {
    /// Creates a queue with the given release delay.
    #[must_use]
    pub fn new(delay: Cycle) -> Self {
        Self {
            delay,
            pending: VecDeque::new(),
            members: HashSet::new(),
            scheduled_total: 0,
        }
    }

    /// Configured delay between `pEvict` and prefetch issue.
    #[must_use]
    pub fn delay(&self) -> Cycle {
        self.delay
    }

    /// Enqueues a prefetch for `line`, releasing at `now + delay`.
    ///
    /// A line already pending is not enqueued twice (the LLC cannot evict the
    /// same line twice without it being refetched in between, but prefetch
    /// cascades could otherwise duplicate work).
    pub fn schedule(&mut self, line: LineAddr, now: Cycle) {
        if !self.members.insert(line) {
            return;
        }
        self.pending.push_back((now + self.delay, line));
        self.scheduled_total += 1;
    }

    /// Release time of the prefetch at the head of the FIFO, or `None` if
    /// empty.
    ///
    /// Prefetches issue strictly in schedule order (a hardware-style FIFO
    /// with head-of-line blocking): because simulated cores apply their
    /// think time *after* being scheduled, `pEvict` timestamps — and hence
    /// release times — are not globally monotone, so an entry behind the
    /// head can in principle have an earlier release. It still waits for the
    /// head. This matches the queue's behaviour since the seed
    /// implementation; the bit-identity goldens pin it.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        self.pending.front().map(|&(release, _)| release)
    }

    /// Pops the longest due prefix of the FIFO (every entry from the front
    /// whose release time is `<= now`) into `out`, preserving schedule
    /// order. In-order issue: a due entry parked behind a not-yet-due head
    /// stays queued (see [`next_due`](Self::next_due)).
    ///
    /// The caller owns (and typically reuses) `out`, so steady-state draining
    /// allocates nothing.
    pub fn drain_due_into(&mut self, now: Cycle, out: &mut Vec<LineAddr>) {
        while let Some(&(release, line)) = self.pending.front() {
            if release > now {
                break;
            }
            self.pending.pop_front();
            self.members.remove(&line);
            out.push(line);
        }
    }

    /// Removes and returns every line whose release time is `<= now`.
    ///
    /// Allocating convenience wrapper around
    /// [`drain_due_into`](Self::drain_due_into) for tests and examples; the
    /// simulator hot path uses the buffer-reusing form.
    pub fn drain_due(&mut self, now: Cycle) -> Vec<LineAddr> {
        let mut due = Vec::new();
        self.drain_due_into(now, &mut due);
        due
    }

    /// Number of prefetches currently pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no prefetches are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total prefetches ever scheduled.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_delay() {
        let mut q = PrefetchQueue::new(10);
        q.schedule(LineAddr(1), 0);
        assert!(q.drain_due(9).is_empty());
        assert_eq!(q.drain_due(10), vec![LineAddr(1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_delay_releases_immediately() {
        let mut q = PrefetchQueue::new(0);
        q.schedule(LineAddr(2), 42);
        assert_eq!(q.next_due(), Some(42));
        assert_eq!(q.drain_due(42), vec![LineAddr(2)]);
    }

    #[test]
    fn preserves_fifo_order() {
        let mut q = PrefetchQueue::new(5);
        q.schedule(LineAddr(1), 0);
        q.schedule(LineAddr(2), 1);
        q.schedule(LineAddr(3), 2);
        assert_eq!(
            q.drain_due(100),
            vec![LineAddr(1), LineAddr(2), LineAddr(3)]
        );
    }

    #[test]
    fn partial_drain_keeps_later_entries() {
        let mut q = PrefetchQueue::new(10);
        q.schedule(LineAddr(1), 0); // due at 10
        q.schedule(LineAddr(2), 20); // due at 30
        assert_eq!(q.next_due(), Some(10));
        assert_eq!(q.drain_due(15), vec![LineAddr(1)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_due(), Some(30));
        assert_eq!(q.drain_due(30), vec![LineAddr(2)]);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn deduplicates_pending_lines() {
        let mut q = PrefetchQueue::new(10);
        q.schedule(LineAddr(1), 0);
        q.schedule(LineAddr(1), 5);
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 1);
        assert_eq!(q.drain_due(100).len(), 1);
        // After draining, the line may be scheduled again.
        q.schedule(LineAddr(1), 50);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn drain_due_into_appends_without_clearing() {
        let mut q = PrefetchQueue::new(0);
        q.schedule(LineAddr(1), 1);
        let mut buf = vec![LineAddr(99)];
        q.drain_due_into(5, &mut buf);
        assert_eq!(buf, vec![LineAddr(99), LineAddr(1)]);
    }
}
