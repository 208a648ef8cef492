//! Hierarchical timer wheel: the O(1) scheduler backend for fleet-scale runs.
//!
//! [`TimerWheel`] implements the same [`Scheduler`]
//! contract as [`EventQueue`](crate::EventQueue) — deterministic FIFO order
//! among simultaneous events, clock that never moves backwards, exact
//! cancellation — but replaces the binary heap with six levels of 64 slots
//! over the millisecond clock, so `schedule`, `cancel` and the common-case
//! `advance` are constant-time instead of `O(log n)`. A fleet driver keeps
//! one wheel per shard with one alarm per device; with a million devices in
//! a shard, heap discipline is what separates "events per second" from
//! "log-n pointer chases per second".
//!
//! Layout. Level `L` covers deadlines `64^L..64^(L+1)` ms ahead of the wheel
//! cursor in slots of `64^L` ms; six levels span ~795 days, far beyond any
//! simulated horizon (later deadlines park in an overflow list). Slots hold
//! intrusive singly-linked lists of slab-allocated nodes; a per-level 64-bit
//! occupancy bitmap finds the next non-empty slot with a single
//! `trailing_zeros`. Advancing cascades a higher-level slot's nodes into
//! lower levels until an exact-millisecond level-0 slot is due, whose nodes
//! are sorted by schedule sequence — restoring the global `(time, seq)`
//! order the `EventQueue` heap maintains, which is what makes the two
//! backends produce bit-identical simulations.

use crate::queue::{run_scheduled, EventHandler, EventToken, Scheduler};
use cellrel_types::{SimDuration, SimTime};
use std::collections::VecDeque;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64 slots per level
const LEVELS: usize = 6;
/// Deadlines this far (ms) past the cursor overflow into the `far` list.
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32); // 2^36 ms ≈ 795 days

const NIL: u32 = u32::MAX;

/// Tombstone-purge threshold, mirroring the `EventQueue` policy: never purge
/// below this many cancelled nodes, above it purge once they reach half the
/// allocated nodes.
const PURGE_MIN_TOMBSTONES: usize = 64;

#[derive(Debug)]
struct Node<E> {
    at: u64,
    seq: u64,
    gen: u32,
    next: u32,
    /// `None` while cancelled-but-linked or on the free list.
    event: Option<E>,
}

/// A hierarchical timer wheel with the [`Scheduler`] contract.
///
/// Drop-in for [`EventQueue`](crate::EventQueue):
///
/// ```
/// use cellrel_sim::{Scheduler, TimerWheel};
/// use cellrel_types::{SimDuration, SimTime};
///
/// let mut w: TimerWheel<&str> = TimerWheel::new();
/// w.schedule_after(SimDuration::from_secs(10), "b");
/// w.schedule_after(SimDuration::from_secs(5), "a");
/// let tok = w.schedule_after(SimDuration::from_secs(7), "cancelled");
/// w.cancel(tok);
///
/// assert_eq!(w.pop(), Some((SimTime::from_secs(5), "a")));
/// assert_eq!(w.pop(), Some((SimTime::from_secs(10), "b")));
/// assert_eq!(w.pop(), None);
/// ```
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// `LEVELS * SLOTS` intrusive list heads, level-major.
    slots: Vec<u32>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// Public clock: timestamp (ms) of the last popped event.
    clock: u64,
    /// Wheel position (ms): every node still in the wheel has `at >= cursor`;
    /// everything earlier has been moved to `due`. Always `>= clock`.
    cursor: u64,
    /// Nodes due at or before the cursor, sorted by `(at, seq)`; popped from
    /// the front before the wheel advances again.
    due: VecDeque<u32>,
    /// Deadlines beyond [`WHEEL_SPAN`] from the cursor; re-placed as the
    /// cursor catches up. Expected empty in practice.
    far: Vec<u32>,
    far_min: u64,
    live: usize,
    cancelled: usize,
    next_seq: u64,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel with the clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty wheel with slab space pre-allocated for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TimerWheel {
            slots: vec![NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            nodes: Vec::with_capacity(capacity),
            free_head: NIL,
            clock: 0,
            cursor: 0,
            due: VecDeque::new(),
            far: Vec::new(),
            far_min: u64::MAX,
            live: 0,
            cancelled: 0,
            next_seq: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.clock)
    }

    /// Number of live (non-cancelled) scheduled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Approximate resident size of the wheel in bytes (slab + slots + due
    /// ring); used by fleet drivers to report bytes/device.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + self.nodes.capacity() * std::mem::size_of::<Node<E>>()
            + self.due.capacity() * std::mem::size_of::<u32>()
            + self.far.capacity() * std::mem::size_of::<u32>()
    }

    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.at = at;
            node.seq = seq;
            node.next = NIL;
            node.event = Some(event);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "timer wheel slab exhausted");
            self.nodes.push(Node {
                at,
                seq,
                gen: 0,
                next: NIL,
                event: Some(event),
            });
            idx
        }
    }

    /// Return a node to the free list. The generation bump invalidates any
    /// outstanding token for it, so freed slots can be reused safely.
    fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.event = None;
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free_head;
        self.free_head = idx;
    }

    /// Slot placement: which level holds a deadline `delta` ms ahead.
    fn level_for(delta: u64) -> usize {
        debug_assert!(delta > 0);
        ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
    }

    /// Absolute start time of the next occurrence of `slot` at `level`, at
    /// or after the cursor.
    fn slot_base(&self, level: usize, slot: u64) -> u64 {
        let slot_size = 1u64 << (SLOT_BITS * level as u32);
        let span = slot_size << SLOT_BITS;
        let rotation_start = self.cursor & !(span - 1);
        let base = rotation_start.saturating_add(slot * slot_size);
        if base.saturating_add(slot_size) <= self.cursor {
            // The slot's window already passed this rotation.
            base.saturating_add(span)
        } else {
            base
        }
    }

    /// Link node `idx` where it belongs given the current cursor: the sorted
    /// due ring (deadline already reached), a wheel slot, or the far list.
    fn place(&mut self, idx: u32) {
        let at = self.nodes[idx as usize].at;
        if at <= self.cursor {
            self.insert_due(idx);
            return;
        }
        let delta = at - self.cursor;
        if delta >= WHEEL_SPAN {
            self.far_min = self.far_min.min(at);
            self.far.push(idx);
            return;
        }
        let mut level = Self::level_for(delta);
        // If the deadline maps onto the cursor's own slot at this level it is
        // a full rotation away, not current — park it one level up (where the
        // slot index is guaranteed to differ; see the equivalence proptest).
        if (at >> (SLOT_BITS * level as u32)) & 63
            == (self.cursor >> (SLOT_BITS * level as u32)) & 63
        {
            level += 1;
        }
        if level >= LEVELS {
            self.far_min = self.far_min.min(at);
            self.far.push(idx);
            return;
        }
        let slot = ((at >> (SLOT_BITS * level as u32)) & 63) as usize;
        let head = level * SLOTS + slot;
        self.nodes[idx as usize].next = self.slots[head];
        self.slots[head] = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// Sorted insert into the due ring by `(at, seq)`.
    fn insert_due(&mut self, idx: u32) {
        let nodes = &self.nodes;
        let key = {
            let n = &nodes[idx as usize];
            (n.at, n.seq)
        };
        let pos = self
            .due
            .binary_search_by(|&i| {
                let n = &nodes[i as usize];
                (n.at, n.seq).cmp(&key)
            })
            .unwrap_err();
        self.due.insert(pos, idx);
    }

    /// Earliest occupied slot across all levels: `(level, slot, base)`,
    /// preferring the highest level on a base tie so cascades happen before
    /// harvests (their nodes may share the harvested millisecond).
    fn best_slot(&self) -> Option<(usize, u64, u64)> {
        let mut best: Option<(usize, u64, u64)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let cs = ((self.cursor >> (SLOT_BITS * level as u32)) & 63) as u32;
            // Rotate so bit k of `rotated` is slot (cs + k) % 64: the first
            // set bit is the next occupied slot at/after the cursor's.
            let rotated = occ.rotate_right(cs);
            let k = rotated.trailing_zeros() as u64;
            let slot = (u64::from(cs) + k) % 64;
            let base = self.slot_base(level, slot);
            let better = match best {
                None => true,
                Some((bl, _, bb)) => base < bb || (base == bb && level > bl),
            };
            if better {
                best = Some((level, slot, base));
            }
        }
        best
    }

    /// Detach and return the head of a slot's list, clearing its bitmap bit.
    fn take_slot(&mut self, level: usize, slot: u64) -> u32 {
        let head = level * SLOTS + slot as usize;
        let idx = self.slots[head];
        self.slots[head] = NIL;
        self.occupied[level] &= !(1 << slot);
        idx
    }

    /// Advance the wheel until the due ring has entries or nothing is left.
    fn refill_due(&mut self) {
        // Scratch buffer for level-0 harvests, kept out of the loop.
        let mut batch: Vec<u32> = Vec::new();
        while self.due.is_empty() {
            let best = self.best_slot();
            let far_ready = !self.far.is_empty()
                && match best {
                    None => true,
                    Some((_, _, base)) => self.far_min < base,
                };
            if far_ready {
                // Nothing in the wheel fires before the earliest far node:
                // jump the cursor forward and re-place what now fits.
                self.cursor = self.cursor.max(match best {
                    None => self.far_min,
                    Some((_, _, base)) => base.min(self.far_min),
                });
                self.pull_far();
                continue;
            }
            let Some((level, slot, base)) = best else {
                return;
            };
            debug_assert!(base >= self.cursor || level > 0);
            self.cursor = self.cursor.max(base);
            let mut idx = self.take_slot(level, slot);
            if level == 0 {
                // Exact-millisecond slot: everything in it is due *now*.
                batch.clear();
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    if self.nodes[idx as usize].event.is_none() {
                        self.cancelled -= 1;
                        self.release(idx);
                    } else {
                        debug_assert_eq!(self.nodes[idx as usize].at, self.cursor);
                        batch.push(idx);
                    }
                    idx = next;
                }
                // Restore FIFO among simultaneous events (lists are LIFO).
                batch.sort_unstable_by_key(|&i| self.nodes[i as usize].seq);
                self.due.extend(batch.iter().copied());
            } else {
                // Cascade: nodes fall to strictly lower levels (or the due
                // ring) now that the cursor is inside their slot window.
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    if self.nodes[idx as usize].event.is_none() {
                        self.cancelled -= 1;
                        self.release(idx);
                    } else {
                        self.nodes[idx as usize].next = NIL;
                        self.place(idx);
                    }
                    idx = next;
                }
            }
        }
    }

    /// Re-place far-list nodes that now fit in the wheel (or are due).
    fn pull_far(&mut self) {
        let far = std::mem::take(&mut self.far);
        self.far_min = u64::MAX;
        for idx in far {
            if self.nodes[idx as usize].event.is_none() {
                self.cancelled -= 1;
                self.release(idx);
            } else {
                // `place` re-files into wheel/due, or back into `far` (with
                // far_min maintenance) if still beyond the span.
                self.place(idx);
            }
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — the simulation never time-travels,
    /// and a past-dated event is always a logic bug in the caller.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        assert!(
            at >= self.now(),
            "scheduled event at {at} before current time {}",
            self.now()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(at.as_millis(), seq, event);
        self.live += 1;
        self.place(idx);
        let gen = self.nodes[idx as usize].gen;
        EventToken::from_raw((u64::from(gen) << 32) | u64::from(idx))
    }

    /// Schedule `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now() + delay, event)
    }

    /// Cancel a previously scheduled event. Returns `false` if the event has
    /// already fired or was already cancelled. O(1): the node is tombstoned
    /// in place and reclaimed when its slot is next visited (or by the purge
    /// sweep if tombstones ever dominate).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let raw = token.raw();
        let idx = (raw & u64::from(u32::MAX)) as usize;
        let gen = (raw >> 32) as u32;
        let Some(node) = self.nodes.get_mut(idx) else {
            return false;
        };
        if node.gen != gen || node.event.is_none() {
            return false;
        }
        node.event = None;
        self.live -= 1;
        self.cancelled += 1;
        if self.cancelled >= PURGE_MIN_TOMBSTONES
            && self.cancelled * 2 >= self.live + self.cancelled
        {
            self.purge_cancelled();
        }
        true
    }

    /// Sweep every list and reclaim tombstoned nodes, bounding slab memory
    /// to O(live events) under schedule/cancel churn.
    fn purge_cancelled(&mut self) {
        for level in 0..LEVELS {
            let mut occ = self.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let head = level * SLOTS + slot;
                let mut idx = self.slots[head];
                let mut kept = NIL;
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    if self.nodes[idx as usize].event.is_none() {
                        self.release(idx);
                    } else {
                        self.nodes[idx as usize].next = kept;
                        kept = idx;
                    }
                    idx = next;
                }
                // The surviving list is reversed; reverse back to preserve
                // insertion order (harvest sorts by seq anyway, but keep the
                // structure canonical).
                let mut rev = NIL;
                let mut idx = kept;
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    self.nodes[idx as usize].next = rev;
                    rev = idx;
                    idx = next;
                }
                self.slots[head] = rev;
                if rev == NIL {
                    self.occupied[level] &= !(1 << slot);
                }
            }
        }
        let nodes = &self.nodes;
        let mut freed: Vec<u32> = Vec::new();
        self.due.retain(|&idx| {
            let keep = nodes[idx as usize].event.is_some();
            if !keep {
                freed.push(idx);
            }
            keep
        });
        self.far.retain(|&idx| {
            let keep = nodes[idx as usize].event.is_some();
            if !keep {
                freed.push(idx);
            }
            keep
        });
        for idx in freed {
            self.release(idx);
        }
        self.far_min = self
            .far
            .iter()
            .map(|&i| self.nodes[i as usize].at)
            .min()
            .unwrap_or(u64::MAX);
        self.cancelled = 0;
    }

    /// Timestamp of the next live event, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            self.refill_due();
            match self.due.front() {
                None => return None,
                Some(&idx) if self.nodes[idx as usize].event.is_none() => {
                    self.due.pop_front();
                    self.cancelled -= 1;
                    self.release(idx);
                }
                Some(&idx) => return Some(SimTime::from_millis(self.nodes[idx as usize].at)),
            }
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            self.refill_due();
            let idx = self.due.pop_front()?;
            match self.nodes[idx as usize].event.take() {
                None => {
                    self.cancelled -= 1;
                    self.release(idx);
                }
                Some(event) => {
                    let at = self.nodes[idx as usize].at;
                    self.live -= 1;
                    self.release(idx);
                    debug_assert!(at >= self.clock);
                    self.clock = at;
                    return Some((SimTime::from_millis(at), event));
                }
            }
        }
    }

    /// Run the simulation loop until the wheel drains or the clock passes
    /// `until`. Events scheduled exactly at `until` still fire. Returns the
    /// number of events dispatched.
    pub fn run_until<H: EventHandler<E, Self>>(&mut self, handler: &mut H, until: SimTime) -> u64 {
        run_scheduled(self, handler, until)
    }

    /// Run until the wheel drains completely. Returns events dispatched.
    pub fn run_to_completion<H: EventHandler<E, Self>>(&mut self, handler: &mut H) -> u64 {
        self.run_until(handler, SimTime::MAX)
    }
}

impl<E> Scheduler<E> for TimerWheel<E> {
    fn now(&self) -> SimTime {
        TimerWheel::now(self)
    }
    fn len(&self) -> usize {
        TimerWheel::len(self)
    }
    fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        TimerWheel::schedule_at(self, at, event)
    }
    fn cancel(&mut self, token: EventToken) -> bool {
        TimerWheel::cancel(self, token)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        TimerWheel::peek_time(self)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        TimerWheel::pop(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.schedule_at(SimTime::from_secs(3), 3u32);
        w.schedule_at(SimTime::from_secs(1), 1u32);
        w.schedule_at(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(w.now(), SimTime::from_secs(3));
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut w = TimerWheel::new();
        for i in 0..10u32 {
            w.schedule_at(SimTime::from_secs(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_and_token_reuse() {
        let mut w = TimerWheel::new();
        let t1 = w.schedule_at(SimTime::from_secs(1), "a");
        w.schedule_at(SimTime::from_secs(2), "b");
        assert!(w.cancel(t1));
        assert!(!w.cancel(t1), "double-cancel must return false");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((SimTime::from_secs(2), "b")));
        assert!(!w.cancel(t1), "cancel after slab reuse must return false");
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut w = TimerWheel::new();
        let t = w.schedule_at(SimTime::from_secs(1), ());
        w.pop();
        assert!(!w.cancel(t), "cancelling a fired event must return false");
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut w = TimerWheel::new();
        w.schedule_at(SimTime::from_secs(10), ());
        w.pop();
        w.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Schedule-before-cursor exercises the due-ring sorted insert.
        let mut w = TimerWheel::new();
        w.schedule_at(SimTime::from_millis(100), 1u32);
        w.schedule_at(SimTime::from_millis(100), 2u32);
        assert_eq!(w.peek_time(), Some(SimTime::from_millis(100)));
        // Clock still 0; inserting at 50 must fire before the 100s.
        w.schedule_at(SimTime::from_millis(50), 0u32);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn far_future_deadlines() {
        let mut w = TimerWheel::new();
        // Beyond the 2^36 ms wheel span, plus the MAX sentinel.
        w.schedule_at(SimTime::from_millis(WHEEL_SPAN * 3), 1u32);
        w.schedule_at(SimTime::MAX, 2u32);
        w.schedule_at(SimTime::from_secs(1), 0u32);
        assert_eq!(w.pop(), Some((SimTime::from_secs(1), 0)));
        assert_eq!(w.pop(), Some((SimTime::from_millis(WHEEL_SPAN * 3), 1)));
        assert_eq!(w.pop(), Some((SimTime::MAX, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn long_horizon_cascades() {
        // One event per hour for 40 days crosses several wheel levels.
        let mut w = TimerWheel::new();
        for h in 0..(40 * 24u64) {
            w.schedule_at(SimTime::from_secs(h * 3600), h);
        }
        let mut prev = None;
        let mut n = 0;
        while let Some((at, h)) = w.pop() {
            assert_eq!(at.as_secs(), h * 3600);
            assert!(prev < Some(at));
            prev = Some(at);
            n += 1;
        }
        assert_eq!(n, 40 * 24);
    }

    #[test]
    fn cancel_churn_keeps_memory_bounded() {
        let mut w = TimerWheel::new();
        for i in 0..100u32 {
            w.schedule_at(SimTime::from_secs(1_000_000 + u64::from(i)), i);
        }
        for round in 0..200_000u64 {
            let tok = w.schedule_at(SimTime::from_secs(500_000 + round), 0u32);
            assert!(w.cancel(tok));
        }
        assert_eq!(w.len(), 100);
        assert!(
            w.nodes.len() <= 100 + 2 * PURGE_MIN_TOMBSTONES,
            "slab retained {} nodes for 100 live events — tombstones leak",
            w.nodes.len()
        );
        assert_eq!(w.pop(), Some((SimTime::from_secs(1_000_000), 0u32)));
    }

    #[test]
    fn matches_event_queue_on_random_workloads() {
        // Randomised differential test; the proptest suite goes further,
        // this one keeps a fast in-crate witness.
        for seed in 0..20u64 {
            let mut rng = SimRng::new(seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut w: TimerWheel<u64> = TimerWheel::new();
            let mut q_toks = Vec::new();
            let mut w_toks = Vec::new();
            let mut q_log = Vec::new();
            let mut w_log = Vec::new();
            for step in 0..400u64 {
                match rng.index(4) {
                    0 | 1 => {
                        let delay = SimDuration::from_millis(rng.range_u64(0, 500_000));
                        q_toks.push(q.schedule_after(delay, step));
                        w_toks.push(w.schedule_after(delay, step));
                    }
                    2 if !q_toks.is_empty() => {
                        let i = rng.index(q_toks.len());
                        assert_eq!(q.cancel(q_toks[i]), w.cancel(w_toks[i]));
                    }
                    _ => {
                        assert_eq!(q.peek_time(), w.peek_time());
                        q_log.push(q.pop());
                        w_log.push(w.pop());
                    }
                }
                assert_eq!(q.len(), w.len());
            }
            loop {
                let (a, b) = (q.pop(), w.pop());
                q_log.push(a);
                w_log.push(b);
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(q_log, w_log, "divergence at seed {seed}");
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        struct Counter(u64);
        impl EventHandler<u32, TimerWheel<u32>> for Counter {
            fn handle(&mut self, _at: SimTime, _ev: u32, _q: &mut TimerWheel<u32>) {
                self.0 += 1;
            }
        }
        let mut w = TimerWheel::new();
        for s in 1..=10 {
            w.schedule_at(SimTime::from_secs(s), s as u32);
        }
        let mut c = Counter(0);
        let n = w.run_until(&mut c, SimTime::from_secs(5));
        assert_eq!(n, 5);
        assert_eq!(c.0, 5);
        assert_eq!(w.len(), 5);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        struct Chain {
            fired: Vec<u64>,
        }
        impl EventHandler<u64, TimerWheel<u64>> for Chain {
            fn handle(&mut self, at: SimTime, ev: u64, q: &mut TimerWheel<u64>) {
                self.fired.push(ev);
                if ev < 5 {
                    q.schedule_at(at + SimDuration::from_secs(1), ev + 1);
                }
            }
        }
        let mut w = TimerWheel::new();
        w.schedule_at(SimTime::from_secs(0), 1);
        let mut h = Chain { fired: vec![] };
        w.run_to_completion(&mut h);
        assert_eq!(h.fired, vec![1, 2, 3, 4, 5]);
        assert_eq!(w.now(), SimTime::from_secs(4));
    }
}
