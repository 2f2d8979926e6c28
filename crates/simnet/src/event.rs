//! The event queue driving the simulation.
//!
//! Events pop in `(time, sequence)` order: the sequence number breaks
//! ties in insertion order, which makes event processing fully
//! deterministic even when many events share a timestamp.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — a hierarchical timer wheel, the production queue.
//!   Three levels of 4096 slots each cover `2^36` ns ≈ 68 s ahead of
//!   the cursor at nanosecond resolution; an overflow heap catches
//!   farther-future timers (idle-eviction deadlines, diurnal arrival
//!   gaps). Push is O(1); pop is a couple of bitmap scans plus a short
//!   in-slot scan. Slot assignment follows the XOR trick (level = the
//!   highest 12-bit digit where the deadline differs from the cursor),
//!   so a slot never mixes rotations and the earliest pending event is
//!   always in the lowest-indexed occupied slot of the lowest occupied
//!   level.
//! * [`HeapEventQueue`] — the original `BinaryHeap` ordered by
//!   `(time, seq)`. Kept as the executable specification: a property
//!   test drives both on random schedules and asserts identical pop
//!   order, including same-tick ties.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// Bits per wheel level: 4096 slots each. Wide levels keep the
/// cascade count per event low (a deadline 30 s out is only two levels
/// up) at the cost of slot-array size, which the reusable simulator
/// arenas amortize away.
const LEVEL_BITS: u32 = 12;
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// u64 words per level occupancy bitmap.
const WORDS: usize = SLOTS / 64;
const LEVELS: usize = 3;
/// Deadlines at least this far past the cursor overflow to the heap:
/// `2^36` ns ≈ 68.7 s.
const HORIZON: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// Two-level occupancy bitmap over 4096 slots: a summary word with one
/// bit per 64-slot word. Lowest set slot resolves in two
/// `trailing_zeros`.
#[derive(Debug, Clone)]
struct Occupancy {
    summary: u64,
    words: [u64; WORDS],
}

impl Occupancy {
    fn new() -> Self {
        Occupancy {
            summary: 0,
            words: [0; WORDS],
        }
    }

    #[inline]
    fn set(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    #[inline]
    fn unset(&mut self, slot: usize) {
        let w = slot / 64;
        self.words[w] &= !(1 << (slot % 64));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.summary == 0
    }

    /// Index of the lowest occupied slot; meaningless when empty.
    #[inline]
    fn lowest(&self) -> usize {
        let w = self.summary.trailing_zeros() as usize;
        w * 64 + self.words[w].trailing_zeros() as usize
    }

    /// Every occupied slot, ascending.
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        bits(self.summary).flat_map(|w| bits(self.words[w]).map(move |b| w * 64 + b))
    }

    fn clear(&mut self) {
        for w in bits(self.summary) {
            self.words[w] = 0;
        }
        self.summary = 0;
    }
}

/// Indices of the set bits of `word`, ascending.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// A deterministic time-ordered queue of payloads: a hierarchical
/// timer wheel with an overflow heap (see the module docs).
///
/// Deadlines are expected at or after the last popped time — the
/// simulator's contract, since handlers run at the popped timestamp
/// and schedule into their future. A deadline in the past is clamped
/// into the cursor's slot and still pops in exact `(time, seq)` order.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// `slots[level * SLOTS + i]` — unsorted; pop min-scans by
    /// `(time, seq)`.
    slots: Vec<Vec<Entry<T>>>,
    occupied: [Occupancy; LEVELS],
    /// Cursor: the last popped (or cascaded-to) tick in nanoseconds.
    /// Every wheel-resident deadline is within `HORIZON` of it.
    elapsed: u64,
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Reused cascade buffer, so redistributing a slot allocates
    /// nothing in steady state.
    scratch: Vec<Entry<T>>,
    len: usize,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [Occupancy::new(), Occupancy::new(), Occupancy::new()],
            elapsed: 0,
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(Entry { time, seq, payload });
    }

    /// Insert an entry at the level/slot its deadline dictates.
    fn place(&mut self, e: Entry<T>) {
        // Clamp the past into the cursor's own slot: it sorts first in
        // the in-slot scan, so pop order still matches the heap's.
        let t = e.time.as_nanos().max(self.elapsed);
        let diff = t ^ self.elapsed;
        if diff >= HORIZON {
            self.overflow.push(Reverse(e));
            return;
        }
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) / LEVEL_BITS
        } as usize;
        let slot = ((t >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(e);
        self.occupied[level].set(slot);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        loop {
            // The earliest deadline lives in the lowest occupied level
            // (level-l residents are strictly later than level-(l-1)
            // ones), in its lowest occupied slot.
            let Some(level) = (0..LEVELS).find(|&l| !self.occupied[l].is_empty()) else {
                // Wheel empty: jump the cursor to the overflow's
                // earliest deadline and pull everything now within the
                // horizon back into the wheel.
                let t0 = self.overflow.peek()?.0.time.as_nanos();
                self.elapsed = self.elapsed.max(t0);
                while let Some(Reverse(e)) = self.overflow.peek() {
                    if e.time.as_nanos() ^ self.elapsed >= HORIZON {
                        break;
                    }
                    let Reverse(e) = self.overflow.pop().expect("peeked");
                    self.place(e);
                }
                continue;
            };
            let slot = self.occupied[level].lowest();
            if level > 0 {
                let idx = level * SLOTS + slot;
                // The slot is the wheel minimum: a lone entry needs no
                // cascade, it IS the next event (ties always share a
                // slot, so a singleton has none).
                if self.slots[idx].len() == 1 {
                    let e = self.slots[idx].pop().expect("occupied slot");
                    self.occupied[level].unset(slot);
                    self.elapsed = self.elapsed.max(e.time.as_nanos());
                    self.len -= 1;
                    return Some((e.time, e.payload));
                }
                // Cascade: advance the cursor to the slot's block and
                // redistribute its entries into lower levels.
                let span = 1u64 << (LEVEL_BITS * (level as u32 + 1));
                let block =
                    (self.elapsed & !(span - 1)) | ((slot as u64) << (LEVEL_BITS * level as u32));
                self.elapsed = self.elapsed.max(block);
                let mut scratch = std::mem::take(&mut self.scratch);
                std::mem::swap(&mut scratch, &mut self.slots[idx]);
                self.occupied[level].unset(slot);
                for e in scratch.drain(..) {
                    self.place(e);
                }
                self.scratch = scratch;
                continue;
            }
            let bucket = &mut self.slots[slot];
            let mut min = 0;
            for i in 1..bucket.len() {
                if bucket[i] < bucket[min] {
                    min = i;
                }
            }
            let e = bucket.swap_remove(min);
            if bucket.is_empty() {
                self.occupied[0].unset(slot);
            }
            self.elapsed = self.elapsed.max(e.time.as_nanos());
            self.len -= 1;
            return Some((e.time, e.payload));
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        for level in 0..LEVELS {
            if self.occupied[level].is_empty() {
                continue;
            }
            let slot = self.occupied[level].lowest();
            let t = self.slots[level * SLOTS + slot]
                .iter()
                .map(|e| e.time)
                .min()
                .expect("occupied slot");
            return Some(t);
        }
        self.overflow.peek().map(|Reverse(e)| e.time)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reserve room for `cap` entries in every wheel slot, front-loading
    /// the one-time growth allocation a slot otherwise pays on first
    /// touch. After warming, pushes and cascades that never exceed `cap`
    /// entries per slot hit the allocator zero times — what the
    /// `count-allocs` steady-state test pins.
    pub fn warm(&mut self, cap: usize) {
        for s in &mut self.slots {
            s.reserve(cap);
        }
    }

    /// Drop all pending events, rewind the cursor and restart the
    /// sequence counter, keeping every allocation. Used by
    /// [`crate::Simulator::reset`] so a simulator arena can be reused
    /// across runs without reallocating. Only the slots the occupancy
    /// bitmaps mark hold entries, so only those are visited.
    pub fn clear(&mut self) {
        for (level, occ) in self.occupied.iter_mut().enumerate() {
            for slot in occ.slots() {
                self.slots[level * SLOTS + slot].clear();
            }
            occ.clear();
        }
        self.overflow.clear();
        self.elapsed = 0;
        self.len = 0;
        self.next_seq = 0;
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The original `BinaryHeap` event queue, ordered by `(time, seq)`.
/// Retained as the reference implementation the timer wheel is
/// property-tested against.
#[derive(Debug)]
pub struct HeapEventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> HeapEventQueue<T> {
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events and restart the sequence counter,
    /// keeping the heap's allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

impl<T> Default for HeapEventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_restarts_sequence_numbers() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, "stale");
        q.clear();
        assert!(q.is_empty());
        // Tie-breaking after a clear must match a fresh queue, or a
        // reused simulator arena would dispatch same-time events in a
        // different order than a newly allocated one.
        q.push(t, "a");
        q.push(t, "b");
        assert_eq!(q.pop(), Some((t, "a")));
        assert_eq!(q.pop(), Some((t, "b")));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_deadlines_round_trip_the_overflow_heap() {
        let mut q = EventQueue::new();
        // Well past the 2^36 ns ≈ 68 s horizon: a diurnal-window tail.
        let far = SimTime::from_secs(86_400);
        let near = SimTime::from_millis(1);
        q.push(far, "far");
        q.push(near, "near");
        q.push(far, "far2");
        assert_eq!(q.peek_time(), Some(near));
        assert_eq!(q.pop(), Some((near, "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), Some((far, "far2")));
        assert_eq!(q.pop(), None);
        // Scheduling continues past the overflow jump.
        q.push(far + crate::time::Duration::from_secs(120), "later");
        assert_eq!(q.pop().map(|(_, p)| p), Some("later"));
    }

    #[test]
    fn interleaved_pushes_match_heap_order_across_levels() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // Deterministic xorshift: times spanning every wheel level and
        // the overflow heap, with frequent exact ties.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut clock = 0u64;
        for round in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let gap = match x % 5 {
                0 => 0,                           // same tick as the clock
                1 => x % 64,                      // level 0
                2 => x % 4_096,                   // level 1
                3 => x % HORIZON,                 // any level
                _ => HORIZON + x % (4 * HORIZON), // overflow
            };
            let t = SimTime::from_nanos(clock + gap);
            wheel.push(t, round);
            heap.push(t, round);
            if x.is_multiple_of(3) {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    clock = t.as_nanos();
                }
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
