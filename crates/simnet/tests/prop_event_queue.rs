//! Differential property test: the hierarchical timer wheel
//! ([`EventQueue`]) must pop the exact `(time, seq)` order of the
//! reference `BinaryHeap` queue ([`HeapEventQueue`]) on arbitrary
//! schedule sequences — including same-tick ties, far-future deadlines
//! that overflow the wheel, reschedules of the same deadline, and
//! deadlines in the (clamped) past. Campaign outputs are bit-for-bit
//! reproducible only if these two agree everywhere.

use doqlab_simnet::{EventQueue, HeapEventQueue, SimTime};
use proptest::prelude::*;

/// One step of a schedule: either push an event some gap after the
/// current clock, or pop (advancing the clock to the popped time).
#[derive(Debug, Clone)]
enum Op {
    /// Push at `clock + gap` (gaps chosen to exercise every wheel
    /// level, the overflow heap, and exact ties at the clock).
    Push {
        gap: u64,
    },
    /// Push the same deadline `burst` times — a reschedule storm, the
    /// pattern lazy wakeup re-arming produces.
    Reschedule {
        gap: u64,
        burst: u8,
    },
    /// Push strictly before the clock (clamped path).
    PushPast {
        back: u64,
    },
    Pop,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Weighted toward pushes so queues grow deep enough to span
        // multiple wheel levels at once.
        (0u64..64).prop_map(|gap| Op::Push { gap }),
        (0u64..4_096).prop_map(|gap| Op::Push { gap }),
        (0u64..1 << 36).prop_map(|gap| Op::Push { gap }),
        // Past the 2^36 ns wheel horizon: overflow heap.
        ((1u64 << 36)..1 << 39).prop_map(|gap| Op::Push { gap }),
        (0u64..4_096, 1u8..8).prop_map(|(gap, burst)| Op::Reschedule { gap, burst }),
        (1u64..1 << 20).prop_map(|back| Op::PushPast { back }),
        (1usize..4).prop_map(|_| Op::Pop),
        proptest::strategy::Just(Op::Pop),
    ]
}

/// A deadline at one of the scales `op` pushes at, each wheel level
/// drawn explicitly: level 0, level 1 (rare in `0..2^36`), level 2 and
/// the overflow heap past the 2^36 ns horizon.
fn deadline() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        0u64..4_096,
        4_096u64..1 << 24,
        (1u64 << 24)..1 << 36,
        (1u64 << 36)..1 << 39,
    ]
}

proptest! {
    #[test]
    fn wheel_pops_in_exact_heap_order(ops in proptest::collection::vec(op(), 1..400)) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut clock = 0u64;
        let mut id = 0u32;
        let mut push = |wheel: &mut EventQueue<u32>,
                        heap: &mut HeapEventQueue<u32>,
                        t: u64| {
            wheel.push(SimTime::from_nanos(t), id);
            heap.push(SimTime::from_nanos(t), id);
            id += 1;
        };
        for op in &ops {
            match *op {
                Op::Push { gap } => push(&mut wheel, &mut heap, clock + gap),
                Op::Reschedule { gap, burst } => {
                    for _ in 0..burst {
                        push(&mut wheel, &mut heap, clock + gap);
                    }
                }
                Op::PushPast { back } => push(&mut wheel, &mut heap, clock.saturating_sub(back)),
                Op::Pop => {
                    let a = wheel.pop();
                    prop_assert_eq!(a, heap.pop());
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    if let Some((t, _)) = a {
                        clock = clock.max(t.as_nanos());
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain: every remaining event must come out in identical order.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_heap_after_clear_and_reuse(
        before in proptest::collection::vec(deadline(), 0..50),
        pops in 0usize..50,
        after in proptest::collection::vec(0u64..1 << 37, 1..50),
    ) {
        // A cleared wheel must behave exactly like a fresh one — the
        // simulator reuses queue arenas across campaign units. Whatever
        // is left on any level or in the overflow heap must go: the
        // same deadlines pushed again land in the same slots as the
        // entries a faulty clear would leave behind.
        let mut wheel = EventQueue::new();
        for (i, &t) in before.iter().enumerate() {
            wheel.push(SimTime::from_nanos(t), i as u32);
        }
        for _ in 0..pops.min(before.len()) {
            wheel.pop();
        }
        wheel.clear();
        prop_assert!(wheel.is_empty() && wheel.peek_time().is_none());
        let mut heap = HeapEventQueue::new();
        for (i, &t) in before.iter().chain(&after).enumerate() {
            wheel.push(SimTime::from_nanos(t), i as u32);
            heap.push(SimTime::from_nanos(t), i as u32);
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
