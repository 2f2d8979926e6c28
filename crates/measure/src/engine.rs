//! The shared campaign-execution engine.
//!
//! Every campaign (§2 discovery, §3.1 single-query, §3.2 webperf, the
//! regime sweeps and populations) is an embarrassingly parallel sweep
//! over a deterministic unit grid. Before this module existed each
//! campaign reimplemented the same three pieces; they now share:
//!
//! * [`UnitGrid`] — the `[vantage point × resolver × page × transport ×
//!   repetition]` enumeration in one canonical order (page and any
//!   other unused axis collapse to a single slot);
//! * [`run_units`] — a work-stealing scheduler: workers pull units
//!   from a shared queue (no static `chunks()` pre-partitioning, so a
//!   straggler unit never idles the other workers) and write each
//!   result into its unit-grid slot, making campaign output
//!   **byte-identical at any thread count**;
//! * per-worker **simulator arenas** — each worker owns one
//!   [`doqlab_simnet::Simulator`] created by the `init` hook and
//!   [`doqlab_simnet::Simulator::reset`] between units, reusing the
//!   event-queue, host-table and trace allocations across the
//!   thousands of units it executes;
//! * [`unit_seed`] — the per-unit RNG domain separation.
//!
//! The worker count is the caller's [`Scale::threads`](crate::Scale::threads);
//! nothing here reads the environment.

use std::sync::Mutex;

/// Bytes of the spare block [`run_units`] takes just before its result
/// slots and frees right after them: room below the results for what
/// its caller allocates while it still holds them. Below glibc's
/// starting `mmap` threshold (128 KiB), which only ever rises, so it
/// always comes from the heap.
const SPARE_BELOW_RESULTS: usize = 64 << 10;

/// Mix a campaign seed and a unit coordinate tuple into the unit's RNG
/// seed (splitmix64-style finalization per part). Hashing every part —
/// rather than packing parts into one integer — means coordinates can
/// never collide however large an axis grows.
pub fn unit_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &v in parts {
        h ^= v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(27).wrapping_mul(5).wrapping_add(0x52DC_E729);
    }
    h
}

/// One cell of a campaign's unit grid. All coordinates are *slot*
/// positions (indices into the campaign's subsampled lists); campaigns
/// map slots back to vantage points, resolver profiles, pages and
/// transports themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridUnit {
    /// Position in deterministic grid order (also the result slot).
    pub index: usize,
    pub vp: usize,
    pub resolver: usize,
    pub page: usize,
    pub transport: usize,
    pub rep: usize,
}

/// Axis sizes of a campaign's unit grid. Unused axes are size 1.
#[derive(Debug, Clone, Copy)]
pub struct UnitGrid {
    pub vps: usize,
    pub resolvers: usize,
    pub pages: usize,
    pub transports: usize,
    pub reps: usize,
}

impl UnitGrid {
    pub fn len(&self) -> usize {
        self.vps * self.resolvers * self.pages * self.transports * self.reps
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate every unit in canonical order: repetition fastest,
    /// then transport, page, resolver, and vantage point slowest — the
    /// nesting every campaign historically used.
    pub fn units(&self) -> Vec<GridUnit> {
        let mut units = Vec::with_capacity(self.len());
        for vp in 0..self.vps {
            for resolver in 0..self.resolvers {
                for page in 0..self.pages {
                    for transport in 0..self.transports {
                        for rep in 0..self.reps {
                            units.push(GridUnit {
                                index: units.len(),
                                vp,
                                resolver,
                                page,
                                transport,
                                rep,
                            });
                        }
                    }
                }
            }
        }
        units
    }
}

/// Execute `run` for every unit on a pool of `threads` workers.
///
/// Scheduling is work-stealing: a shared queue hands out units
/// first-come first-served, so slow units (a 30 s page-load timeout,
/// say) never leave the rest of a pre-assigned chunk idle. Each worker
/// calls `init` once to build its private state — the reusable
/// simulator arena — and threads it through every unit it executes.
/// Results are written into their unit's slot and returned in grid
/// order: the output is independent of thread count and scheduling, so
/// a campaign's samples are byte-identical whether it ran on 1 thread
/// or 64.
pub fn run_units<U, W, S>(
    threads: usize,
    units: &[U],
    init: impl Fn() -> W + Sync,
    run: impl Fn(&mut W, &U, usize) -> S + Sync,
) -> Vec<S>
where
    U: Sync,
    S: Send,
{
    let threads = threads.max(1).min(units.len().max(1));
    // The slots are the call's one grid-sized block, taken from the top
    // of the calling thread's heap. A block the caller allocates while
    // it still holds the results (a timing record, an aggregate) would
    // otherwise come from the top too, right above them; once the
    // results are freed, their space could not rejoin the top, the next
    // small allocations would split it, and the next call's slots would
    // go above, so peak RSS would read one grid higher in some runs of
    // a repeated sweep. A spare block freed once the slots exist leaves
    // that room below them. `black_box` keeps the compiler from
    // eliding the unused allocation.
    let spare = std::hint::black_box(Vec::<u8>::with_capacity(SPARE_BELOW_RESULTS));
    let mut slots: Vec<Option<S>> = Vec::with_capacity(units.len());
    drop(spare);
    slots.resize_with(units.len(), || None);
    {
        // The queue hands out each unit with its result slot. A
        // per-worker result vector would be a grid-sized buffer in the
        // worker thread's allocator arena, placed wherever the units
        // that worker happened to run had left room, so peak RSS would
        // change from one run to the next.
        let queue = Mutex::new(slots.iter_mut().zip(units).enumerate());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let queue = &queue;
                    let init = &init;
                    let run = &run;
                    scope.spawn(move || {
                        // Register this worker's metrics shard so per-unit
                        // counters merge at campaign end (no-op when
                        // telemetry is disabled).
                        let _telemetry = doqlab_telemetry::metrics::worker_guard();
                        let mut worker = init();
                        loop {
                            // Held only to take the next unit, which
                            // cannot panic.
                            let next = queue.lock().expect("unit queue lock poisoned").next();
                            let Some((i, (slot, unit))) = next else { break };
                            *slot = Some(run(&mut worker, unit, i));
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("campaign worker panicked");
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every unit executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seed_matches_historical_single_query_hash() {
        // The exact value the pre-engine single_query::unit_seed
        // produced for (seed 0xD05_2022, vp 3, resolver 141, transport
        // 4, rep 7); pinned so refactors keep every sample's RNG
        // stream.
        let reference = {
            let mut h = 0xD05_2022u64 ^ 0x9E37_79B9_7F4A_7C15;
            for v in [3u64, 141, 4, 7] {
                h ^= v
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = h.rotate_left(27).wrapping_mul(5).wrapping_add(0x52DC_E729);
            }
            h
        };
        assert_eq!(unit_seed(0xD05_2022, &[3, 141, 4, 7]), reference);
    }

    #[test]
    fn unit_seed_separates_coordinates() {
        // The webperf bug this replaces: packing `pi * 16 + t` collided
        // once pi crossed the packing radix. Hashed parts never do.
        let a = unit_seed(1, &[0, 0, 1, 0, 0]);
        let b = unit_seed(1, &[0, 0, 0, 16, 0]);
        assert_ne!(a, b);
        assert_ne!(unit_seed(1, &[2, 3]), unit_seed(1, &[3, 2]));
        assert_ne!(unit_seed(1, &[5]), unit_seed(2, &[5]));
    }

    #[test]
    fn grid_enumerates_in_canonical_order_with_indices() {
        let grid = UnitGrid {
            vps: 2,
            resolvers: 3,
            pages: 1,
            transports: 2,
            reps: 2,
        };
        let units = grid.units();
        assert_eq!(units.len(), grid.len());
        assert_eq!(units.len(), 24);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.index, i);
        }
        // Repetition varies fastest, vantage point slowest.
        assert_eq!((units[0].vp, units[0].transport, units[0].rep), (0, 0, 0));
        assert_eq!((units[1].vp, units[1].transport, units[1].rep), (0, 0, 1));
        assert_eq!((units[2].vp, units[2].transport, units[2].rep), (0, 1, 0));
        assert_eq!(units[23].vp, 1);
        assert_eq!(units[12].vp, 1);
    }

    #[test]
    fn run_units_returns_grid_order_at_any_thread_count() {
        let units: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = units.iter().map(|u| u * u).collect();
        for threads in [1, 2, 4, 8, 16] {
            let results = run_units(
                threads,
                &units,
                || (),
                |(), &u, i| {
                    assert_eq!(u, i);
                    u * u
                },
            );
            assert_eq!(results, expected, "threads = {threads}");
        }
    }

    #[test]
    fn run_units_worker_state_persists_across_units() {
        // Each worker counts the units it ran; the total must cover the
        // grid exactly once even with more threads than units.
        let units: Vec<usize> = (0..10).collect();
        let results = run_units(
            32,
            &units,
            || 0usize,
            |count, &u, _| {
                *count += 1;
                (u, *count)
            },
        );
        assert_eq!(results.iter().map(|(u, _)| *u).collect::<Vec<_>>(), units);
        // Worker-local counters only ever increase along a worker's
        // sequence of units; every unit reports a positive count.
        assert!(results.iter().all(|&(_, c)| c >= 1));
    }
}
