//! One whole pass over a workload's unit grid on the program's own
//! work-stealing engine, timed from outside the program.
//!
//! Load is a closed loop: each worker pulls the next unit when its last
//! one finishes. The closure the engine calls wraps every unit call in a
//! span on the run's clock and reads the arena's network counters after
//! it; the pass adds wall time, process CPU time and resource counters
//! around the whole grid.

use crate::alloc;
use crate::sys::{self, Usage};
use crate::workload::{Inputs, Sample};
use doqlab_measure::engine::{self, GridUnit};
use doqlab_measure::webperf::WebperfSample;
use doqlab_simnet::sim::NetStats;
use doqlab_simnet::Simulator;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One unit call as the engine closure saw it.
pub struct UnitRecord {
    pub unit: GridUnit,
    pub sample: Sample,
    pub worker: usize,
    /// The unit call's span, ns on the run's clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The arena's network counters right after the unit.
    pub net: NetStats,
    /// Heap allocations inside the unit call; zero unless counting is on.
    pub allocs: u64,
}

/// A whole pass over a workload's unit grid.
pub struct Pass {
    /// Workers the engine started.
    pub workers: usize,
    /// One record per unit, in grid order.
    pub records: Vec<UnitRecord>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU time over the pass, every thread included.
    pub cpu_ns: u64,
    pub usage: Usage,
}

/// Nanoseconds since `epoch`: the run's clock.
pub fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Run every unit of `inputs` once on `workers` engine workers.
/// `busy_ns` of CPU work follows each unit call; only the calibration
/// test sets it.
pub fn run_pass(inputs: &Inputs, workers: usize, epoch: Instant, busy_ns: u64) -> Pass {
    let next_worker = AtomicUsize::new(0);
    let usage = sys::usage();
    let cpu_ns = sys::process_cpu_ns();
    let start_ns = elapsed_ns(epoch);
    let records = engine::run_units(
        workers,
        &inputs.units,
        || {
            (
                Simulator::arena(),
                next_worker.fetch_add(1, Ordering::Relaxed),
            )
        },
        |(sim, worker), unit, _| {
            let allocs = alloc::thread_allocations();
            let start_ns = elapsed_ns(epoch);
            let sample = inputs.run_unit(sim, unit);
            let end_ns = elapsed_ns(epoch);
            let allocs = alloc::thread_allocations() - allocs;
            if busy_ns > 0 {
                sys::spin_cpu(busy_ns);
            }
            UnitRecord {
                unit: *unit,
                sample,
                worker: *worker,
                start_ns,
                end_ns,
                net: sim.stats(),
                allocs,
            }
        },
    );
    let end_ns = elapsed_ns(epoch);
    Pass {
        workers: next_worker.into_inner(),
        records,
        start_ns,
        end_ns,
        cpu_ns: sys::process_cpu_ns() - cpu_ns,
        usage: sys::usage().since(&usage),
    }
}

impl Pass {
    pub fn units(&self) -> usize {
        self.records.len()
    }

    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn units_per_s(&self) -> f64 {
        self.units() as f64 / self.wall_s()
    }

    pub fn cpu_ms_per_unit(&self) -> f64 {
        self.cpu_ns as f64 * 1e-6 / self.units() as f64
    }

    /// Worker time outside unit calls — thread start-up and the wait for
    /// the pass's last unit — as a share of workers × pass wall time.
    pub fn idle_share(&self) -> f64 {
        let busy: u64 = self.records.iter().map(|r| r.end_ns - r.start_ns).sum();
        1.0 - busy as f64 / (self.workers as f64 * (self.end_ns - self.start_ns) as f64)
    }

    pub fn allocs(&self) -> u64 {
        self.records.iter().map(|r| r.allocs).sum()
    }

    pub fn digest(&self) -> u64 {
        digest(self.records.iter().map(|r| &r.sample))
    }

    /// Units whose sample disagrees with its unit.
    pub fn invalid(&self, inputs: &Inputs) -> usize {
        self.records
            .iter()
            .filter(|r| !r.sample.is_valid(inputs, &r.unit))
            .count()
    }

    /// `(successes, attempts)` over the pass (see [`Sample::outcome`]).
    pub fn outcome(&self, inputs: &Inputs) -> (u64, u64) {
        self.records
            .iter()
            .map(|r| r.sample.outcome(inputs))
            .fold((0, 0), |(s, a), (ds, da)| (s + ds, a + da))
    }
}

/// FNV-1a over every sample's `Debug` form, in grid order: equal digests
/// mean identical samples, across passes, worker counts and commits.
///
/// Page-load timings are left out. The webperf hosts iterate `HashMap`s,
/// whose order differs per instance, so packets due at one instant leave
/// in varying order and FCP/PLT move by microseconds between identical
/// runs; the loads' outcomes and every other campaign's samples repeat
/// exactly (README.md, "A program defect the checks found").
pub fn digest<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> u64 {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for sample in samples {
        match sample {
            Sample::Webperf(s) => writeln!(
                hash,
                "{:?}",
                WebperfSample {
                    fcp_ms: 0.0,
                    plt_ms: 0.0,
                    ..s.clone()
                }
            ),
            _ => writeln!(hash, "{sample:?}"),
        }
        .expect("hashing cannot fail");
    }
    hash.0
}

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
