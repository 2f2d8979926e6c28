//! # doqlab-perfbench — the campaign benchmark
//!
//! One command runs one of four named workloads through the program's
//! public per-unit campaign functions, on the program's own
//! [`run_units`](doqlab_measure::engine::run_units) workers, checks every
//! sample, and prints the workload's end-to-end metrics (`--trace 0`) or,
//! from a separate traced run, its per-layer metrics (`--trace 1`).
//! `README.md` beside this crate holds the metric, layer and workload
//! tables, why each workload exists, and how the numbers were made steady.
//!
//! * [`workload`] — set-up from a seed, and each workload's unit call;
//! * [`pass`] — one whole pass over a unit grid, timed from outside the
//!   program, with a span around every unit call;
//! * [`run`] — a whole run: set-up, checked passes, counting passes, the
//!   traced run;
//! * [`layers`] — replays of each layer's public functions on a
//!   workload's inputs;
//! * [`alloc`], [`sys`] — allocation counting and process resource use;
//! * [`report`] — stamps, the result line, result files and comparison.

pub mod alloc;
pub mod layers;
pub mod pass;
pub mod report;
pub mod run;
pub mod sys;
pub mod workload;

/// Median of `values`: the middle one, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of `values` (`q` in 0..=1), by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "a statistic of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `part / whole`, or 0 when there was nothing to divide.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
