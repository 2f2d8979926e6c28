//! The benchmark's own tests: its passes do exactly the work of the
//! campaign functions, and its timing resolves a known change on every
//! workload.

use doqlab_perfbench::median;
use doqlab_perfbench::pass::{digest, run_pass};
use doqlab_perfbench::workload::{Inputs, Workload};
use doqlab_telemetry::qlog::{self, Json};
use std::sync::Mutex;
use std::time::Instant;

/// Both tests keep every CPU busy; side by side they would disturb the
/// resolution test's timing.
static SERIAL: Mutex<()> = Mutex::new(());

/// Calibrated passes per workload in the resolution test, each between
/// two plain ones.
const CALIBRATED_PASSES: usize = 9;

#[test]
fn passes_reproduce_the_campaign_functions() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let inputs = Inputs::build(workload, 7);
        let pass = run_pass(&inputs, workload.workers(), Instant::now(), 0);
        assert_eq!(pass.units(), inputs.units.len(), "{}", workload.name());
        assert_eq!(pass.invalid(&inputs), 0, "{}", workload.name());
        assert_eq!(
            pass.digest(),
            digest(&inputs.run_campaign()),
            "{}: the benchmark's grid diverged from its campaign function's",
            workload.name()
        );
    }
}

/// The smaller bound of the two metrics calibration work moves, as
/// BENCHMARK.json fixes it.
fn smallest_time_bound() -> f64 {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = qlog::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        panic!("BENCHMARK.json lists no end_to_end metrics");
    };
    metrics
        .iter()
        .filter(|m| {
            matches!(
                m.get("name").and_then(Json::as_str),
                Some("units_per_s" | "cpu_ms_per_unit")
            )
        })
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(f64::INFINITY, f64::min)
}

/// The resolution self-test: calibration work of half the smallest bound
/// of CPU time per unit must move `cpu_ms_per_unit` and `units_per_s` by
/// that share on every workload; otherwise the benchmark could not see a
/// regression of the size its bounds reject.
#[test]
fn calibration_work_moves_throughput_and_cpu_by_its_share() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let share = smallest_time_bound() / 2.0;
    for workload in Workload::ALL {
        let inputs = Inputs::build(workload, 11);
        let workers = workload.workers();
        let epoch = Instant::now();
        let warm = run_pass(&inputs, workers, epoch, 0);
        let busy_ns = (share * warm.cpu_ns as f64 / warm.units() as f64) as u64;
        // Each calibrated pass against the mean of the plain passes just
        // before and after it, so drift on the machine that is linear
        // over the three passes cancels; the median over the triples
        // rides out the machine's abrupt changes of speed.
        let (mut expected, mut cpu_shifts, mut ups_shifts) = (Vec::new(), Vec::new(), Vec::new());
        let mut before = run_pass(&inputs, workers, epoch, 0);
        for _ in 0..CALIBRATED_PASSES {
            let busy = run_pass(&inputs, workers, epoch, busy_ns);
            let after = run_pass(&inputs, workers, epoch, 0);
            let plain_cpu = (before.cpu_ms_per_unit() + after.cpu_ms_per_unit()) / 2.0;
            let plain_ups = (before.units_per_s() + after.units_per_s()) / 2.0;
            expected.push(busy_ns as f64 * 1e-6 / plain_cpu);
            cpu_shifts.push(busy.cpu_ms_per_unit() / plain_cpu - 1.0);
            ups_shifts.push(plain_ups / busy.units_per_s() - 1.0);
            before = after;
        }
        let expected = median(&expected);
        let shifts = [
            ("cpu_ms_per_unit", median(&cpu_shifts)),
            ("units_per_s", median(&ups_shifts)),
        ];
        for (metric, shift) in shifts {
            eprintln!(
                "{}: calibration work of {expected:.4} moved {metric} by {shift:.4}",
                workload.name()
            );
            assert!(
                (shift - expected).abs() < expected / 2.0,
                "{}: calibration work of {expected:.4} moved {metric} by {shift:.4}",
                workload.name()
            );
        }
    }
}
