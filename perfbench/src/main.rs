//! Command line of the campaign benchmark.
//!
//! ```text
//! doqlab-perfbench --workload <handshake|pageload|population|lossy>
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! doqlab-perfbench compare <base.json> <new.json>
//! ```
//!
//! A run prints its stamp, its sample digest and every metric by name and
//! unit, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It also writes its result file
//! (and a traced run's spans) under `out/` beside this crate's manifest.

use doqlab_perfbench::report::{self, Stamp};
use doqlab_perfbench::run::{self, Options, Outcome};
use doqlab_perfbench::sys;
use doqlab_perfbench::workload::Workload;
use std::path::Path;

const USAGE: &str = "usage: doqlab-perfbench --workload <handshake|pageload|population|lossy> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     doqlab-perfbench compare <base.json> <new.json>";

/// Variables read in place of arguments — worker and client counts by
/// `engine::env_threads` and `engine::env_clients` inside the library,
/// the seed by the experiment binaries. Set, any of them would silently
/// resize or reseed a workload.
const REFUSED_ENV: [&str; 3] = ["DOQLAB_THREADS", "DOQLAB_CLIENTS", "DOQLAB_SEED"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((command, rest)) if command == "compare" => compare(rest),
        _ => bench(&args),
    };
    std::process::exit(code);
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, not {value}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, not {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Options {
            workload,
            seed,
            seconds,
        },
        trace,
    ))
}

fn bench(args: &[String]) -> i32 {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "doqlab-perfbench: {var} is set and would resize or reseed the workload; \
             unset it (the benchmark fixes workers, clients and seed itself)"
        );
        return 2;
    }
    let (opts, trace) = match parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("doqlab-perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = if trace {
        run::traced(&opts)
    } else {
        run::end_to_end(&opts)
    };
    let stamp = Stamp {
        workload: opts.workload.name(),
        nproc: sys::nproc(),
        workers: opts.workload.workers(),
        seed: opts.seed,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        count_allocs: "separate one-worker passes",
        units_per_pass: outcome.units_per_pass,
        trace,
    };
    println!("stamp {}", stamp.to_json());
    println!(
        "digest {:016x} ({} passes of {} units)",
        outcome.digest, outcome.passes, outcome.units_per_pass
    );
    for m in &outcome.metrics {
        println!("{:<36} {:>22} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    save(&stamp, &outcome);
    println!("{}", report::result_line(&outcome));
    0
}

/// Write the result file, and a traced run's spans, under `out/` beside
/// this crate's manifest.
fn save(stamp: &Stamp, outcome: &Outcome) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut files = vec![(
        format!(
            "{}-seed{}-trace{}.json",
            stamp.workload,
            stamp.seed,
            u8::from(stamp.trace)
        ),
        report::result_file(stamp, outcome),
    )];
    if stamp.trace {
        files.push((
            format!("spans-{}.jsonl", stamp.workload),
            report::spans_jsonl(&outcome.spans),
        ));
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, text)| std::fs::write(dir.join(name), text))
    });
    if let Err(e) = written {
        eprintln!(
            "doqlab-perfbench: cannot write results under {}: {e}",
            dir.display()
        );
    }
}

fn compare(args: &[String]) -> i32 {
    let [base, new] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    match read(base).and_then(|b| read(new).and_then(|n| report::compare(&b, &n))) {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("doqlab-perfbench: {e}");
            2
        }
    }
}
