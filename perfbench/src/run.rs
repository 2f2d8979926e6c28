//! A whole run of one workload. An end-to-end run (`--trace 0`) times
//! set-up, runs a warm-up pass, whole timed passes for the run's seconds
//! and two one-worker counting passes. A traced run (`--trace 1`)
//! alternates untraced and traced passes, then replays each layer. Every
//! pass is checked: its sample count against the grid, every sample
//! against its unit, its sample digest against the warm-up pass's.

use crate::layers;
use crate::pass::{elapsed_ns, run_pass, Pass};
use crate::sys::{self, Usage};
use crate::workload::{Campaign, Inputs, Sample, Workload};
use crate::{alloc, median, quantile, ratio};
use doqlab_measure::engine::GridUnit;
use doqlab_telemetry::metrics::{self, Counter, Snapshot};
use std::time::Instant;

/// Set-up is timed in batches of back-to-back set-ups:
/// [`SETUP_BATCHES_FIRST`] before the first pass, and
/// [`SETUP_BATCHES_SPREAD`] spread over the timed passes — after each
/// pass, as many as the share of the run gone by calls for. A batch
/// starts with [`SETUP_WARMUPS`] untimed set-ups, which push the last
/// pass's data out of the caches, then times set-ups for at least
/// [`SETUP_BATCH_S`] and keeps their median. `setup_s` is the fastest
/// batch's median: the shared machine slows set-up by up to 1.8× for
/// seconds at a time, so batch medians fall into a fast and a slow mode,
/// and the share of each changes from run to run, while nearly every run
/// has some fast batches (README.md, "Post-mortem").
const SETUP_BATCHES_FIRST: usize = 8;
const SETUP_BATCHES_SPREAD: usize = 56;
const SETUP_WARMUPS: usize = 5;
const SETUP_BATCH_S: f64 = 0.02;
/// Unit spans a traced run collects at least, so that its p90 has ten
/// units above it.
const MIN_UNIT_SPANS: usize = 100;
/// The root span: the whole workload.
const ROOT: usize = 0;
/// How far two counting passes of pageload may disagree, as a share of
/// the count (measured: 0.04%).
const PAGELOAD_ALLOC_DRIFT: f64 = 0.005;

/// What to run.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long passes run: whole passes only, and at least one.
    pub seconds: f64,
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A span of a traced run: the workload at the root, with set-up, passes,
/// the units of the first traced pass and the replays beneath it. A
/// span's id is its position in [`Outcome::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Worker and grid coordinates of a unit span.
    pub unit: Option<(usize, GridUnit)>,
}

/// What a run measured and checked.
pub struct Outcome {
    pub units_per_pass: usize,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Failed checks; empty when every output was correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

/// The checks every pass of a run goes through.
struct Checks {
    units: usize,
    digest: Option<u64>,
    passes: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn new(inputs: &Inputs) -> Checks {
        Checks {
            units: inputs.units.len(),
            digest: None,
            passes: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn pass(&mut self, inputs: &Inputs, pass: &Pass, what: &str) {
        self.passes += 1;
        self.attempted += pass.units() as u64;
        if pass.units() != self.units {
            self.problems.push(format!(
                "{what}: {} samples for a {}-unit grid",
                pass.units(),
                self.units
            ));
        }
        let invalid = pass.invalid(inputs);
        if invalid > 0 {
            self.failed += invalid as u64;
            self.problems.push(format!(
                "{what}: {invalid} samples disagree with their units"
            ));
        }
        let digest = pass.digest();
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => self.problems.push(format!(
                "{what}: sample digest {digest:016x} differs from the warm-up pass's {first:016x}"
            )),
            Some(_) => {}
        }
    }

    fn finish(mut self, metrics: Vec<Metric>, spans: Vec<Span>) -> Outcome {
        let metrics = metrics
            .into_iter()
            .map(|m| {
                if m.value.is_finite() {
                    m
                } else {
                    self.problems
                        .push(format!("{} measured {}", m.name, m.value));
                    Metric { value: 0.0, ..m }
                }
            })
            .collect();
        Outcome {
            units_per_pass: self.units,
            passes: self.passes,
            attempted: self.attempted,
            failed: self.failed,
            digest: self.digest.unwrap_or(0),
            problems: self.problems,
            metrics,
            spans,
        }
    }
}

/// Timing of one pass, kept once its samples are dropped.
struct Timing {
    units: usize,
    wall_s: f64,
    /// Process CPU time over the pass.
    cpu_ms: f64,
    idle_share: f64,
    usage: Usage,
}

impl Timing {
    fn of(pass: &Pass) -> Timing {
        Timing {
            units: pass.units(),
            wall_s: pass.wall_s(),
            cpu_ms: pass.cpu_ns as f64 * 1e-6,
            idle_share: pass.idle_share(),
            usage: pass.usage,
        }
    }
}

/// Units per wall second over whole passes: all the units they ran over
/// all the time they took. The machine runs in fast and slow spells of a
/// few seconds; this moves in proportion to the share of the run spent
/// slow, where a median of per-pass rates jumps between the two rates
/// (README.md, "Post-mortem").
fn units_per_s(timings: &[Timing]) -> f64 {
    sum_of(timings, |t| t.units as f64) / sum_of(timings, |t| t.wall_s)
}

/// Process CPU time per unit over whole passes, ms.
fn cpu_ms_per_unit(timings: &[Timing]) -> f64 {
    sum_of(timings, |t| t.cpu_ms) / sum_of(timings, |t| t.units as f64)
}

fn median_of(timings: &[Timing], field: fn(&Timing) -> f64) -> f64 {
    median(&timings.iter().map(field).collect::<Vec<_>>())
}

fn sum_of(timings: &[Timing], field: fn(&Timing) -> f64) -> f64 {
    timings.iter().map(field).sum()
}

/// Pass timings on standard error, for diagnosis: spread, idle workers,
/// system time and page faults.
fn describe(what: &str, timings: &[Timing]) {
    let ups: Vec<f64> = timings.iter().map(|t| t.units as f64 / t.wall_s).collect();
    eprintln!(
        "{what}: {} passes; units/s {:.3}..{:.3}, median {:.3}, overall {:.3}; \
         cpu ms/unit {:.5}; idle share median {:.4}; sys cpu share {:.4}; \
         minor faults/unit {:.2}",
        timings.len(),
        quantile(&ups, 0.0),
        quantile(&ups, 1.0),
        median(&ups),
        units_per_s(timings),
        cpu_ms_per_unit(timings),
        median_of(timings, |t| t.idle_share),
        ratio(
            sum_of(timings, |t| t.usage.sys_s),
            sum_of(timings, |t| t.usage.user_s + t.usage.sys_s)
        ),
        sum_of(timings, |t| t.usage.minor_faults as f64) / sum_of(timings, |t| t.units as f64),
    );
}

/// One batch of set-ups: the median wall seconds of the timed ones.
fn setup_batch(workload: Workload, seed: u64) -> f64 {
    for _ in 0..SETUP_WARMUPS {
        drop(Inputs::build(workload, seed));
    }
    let batch = Instant::now();
    let mut seconds = Vec::new();
    while batch.elapsed().as_secs_f64() < SETUP_BATCH_S {
        let start = Instant::now();
        let inputs = Inputs::build(workload, seed);
        seconds.push(start.elapsed().as_secs_f64());
        drop(inputs);
    }
    median(&seconds)
}

fn deadline(epoch: Instant, seconds: f64) -> u64 {
    elapsed_ns(epoch) + (seconds * 1e9) as u64
}

/// An end-to-end run: `units_per_s`, `cpu_ms_per_unit`, `setup_s`,
/// `peak_rss_mb`, `allocs_per_unit` and `success_share`.
pub fn end_to_end(opts: &Options) -> Outcome {
    let inputs = Inputs::build(opts.workload, opts.seed);
    let mut setups: Vec<f64> = (0..SETUP_BATCHES_FIRST)
        .map(|_| setup_batch(opts.workload, opts.seed))
        .collect();
    let workers = opts.workload.workers();
    let epoch = Instant::now();
    let mut checks = Checks::new(&inputs);
    let warm = run_pass(&inputs, workers, epoch, 0);
    checks.pass(&inputs, &warm, "warm-up pass");
    let (successes, attempts) = warm.outcome(&inputs);
    drop(warm);

    // Set-up is also timed between timed passes, so that `setup_s`, like
    // the pass totals, samples the machine over the whole run rather
    // than in one instant. The last pass ends past `until`, by which
    // time every batch is due.
    let (first_ns, until) = (elapsed_ns(epoch), deadline(epoch, opts.seconds));
    let mut timed = Vec::new();
    while timed.is_empty() || elapsed_ns(epoch) < until {
        let pass = run_pass(&inputs, workers, epoch, 0);
        checks.pass(&inputs, &pass, "timed pass");
        timed.push(Timing::of(&pass));
        drop(pass);
        let gone = ratio(
            (elapsed_ns(epoch) - first_ns) as f64,
            (until - first_ns) as f64,
        );
        let due =
            SETUP_BATCHES_FIRST + (SETUP_BATCHES_SPREAD as f64 * gone.min(1.0)).ceil() as usize;
        while setups.len() < due {
            setups.push(setup_batch(opts.workload, opts.seed));
        }
    }
    describe("timed passes", &timed);
    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "set-up: {} batches; batch medians: fastest {:.2} us, 0.1 quantile {:.2} us, \
         median {:.2} us, slowest {:.2} us",
        setups.len(),
        fastest_setup * 1e6,
        quantile(&setups, 0.1) * 1e6,
        median(&setups) * 1e6,
        quantile(&setups, 1.0) * 1e6,
    );

    // Allocations are counted in separate one-worker passes: a fixed unit
    // order fixes every arena's growth history, so the count repeats
    // exactly, and the timed passes carry no counting cost. Page loads
    // repeat only to within PAGELOAD_ALLOC_DRIFT (see `pass::digest`).
    alloc::set_counting(true);
    let counted: Vec<u64> = (0..2)
        .map(|_| {
            let pass = run_pass(&inputs, 1, epoch, 0);
            checks.pass(&inputs, &pass, "counting pass");
            pass.allocs()
        })
        .collect();
    alloc::set_counting(false);
    let allowed = match opts.workload {
        Workload::Pageload => PAGELOAD_ALLOC_DRIFT * counted[0] as f64,
        _ => 0.0,
    };
    if counted[0].abs_diff(counted[1]) as f64 > allowed {
        checks.problems.push(format!(
            "two counting passes counted {} and {} allocations",
            counted[0], counted[1]
        ));
    }

    let metrics = vec![
        metric("units_per_s", units_per_s(&timed), "1/s"),
        metric("cpu_ms_per_unit", cpu_ms_per_unit(&timed), "ms"),
        metric("setup_s", fastest_setup, "s"),
        metric("peak_rss_mb", sys::peak_rss_kib() as f64 / 1024.0, "MiB"),
        metric(
            "allocs_per_unit",
            counted[0] as f64 / inputs.units.len() as f64,
            "count",
        ),
        metric(
            "success_share",
            ratio(successes as f64, attempts as f64),
            "share",
        ),
    ];
    checks.finish(metrics, Vec::new())
}

/// Counts of the first traced pass: telemetry counters, the arenas'
/// network counters, and what the samples report.
struct Counts {
    units: f64,
    snapshot: Snapshot,
    delivered: f64,
    lost: f64,
    impaired: f64,
    queries: f64,
    hits: f64,
    coalesced: f64,
    upstream: f64,
    proxy_connections: f64,
}

impl Counts {
    fn of(pass: &Pass, snapshot: Snapshot) -> Counts {
        let mut c = Counts {
            units: pass.units() as f64,
            snapshot,
            delivered: 0.0,
            lost: 0.0,
            impaired: 0.0,
            queries: 0.0,
            hits: 0.0,
            coalesced: 0.0,
            upstream: 0.0,
            proxy_connections: 0.0,
        };
        for r in &pass.records {
            c.delivered += r.net.packets_delivered as f64;
            c.lost += r.net.packets_lost as f64;
            c.impaired += r.net.packets_impaired as f64;
            match &r.sample {
                Sample::Population(s) => {
                    c.queries += s.stats.queries as f64;
                    c.hits += s.stats.cache_hits as f64;
                    c.coalesced += s.stats.coalesced as f64;
                    c.upstream += s.stats.upstream_queries as f64;
                }
                Sample::Webperf(s) => c.proxy_connections += f64::from(s.proxy_connections),
                Sample::SingleQuery(_) | Sample::Impairment(_) => {}
            }
        }
        c
    }

    fn counter(&self, counter: Counter) -> f64 {
        self.snapshot.counter(counter) as f64
    }
}

fn add(
    spans: &mut Vec<Span>,
    parent: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    unit: Option<(usize, GridUnit)>,
) -> usize {
    spans.push(Span {
        parent: Some(parent),
        name,
        start_ns,
        end_ns,
        unit,
    });
    spans.len() - 1
}

/// Run `f` in a span beneath the root.
fn spanned<T>(
    spans: &mut Vec<Span>,
    epoch: Instant,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start_ns = elapsed_ns(epoch);
    let out = f();
    add(spans, ROOT, name, start_ns, elapsed_ns(epoch), None);
    out
}

/// A traced run: the per-layer metrics of the workload at the same seed.
/// Its end-to-end numbers are never reported.
pub fn traced(opts: &Options) -> Outcome {
    let epoch = Instant::now();
    let mut spans = vec![Span {
        parent: None,
        name: "workload",
        start_ns: 0,
        end_ns: 0,
        unit: None,
    }];
    let inputs = spanned(&mut spans, epoch, "setup", || {
        Inputs::build(opts.workload, opts.seed)
    });
    let workers = opts.workload.workers();
    let mut checks = Checks::new(&inputs);
    let warm = run_pass(&inputs, workers, epoch, 0);
    checks.pass(&inputs, &warm, "warm-up pass");
    add(
        &mut spans,
        ROOT,
        "warm-up pass",
        warm.start_ns,
        warm.end_ns,
        None,
    );
    drop(warm);

    // Untraced and traced passes alternate, so drift on the machine falls
    // on both sides of `telemetry.trace_overhead_share` alike.
    let until = deadline(epoch, opts.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut unit_ms = Vec::new();
    let mut counts = None;
    while elapsed_ns(epoch) < until || traced.len() < 2 || unit_ms.len() < MIN_UNIT_SPANS {
        let tracing = untraced.len() > traced.len();
        if tracing && counts.is_none() {
            metrics::reset();
        }
        metrics::set_enabled(tracing);
        let pass = run_pass(&inputs, workers, epoch, 0);
        metrics::set_enabled(false);
        let name = if tracing {
            "traced pass"
        } else {
            "untraced pass"
        };
        checks.pass(&inputs, &pass, name);
        let id = add(&mut spans, ROOT, name, pass.start_ns, pass.end_ns, None);
        if !tracing {
            untraced.push(Timing::of(&pass));
            continue;
        }
        unit_ms.extend(
            pass.records
                .iter()
                .map(|r| (r.end_ns - r.start_ns) as f64 * 1e-6),
        );
        if counts.is_none() {
            for r in &pass.records {
                add(
                    &mut spans,
                    id,
                    "unit",
                    r.start_ns,
                    r.end_ns,
                    Some((r.worker, r.unit)),
                );
            }
            counts = Some(Counts::of(&pass, metrics::snapshot()));
        }
        traced.push(Timing::of(&pass));
    }
    let counts = counts.expect("the loop runs traced passes");
    describe("untraced passes", &untraced);
    describe("traced passes", &traced);

    let wire = spanned(&mut spans, epoch, "replay dnswire", || {
        layers::dnswire(&inputs)
    });
    let queue_ns = spanned(&mut spans, epoch, "replay simnet event queue", || {
        layers::event_queue_ns(&inputs)
    });
    let reset_us = spanned(&mut spans, epoch, "replay simnet reset", || {
        layers::reset_us(&inputs)
    });
    let stacks = spanned(&mut spans, epoch, "replay netstack", || {
        layers::netstack(&inputs)
    });
    // Only population uses the stub cache and `WorkloadGen`; elsewhere the
    // resolver replays read 0, like any layer a workload does not use.
    let cache = match &inputs.campaign {
        Campaign::Populations(c) => spanned(&mut spans, epoch, "replay resolver", || {
            layers::resolver(c, opts.seed)
        }),
        _ => layers::Resolver::default(),
    };
    spans[ROOT].end_ns = elapsed_ns(epoch);

    let n = counts.units;
    let per_unit = |c: Counter| counts.counter(c) / n;
    let share = |part: Counter, whole: Counter| ratio(counts.counter(part), counts.counter(whole));
    let failures: f64 = [
        Counter::FailTimeout,
        Counter::FailReset,
        Counter::FailHandshake,
        Counter::FailDeadline,
    ]
    .into_iter()
    .map(|c| counts.counter(c))
    .sum();
    let cpu_s = sum_of(&untraced, |t| t.usage.user_s + t.usage.sys_s);
    let metrics = vec![
        metric("measure.unit_ms_p50", quantile(&unit_ms, 0.5), "ms"),
        metric("measure.unit_ms_p90", quantile(&unit_ms, 0.9), "ms"),
        metric(
            "measure.engine_idle_share",
            median_of(&untraced, |t| t.idle_share),
            "share",
        ),
        metric(
            "simnet.events_per_unit",
            per_unit(Counter::SimEvents),
            "count",
        ),
        metric("simnet.packets_per_unit", counts.delivered / n, "count"),
        metric("simnet.event_queue_ns", queue_ns, "ns"),
        metric("simnet.reset_us", reset_us, "us"),
        metric(
            "simnet.impaired_share",
            ratio(counts.impaired, counts.delivered + counts.lost),
            "share",
        ),
        metric("dnswire.encode_ns", wire.encode_ns, "ns"),
        metric("dnswire.decode_ns", wire.decode_ns, "ns"),
        metric("dnswire.allocs_per_msg", wire.allocs_per_msg, "count"),
        metric("netstack.tls.full_handshake_us", stacks.tls_full_us, "us"),
        metric(
            "netstack.tls.resumed_handshake_us",
            stacks.tls_resumed_us,
            "us",
        ),
        metric("netstack.quic.handshake_us", stacks.quic_us, "us"),
        metric("netstack.tcp.handshake_us", stacks.tcp_us, "us"),
        metric("netstack.http2.hpack_ns", stacks.hpack_ns, "ns"),
        metric(
            "netstack.tls.resumed_share",
            share(
                Counter::TlsResumedHandshakes,
                Counter::TlsHandshakesCompleted,
            ),
            "share",
        ),
        metric(
            "netstack.quic.packets_per_unit",
            per_unit(Counter::QuicPacketsSent),
            "count",
        ),
        metric(
            "netstack.quic.loss_share",
            share(Counter::QuicPacketsLost, Counter::QuicPacketsSent),
            "share",
        ),
        metric(
            "netstack.quic.pto_per_unit",
            per_unit(Counter::QuicPtoFired),
            "count",
        ),
        metric(
            "netstack.tcp.rto_per_unit",
            per_unit(Counter::TcpRtoRetransmits),
            "count",
        ),
        metric(
            "netstack.http.requests_per_unit",
            per_unit(Counter::HttpRequestsSent),
            "count",
        ),
        metric(
            "dox.reconnects_per_unit",
            per_unit(Counter::Reconnects),
            "count",
        ),
        metric("dox.failures_per_unit", failures / n, "count"),
        metric(
            "dox.pool_reuse_ratio",
            ratio(counts.counter(Counter::PoolReuse), counts.upstream),
            "share",
        ),
        metric(
            "resolver.cache_hit_ratio",
            ratio(counts.hits, counts.queries),
            "share",
        ),
        metric(
            "resolver.coalesced_share",
            ratio(counts.coalesced, counts.queries),
            "share",
        ),
        metric("resolver.cache_get_ns", cache.cache_get_ns, "ns"),
        metric("resolver.cache_put_ns", cache.cache_put_ns, "ns"),
        metric(
            "resolver.workload_sample_ns",
            cache.workload_sample_ns,
            "ns",
        ),
        metric(
            "webperf.proxy_connections_per_unit",
            counts.proxy_connections / n,
            "count",
        ),
        metric(
            "telemetry.trace_overhead_share",
            1.0 - units_per_s(&traced) / units_per_s(&untraced),
            "share",
        ),
        metric(
            "process.sys_cpu_share",
            ratio(sum_of(&untraced, |t| t.usage.sys_s), cpu_s),
            "share",
        ),
        metric(
            "process.minor_faults_per_unit",
            sum_of(&untraced, |t| t.usage.minor_faults as f64)
                / sum_of(&untraced, |t| t.units as f64),
            "count",
        ),
        metric(
            "process.involuntary_switches_per_s",
            sum_of(&untraced, |t| t.usage.involuntary_switches as f64)
                / sum_of(&untraced, |t| t.wall_s),
            "1/s",
        ),
    ];
    checks.finish(metrics, spans)
}
