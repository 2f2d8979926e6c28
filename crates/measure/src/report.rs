//! Experiment reducers and renderers: turn campaign samples into the
//! paper's tables and figures (structured values plus plain-text
//! rendering; the bench binaries also dump them as JSON).

use crate::populations::PopulationSample;
use crate::single_query::SingleQuerySample;
use crate::stats::{cdf_points, median, percentile, relative_difference_pct, Cdf};
use crate::sweep::SweepSample;
use crate::webperf::WebperfSample;
use doqlab_dox::DnsTransport;
use doqlab_simnet::geo::Continent;
use doqlab_telemetry::metrics::{self, Counter, Series};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Summary of one latency histogram in the telemetry section.
#[derive(Debug, Clone, Serialize, Default)]
pub struct SeriesSummary {
    pub count: u64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
}

/// The "telemetry" report section: the merged per-worker counters and
/// latency histograms of a campaign run. Empty when telemetry was
/// disabled — campaign outputs themselves never depend on it.
#[derive(Debug, Clone, Serialize, Default)]
pub struct TelemetrySection {
    /// Dotted counter name -> value (zero counters elided).
    pub counters: BTreeMap<String, u64>,
    /// Histogram series name -> summary (quantiles are log-linear
    /// bucket floors, <=12.5% relative error).
    pub series: BTreeMap<String, SeriesSummary>,
}

impl TelemetrySection {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.series.is_empty()
    }
}

/// Snapshot the metrics registry into a report section.
pub fn telemetry_section() -> TelemetrySection {
    let snap = metrics::snapshot();
    let mut counters = BTreeMap::new();
    for c in Counter::ALL {
        let v = snap.counter(c);
        if v != 0 {
            counters.insert(c.name().to_string(), v);
        }
    }
    let mut series = BTreeMap::new();
    for s in Series::ALL {
        let h = snap.hist(s);
        if h.count() == 0 {
            continue;
        }
        let ms = |v: Option<u64>| v.map_or(f64::NAN, |n| n as f64 / 1e6);
        series.insert(
            s.name().to_string(),
            SeriesSummary {
                count: h.count(),
                mean_ms: h.mean().map_or(f64::NAN, |n| n / 1e6),
                p50_ms: ms(h.quantile(0.5)),
                p90_ms: ms(h.quantile(0.9)),
                p99_ms: ms(h.quantile(0.99)),
            },
        );
    }
    TelemetrySection { counters, series }
}

pub fn render_telemetry(t: &TelemetrySection) -> String {
    if t.is_empty() {
        return String::new();
    }
    let mut out = String::from("\nTelemetry\n");
    for (name, value) in &t.counters {
        out.push_str(&format!("{name:<28}{value:>12}\n"));
    }
    if !t.series.is_empty() {
        out.push_str(&format!(
            "{:<28}{:>8}{:>10}{:>10}{:>10}{:>10}\n",
            "series (ms)", "count", "mean", "p50", "p90", "p99"
        ));
        for (name, s) in &t.series {
            out.push_str(&format!(
                "{:<28}{:>8}{:>10.2}{:>10.2}{:>10.2}{:>10.2}\n",
                name, s.count, s.mean_ms, s.p50_ms, s.p90_ms, s.p99_ms
            ));
        }
    }
    out
}

/// Table-1 equivalent: median per-phase sizes and sample counts.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// protocol name -> (total, hs c->r, hs r->c, query, response).
    pub sizes: BTreeMap<String, [f64; 5]>,
    pub sample_counts: BTreeMap<String, usize>,
}

pub fn table1(samples: &[SingleQuerySample]) -> Table1 {
    let mut sizes = BTreeMap::new();
    let mut counts = BTreeMap::new();
    for t in DnsTransport::ALL {
        let of_t: Vec<&SingleQuerySample> = samples
            .iter()
            .filter(|s| s.transport == t && !s.failed)
            .collect();
        let col = |f: fn(&SingleQuerySample) -> f64| {
            median(&of_t.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        sizes.insert(
            t.name().to_string(),
            [
                col(|s| s.bytes.total() as f64),
                col(|s| s.bytes.handshake_c2r as f64),
                col(|s| s.bytes.handshake_r2c as f64),
                col(|s| s.bytes.query_c2r as f64),
                col(|s| s.bytes.response_r2c as f64),
            ],
        );
        counts.insert(t.name().to_string(), of_t.len());
    }
    Table1 {
        sizes,
        sample_counts: counts,
    }
}

pub fn render_table1(t: &Table1) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28}{:>8}{:>8}{:>8}{:>8}{:>8}\n",
        "Median single-query sizes", "DoUDP", "DoTCP", "DoQ", "DoH", "DoT"
    ));
    let rows = [
        ("Total", 0usize),
        ("Handshake C->R", 1),
        ("Handshake R->C", 2),
        ("DNS Query", 3),
        ("DNS Response", 4),
    ];
    let order = ["DoUDP", "DoTCP", "DoQ", "DoH", "DoT"];
    for (label, idx) in rows {
        out.push_str(&format!("{label:<28}"));
        for name in order {
            let v = t.sizes[name][idx];
            if v.is_nan() || v == 0.0 {
                out.push_str(&format!("{:>8}", "-"));
            } else {
                out.push_str(&format!("{v:>8.0}"));
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<28}", "Samples"));
    for name in order {
        out.push_str(&format!("{:>8}", t.sample_counts[name]));
    }
    out.push('\n');
    out
}

/// Fig. 2 equivalent: median handshake / resolve time per protocol,
/// total and per vantage-point continent.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2 {
    /// row label ("Total" or continent code) -> protocol -> median ms.
    pub handshake_ms: BTreeMap<String, BTreeMap<String, f64>>,
    pub resolve_ms: BTreeMap<String, BTreeMap<String, f64>>,
}

pub fn fig2(samples: &[SingleQuerySample]) -> Fig2 {
    let mut handshake = BTreeMap::new();
    let mut resolve = BTreeMap::new();
    type SampleFilter = Box<dyn Fn(&SingleQuerySample) -> bool>;
    let mut rows: Vec<(String, SampleFilter)> = vec![("Total".to_string(), Box::new(|_| true))];
    for c in Continent::ALL {
        rows.push((c.code().to_string(), Box::new(move |s| s.vp_continent == c)));
    }
    for (label, filt) in rows {
        let mut hs_row = BTreeMap::new();
        let mut rs_row = BTreeMap::new();
        for t in DnsTransport::ALL {
            let hs: Vec<f64> = samples
                .iter()
                .filter(|s| s.transport == t && filt(s))
                .filter_map(|s| s.handshake_ms)
                .collect();
            let rs: Vec<f64> = samples
                .iter()
                .filter(|s| s.transport == t && filt(s))
                .filter_map(|s| s.resolve_ms)
                .collect();
            if let Some(m) = median(&hs) {
                hs_row.insert(t.name().to_string(), m);
            }
            if let Some(m) = median(&rs) {
                rs_row.insert(t.name().to_string(), m);
            }
        }
        handshake.insert(label.clone(), hs_row);
        resolve.insert(label, rs_row);
    }
    Fig2 {
        handshake_ms: handshake,
        resolve_ms: resolve,
    }
}

pub fn render_fig2(f: &Fig2) -> String {
    let mut out = String::new();
    let order = ["Total", "EU", "AS", "NA", "AF", "OC", "SA"];
    for (title, table) in [
        ("Handshake time (ms, median)", &f.handshake_ms),
        ("Resolve time (ms, median)", &f.resolve_ms),
    ] {
        out.push_str(&format!("\n{title}\n"));
        out.push_str(&format!("{:<8}", "VP"));
        for t in DnsTransport::ALL {
            out.push_str(&format!("{:>9}", t.name()));
        }
        out.push('\n');
        for row in order {
            let Some(cols) = table.get(row) else { continue };
            out.push_str(&format!("{row:<8}"));
            for t in DnsTransport::ALL {
                match cols.get(t.name()) {
                    Some(v) => out.push_str(&format!("{v:>9.1}")),
                    None => out.push_str(&format!("{:>9}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// §3 overview: protocol version shares and feature observations.
#[derive(Debug, Clone, Serialize, Default)]
pub struct Overview {
    /// QUIC version -> share of DoQ measurements.
    pub quic_version_shares: BTreeMap<String, f64>,
    /// DoQ ALPN -> share.
    pub doq_alpn_shares: BTreeMap<String, f64>,
    /// Fraction of encrypted-transport measurements on TLS 1.3.
    pub tls13_share: f64,
    /// Fraction of measured (second) connections that resumed.
    pub resumption_share: f64,
    /// Fraction where 0-RTT was accepted.
    pub zero_rtt_share: f64,
}

pub fn overview(samples: &[SingleQuerySample]) -> Overview {
    let doq: Vec<&SingleQuerySample> = samples
        .iter()
        .filter(|s| s.transport == DnsTransport::DoQ && !s.failed)
        .collect();
    let mut quic_version_shares = BTreeMap::new();
    let mut doq_alpn_shares = BTreeMap::new();
    if !doq.is_empty() {
        let mut vcount: HashMap<String, usize> = HashMap::new();
        let mut acount: HashMap<String, usize> = HashMap::new();
        for s in &doq {
            if let Some(v) = s.metadata.quic_version {
                let name = match v {
                    1 => "v1".to_string(),
                    v if v & 0xFF00_0000 == 0xFF00_0000 => {
                        format!("draft-{}", v & 0xFF)
                    }
                    v => format!("{v:#x}"),
                };
                *vcount.entry(name).or_default() += 1;
            }
            if let Some(a) = &s.metadata.doq_alpn {
                *acount.entry(a.clone()).or_default() += 1;
            }
        }
        for (k, v) in vcount {
            quic_version_shares.insert(k, v as f64 / doq.len() as f64);
        }
        for (k, v) in acount {
            doq_alpn_shares.insert(k, v as f64 / doq.len() as f64);
        }
    }
    let encrypted: Vec<&SingleQuerySample> = samples
        .iter()
        .filter(|s| s.transport.is_encrypted() && !s.failed)
        .collect();
    let frac = |pred: &dyn Fn(&&&SingleQuerySample) -> bool| {
        if encrypted.is_empty() {
            0.0
        } else {
            encrypted.iter().filter(|s| pred(s)).count() as f64 / encrypted.len() as f64
        }
    };
    Overview {
        quic_version_shares,
        doq_alpn_shares,
        tls13_share: frac(&|s| s.metadata.tls13 == Some(true)),
        resumption_share: if doq.is_empty() {
            0.0
        } else {
            doq.iter().filter(|s| s.metadata.resumed).count() as f64 / doq.len() as f64
        },
        zero_rtt_share: frac(&|s| s.metadata.zero_rtt),
    }
}

/// Relative PLT/FCP differences vs. a baseline protocol, per
/// [vantage point : resolver : page] group (Fig. 3 pairs protocol
/// medians within a group).
#[derive(Debug, Clone, Serialize)]
pub struct RelativeDiffs {
    /// protocol -> relative differences in percent.
    pub fcp: BTreeMap<String, Vec<f64>>,
    pub plt: BTreeMap<String, Vec<f64>>,
}

pub fn relative_to_baseline(samples: &[WebperfSample], baseline: DnsTransport) -> RelativeDiffs {
    // Group by (vp, resolver, page, round).
    let mut groups: HashMap<(usize, usize, usize, usize), Vec<&WebperfSample>> = HashMap::new();
    for s in samples.iter().filter(|s| !s.failed) {
        groups
            .entry((s.vp, s.resolver, s.page, s.round))
            .or_default()
            .push(s);
    }
    let mut fcp: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut plt: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (_, group) in groups {
        let Some(base) = group.iter().find(|s| s.transport == baseline) else {
            continue;
        };
        for s in &group {
            if s.transport == baseline {
                continue;
            }
            fcp.entry(s.transport.name().to_string())
                .or_default()
                .push(relative_difference_pct(s.fcp_ms, base.fcp_ms));
            plt.entry(s.transport.name().to_string())
                .or_default()
                .push(relative_difference_pct(s.plt_ms, base.plt_ms));
        }
    }
    RelativeDiffs { fcp, plt }
}

/// Fig. 3 rendering: CDF series of relative differences vs. DoUDP.
pub fn render_fig3(diffs: &RelativeDiffs, metric: &str) -> String {
    let table = if metric == "FCP" {
        &diffs.fcp
    } else {
        &diffs.plt
    };
    let mut out = format!("\nCDF of relative {metric} difference vs DoUDP (%)\n");
    out.push_str(&format!("{:<10}", "quantile"));
    let protos: Vec<&String> = table.keys().collect();
    for p in &protos {
        out.push_str(&format!("{p:>9}"));
    }
    out.push('\n');
    for q in [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.8, 0.9] {
        out.push_str(&format!("p{:<9.0}", q * 100.0));
        for p in &protos {
            let cdf = Cdf::new(&table[*p]);
            match cdf.quantile(q) {
                Some(v) => out.push_str(&format!("{v:>8.1}%")),
                None => out.push_str(&format!("{:>9}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Fig. 4 cell: one [vantage point x page] comparison against DoQ.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Cell {
    pub vp: String,
    pub page: String,
    pub avg_dns_queries: usize,
    /// Median relative PLT of DoUDP vs DoQ (negative = DoUDP faster).
    pub doudp_rel_median_pct: f64,
    /// Median relative PLT of DoH vs DoQ (positive = DoQ faster).
    pub doh_rel_median_pct: f64,
    /// Fraction of pairs where the DoQ load was faster than DoH.
    pub doq_faster_than_doh: f64,
    pub pairs: usize,
}

/// Fig. 4: per [vp x page] relative PLT CDFs with DoQ as baseline.
pub fn fig4(samples: &[WebperfSample]) -> Vec<Fig4Cell> {
    let mut cells = Vec::new();
    let mut keys: Vec<(usize, Continent, usize, String, usize)> = Vec::new();
    for s in samples {
        let key = (
            s.vp,
            s.vp_continent,
            s.page,
            s.page_name.clone(),
            s.page_dns_queries,
        );
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys.sort_by_key(|k| (k.0, k.2));
    for (vp, continent, page, page_name, queries) in keys {
        let subset: Vec<&WebperfSample> = samples
            .iter()
            .filter(|s| s.vp == vp && s.page == page && !s.failed)
            .collect();
        let mut groups: HashMap<(usize, usize), Vec<&WebperfSample>> = HashMap::new();
        for s in &subset {
            groups.entry((s.resolver, s.round)).or_default().push(s);
        }
        let mut udp_rel = Vec::new();
        let mut doh_rel = Vec::new();
        let mut doq_faster = 0usize;
        let mut pairs = 0usize;
        for (_, group) in groups {
            let doq = group.iter().find(|s| s.transport == DnsTransport::DoQ);
            let udp = group.iter().find(|s| s.transport == DnsTransport::DoUdp);
            let doh = group.iter().find(|s| s.transport == DnsTransport::DoH);
            if let (Some(doq), Some(udp)) = (doq, udp) {
                udp_rel.push(relative_difference_pct(udp.plt_ms, doq.plt_ms));
            }
            if let (Some(doq), Some(doh)) = (doq, doh) {
                doh_rel.push(relative_difference_pct(doh.plt_ms, doq.plt_ms));
                pairs += 1;
                if doq.plt_ms < doh.plt_ms {
                    doq_faster += 1;
                }
            }
        }
        cells.push(Fig4Cell {
            vp: continent.code().to_string(),
            page: page_name,
            avg_dns_queries: queries,
            doudp_rel_median_pct: median(&udp_rel).unwrap_or(f64::NAN),
            doh_rel_median_pct: median(&doh_rel).unwrap_or(f64::NAN),
            doq_faster_than_doh: if pairs == 0 {
                f64::NAN
            } else {
                doq_faster as f64 / pairs as f64
            },
            pairs,
        });
    }
    cells
}

pub fn render_fig4(cells: &[Fig4Cell]) -> String {
    let mut out = String::from(
        "\nFig.4: PLT relative to DoQ per [vantage point x page]\n\
         (DoUDP% < 0 means unencrypted DNS is faster; DoH% > 0 means DoQ is faster)\n",
    );
    out.push_str(&format!(
        "{:<4}{:<18}{:>4}{:>10}{:>10}{:>12}{:>7}\n",
        "VP", "page", "#q", "DoUDP%", "DoH%", "DoQ<DoH", "pairs"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<4}{:<18}{:>4}{:>9.1}%{:>9.1}%{:>11.0}%{:>7}\n",
            c.vp,
            c.page,
            c.avg_dns_queries,
            c.doudp_rel_median_pct,
            c.doh_rel_median_pct,
            c.doq_faster_than_doh * 100.0,
            c.pairs
        ));
    }
    out
}

/// The headline claims of the abstract / §5.
///
/// The single-query percentages use the paper's formula: the
/// improvement/shortfall as a fraction of the *slower* protocol's time
/// (1 RTT vs 2 RTT -> "~33% faster than DoT"; 2 RTT vs 1 RTT -> "falls
/// short of DoUDP by ~50%"; 3 RTT -> "~66%").
#[derive(Debug, Clone, Serialize)]
pub struct Headline {
    /// DoQ improvement over DoT/DoH: (t_dot - t_doq) / t_dot.
    pub doq_vs_dot_single_query_pct: f64,
    pub doq_vs_doh_single_query_pct: f64,
    /// DoUDP's advantage over DoQ: (t_doq - t_udp) / t_doq (paper ~50%).
    pub doq_vs_doudp_single_query_pct: f64,
    /// Same for DoT and DoH (paper ~66%).
    pub dot_vs_doudp_single_query_pct: f64,
    /// Median PLT cost of DoQ vs DoUDP on the simplest page (paper: up
    /// to ~10%).
    pub doq_vs_doudp_simple_page_pct: f64,
    /// ... and on the most complex page (paper: ~2%).
    pub doq_vs_doudp_complex_page_pct: f64,
    /// Median PLT gain of DoQ vs DoH on the simplest page (paper: up to
    /// ~10%).
    pub doq_vs_doh_simple_page_pct: f64,
}

pub fn headline(sq: &[SingleQuerySample], web: &[WebperfSample]) -> Headline {
    let total_ms = |t: DnsTransport| {
        median(
            &sq.iter()
                .filter(|s| s.transport == t && !s.failed)
                .filter_map(|s| Some(s.handshake_ms.unwrap_or(0.0) + s.resolve_ms?))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN)
    };
    let doq = total_ms(DnsTransport::DoQ);
    let dot = total_ms(DnsTransport::DoT);
    let doh = total_ms(DnsTransport::DoH);
    let udp = total_ms(DnsTransport::DoUdp);
    let cells = fig4(web);
    let page_stat = |name: &str, f: &dyn Fn(&Fig4Cell) -> f64| {
        let vals: Vec<f64> = cells.iter().filter(|c| c.page == name).map(f).collect();
        median(&vals).unwrap_or(f64::NAN)
    };
    Headline {
        doq_vs_dot_single_query_pct: 100.0 * (dot - doq) / dot,
        doq_vs_doh_single_query_pct: 100.0 * (doh - doq) / doh,
        doq_vs_doudp_single_query_pct: 100.0 * (doq - udp) / doq,
        dot_vs_doudp_single_query_pct: 100.0 * (dot - udp) / dot,
        doq_vs_doudp_simple_page_pct: -page_stat("wikipedia.org", &|c| c.doudp_rel_median_pct),
        doq_vs_doudp_complex_page_pct: -page_stat("youtube.com", &|c| c.doudp_rel_median_pct),
        doq_vs_doh_simple_page_pct: page_stat("wikipedia.org", &|c| c.doh_rel_median_pct),
    }
}

/// Plain-text table with CDF points for plotting (used by figure
/// binaries to emit machine-readable series).
pub fn cdf_series(values: &[f64], points: usize) -> Vec<(f64, f64)> {
    cdf_points(values, points)
}

/// One cell of a sweep report: a regime x transport slice of a
/// [`crate::sweep`]. Each standard sweep's renderer shows its own
/// columns. DoH3 units fold into the DoH column: they are the same
/// nominal units, run over HTTP/3 (only the what-if doh3 regime runs
/// them).
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    pub regime: String,
    pub transport: String,
    pub units: usize,
    pub failed: usize,
    /// Replacement connections dialed across the cell's units.
    pub reconnects: u64,
    /// Address rebinds applied across the cell's units.
    pub rebinds: u64,
    /// Units whose measured connection accepted 0-RTT early data.
    pub zero_rtt: usize,
    /// Units that actually ran DoH3.
    pub ran_doh3: usize,
    /// Failure-taxonomy name -> count (empty when nothing failed).
    pub failure_kinds: BTreeMap<String, usize>,
    /// Winning transport name -> count, for units decided by a
    /// cross-transport failover race.
    pub winners: BTreeMap<String, usize>,
    /// Resolve-time quantiles (p10, p50, p90, p99) over the cell's
    /// successful units, in milliseconds.
    pub resolve_ms: [Option<f64>; 4],
    /// Total-time (handshake + resolve) quantiles (p50, p90) over the
    /// cell's successful units, in milliseconds.
    pub total_ms: [Option<f64>; 2],
    /// Switchover-latency quantiles (p50, p90) over units that answered
    /// after their first rebind, in milliseconds.
    pub switchover_ms: [Option<f64>; 2],
    /// Median per-unit total-time delta against the reference (first)
    /// regime's twin unit (regime minus reference; negative is faster),
    /// over pairs where both answered; `None` on the reference rows.
    /// Causal only when the regimes share unit seeds.
    pub delta_ms: Option<f64>,
    /// Bytes spent on dead primaries and losing failover rungs, across
    /// the cell's units.
    pub wasted_bytes: u64,
}

/// First packet to answered query, `None` when the unit never answered.
fn total_ms(s: &SingleQuerySample) -> Option<f64> {
    s.resolve_ms.map(|r| s.handshake_ms.unwrap_or(0.0) + r)
}

/// Reduce a sweep to per-regime, per-transport rows (regimes in index
/// order, transports in `DnsTransport::ALL` order). Cells keep their
/// samples in grid order, and the grid emits every regime's units in
/// the same (vp, resolver, transport, rep) sub-order, so zipping a cell
/// with the reference regime's cell pairs each unit with its twin.
pub fn sweep_rows(samples: &[SweepSample]) -> Vec<SweepRow> {
    let mut cells: BTreeMap<(usize, usize), Vec<&SweepSample>> = BTreeMap::new();
    for s in samples {
        let nominal = match s.sample.transport {
            DnsTransport::DoH3 => DnsTransport::DoH,
            t => t,
        };
        let column = DnsTransport::ALL
            .iter()
            .position(|t| *t == nominal)
            .expect("a measured transport");
        cells.entry((s.regime, column)).or_default().push(s);
    }
    let reference = cells.keys().next().map(|&(regime, _)| regime);
    let mut rows = Vec::new();
    for (&(regime, column), cell) in &cells {
        let mut failure_kinds = BTreeMap::new();
        let mut winners = BTreeMap::new();
        for s in cell {
            if let Some(k) = s.failure {
                *failure_kinds.entry(k.name().to_string()).or_insert(0) += 1;
            }
            if let Some(w) = s.winner {
                *winners.entry(w.name().to_string()).or_insert(0) += 1;
            }
        }
        let resolves: Vec<f64> = cell.iter().filter_map(|s| s.sample.resolve_ms).collect();
        let totals: Vec<f64> = cell.iter().filter_map(|s| total_ms(&s.sample)).collect();
        let switches: Vec<f64> = cell.iter().filter_map(|s| s.switchover_ms).collect();
        let delta_ms = match reference {
            Some(r) if r != regime => cells.get(&(r, column)).and_then(|base| {
                let deltas: Vec<f64> = cell
                    .iter()
                    .zip(base)
                    .filter_map(|(s, b)| Some(total_ms(&s.sample)? - total_ms(&b.sample)?))
                    .collect();
                median(&deltas)
            }),
            _ => None,
        };
        rows.push(SweepRow {
            regime: cell[0].regime_name.clone(),
            transport: DnsTransport::ALL[column].name().to_string(),
            units: cell.len(),
            failed: cell.iter().filter(|s| s.sample.failed).count(),
            reconnects: cell.iter().map(|s| s.reconnects as u64).sum(),
            rebinds: cell.iter().map(|s| s.rebinds_applied as u64).sum(),
            zero_rtt: cell.iter().filter(|s| s.sample.metadata.zero_rtt).count(),
            ran_doh3: cell
                .iter()
                .filter(|s| s.sample.transport == DnsTransport::DoH3)
                .count(),
            failure_kinds,
            winners,
            resolve_ms: [10.0, 50.0, 90.0, 99.0].map(|p| percentile(&resolves, p)),
            total_ms: [50.0, 90.0].map(|p| percentile(&totals, p)),
            switchover_ms: [50.0, 90.0].map(|p| percentile(&switches, p)),
            delta_ms,
            wasted_bytes: cell.iter().map(|s| s.wasted_bytes).sum(),
        });
    }
    rows
}

/// Render sweep rows as one table per regime: `header` is a regime's
/// header line, `cells` a row's columns after its transport name (in a
/// column `width` wide), and `notes` what goes on the line under a row.
fn render_sweep(
    rows: &[SweepRow],
    width: usize,
    header: impl Fn(&str) -> String,
    cells: impl Fn(&SweepRow) -> String,
    notes: impl Fn(&SweepRow) -> Vec<String>,
) -> String {
    let mut out = String::new();
    let mut current = None::<&str>;
    for row in rows {
        if current != Some(row.regime.as_str()) {
            current = Some(row.regime.as_str());
            out.push_str(&header(&row.regime));
        }
        out.push_str(&format!("  {:<width$}{}\n", row.transport, cells(row)));
        let notes = notes(row);
        if !notes.is_empty() {
            out.push_str(&format!("  {:<width$}  {}\n", "", notes.join(", ")));
        }
    }
    out
}

/// Quantile cells: each value to one decimal, `-` where there is none.
fn quantile_cells(values: &[Option<f64>], width: usize) -> String {
    values
        .iter()
        .map(|v| match v {
            Some(v) => format!("{v:>width$.1}"),
            None => format!("{:>width$}", "-"),
        })
        .collect()
}

fn failure_notes(row: &SweepRow) -> impl Iterator<Item = String> + '_ {
    row.failure_kinds.iter().map(|(k, n)| format!("{k} x{n}"))
}

fn fail_pct(row: &SweepRow) -> f64 {
    100.0 * row.failed as f64 / row.units.max(1) as f64
}

/// Render the impairments report: per regime, a transport table of
/// failure rates and resolve-time quantiles, with a failure-kind
/// breakdown where anything failed.
pub fn render_impairments(rows: &[SweepRow]) -> String {
    render_sweep(
        rows,
        19,
        |regime| {
            format!(
                "\nregime {regime:<14}{:>7}{:>7}{:>6}{:>9}{:>9}{:>9}{:>9}\n",
                "units", "fail%", "reconn", "p10 ms", "p50 ms", "p90 ms", "p99 ms"
            )
        },
        |row| {
            format!(
                "{:>7}{:>6.1}%{:>6}{}",
                row.units,
                fail_pct(row),
                row.reconnects,
                quantile_cells(&row.resolve_ms, 9)
            )
        },
        |row| failure_notes(row).collect(),
    )
}

/// Render the mobility report: per regime, a transport table of
/// survival rates, switchover-latency quantiles and recovery cost,
/// with failure-kind and winning-transport breakdowns.
pub fn render_mobility(rows: &[SweepRow]) -> String {
    render_sweep(
        rows,
        21,
        |regime| {
            format!(
                "\nregime {regime:<16}{:>7}{:>9}{:>8}{:>9}{:>10}{:>10}{:>10}\n",
                "units", "survive%", "reconn", "rebinds", "sw p50ms", "sw p90ms", "waste KB"
            )
        },
        |row| {
            format!(
                "{:>7}{:>8.1}%{:>8}{:>9}{}{:>10.1}",
                row.units,
                100.0 * (row.units - row.failed) as f64 / row.units.max(1) as f64,
                row.reconnects,
                row.rebinds,
                quantile_cells(&row.switchover_ms, 10),
                row.wasted_bytes as f64 / 1024.0
            )
        },
        |row| {
            let winners = row.winners.iter().map(|(w, n)| format!("won by {w} x{n}"));
            failure_notes(row).chain(winners).collect()
        },
    )
}

/// Render the what-if report: per regime, a transport table of total
/// query times and the paired delta against the baseline regime, with
/// 0-RTT uptake and failure-kind breakdowns.
pub fn render_whatif(rows: &[SweepRow]) -> String {
    render_sweep(
        rows,
        21,
        |regime| {
            format!(
                "\nregime {regime:<16}{:>7}{:>7}{:>7}{:>9}{:>9}{:>10}\n",
                "units", "fail%", "0-rtt", "p50 ms", "p90 ms", "delta ms"
            )
        },
        |row| {
            let delta = match row.delta_ms {
                Some(v) => format!("{v:>+10.1}"),
                None => format!("{:>10}", "-"),
            };
            format!(
                "{:>7}{:>6.1}%{:>7}{}{delta}",
                row.units,
                fail_pct(row),
                row.zero_rtt,
                quantile_cells(&row.total_ms, 9)
            )
        },
        |row| {
            let doh3 = (row.ran_doh3 > 0).then(|| format!("ran DoH3 x{}", row.ran_doh3));
            doh3.into_iter().chain(failure_notes(row)).collect()
        },
    )
}

/// One row of the what-if Web comparison: the DoH column of the Web
/// campaign re-run over HTTP/3, per page, paired unit by unit.
#[derive(Debug, Clone, Serialize)]
pub struct WhatifWebRow {
    pub page: String,
    /// Paired (DoH, DoH3) units for the page.
    pub units: usize,
    /// Pairs where either world's loads failed (excluded from deltas).
    pub failed_pairs: usize,
    /// Median DoH3 FCP / PLT over clean pairs, in milliseconds.
    pub fcp_ms: Option<f64>,
    pub plt_ms: Option<f64>,
    /// Median per-unit delta (DoH3 minus DoH); negative is faster.
    pub fcp_delta_ms: Option<f64>,
    pub plt_delta_ms: Option<f64>,
}

/// Pair the two Web worlds of the what-if campaign: `base` is a normal
/// run, `doh3` the same campaign with `use_doh3` — identical unit
/// seeds, so each DoH3 sample replays a DoH twin's draws and the FCP /
/// PLT deltas are attributable to HTTP/3 alone. Pairing is positional:
/// both runs emit the grid in the same order.
pub fn whatif_web_rows(base: &[WebperfSample], doh3: &[WebperfSample]) -> Vec<WhatifWebRow> {
    let doh: Vec<&WebperfSample> = base
        .iter()
        .filter(|s| s.transport == DnsTransport::DoH)
        .collect();
    let h3: Vec<&WebperfSample> = doh3
        .iter()
        .filter(|s| s.transport == DnsTransport::DoH3)
        .collect();
    let mut pages: Vec<String> = Vec::new();
    for s in &doh {
        if !pages.contains(&s.page_name) {
            pages.push(s.page_name.clone());
        }
    }
    let mut rows = Vec::new();
    for page in pages {
        let pairs: Vec<(&&WebperfSample, &&WebperfSample)> = doh
            .iter()
            .zip(&h3)
            .filter(|(b, _)| b.page_name == page)
            .collect();
        let clean: Vec<_> = pairs
            .iter()
            .filter(|(b, h)| !b.failed && !h.failed)
            .collect();
        let fcp: Vec<f64> = clean.iter().map(|(_, h)| h.fcp_ms).collect();
        let plt: Vec<f64> = clean.iter().map(|(_, h)| h.plt_ms).collect();
        let dfcp: Vec<f64> = clean.iter().map(|(b, h)| h.fcp_ms - b.fcp_ms).collect();
        let dplt: Vec<f64> = clean.iter().map(|(b, h)| h.plt_ms - b.plt_ms).collect();
        rows.push(WhatifWebRow {
            page,
            units: pairs.len(),
            failed_pairs: pairs.len() - clean.len(),
            fcp_ms: median(&fcp),
            plt_ms: median(&plt),
            fcp_delta_ms: median(&dfcp),
            plt_delta_ms: median(&dplt),
        });
    }
    rows
}

/// Render the what-if Web comparison: per page, DoH3's FCP/PLT and the
/// paired delta against the DoH twin.
pub fn render_whatif_web(rows: &[WhatifWebRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "\nwebperf DoH -> DoH3{:>9}{:>9}{:>9}{:>10}{:>10}\n",
        "pairs", "fcp ms", "plt ms", "dfcp ms", "dplt ms"
    ));
    for row in rows {
        out.push_str(&format!("  {:<19}{:>7}", row.page, row.units));
        for q in [row.fcp_ms, row.plt_ms] {
            match q {
                Some(v) => out.push_str(&format!("{v:>9.1}")),
                None => out.push_str(&format!("{:>9}", "-")),
            }
        }
        for q in [row.fcp_delta_ms, row.plt_delta_ms] {
            match q {
                Some(v) => out.push_str(&format!("{v:>+10.1}")),
                None => out.push_str(&format!("{:>10}", "-")),
            }
        }
        out.push('\n');
        if row.failed_pairs > 0 {
            out.push_str(&format!(
                "  {:<19}  {} pair(s) failed\n",
                "", row.failed_pairs
            ));
        }
    }
    out
}

/// One cell of the populations report: an alpha x transport slice of
/// the population campaign, all vantage points merged.
#[derive(Debug, Clone, Serialize)]
pub struct PopulationRow {
    pub alpha: f64,
    pub transport: String,
    pub cohorts: usize,
    /// Clients simulated across the cell's cohorts.
    pub clients: u64,
    /// Client queries issued over the simulated day.
    pub queries: u64,
    /// Stub cache hit ratio (positive + negative hits over lookups), %.
    pub hit_pct: f64,
    /// Queries answered from an already-in-flight upstream lookup, %.
    pub coalesced_pct: f64,
    /// Load the upstream resolvers actually served, queries/second of
    /// simulated time.
    pub resolver_qps: f64,
    /// Client resolve-time quantiles [p50, p99, p999] in ms over every
    /// query, cache hits included at ~0 ms. Quantiles are log-linear
    /// bucket floors (<=12.5% relative error).
    pub resolve_ms: [f64; 3],
    pub pool_reuses: u64,
    pub pool_evictions: u64,
    pub reconnects: u64,
    /// Aggregate IP payload the cell's upstream traffic moved, MB.
    pub megabytes: f64,
}

/// Reduce the population campaign to per-alpha, per-transport rows
/// (alphas ascending by campaign index, transports in the campaign's
/// column order). Degenerate baseline samples are skipped — they carry
/// a single-query sample, not a day of population traffic.
pub fn population_rows(samples: &[PopulationSample]) -> Vec<PopulationRow> {
    let mut alphas: Vec<(usize, f64)> = Vec::new();
    let mut transports: Vec<DnsTransport> = Vec::new();
    for s in samples {
        if s.baseline.is_some() {
            continue;
        }
        if !alphas.iter().any(|(i, _)| *i == s.alpha_idx) {
            alphas.push((s.alpha_idx, s.alpha));
        }
        if !transports.contains(&s.transport) {
            transports.push(s.transport);
        }
    }
    alphas.sort_by_key(|(i, _)| *i);
    let mut rows = Vec::new();
    for (alpha_idx, alpha) in alphas {
        for &t in &transports {
            let cell: Vec<&PopulationSample> = samples
                .iter()
                .filter(|s| s.baseline.is_none() && s.alpha_idx == alpha_idx && s.transport == t)
                .collect();
            if cell.is_empty() {
                continue;
            }
            let queries: u64 = cell.iter().map(|s| s.stats.queries).sum();
            let hits: u64 = cell
                .iter()
                .map(|s| s.stats.cache_hits + s.stats.negative_hits)
                .sum();
            let coalesced: u64 = cell.iter().map(|s| s.stats.coalesced).sum();
            let resolver_queries: u64 = cell.iter().map(|s| s.resolver_queries).sum();
            let window_s: f64 = cell.iter().map(|s| s.window_s).fold(0.0, f64::max);
            let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
            for s in &cell {
                for &(bucket, n) in &s.resolve_hist {
                    *hist.entry(bucket).or_insert(0) += n;
                }
            }
            let q = |p: f64| hist_quantile_ms(&hist, p);
            rows.push(PopulationRow {
                alpha,
                transport: t.name().to_string(),
                cohorts: cell.len(),
                clients: cell.iter().map(|s| s.clients).sum(),
                queries,
                hit_pct: 100.0 * hits as f64 / queries.max(1) as f64,
                coalesced_pct: 100.0 * coalesced as f64 / queries.max(1) as f64,
                resolver_qps: resolver_queries as f64 / window_s.max(1.0),
                resolve_ms: [q(0.5), q(0.99), q(0.999)],
                pool_reuses: cell.iter().map(|s| s.pool_reuses).sum(),
                pool_evictions: cell.iter().map(|s| s.pool_evictions as u64).sum(),
                reconnects: cell.iter().map(|s| s.reconnects as u64).sum(),
                megabytes: cell.iter().map(|s| s.bytes_delivered).sum::<u64>() as f64 / 1e6,
            });
        }
    }
    rows
}

/// Quantile of a merged sparse log-bucket histogram, in milliseconds
/// (bucket floors, so cache hits in bucket 0 report as exactly 0).
fn hist_quantile_ms(hist: &BTreeMap<u32, u64>, q: f64) -> f64 {
    let total: u64 = hist.values().sum();
    if total == 0 {
        return f64::NAN;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (&bucket, &n) in hist {
        seen += n;
        if seen >= target {
            return metrics::bucket_floor(bucket as usize) as f64 / 1e6;
        }
    }
    f64::NAN
}

/// Render the populations report: per Zipf alpha, a transport table of
/// cache effectiveness, resolver load, client latency quantiles, and
/// connection-pool behavior.
pub fn render_populations(rows: &[PopulationRow]) -> String {
    let mut out = String::new();
    let mut current = None::<f64>;
    for row in rows {
        if current != Some(row.alpha) {
            current = Some(row.alpha);
            out.push_str(&format!(
                "\nzipf a={:<7.2}{:>10}{:>7}{:>7}{:>9}{:>9}{:>9}{:>9}{:>8}{:>7}{:>9}\n",
                row.alpha,
                "queries",
                "hit%",
                "coal%",
                "rslv q/s",
                "p50 ms",
                "p99 ms",
                "p999 ms",
                "reuse",
                "evict",
                "MB"
            ));
        }
        out.push_str(&format!(
            "  {:<12}{:>10}{:>6.1}%{:>6.1}%{:>9.1}{:>9.2}{:>9.1}{:>9.1}{:>8}{:>7}{:>9.2}\n",
            row.transport,
            row.queries,
            row.hit_pct,
            row.coalesced_pct,
            row.resolver_qps,
            row.resolve_ms[0],
            row.resolve_ms[1],
            row.resolve_ms[2],
            row.pool_reuses,
            row.pool_evictions,
            row.megabytes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_query::PhaseBytes;
    use doqlab_dox::ConnMetadata;

    fn sample(t: DnsTransport, hs: Option<f64>, rs: f64, total: usize) -> SingleQuerySample {
        SingleQuerySample {
            vp: 0,
            vp_continent: Continent::Europe,
            resolver: 0,
            resolver_continent: Continent::Europe,
            transport: t,
            handshake_ms: hs,
            resolve_ms: Some(rs),
            bytes: PhaseBytes {
                handshake_c2r: total / 2,
                handshake_r2c: total / 4,
                query_c2r: total / 8,
                response_r2c: total / 8,
            },
            metadata: ConnMetadata::default(),
            failed: false,
        }
    }

    #[test]
    fn table1_medians_and_counts() {
        let samples = vec![
            sample(DnsTransport::DoUdp, None, 40.0, 120),
            sample(DnsTransport::DoUdp, None, 42.0, 128),
            sample(DnsTransport::DoQ, Some(40.0), 40.0, 4000),
        ];
        let t = table1(&samples);
        assert_eq!(t.sample_counts["DoUDP"], 2);
        assert_eq!(t.sample_counts["DoQ"], 1);
        assert!((t.sizes["DoUDP"][0] - 124.0).abs() < 1.0);
        let rendered = render_table1(&t);
        assert!(rendered.contains("Samples"));
        assert!(rendered.contains("DoQ"));
    }

    #[test]
    fn fig2_groups_total_and_continent() {
        let samples = vec![
            sample(DnsTransport::DoT, Some(100.0), 50.0, 1000),
            sample(DnsTransport::DoT, Some(200.0), 60.0, 1000),
        ];
        let f = fig2(&samples);
        assert_eq!(f.handshake_ms["Total"]["DoT"], 150.0);
        assert_eq!(f.handshake_ms["EU"]["DoT"], 150.0);
        assert!(!f.handshake_ms.contains_key("XX"));
        let rendered = render_fig2(&f);
        assert!(rendered.contains("Handshake time"));
    }

    fn web(t: DnsTransport, vp: usize, resolver: usize, page: usize, plt: f64) -> WebperfSample {
        WebperfSample {
            vp,
            vp_continent: Continent::Europe,
            resolver,
            page,
            page_name: format!("page{page}"),
            page_dns_queries: page + 1,
            transport: t,
            round: 0,
            fcp_ms: plt * 0.6,
            plt_ms: plt,
            proxy_connections: 1,
            failed: false,
            loads_failed: 0,
        }
    }

    #[test]
    fn whatif_web_rows_pair_the_doh_and_doh3_worlds() {
        let base = vec![
            web(DnsTransport::DoUdp, 0, 0, 0, 90.0),
            web(DnsTransport::DoH, 0, 0, 0, 200.0),
            web(DnsTransport::DoH, 1, 0, 0, 220.0),
            web(DnsTransport::DoH, 0, 0, 1, 400.0),
        ];
        let doh3 = vec![
            web(DnsTransport::DoUdp, 0, 0, 0, 90.0),
            web(DnsTransport::DoH3, 0, 0, 0, 180.0),
            {
                let mut s = web(DnsTransport::DoH3, 1, 0, 0, f64::NAN);
                s.failed = true;
                s
            },
            web(DnsTransport::DoH3, 0, 0, 1, 350.0),
        ];
        let rows = whatif_web_rows(&base, &doh3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].page, "page0");
        assert_eq!(rows[0].units, 2);
        assert_eq!(
            rows[0].failed_pairs, 1,
            "the failed DoH3 load drops its pair"
        );
        assert_eq!(rows[0].plt_delta_ms, Some(-20.0));
        assert_eq!(rows[1].page, "page1");
        assert_eq!(rows[1].plt_ms, Some(350.0));
        assert_eq!(rows[1].plt_delta_ms, Some(-50.0));
        let rendered = render_whatif_web(&rows);
        assert!(rendered.contains("webperf DoH -> DoH3"));
        assert!(rendered.contains("-50.0"));
        assert!(rendered.contains("1 pair(s) failed"));
        assert!(render_whatif_web(&[]).is_empty());
    }

    #[test]
    fn relative_diffs_pair_within_groups() {
        let samples = vec![
            web(DnsTransport::DoUdp, 0, 0, 0, 100.0),
            web(DnsTransport::DoQ, 0, 0, 0, 110.0),
            web(DnsTransport::DoUdp, 0, 1, 0, 200.0),
            web(DnsTransport::DoQ, 0, 1, 0, 210.0),
        ];
        let d = relative_to_baseline(&samples, DnsTransport::DoUdp);
        let doq = &d.plt["DoQ"];
        assert_eq!(doq.len(), 2);
        let mut sorted = doq.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 5.0).abs() < 0.01);
        assert!((sorted[1] - 10.0).abs() < 0.01);
    }

    #[test]
    fn render_fig3_lists_quantiles_per_protocol() {
        let samples = vec![
            web(DnsTransport::DoUdp, 0, 0, 0, 100.0),
            web(DnsTransport::DoQ, 0, 0, 0, 105.0),
            web(DnsTransport::DoH, 0, 0, 0, 120.0),
        ];
        let d = relative_to_baseline(&samples, DnsTransport::DoUdp);
        let text = render_fig3(&d, "PLT");
        assert!(text.contains("DoQ"));
        assert!(text.contains("DoH"));
        assert!(text.contains("p50"));
        let fcp_text = render_fig3(&d, "FCP");
        assert!(fcp_text.contains("FCP"));
    }

    #[test]
    fn headline_uses_the_papers_formulas() {
        // DoUDP 100 ms, DoQ 200 ms, DoT/DoH 300 ms: the paper's RTT
        // arithmetic gives 33% / 50% / 66%.
        let mk = |t: DnsTransport, hs: Option<f64>, rs: f64| SingleQuerySample {
            vp: 0,
            vp_continent: Continent::Europe,
            resolver: 0,
            resolver_continent: Continent::Europe,
            transport: t,
            handshake_ms: hs,
            resolve_ms: Some(rs),
            bytes: PhaseBytes::default(),
            metadata: ConnMetadata::default(),
            failed: false,
        };
        let sq = vec![
            mk(DnsTransport::DoUdp, None, 100.0),
            mk(DnsTransport::DoQ, Some(100.0), 100.0),
            mk(DnsTransport::DoT, Some(200.0), 100.0),
            mk(DnsTransport::DoH, Some(200.0), 100.0),
        ];
        let h = headline(&sq, &[]);
        assert!((h.doq_vs_dot_single_query_pct - 33.333).abs() < 0.1);
        assert!((h.doq_vs_doh_single_query_pct - 33.333).abs() < 0.1);
        assert!((h.doq_vs_doudp_single_query_pct - 50.0).abs() < 0.1);
        assert!((h.dot_vs_doudp_single_query_pct - 66.667).abs() < 0.1);
    }

    #[test]
    fn overview_counts_versions_and_flags() {
        let mut s = sample(DnsTransport::DoQ, Some(10.0), 10.0, 100);
        s.metadata = ConnMetadata {
            quic_version: Some(1),
            doq_alpn: Some("doq-i02".into()),
            tls13: Some(true),
            resumed: true,
            zero_rtt: false,
        };
        let mut s2 = s.clone();
        s2.metadata.quic_version = Some(0xFF00_0022);
        s2.metadata.doq_alpn = Some("doq-i03".into());
        s2.metadata.resumed = false;
        let o = overview(&[s, s2]);
        assert_eq!(o.quic_version_shares["v1"], 0.5);
        assert_eq!(o.quic_version_shares["draft-34"], 0.5);
        assert_eq!(o.doq_alpn_shares["doq-i02"], 0.5);
        assert_eq!(o.tls13_share, 1.0);
        assert_eq!(o.resumption_share, 0.5);
        assert_eq!(o.zero_rtt_share, 0.0);
    }

    #[test]
    fn fig4_cells_compare_against_doq() {
        let samples = vec![
            web(DnsTransport::DoQ, 0, 0, 0, 100.0),
            web(DnsTransport::DoUdp, 0, 0, 0, 90.0),
            web(DnsTransport::DoH, 0, 0, 0, 110.0),
        ];
        let cells = fig4(&samples);
        assert_eq!(cells.len(), 1);
        assert!((cells[0].doudp_rel_median_pct + 10.0).abs() < 0.01);
        assert!((cells[0].doh_rel_median_pct - 10.0).abs() < 0.01);
        assert_eq!(cells[0].doq_faster_than_doh, 1.0);
        let rendered = render_fig4(&cells);
        assert!(rendered.contains("page0"));
    }

    #[test]
    fn sweep_rows_feed_the_three_report_layouts() {
        use doqlab_dox::FailureKind;
        // A swept sample; a failure verdict fails its unit.
        let mk = |regime: usize, name: &str, t, hs: Option<f64>, failure: Option<FailureKind>| {
            let mut s = sample(t, hs, 25.0, 100);
            if failure.is_some() {
                s.failed = true;
                s.resolve_ms = None;
            }
            SweepSample {
                regime,
                regime_name: name.into(),
                failure,
                reconnects: 0,
                rebinds_applied: 0,
                switchover_ms: None,
                wasted_bytes: 0,
                winner: None,
                sample: s,
            }
        };

        let cell = |rows: &[SweepRow], regime: &str, transport: &str| {
            let row = rows
                .iter()
                .find(|r| r.regime == regime && r.transport == transport);
            row.expect("cell reported").clone()
        };

        // Impairments: failure rates, reconnects, resolve quantiles.
        let impaired = |regime, name, t, ok: bool| SweepSample {
            reconnects: u32::from(!ok),
            ..mk(
                regime,
                name,
                t,
                Some(10.0),
                (!ok).then_some(FailureKind::Timeout),
            )
        };
        let samples = vec![
            impaired(0, "baseline", DnsTransport::DoQ, true),
            impaired(0, "baseline", DnsTransport::DoQ, true),
            impaired(1, "loss", DnsTransport::DoQ, false),
            impaired(1, "loss", DnsTransport::DoUdp, true),
        ];
        let rows = sweep_rows(&samples);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].regime, "baseline");
        assert_eq!(rows[0].units, 2);
        assert_eq!(rows[0].failed, 0);
        assert_eq!(rows[0].resolve_ms[1], Some(25.0));
        let loss_doq = cell(&rows, "loss", "DoQ");
        assert_eq!(loss_doq.failed, 1);
        assert_eq!(loss_doq.failure_kinds["timeout"], 1);
        assert_eq!(loss_doq.reconnects, 1);
        assert_eq!(loss_doq.resolve_ms[1], None);
        let rendered = render_impairments(&rows);
        assert!(rendered.contains("regime baseline"));
        assert!(rendered.contains("timeout x1"));

        // Mobility: survival, rebinds, switchover, waste and winners.
        let mobile = |regime: usize, name, t, ok: bool, winner: bool| SweepSample {
            rebinds_applied: u32::from(regime > 0),
            switchover_ms: (ok && regime > 0).then_some(42.0),
            wasted_bytes: if winner { 900 } else { 0 },
            winner: winner.then_some(DnsTransport::DoT),
            ..mk(
                regime,
                name,
                t,
                Some(10.0),
                (!ok).then_some(FailureKind::DeadlineExceeded),
            )
        };
        let samples = vec![
            mobile(0, "baseline", DnsTransport::DoQ, true, false),
            mobile(1, "rebind", DnsTransport::DoQ, true, false),
            mobile(1, "rebind", DnsTransport::DoUdp, false, false),
            mobile(1, "rebind", DnsTransport::DoT, true, true),
        ];
        let rows = sweep_rows(&samples);
        let survived = |r: &SweepRow| r.units - r.failed;
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].regime, "baseline");
        assert_eq!(survived(&rows[0]), 1);
        assert_eq!(rows[0].rebinds, 0);
        assert_eq!(rows[0].switchover_ms, [None, None]);
        let rebind_doq = cell(&rows, "rebind", "DoQ");
        assert_eq!(survived(&rebind_doq), 1);
        assert_eq!(rebind_doq.switchover_ms[0], Some(42.0));
        let rebind_udp = cell(&rows, "rebind", "DoUDP");
        assert_eq!(survived(&rebind_udp), 0);
        assert_eq!(rebind_udp.failure_kinds["deadline-exceeded"], 1);
        let rebind_dot = cell(&rows, "rebind", "DoT");
        assert_eq!(rebind_dot.winners["DoT"], 1);
        assert_eq!(rebind_dot.wasted_bytes, 900);
        let rendered = render_mobility(&rows);
        assert!(rendered.contains("regime baseline"));
        assert!(rendered.contains("regime rebind"));
        assert!(rendered.contains("deadline-exceeded x1"));
        assert!(rendered.contains("won by DoT x1"));

        // What-if: total times and deltas paired against the baseline.
        let whatif = |regime, name, t, hs, ok: bool| {
            mk(regime, name, t, hs, (!ok).then_some(FailureKind::Timeout))
        };
        let samples = vec![
            whatif(0, "baseline", DnsTransport::DoQ, Some(50.0), true),
            whatif(0, "baseline", DnsTransport::DoQ, Some(60.0), true),
            whatif(0, "baseline", DnsTransport::DoH, Some(100.0), true),
            whatif(1, "0rtt", DnsTransport::DoQ, Some(0.0), true),
            whatif(1, "0rtt", DnsTransport::DoQ, Some(10.0), false),
            whatif(2, "doh3", DnsTransport::DoH3, Some(60.0), true),
        ];
        let rows = sweep_rows(&samples);
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        assert_eq!(
            (base.regime.as_str(), base.transport.as_str()),
            ("baseline", "DoQ")
        );
        assert_eq!(base.units, 2);
        assert_eq!(base.total_ms[0], Some(80.0), "median of 75 and 85");
        assert_eq!(base.delta_ms, None, "the reference regime has no delta");
        let zrtt = cell(&rows, "0rtt", "DoQ");
        assert_eq!(zrtt.failed, 1);
        assert_eq!(zrtt.failure_kinds["timeout"], 1);
        // Only the first unit pair answered on both sides: 25 - 75.
        assert_eq!(zrtt.delta_ms, Some(-50.0));
        // The doh3 regime's DoH3 unit folds into the DoH column and
        // pairs with the baseline DoH twin: 85 - 125.
        let doh3 = rows.iter().find(|r| r.regime == "doh3").unwrap();
        assert_eq!(doh3.transport, "DoH");
        assert_eq!(doh3.ran_doh3, 1);
        assert_eq!(doh3.delta_ms, Some(-40.0));
        let rendered = render_whatif(&rows);
        assert!(rendered.contains("regime baseline"));
        assert!(rendered.contains("regime 0rtt"));
        assert!(rendered.contains("-50.0"));
        assert!(rendered.contains("ran DoH3 x1"));
        assert!(rendered.contains("timeout x1"));
    }

    fn pop_sample(alpha_idx: usize, alpha: f64, t: DnsTransport, vp: usize) -> PopulationSample {
        use doqlab_resolver::StubStats;
        PopulationSample {
            vp,
            vp_name: "test",
            resolver: 0,
            alpha_idx,
            alpha,
            transport: t,
            clients: 100,
            window_s: 3_600.0,
            stats: StubStats {
                queries: 1_000,
                cache_hits: 700,
                negative_hits: 50,
                coalesced: 30,
                upstream_queries: 220,
                upstream_answered: 220,
                failed: 0,
            },
            cache_expired: 5,
            cache_entries: 40,
            pool_reuses: 200,
            pool_evictions: 3,
            reconnects: 1,
            resolver_queries: 220,
            bytes_delivered: 2_000_000,
            packets_delivered: 4_000,
            // 750 cache hits at ~0, 250 upstream answers at ~20 ms.
            resolve_hist: vec![(0, 750), (metrics::bucket_index(20_000_000) as u32, 250)],
            baseline: None,
        }
    }

    #[test]
    fn population_rows_merge_vantage_points_per_alpha_transport() {
        let samples = vec![
            pop_sample(0, 0.75, DnsTransport::DoQ, 0),
            pop_sample(0, 0.75, DnsTransport::DoQ, 1),
            pop_sample(0, 0.75, DnsTransport::DoUdp, 0),
            pop_sample(1, 0.9, DnsTransport::DoQ, 0),
        ];
        let rows = population_rows(&samples);
        assert_eq!(rows.len(), 3);
        let doq = &rows[0];
        assert_eq!(doq.transport, "DoQ");
        assert_eq!(doq.alpha, 0.75);
        assert_eq!(doq.cohorts, 2);
        assert_eq!(doq.clients, 200);
        assert_eq!(doq.queries, 2_000);
        assert!((doq.hit_pct - 75.0).abs() < 1e-9);
        assert!((doq.coalesced_pct - 3.0).abs() < 1e-9);
        assert!((doq.resolver_qps - 440.0 / 3_600.0).abs() < 1e-9);
        // p50 lands in the cache-hit bucket, p99 in the upstream one
        // (floors, so the 20 ms answers report as >= 16 ms).
        assert_eq!(doq.resolve_ms[0], 0.0);
        assert!(doq.resolve_ms[1] >= 16.0 && doq.resolve_ms[1] <= 20.0);
        assert_eq!(doq.pool_reuses, 400);
        assert_eq!(doq.pool_evictions, 6);
        assert!((doq.megabytes - 4.0).abs() < 1e-9);
        // Second alpha opens its own group.
        assert_eq!(rows[2].alpha, 0.9);
        let rendered = render_populations(&rows);
        assert!(rendered.contains("zipf a=0.75"));
        assert!(rendered.contains("zipf a=0.90"));
        assert!(rendered.contains("DoUDP"));
    }

    #[test]
    fn population_rows_skip_degenerate_baselines() {
        let mut s = pop_sample(0, 0.9, DnsTransport::DoQ, 0);
        s.baseline = Some(sample(DnsTransport::DoQ, Some(10.0), 25.0, 100));
        assert!(population_rows(&[s]).is_empty());
    }

    #[test]
    fn hist_quantile_walks_bucket_floors() {
        let hist: BTreeMap<u32, u64> =
            [(0u32, 90u64), (metrics::bucket_index(8_000_000) as u32, 10)]
                .into_iter()
                .collect();
        assert_eq!(hist_quantile_ms(&hist, 0.5), 0.0);
        let p99 = hist_quantile_ms(&hist, 0.99);
        assert!(p99 > 0.0 && p99 <= 8.0);
        assert!(hist_quantile_ms(&BTreeMap::new(), 0.5).is_nan());
    }
}
