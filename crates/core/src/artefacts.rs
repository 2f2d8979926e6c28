//! Every report `doqlab` prints, as data: the table of artefacts, each
//! naming the campaigns it reads and its view, and [`Samples`], the
//! per-invocation sample set that runs each of those campaigns at most
//! once.
//!
//! [`CAMPAIGN_REPORTS`] holds what `doqlab <campaign>` and `doqlab all`
//! print; [`PAPER_ARTEFACTS`] the paper's tables, figures and headline
//! claims and our ablations, each beside the paper's reference values.

use crate::Study;
use doqlab_dox::{Capabilities, DnsTransport};
use doqlab_measure::discovery::DiscoveryReport;
use doqlab_measure::report::{self, Fig4Cell, Report, SweepRow};
use doqlab_measure::single_query::UnitOptions;
use doqlab_measure::{impairments, median, mobility, percentile, whatif, Cdf, Regime};
use doqlab_measure::{SweepSample, WebperfCampaign, WebperfSample};
use doqlab_simnet::geo::Continent;
use doqlab_simnet::{GilbertElliott, ImpairmentSchedule};
use serde::Serialize;
use std::any::Any;
use std::collections::BTreeMap;
use Campaign::*;

/// A campaign some artefact reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// The §2 scan.
    Discovery,
    /// The §3.1 single-query campaign.
    SingleQuery,
    /// The §3.2 Web campaign as the paper ran it.
    Web,
    /// The Web campaign with DoH over HTTP/3 (the what-if Web half).
    WebDoh3,
    /// The Web campaign with the proxy's DoT reconnect bug fixed (A2).
    WebDotFixed,
    /// The Web campaign with RFC 9210 DoTCP: keepalive and TFO (A4).
    WebRfc9210,
    Impairments,
    Mobility,
    Whatif,
    /// S1's path-loss sweep ([`loss_sweep`]).
    Loss,
    Populations,
}

/// One report: its name, the campaigns its view reads, and the view.
pub struct Artefact {
    pub name: &'static str,
    pub reads: &'static [Campaign],
    pub view: fn(&Samples) -> Report,
}

/// The campaign reports, in the order `doqlab all` prints them.
#[rustfmt::skip]
pub const CAMPAIGN_REPORTS: [Artefact; 7] = [
    Artefact { name: "discovery", reads: &[Discovery], view: discovery_report },
    Artefact { name: "single-query", reads: &[SingleQuery], view: single_query_report },
    Artefact { name: "webperf", reads: &[Web], view: webperf_report },
    Artefact { name: "impairments", reads: &[Impairments], view: impairments_report },
    Artefact { name: "mobility", reads: &[Mobility], view: mobility_report },
    Artefact { name: "populations", reads: &[Populations], view: populations_report },
    Artefact { name: "whatif", reads: &[Whatif, Web, WebDoh3], view: whatif_report },
];

/// The paper's artefacts (E0–E8) and the ablations A1, A2, A4 and S1
/// (DESIGN.md §5).
#[rustfmt::skip]
pub const PAPER_ARTEFACTS: [Artefact; 12] = [
    Artefact { name: "fig1", reads: &[Discovery], view: fig1 },
    Artefact { name: "overview", reads: &[SingleQuery], view: overview },
    Artefact { name: "table1", reads: &[SingleQuery], view: table1 },
    Artefact { name: "fig2a", reads: &[SingleQuery], view: fig2a },
    Artefact { name: "fig2b", reads: &[SingleQuery], view: fig2b },
    Artefact { name: "fig3", reads: &[Web], view: fig3 },
    Artefact { name: "fig4", reads: &[Web], view: fig4 },
    Artefact { name: "headline", reads: &[SingleQuery, Web], view: headline },
    Artefact { name: "a1", reads: &[Whatif], view: a1 },
    Artefact { name: "a2", reads: &[Web, WebDotFixed], view: a2 },
    Artefact { name: "a4", reads: &[Web, WebRfc9210], view: a4 },
    Artefact { name: "s1", reads: &[Loss], view: s1 },
];

/// The report named `name`, from either table.
pub fn find(name: &str) -> Option<&'static Artefact> {
    CAMPAIGN_REPORTS
        .iter()
        .chain(&PAPER_ARTEFACTS)
        .find(|a| a.name == name)
}

/// The samples of the campaigns one invocation's reports read.
pub struct Samples<'a> {
    pub study: &'a Study,
    /// The `--scale` name, which Table 1's report prints.
    pub scale_name: &'a str,
    /// The mobility sweep's regimes (the standard sweep at its default
    /// rebind offset and failover stagger unless set).
    pub mobility: Vec<Regime>,
    /// What each campaign run so far produced: a `DiscoveryReport` or a
    /// `Vec` of its samples.
    runs: Vec<(Campaign, Box<dyn Any>)>,
}

impl<'a> Samples<'a> {
    pub fn new(study: &'a Study, scale_name: &'a str) -> Samples<'a> {
        let (rebind_at, stagger) = (mobility::DEFAULT_REBIND_AT, mobility::DEFAULT_STAGGER);
        Samples {
            study,
            scale_name,
            mobility: mobility::standard_mobility_sweep(rebind_at, stagger),
            runs: Vec::new(),
        }
    }

    /// Render `entries` in order, handing each report to `emit`. A
    /// campaign runs once, before the first entry that reads it, and
    /// its samples are dropped after the last one.
    pub fn render(&mut self, entries: &[&Artefact], mut emit: impl FnMut(&Artefact, Report)) {
        for (i, entry) in entries.iter().enumerate() {
            for &campaign in entry.reads {
                if !self.runs.iter().any(|(c, _)| *c == campaign) {
                    let samples = self.run(campaign);
                    self.runs.push((campaign, samples));
                }
            }
            emit(entry, (entry.view)(self));
            let later = &entries[i + 1..];
            self.runs
                .retain(|(c, _)| later.iter().any(|e| e.reads.contains(c)));
        }
    }

    fn run(&self, campaign: Campaign) -> Box<dyn Any> {
        let study = self.study;
        let plain = study.webperf_campaign();
        let web = |campaign: WebperfCampaign| Box::new(study.run_webperf_campaign(&campaign));
        let rfc9210 = Capabilities {
            tfo: true,
            keepalive: true,
            ..Capabilities::default()
        };
        match campaign {
            Discovery => Box::new(study.run_discovery(&study.scan_population())),
            SingleQuery => Box::new(study.run_single_query()),
            Web => web(plain),
            WebDoh3 => web(WebperfCampaign {
                caps: whatif::DOH3,
                ..plain
            }),
            WebDotFixed => web(WebperfCampaign {
                dot_bug: false,
                ..plain
            }),
            WebRfc9210 => web(WebperfCampaign {
                caps: rfc9210,
                ..plain
            }),
            Impairments => Box::new(study.run_sweep(impairments::standard_sweep())),
            Mobility => Box::new(study.run_sweep(self.mobility.clone())),
            Whatif => Box::new(study.run_sweep(whatif::standard_whatif_sweep())),
            Loss => Box::new(study.run_sweep(loss_sweep())),
            Populations => Box::new(study.run_populations()),
        }
    }

    fn get<T: 'static>(&self, campaign: Campaign) -> &T {
        self.runs
            .iter()
            .find(|(c, _)| *c == campaign)
            .and_then(|(_, samples)| samples.downcast_ref())
            .expect("an artefact lists every campaign its view reads")
    }

    pub fn discovery(&self) -> &DiscoveryReport {
        self.get(Discovery)
    }

    /// The samples `campaign` produced.
    pub fn samples<T: 'static>(&self, campaign: Campaign) -> &[T] {
        self.get::<Vec<T>>(campaign)
    }
}

fn discovery_report(s: &Samples) -> Report {
    let d = s.discovery();
    let text = format!(
        "probed {} hosts -> {} QUIC -> {} DoQ -> {} verified DoX\n\
         (paper: 1,216 DoQ -> 313 verified)\n",
        d.probed_hosts, d.quic_hosts, d.doq_resolvers, d.verified_dox
    );
    Report::new("discovery (§2)").table(text, d)
}

fn single_query_report(s: &Samples) -> Report {
    let t = report::table1(s.samples(SingleQuery));
    let f = report::fig2(s.samples(SingleQuery));
    Report::new("single query (§3.1)")
        .table(report::render_table1(&t), &t)
        .table(report::render_fig2(&f), &f)
}

fn webperf_report(s: &Samples) -> Report {
    let diffs = report::relative_to_baseline(s.samples(Web), DnsTransport::DoUdp);
    let cells = report::fig4(s.samples(Web));
    Report::new("web performance (§3.2)")
        .table(report::render_fig3(&diffs, "FCP"), &diffs.fcp)
        .table(report::render_fig3(&diffs, "PLT"), &diffs.plt)
        .table(report::render_fig4(&cells), &cells)
}

/// A sweep's report: its rows rendered by `render` under `title`.
fn sweep_report(
    s: &Samples,
    sweep: Campaign,
    title: &str,
    render: fn(&[SweepRow]) -> String,
) -> Report {
    let rows = report::sweep_rows(s.samples(sweep));
    Report::new(title).table(render(&rows), &rows)
}

fn impairments_report(s: &Samples) -> Report {
    let title = "fault injection (impairment sweep)";
    sweep_report(s, Impairments, title, report::render_impairments)
}

fn mobility_report(s: &Samples) -> Report {
    let title = "mobility (rebind + failover sweep)";
    sweep_report(s, Mobility, title, report::render_mobility)
}

/// The what-if sweep, and its Web half: the plain Web campaign's DoH
/// units paired with their DoH3 twins.
fn whatif_report(s: &Samples) -> Report {
    let title = "what-if (counterfactual capability sweep)";
    let web = report::whatif_web_rows(s.samples(Web), s.samples(WebDoh3));
    sweep_report(s, Whatif, title, report::render_whatif)
        .table(report::render_whatif_web(&web), &web)
}

fn populations_report(s: &Samples) -> Report {
    let rows = report::population_rows(s.samples(Populations));
    Report::new("population scale (Zipf workloads, shared caches)")
        .table(report::render_populations(&rows), &rows)
}

/// A share as a percentage with `digits` decimals.
fn pct(share: f64, digits: usize) -> String {
    format!("{:.digits$}%", share * 100.0)
}

/// E0: the §2 discovery funnel and Fig. 1's geography.
fn fig1(s: &Samples) -> Report {
    let d = s.discovery();
    #[rustfmt::skip]
    let funnel = [
        ("QUIC hosts answering the version-0 probe", "(not reported)", d.quic_hosts),
        ("DoQ resolvers (ALPN verified)", "1216", d.doq_resolvers),
        ("  ... also supporting DoUDP", "548", d.doudp_support),
        ("  ... also supporting DoTCP", "706", d.dotcp_support),
        ("  ... also supporting DoT", "1149", d.dot_support),
        ("  ... also supporting DoH", "732", d.doh_support),
        ("Verified DoX resolvers (full intersection)", "313", d.verified_dox),
    ];
    let population = s.study.population();
    let continents = Continent::ALL.map(|c| {
        let paper = match c {
            Continent::Europe => "130",
            Continent::Asia => "128",
            Continent::NorthAmerica => "49",
            _ => "2",
        };
        let n = population.iter().filter(|p| p.continent == c).count();
        (format!("  {}", c.code()), paper, n.to_string())
    });
    let mut by_asn: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &population {
        *by_asn.entry(p.asn.as_str()).or_default() += 1;
    }
    let mut top: Vec<(&&str, &usize)> = by_asn.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    let top: Vec<String> = top
        .iter()
        .take(4)
        .map(|(asn, n)| format!("  {asn:<16}{n}"))
        .collect();
    let title = format!(
        "E0: discovery funnel (scan of {} candidate hosts)",
        d.probed_hosts
    );
    Report::new(title)
        .paper(funnel.map(|(label, paper, n)| (label, paper, n.to_string())))
        .heading("Fig. 1 — verified DoX resolvers per continent:")
        .paper(continents)
        .heading(format!(
            "Autonomous systems: {} distinct (paper: 107)",
            by_asn.len()
        ))
        .table(top.join("\n"), &by_asn)
}

/// E1: the §3 overview of protocol versions and features.
fn overview(s: &Samples) -> Report {
    let o = report::overview(s.samples(SingleQuery));
    let shares = |shares: &BTreeMap<String, f64>, rows: &[(&str, &'static str)]| -> Vec<_> {
        let share = |name: &str| pct(shares.get(name).copied().unwrap_or(0.0), 1);
        rows.iter()
            .map(|&(name, paper)| (format!("  {name}"), paper, share(name)))
            .collect()
    };
    let versions = [
        ("v1", "89.1%"),
        ("draft-34", "8.5%"),
        ("draft-32", "1.8%"),
        ("draft-29", "0.6%"),
    ];
    let alpns = [
        ("doq-i02", "87.4%"),
        ("doq-i03", "10.8%"),
        ("doq-i00", "1.8%"),
    ];
    let disabled = || "0.0% (disabled in population)".to_string();
    #[rustfmt::skip]
    let features = [
        ("  TLS 1.3 share (encrypted transports)", "~99%", pct(o.tls13_share, 1)),
        ("  Session Resumption on measured queries", "100%", pct(o.resumption_share, 1)),
        ("  0-RTT accepted", "0% (no resolver)", pct(o.zero_rtt_share, 1)),
        ("  TCP Fast Open support", "0% (no resolver)", disabled()),
        ("  edns-tcp-keepalive support", "0% (no resolver)", disabled()),
    ];
    Report::new("E1: §3 overview")
        .heading("QUIC versions (share of DoQ measurements):")
        .paper(shares(&o.quic_version_shares, &versions))
        .heading("DoQ ALPN identifiers:")
        .paper(shares(&o.doq_alpn_shares, &alpns))
        .heading("TLS and features:")
        .paper(features)
}

/// The paper's Table 1: median IP payload bytes (total, handshake C->R,
/// handshake R->C, query, response).
#[rustfmt::skip]
const PAPER_TABLE1: [(&str, [f64; 5]); 5] = [
    ("DoUDP", [122.0, 0.0, 0.0, 59.0, 63.0]),
    ("DoTCP", [382.0, 72.0, 40.0, 149.0, 121.0]),
    ("DoQ", [4444.0, 2564.0, 1304.0, 190.0, 386.0]),
    ("DoH", [2163.0, 569.0, 211.0, 579.0, 804.0]),
    ("DoT", [1522.0, 551.0, 211.0, 261.0, 499.0]),
];

/// E2: Table 1, measured and as the paper reports it.
fn table1(s: &Samples) -> Report {
    let t = report::table1(s.samples(SingleQuery));
    let mut paper = vec![format!(
        "{:<28}{}",
        "",
        PAPER_TABLE1.map(|(name, _)| format!("{name:>8}")).concat()
    )];
    let labels = [
        "Total",
        "Handshake C->R",
        "Handshake R->C",
        "DNS Query",
        "DNS Response",
    ];
    for (i, label) in labels.iter().enumerate() {
        let cells = PAPER_TABLE1.map(|(_, sizes)| match sizes[i] {
            0.0 => format!("{:>8}", "-"),
            v => format!("{v:>8.0}"),
        });
        paper.push(format!("{label:<28}{}", cells.concat()));
    }
    let total = |name: &str| t.sizes[name][0];
    let handshake = |name: &str| t.sizes[name][1] + t.sizes[name][2];
    let ordered = ["DoUDP", "DoTCP", "DoT", "DoH", "DoQ"]
        .windows(2)
        .all(|w| total(w[0]) < total(w[1]));
    let paper_sizes: BTreeMap<&str, [f64; 5]> = PAPER_TABLE1.into_iter().collect();
    Report::new("E2: Table 1 (median single-query sizes, bytes of IP payload)")
        .heading(format!("--- measured ({} scale) ---", s.scale_name))
        .table(report::render_table1(&t), &t)
        .line("--- paper (Table 1) ---")
        .table(paper.join("\n"), &paper_sizes)
        .heading("Shape checks (orderings the evaluation relies on):")
        .check("total: DoUDP < DoTCP < DoT < DoH < DoQ", ordered)
        .check(
            "DoQ handshake > 2x DoH handshake",
            handshake("DoQ") > 2.0 * handshake("DoH"),
        )
}

/// E3: Fig. 2a, handshake times. Absolute values depend on the latency
/// model; the ratios must hold (2 RTT against 1 RTT at a ~185 ms median
/// RTT).
fn fig2a(s: &Samples) -> Report {
    let f = report::fig2(s.samples(SingleQuery));
    let total = &f.handshake_ms["Total"];
    let ratio = |a: &str, b: &str| format!("{:.2}", total[a] / total[b]);
    #[rustfmt::skip]
    let ratios = [
        ("  DoT / DoQ handshake ratio", "~2.0", ratio("DoT", "DoQ")),
        ("  DoH / DoTCP handshake ratio", "~2.05", ratio("DoH", "DoTCP")),
        ("  DoQ / DoTCP handshake ratio", "~1.02", ratio("DoQ", "DoTCP")),
    ];
    Report::new("E3: Fig. 2a — handshake time")
        .table(report::render_fig2(&f), &f)
        .line("Shape checks (paper: DoT/DoQ ~ 2.0, DoH/DoTCP ~ 2.05, DoQ/DoTCP ~ 1.02):")
        .paper(ratios)
}

/// E4: Fig. 2b, resolve times: similar across protocols (cached
/// answers), tracking vantage-point-to-resolver distance.
fn fig2b(s: &Samples) -> Report {
    let f = report::fig2(s.samples(SingleQuery));
    let row = |row: &str| -> Vec<f64> { f.resolve_ms[row].values().copied().collect() };
    let row_median = |name: &str| median(&row(name)).unwrap_or(f64::NAN);
    let total = row("Total");
    let max = total.iter().copied().fold(f64::MIN, f64::max);
    let min = total.iter().copied().fold(f64::MAX, f64::min);
    let (eu, af, oc, sa) = (
        row_median("EU"),
        row_median("AF"),
        row_median("OC"),
        row_median("SA"),
    );
    Report::new("E4: Fig. 2b — resolve time")
        .table(report::render_fig2(&f), &f)
        .line("Shape checks:")
        .line(format!(
            "  protocols within a row stay close (max/min of Total row): {:.2} (expect < 1.5)",
            max / min
        ))
        .line(format!(
            "  EU fastest row: EU {eu:.1} ms vs AF {af:.1} / OC {oc:.1} / SA {sa:.1} ms"
        ))
}

/// E5/E6: Fig. 3, the CDFs of relative FCP and PLT against DoUDP.
fn fig3(s: &Samples) -> Report {
    let diffs = report::relative_to_baseline(s.samples(Web), DnsTransport::DoUdp);
    let at = |table: &BTreeMap<String, Vec<f64>>, proto: &str, x: f64| {
        table
            .get(proto)
            .map_or(f64::NAN, |v| Cdf::new(v).fraction_at_or_below(x))
    };
    let (fcp, plt) = (&diffs.fcp, &diffs.plt);
    #[rustfmt::skip]
    let anchors = [
        ("  FCP: fraction of DoQ loads delayed <= 10%", "~40%", pct(at(fcp, "DoQ", 10.0), 0)),
        ("  FCP: DoT delayed > 20% at that same fraction", ">20% delay",
            format!("DoT <=20% frac: {}", pct(at(fcp, "DoT", 20.0), 0))),
        ("  PLT: fraction of DoQ loads with > 15% increase", "<15%", pct(1.0 - at(plt, "DoQ", 15.0), 0)),
        ("  PLT: fraction of DoH loads with > 15% increase", ">40%", pct(1.0 - at(plt, "DoH", 15.0), 0)),
        ("  faster-than-DoUDP share (long tail, any encrypted)", "~10%",
            format!("DoQ: {}", pct(at(plt, "DoQ", 0.0), 0))),
    ];
    Report::new("E5/E6: Fig. 3 — relative differences vs DoUDP")
        .table(report::render_fig3(&diffs, "FCP"), fcp)
        .table(report::render_fig3(&diffs, "PLT"), plt)
        .heading("Paper anchor points:")
        .paper(anchors)
}

/// E7: Fig. 4, PLT against DoQ per vantage point and page. Simple pages
/// profit most from DoQ's 1-RTT set-up; complex pages amortize the
/// encryption cost.
fn fig4(s: &Samples) -> Report {
    let cells = report::fig4(s.samples(Web));
    let page_median = |page: &str, f: fn(&Fig4Cell) -> f64| {
        let v: Vec<f64> = cells.iter().filter(|c| c.page == page).map(f).collect();
        median(&v).unwrap_or(f64::NAN)
    };
    let doh_slower = |page: &str| format!("{:.1}%", page_median(page, |c| c.doh_rel_median_pct));
    let udp_faster = |page: &str| format!("{:.1}%", -page_median(page, |c| c.doudp_rel_median_pct));
    let wins: Vec<f64> = cells.iter().map(|c| c.doq_faster_than_doh).collect();
    let wins = format!("{} of pairs", pct(median(&wins).unwrap_or(f64::NAN), 0));
    #[rustfmt::skip]
    let anchors = [
        ("  wikipedia.org: DoH slower than DoQ by", "up to ~10%", doh_slower("wikipedia.org")),
        ("  wikipedia.org: DoUDP faster than DoQ by", "up to ~10%", udp_faster("wikipedia.org")),
        ("  youtube.com: DoUDP faster than DoQ by", "~2%", udp_faster("youtube.com")),
        ("  microsoft.com: DoUDP faster than DoQ by", "~2%", udp_faster("microsoft.com")),
        ("  DoQ faster than DoH (median cell)", "mostly improves", wins),
    ];
    Report::new("E7: Fig. 4 — PLT vs DoQ per vantage point and page")
        .table(report::render_fig4(&cells), &cells)
        .line("Paper anchor points (medians across vantage points):")
        .paper(anchors)
}

/// E8: the abstract's and §5's headline claims.
fn headline(s: &Samples) -> Report {
    let h = report::headline(s.samples(SingleQuery), s.samples(Web));
    #[rustfmt::skip]
    let claims = [
        ("Single query: DoQ improves on DoT by", "~33%", h.doq_vs_dot_single_query_pct),
        ("Single query: DoQ improves on DoH by", "~33%", h.doq_vs_doh_single_query_pct),
        ("Single query: DoQ falls short of DoUDP by", "~50%", h.doq_vs_doudp_single_query_pct),
        ("Single query: DoT/DoH fall short of DoUDP by", "~66%", h.dot_vs_doudp_single_query_pct),
        ("Simple page: DoQ faster than DoH by", "up to ~10%", h.doq_vs_doh_simple_page_pct),
        ("Simple page: DoQ slower than DoUDP by", "up to ~10%", h.doq_vs_doudp_simple_page_pct),
        ("Complex page: DoQ slower than DoUDP by", "~2%", h.doq_vs_doudp_complex_page_pct),
    ];
    let claims = claims.map(|(label, paper, v)| (label, paper, format!("{v:.1}%")));
    Report::new("E8: headline claims").line("").paper(claims)
}

/// A1: Session Resumption off. The authors' preliminary study (PAM
/// 2022) found ~40% of DoQ handshakes one RTT slower because the full
/// certificate flight exceeded QUIC's 3x anti-amplification budget;
/// with resumption the certificate is skipped and the stall disappears.
/// Reads the what-if sweep's `baseline` (resumption off) and
/// `resumption` regimes, whose units share seeds, paired by grid
/// position.
fn a1(s: &Samples) -> Report {
    let doq_handshakes = |regime: &str| -> Vec<Option<f64>> {
        let doq = s
            .samples::<SweepSample>(Whatif)
            .iter()
            .filter(|u| u.sample.transport == DnsTransport::DoQ);
        doq.filter(|u| u.regime_name == regime)
            .map(|u| u.sample.handshake_ms)
            .collect()
    };
    let (without, with) = (doq_handshakes("baseline"), doq_handshakes("resumption"));
    let ms = |v: Option<f64>| format!("{:.1}", v.unwrap_or(f64::NAN));
    let flat = |v: &[Option<f64>]| -> Vec<f64> { v.iter().flatten().copied().collect() };
    // A stalled handshake takes ~2 RTT instead of 1: count the units at
    // least 1.7x slower than their twin with resumption.
    let pairs: Vec<(f64, f64)> = without
        .iter()
        .zip(&with)
        .filter_map(|(a, b)| Some(((*a)?, (*b)?)))
        .collect();
    let stalled = pairs.iter().filter(|(x, y)| *x >= 1.7 * y).count();
    let share = pct(stalled as f64 / pairs.len().max(1) as f64, 0);
    #[rustfmt::skip]
    let rows = [
        ("DoQ handshake median, WITH resumption (ms)", "1 RTT", ms(median(&flat(&with)))),
        ("DoQ handshake median, WITHOUT resumption (ms)", "1-2 RTT", ms(median(&flat(&without)))),
        ("DoQ handshake p90, WITHOUT resumption (ms)", "2 RTT tail", ms(percentile(&flat(&without), 90.0))),
        ("Fraction of DoQ handshakes stalled by the limit", "~40% (PAM'22)",
            format!("{share} ({stalled}/{})", pairs.len())),
    ];
    Report::new("A1: amplification-limit ablation (Session Resumption off)")
        .line("")
        .paper(rows)
}

/// What the Web ablations (A2, A4) read off one transport's successful
/// Web samples: the median page-load time and proxy connections per
/// load, and the share of multi-query page loads that opened more than
/// one proxy connection (NaN medians when there are none).
fn load_stats(samples: &[WebperfSample], transport: DnsTransport) -> (f64, f64, f64) {
    let ok: Vec<&WebperfSample> = samples
        .iter()
        .filter(|s| s.transport == transport && !s.failed)
        .collect();
    let median_of = |f: fn(&WebperfSample) -> f64| {
        median(&ok.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let multi: Vec<_> = ok.iter().filter(|s| s.page_dns_queries > 1).collect();
    let reconnected = multi.iter().filter(|s| s.proxy_connections > 1).count();
    (
        median_of(|s| s.plt_ms),
        median_of(|s| s.proxy_connections as f64),
        reconnected as f64 / multi.len().max(1) as f64,
    )
}

/// A2: the dnsproxy DoT reconnect bug on and off. §3.2: with a DoT
/// query in flight, the unpatched proxy opened a new connection for the
/// next query, a full TCP+TLS handshake in ~60% of page loads, which
/// made DoT look worse than DoH. The paper upstreamed a fix.
fn a2(s: &Samples) -> Report {
    let (on_plt, on_conns, on_share) = load_stats(s.samples(Web), DnsTransport::DoT);
    let (off_plt, off_conns, off_share) = load_stats(s.samples(WebDotFixed), DnsTransport::DoT);
    #[rustfmt::skip]
    let rows = [
        ("Multi-query page loads with extra DoT connections (bug ON)", "~60%", pct(on_share, 0)),
        ("... with the upstreamed fix (bug OFF)", "0%", pct(off_share, 0)),
        ("Median DoT connections per load (bug ON)", ">1", format!("{on_conns:.1}")),
        ("Median DoT connections per load (bug OFF)", "1", format!("{off_conns:.1}")),
        ("Median DoT PLT, bug ON (ms)", "worse than DoH", format!("{on_plt:.1}")),
        ("Median DoT PLT, bug OFF (ms)", "~DoH", format!("{off_plt:.1}")),
    ];
    Report::new("A2: dnsproxy DoT reconnect-bug ablation")
        .line("")
        .paper(rows)
}

/// A4: RFC 9210-compliant DoTCP. §3.2 observes that no resolver
/// supports edns-tcp-keepalive or TFO and no connection is re-used, so
/// every DoTCP query pays the full 2 RTT; this re-runs the Web campaign
/// with both switched on, on the same unit seeds.
fn a4(s: &Samples) -> Report {
    let (plt, conns, _) = load_stats(s.samples(Web), DnsTransport::DoTcp);
    let (rfc_plt, rfc_conns, _) = load_stats(s.samples(WebRfc9210), DnsTransport::DoTcp);
    #[rustfmt::skip]
    let rows = [
        ("Median DoTCP connections per load (observed behaviour)", "= #queries", format!("{conns:.1}")),
        ("Median DoTCP connections per load (RFC 9210)", "1", format!("{rfc_conns:.1}")),
        ("Median DoTCP PLT, observed behaviour (ms)", "2 RTT per query", format!("{plt:.1}")),
        ("Median DoTCP PLT, RFC 9210 behaviour (ms)", "-> DoUDP-like", format!("{rfc_plt:.1}")),
    ];
    Report::new("A4: RFC 9210 DoTCP ablation (keepalive + TFO + reuse)")
        .line("")
        .paper(rows)
}

/// S1's path-loss rates.
const LOSS_RATES: [f64; 5] = [0.0, 0.002, 0.01, 0.03, 0.06];

/// S1's sweep: one regime per rate `p` of 0, 0.2, 1, 3 and 6%, losing each
/// measured-phase packet with probability `p` (a Gilbert–Elliott chain
/// that loses `p` in both states) besides the path model's own loss.
/// The regimes share the single-query unit seeds.
pub fn loss_sweep() -> Vec<Regime> {
    let lossy = |p| ImpairmentSchedule::new().with_burst(GilbertElliott::new(0.0, 0.0, p, p));
    LOSS_RATES
        .iter()
        .map(|&p| Regime {
            name: format!("loss {p}"),
            options: UnitOptions {
                impairment: lossy(p),
                ..UnitOptions::default()
            },
            ..Regime::baseline()
        })
        .collect()
}

/// One row of S1: first packet to answer, DoUDP against DoQ, at one
/// loss rate added to the path's own.
#[derive(Debug, Serialize)]
struct LossRow {
    added_loss_pct: f64,
    udp_p50_ms: f64,
    udp_p99_ms: f64,
    udp_over_2s_pct: f64,
    doq_p50_ms: f64,
    doq_p99_ms: f64,
    doq_over_2s_pct: f64,
}

/// S1: packet loss against the DoUDP long tail. §3.2 attributes the
/// page loads where encrypted DNS beats DoUDP to Chromium's 5-second
/// application-layer retransmit: one lost DoUDP query costs 5 s, while
/// TCP and QUIC recover in ~1 s.
fn s1(s: &Samples) -> Report {
    let row = |regime: usize, loss: f64| {
        let totals = |t: DnsTransport| -> Vec<f64> {
            let units = s
                .samples::<SweepSample>(Loss)
                .iter()
                .filter(|u| u.regime == regime && u.sample.transport == t);
            units
                .filter_map(|u| Some(u.sample.handshake_ms.unwrap_or(0.0) + u.sample.resolve_ms?))
                .collect()
        };
        let (udp, doq) = (totals(DnsTransport::DoUdp), totals(DnsTransport::DoQ));
        let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let p99 = |v: &[f64]| percentile(v, 99.0).unwrap_or(f64::NAN);
        let slow = |v: &[f64]| {
            100.0 * v.iter().filter(|x| **x > 2000.0).count() as f64 / v.len().max(1) as f64
        };
        LossRow {
            added_loss_pct: loss * 100.0,
            udp_p50_ms: p50(&udp),
            udp_p99_ms: p99(&udp),
            udp_over_2s_pct: slow(&udp),
            doq_p50_ms: p50(&doq),
            doq_p99_ms: p99(&doq),
            doq_over_2s_pct: slow(&doq),
        }
    };
    let rows: Vec<LossRow> = LOSS_RATES
        .iter()
        .enumerate()
        .map(|(i, &loss)| row(i, loss))
        .collect();
    let mut text = [
        "+loss", "UDP p50", "UDP p99", "UDP>2s", "DoQ p50", "DoQ p99", "DoQ>2s",
    ]
    .iter()
    .zip([7, 12, 12, 10, 12, 12, 10])
    .map(|(name, width)| format!("{name:>width$}"))
    .collect::<String>();
    for r in &rows {
        text.push_str(&format!(
            "\n{:>6.1}%{:>10.0}ms{:>10.0}ms{:>9.1}%{:>10.0}ms{:>10.0}ms{:>9.1}%",
            r.added_loss_pct,
            r.udp_p50_ms,
            r.udp_p99_ms,
            r.udp_over_2s_pct,
            r.doq_p50_ms,
            r.doq_p99_ms,
            r.doq_over_2s_pct,
        ));
    }
    Report::new("S1: loss sweep — DoUDP 5s retry vs transport-layer recovery")
        .line("")
        .table(text, &rows)
        .heading(
            "Reading guide: +loss adds to each path's own 0.2% loss, on the measured phase.\n\
             At the median DoUDP always wins (1 RTT vs 2). In the tail, rising loss flips\n\
             the comparison: a lost DoUDP packet costs the full 5 s application retry, a\n\
             lost QUIC packet a ~1 s PTO — the paper's explanation for the ~10% of page\n\
             loads where encrypted DNS beat DoUDP.",
        )
}
