//! Every carrier's traffic, pinned packet by packet.
//!
//! Each unit below runs on a traced simulator arena, and its packet
//! trace is reduced to a record count and an FNV-1a over every
//! [`PacketRecord`]: send time in ns, both endpoints, transport, IP
//! payload length, first payload byte and whether the packet was
//! dropped. Together the units cover UDP, TCP, TLS over TCP (DoT, DoH
//! and the browser's HTTPS connections) and QUIC (DoQ and DoH3), on
//! clean paths, under loss, reordering, duplication and outages, across
//! an address rebind with a failover race, and on pooled connections
//! that are evicted, redialed and reaped by the server. A change to the
//! order of any endpoint's reads, writes or flushes moves a pin.

use doqlab_dox::{Capabilities, DnsTransport, FailureKind};
use doqlab_measure::populations::{cohort_resolver, run_population_unit, POPULATION_TRANSPORTS};
use doqlab_measure::single_query::{run_unit_custom, run_unit_in, UnitOptions};
use doqlab_measure::sweep::run_sweep_unit;
use doqlab_measure::webperf::run_webperf_unit;
use doqlab_measure::{
    impairments, mobility, vantage_points, PopulationsCampaign, Regime, Scale, SingleQueryCampaign,
    Sweep, WebperfCampaign,
};
use doqlab_resolver::synthesize_dox_population;
use doqlab_simnet::{Duration, PacketRecord, Simulator, Transport};
use doqlab_webperf::tranco_top10;

/// A traced arena for one unit.
fn traced() -> Simulator {
    let mut sim = Simulator::arena();
    sim.enable_trace();
    sim
}

/// Record count and FNV-1a of the unit's trace.
fn pin(sim: &Simulator) -> (usize, u64) {
    let records = sim.trace().expect("tracing enabled").records();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        let PacketRecord {
            sent_at,
            src,
            dst,
            transport,
            ip_payload_len,
            first_byte,
            dropped,
        } = *r;
        feed(&sent_at.as_nanos().to_le_bytes());
        for addr in [src, dst] {
            feed(&addr.ip.0.to_le_bytes());
            feed(&addr.port.to_le_bytes());
        }
        feed(&[match transport {
            Transport::Udp => 0,
            Transport::Tcp => 1,
        }]);
        feed(&(ip_payload_len as u64).to_le_bytes());
        match first_byte {
            Some(b) => feed(&[1, b]),
            None => feed(&[0]),
        }
        feed(&[dropped as u8]);
    }
    (records.len(), h)
}

/// Compare every unit's pin with the table, listing the whole observed
/// table on a mismatch so a deliberate traffic change can be re-pinned
/// in one step.
fn check(observed: &[(String, usize, u64)], expected: &[(&str, usize, u64)]) {
    let matches = observed.len() == expected.len()
        && observed
            .iter()
            .zip(expected)
            .all(|((n, c, h), (en, ec, eh))| n == en && c == ec && h == eh);
    if !matches {
        let table: String = observed
            .iter()
            .map(|(n, c, h)| format!("    (\"{n}\", {c}, {h:#018x}),\n"))
            .collect();
        panic!("carrier traffic moved; observed pins:\n{table}");
    }
}

fn quick() -> Scale {
    Scale {
        threads: 1,
        ..Scale::quick()
    }
}

#[test]
fn single_query_units_are_pinned() {
    let pop = synthesize_dox_population(1);
    let vps = vantage_points();
    let campaign = SingleQueryCampaign::new(quick());
    let mut observed = Vec::new();
    for t in DnsTransport::ALL {
        let mut sim = traced();
        let sample = run_unit_in(&mut sim, &campaign, &vps[0], &pop[0], t, 0);
        assert!(sample.resolve_ms.is_some(), "{t} resolves");
        let (n, h) = pin(&sim);
        observed.push((t.name().to_string(), n, h));
    }
    let doh3 = UnitOptions {
        caps: Capabilities {
            doh3: true,
            ..Capabilities::default()
        },
        ..UnitOptions::default()
    };
    let mut sim = traced();
    let out = run_unit_custom(
        &mut sim,
        &campaign,
        &vps[0],
        &pop[0],
        DnsTransport::DoH,
        0,
        &doh3,
    );
    assert!(out.sample.resolve_ms.is_some(), "DoH3 resolves");
    let (n, h) = pin(&sim);
    observed.push(("DoH3".to_string(), n, h));
    check(
        &observed,
        &[
            ("DoUDP", 4, 0x63160b8abc0e38ea),
            ("DoTCP", 18, 0x5c04c7b4aaa01802),
            ("DoQ", 26, 0xd6308c59e9dfd4e6),
            ("DoH", 26, 0xb06a250ad88255f2),
            ("DoT", 22, 0x949f66acc7c4054f),
            ("DoH3", 26, 0xc396fe16e4a1006c),
        ],
    );
}

fn regime(regimes: &[Regime], name: &str) -> usize {
    regimes
        .iter()
        .position(|r| r.name == name)
        .unwrap_or_else(|| panic!("no regime {name}"))
}

#[test]
fn impaired_and_mobile_units_are_pinned() {
    let pop = synthesize_dox_population(1);
    let mut observed = Vec::new();

    let chaos = Sweep {
        regimes: impairments::standard_sweep(),
        ..Sweep::new(quick())
    };
    let idx = regime(&chaos.regimes, "chaos");
    // From the second vantage point every connection-oriented transport
    // loses packets and retransmits; the DoQ unit from the first runs
    // into its deadline.
    for (vp, t, rep) in
        DnsTransport::ALL
            .map(|t| (1, t, 0))
            .into_iter()
            .chain([(0, DnsTransport::DoQ, 4)])
    {
        let mut sim = traced();
        let sample = run_sweep_unit(&mut sim, &chaos, vp, &pop[0], idx, t, rep);
        let (n, h) = pin(&sim);
        let dropped = sim.trace().unwrap().records().iter().any(|r| r.dropped);
        assert!(dropped || t == DnsTransport::DoUdp, "{t} loses packets");
        if vp == 0 {
            assert_eq!(sample.failure, Some(FailureKind::DeadlineExceeded));
        }
        observed.push((format!("chaos vp{vp} {t} rep{rep}"), n, h));
    }

    let mobile = Sweep {
        regimes: mobility::standard_mobility_sweep(
            mobility::DEFAULT_REBIND_AT,
            mobility::DEFAULT_STAGGER,
        ),
        ..Sweep::new(quick())
    };
    let idx = regime(&mobile.regimes, "rebind-failover");
    // DoQ migrates onto the new address; from these vantage points it
    // is still unanswered when the DoT rung is dialed, and the race is
    // won by DoUDP (second) or by the migrated DoQ connection (third).
    for (vp, winner) in [(1, DnsTransport::DoUdp), (2, DnsTransport::DoQ)] {
        let mut sim = traced();
        let sample = run_sweep_unit(&mut sim, &mobile, vp, &pop[0], idx, DnsTransport::DoQ, 0);
        assert_eq!(sample.rebinds_applied, 1, "the rebind lands");
        assert_eq!(sample.winner, Some(winner));
        assert!(sample.wasted_bytes > 0, "a losing rung spent bytes");
        let (n, h) = pin(&sim);
        observed.push((format!("rebind-failover vp{vp} DoQ"), n, h));
    }

    check(
        &observed,
        &[
            ("chaos vp1 DoUDP rep0", 4, 0xedea64c96a958cd4),
            ("chaos vp1 DoTCP rep0", 21, 0xcdbc9aca9ffe766f),
            ("chaos vp1 DoQ rep0", 35, 0xbd51840ac14a5235),
            ("chaos vp1 DoH rep0", 30, 0x34860c90de55b16c),
            ("chaos vp1 DoT rep0", 25, 0x9ebc97272bf85a20),
            ("chaos vp0 DoQ rep4", 134, 0xe65f5453b8eae63d),
            ("rebind-failover vp1 DoQ", 53, 0xaa4c2b77f54c259b),
            ("rebind-failover vp2 DoQ", 52, 0xfd09a976eb758d84),
        ],
    );
}

#[test]
fn page_loads_are_pinned() {
    let pop = synthesize_dox_population(1);
    let pages = tranco_top10();
    let pi = pages
        .iter()
        .position(|p| p.name == "twitter.com")
        .expect("twitter.com is a Tranco page");
    let campaign = WebperfCampaign::new(quick());
    assert!(campaign.dot_bug, "the campaign runs with the DoT bug on");
    let mut observed = Vec::new();
    for t in DnsTransport::ALL {
        let mut sim = traced();
        let sample = run_webperf_unit(&mut sim, &campaign, 0, &pop[0], pi, &pages[pi], t, 0);
        assert!(!sample.failed, "{t} loads the page");
        let (n, h) = pin(&sim);
        observed.push((format!("webperf {t}"), n, h));
    }
    check(
        &observed,
        &[
            ("webperf DoUDP", 812, 0x36a1738a69380b14),
            ("webperf DoTCP", 869, 0x092b748e77519b8f),
            ("webperf DoQ", 1027, 0x5224d393475ddbad),
            ("webperf DoH", 853, 0x181d5331325dfb7d),
            ("webperf DoT", 852, 0xb966ae52d690604e),
        ],
    );
}

#[test]
fn population_cohorts_are_pinned() {
    let pop = synthesize_dox_population(1);
    let vps = vantage_points();
    // Four clients per cohort, twenty queries each over ten minutes:
    // queries arrive about 7.5 s apart against a 10 s pool idle
    // timeout, so connections are both reused and evicted, redialed
    // and reaped by the resolver.
    let campaign = PopulationsCampaign {
        clients: 64,
        queries_per_client: 20.0,
        window: Duration::from_secs(600),
        ..PopulationsCampaign::new(quick())
    };
    let profile = cohort_resolver(&vps[0], &pop);
    let mut observed = Vec::new();
    for t in POPULATION_TRANSPORTS {
        let mut sim = traced();
        let sample = run_population_unit(&mut sim, &campaign, &vps[0], profile, 1, t, 0);
        if t != DnsTransport::DoUdp {
            assert!(sample.pool_reuses > 0, "{t} reuses pooled connections");
            assert!(sample.pool_evictions > 1, "{t} evicts and redials");
        }
        let (n, h) = pin(&sim);
        observed.push((format!("population {t}"), n, h));
    }
    check(
        &observed,
        &[
            ("population DoUDP", 143, 0x8045bdf04072832b),
            ("population DoT", 436, 0x82dac07f8c2691fe),
            ("population DoH", 520, 0x9277e2160b142147),
            ("population DoQ", 492, 0x8df8f45d70552d60),
        ],
    );
}
