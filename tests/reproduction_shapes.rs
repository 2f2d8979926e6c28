//! Workspace-level integration tests: run reduced campaigns end to end
//! and assert the paper's qualitative results — the orderings,
//! crossovers and rough factors the reproduction must preserve.

use doqlab_core::dox::DnsTransport;
use doqlab_core::measure::report::{fig4, overview, relative_to_baseline, table1};
use doqlab_core::measure::{median, Regime, Scale};
use doqlab_core::Study;

fn small_study(seed: u64) -> Study {
    Study {
        scale: Scale {
            resolvers: Some(6),
            repetitions: 1,
            rounds: 1,
            loads_per_round: 1,
            pages: Some(10),
            clients: Some(2_000),
            threads: 4,
        },
        ..Study::quick(seed)
    }
}

#[test]
fn single_query_shapes_hold() {
    let study = Study {
        scale: Scale {
            resolvers: Some(8),
            pages: Some(1),
            ..small_study(5).scale
        },
        ..small_study(5)
    };
    let samples = study.run_single_query();
    assert_eq!(samples.len(), 6 * 8 * 5);
    let ok = samples.iter().filter(|s| !s.failed).count();
    assert!(
        ok * 100 >= samples.len() * 95,
        "too many failures: {ok}/{}",
        samples.len()
    );

    // Fig. 2a: DoT ~= DoH ~= 2x DoQ ~= 2x DoTCP handshakes.
    let hs = |t: DnsTransport| {
        median(
            &samples
                .iter()
                .filter(|s| s.transport == t)
                .filter_map(|s| s.handshake_ms)
                .collect::<Vec<_>>(),
        )
        .unwrap()
    };
    assert!(hs(DnsTransport::DoT) / hs(DnsTransport::DoQ) > 1.7);
    assert!(hs(DnsTransport::DoH) / hs(DnsTransport::DoQ) > 1.7);
    assert!((hs(DnsTransport::DoQ) / hs(DnsTransport::DoTcp) - 1.0).abs() < 0.15);

    // Table 1 ordering.
    let t1 = table1(&samples);
    let total = |n: &str| t1.sizes[n][0];
    assert!(total("DoUDP") < total("DoTCP"));
    assert!(total("DoTCP") < total("DoT"));
    assert!(total("DoT") < total("DoH"));
    assert!(total("DoH") < total("DoQ"));
    // DoQ's handshake roughly doubles DoH's (1200-byte padded flights).
    let hs_bytes = |n: &str| t1.sizes[n][1] + t1.sizes[n][2];
    assert!(hs_bytes("DoQ") > 2.0 * hs_bytes("DoH"));

    // §3 overview: every measured encrypted query resumes; none 0-RTT.
    let o = overview(&samples);
    assert!(o.resumption_share > 0.99);
    assert_eq!(o.zero_rtt_share, 0.0);
    assert!(o.tls13_share > 0.9);
}

#[test]
fn web_performance_shapes_hold() {
    let study = small_study(7);
    let samples = study.run_webperf();
    let ok = samples.iter().filter(|s| !s.failed).count();
    assert!(
        ok * 100 >= samples.len() * 90,
        "too many failures: {ok}/{}",
        samples.len()
    );

    // Fig. 3: relative PLT vs DoUDP — DoQ best among encrypted, DoT
    // worst (the dnsproxy bug).
    let diffs = relative_to_baseline(&samples, DnsTransport::DoUdp);
    let med = |p: &str| median(&diffs.plt[p]).unwrap();
    assert!(
        med("DoQ") < med("DoH"),
        "DoQ {} vs DoH {}",
        med("DoQ"),
        med("DoH")
    );
    assert!(
        med("DoH") <= med("DoT") + 1.0,
        "DoH {} vs DoT {}",
        med("DoH"),
        med("DoT")
    );
    assert!(med("DoQ") > 0.0, "encryption costs something");
    assert!(
        med("DoQ") < 20.0,
        "DoQ within ~20% of DoUDP, was {}",
        med("DoQ")
    );

    // Fig. 4: amortization — the DoUDP advantage shrinks from the
    // simplest to the most complex page.
    let cells = fig4(&samples);
    let page_med = |name: &str| {
        median(
            &cells
                .iter()
                .filter(|c| c.page == name)
                .map(|c| -c.doudp_rel_median_pct)
                .collect::<Vec<_>>(),
        )
        .unwrap()
    };
    let simple = page_med("wikipedia.org");
    let complex = page_med("youtube.com");
    assert!(
        simple > complex,
        "encryption cost must amortize: wikipedia {simple:.1}% vs youtube {complex:.1}%"
    );
    // DoQ mostly improves on DoH.
    let wins = median(
        &cells
            .iter()
            .map(|c| c.doq_faster_than_doh)
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert!(wins > 0.6, "DoQ should beat DoH in most pairs, won {wins}");
}

#[test]
fn campaigns_are_deterministic() {
    let a = small_study(11).run_single_query();
    let b = small_study(11).run_single_query();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.handshake_ms, y.handshake_ms);
        assert_eq!(x.resolve_ms, y.resolve_ms);
        assert_eq!(x.bytes, y.bytes);
    }
    let c = small_study(12).run_single_query();
    let diff = a
        .iter()
        .zip(&c)
        .filter(|(x, y)| x.resolve_ms != y.resolve_ms)
        .count();
    assert!(diff > 0, "different seeds must differ");
}

#[test]
fn zero_rtt_study_closes_the_gap_to_doudp() {
    let base = Study {
        scale: Scale {
            resolvers: Some(6),
            pages: Some(1),
            ..small_study(3).scale
        },
        ..small_study(3)
    };
    let total = |samples: &[doqlab_core::measure::SingleQuerySample], t: DnsTransport| {
        median(
            &samples
                .iter()
                .filter(|s| s.transport == t && !s.failed)
                .filter_map(|s| Some(s.handshake_ms.unwrap_or(0.0) + s.resolve_ms?))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    };
    let s_base = base.run_single_query();
    let mut zero_rtt = Regime::baseline();
    zero_rtt.options.caps.zero_rtt = true;
    let s_up: Vec<_> = base
        .run_sweep(vec![zero_rtt])
        .into_iter()
        .map(|s| s.sample)
        .collect();
    let udp = total(&s_base, DnsTransport::DoUdp);
    let doq_now = total(&s_base, DnsTransport::DoQ);
    let doq_0rtt = total(&s_up, DnsTransport::DoQ);
    assert!(doq_now > udp * 1.7, "today DoQ ~2 RTT: {doq_now} vs {udp}");
    assert!(
        doq_0rtt < udp * 1.25,
        "0-RTT brings DoQ to ~DoUDP: {doq_0rtt} vs {udp}"
    );
}
