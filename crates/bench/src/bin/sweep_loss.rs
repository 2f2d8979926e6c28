//! S1 — parameter sweep: packet loss vs. the DoUDP long tail.
//!
//! §3.2 attributes the cases where encrypted DNS *beats* DoUDP to
//! Chromium's 5-second application-layer retransmit: one lost DoUDP
//! query costs 5 s, while TCP and QUIC recover in ~1 s (and usually
//! faster once an RTT estimate exists). This sweep raises the path
//! loss rate and watches DoUDP's tail blow past DoQ's.

use doqlab_bench::parse_options;
use doqlab_core::dox::DnsTransport;
use doqlab_core::measure::single_query::{run_unit, SingleQueryCampaign};
use doqlab_core::measure::{median, percentile, vantage_points, Scale};

fn main() {
    let opts = parse_options();
    let population = opts.study.population();
    let vps = vantage_points();
    let scale = &opts.study.scale;
    let resolvers = Scale {
        resolvers: Some(scale.resolvers.unwrap_or(24)),
        ..scale.clone()
    }
    .sample_resolvers(&population);
    let reps = scale.repetitions.max(2);

    println!("== S1: loss sweep — DoUDP 5s retry vs transport-layer recovery ==\n");
    println!(
        "{:>7}{:>12}{:>12}{:>10}{:>12}{:>12}{:>10}",
        "loss", "UDP p50", "UDP p99", "UDP>2s", "DoQ p50", "DoQ p99", "DoQ>2s"
    );
    for loss in [0.0, 0.002, 0.01, 0.03, 0.06] {
        let mut campaign = SingleQueryCampaign::new(scale.clone());
        campaign.seed = opts.study.seed ^ (loss * 1e6) as u64;
        campaign.path_params.loss = loss;
        let mut udp = Vec::new();
        let mut doq = Vec::new();
        for vp in &vps {
            for r in &resolvers {
                for rep in 0..reps {
                    for (t, bucket) in [
                        (DnsTransport::DoUdp, &mut udp),
                        (DnsTransport::DoQ, &mut doq),
                    ] {
                        let s = run_unit(&campaign, vp, r, t, rep);
                        if let Some(rs) = s.resolve_ms {
                            bucket.push(s.handshake_ms.unwrap_or(0.0) + rs);
                        }
                    }
                }
            }
        }
        let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
        let slow = |v: &[f64]| {
            100.0 * v.iter().filter(|x| **x > 2000.0).count() as f64 / v.len().max(1) as f64
        };
        println!(
            "{:>6.1}%{:>10.0}ms{:>10.0}ms{:>9.1}%{:>10.0}ms{:>10.0}ms{:>9.1}%",
            loss * 100.0,
            median(&udp).unwrap_or(f64::NAN),
            p(&udp, 99.0),
            slow(&udp),
            median(&doq).unwrap_or(f64::NAN),
            p(&doq, 99.0),
            slow(&doq),
        );
    }
    println!(
        "\nReading guide: at the median DoUDP always wins (1 RTT vs 2). In the tail,\n\
         rising loss flips the comparison: a lost DoUDP packet costs the full 5 s\n\
         application retry, a lost QUIC packet a ~1 s PTO — the paper's explanation\n\
         for the ~10% of page loads where encrypted DNS beat DoUDP."
    );
}
