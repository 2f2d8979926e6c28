//! A4 — ablation: RFC 9210-compliant DoTCP.
//!
//! §3.2 observes that no resolver supports `edns-tcp-keepalive` (or
//! TFO) and no connection is re-used, so every DoTCP query pays the
//! full 2 RTT. This ablation re-runs the Web campaign with both
//! capabilities switched on — resolvers honour keepalive and issue TFO
//! cookies, the proxy requests both and re-uses the connection like
//! RFC 9210 recommends — on the same unit seeds, and measures how much
//! of DoTCP's Web-performance gap that recovers.

use doqlab_bench::{compare, load_stats, parse_options};
use doqlab_core::dox::{Capabilities, DnsTransport};
use doqlab_core::measure::webperf::WebperfCampaign;

fn main() {
    let opts = parse_options();
    let study = &opts.study;
    let observed = study.webperf_campaign();
    let rfc9210 = WebperfCampaign {
        caps: Capabilities {
            tfo: true,
            keepalive: true,
            ..Capabilities::default()
        },
        ..observed.clone()
    };
    let default = load_stats(&study.run_webperf_campaign(&observed), DnsTransport::DoTcp);
    let upgraded = load_stats(&study.run_webperf_campaign(&rfc9210), DnsTransport::DoTcp);

    println!("== A4: RFC 9210 DoTCP ablation (keepalive + TFO + reuse) ==\n");
    compare(
        "Median DoTCP connections per load (observed behaviour)",
        "= #queries",
        format!("{:.1}", default.connections),
    );
    compare(
        "Median DoTCP connections per load (RFC 9210)",
        "1",
        format!("{:.1}", upgraded.connections),
    );
    compare(
        "Median DoTCP PLT, observed behaviour (ms)",
        "2 RTT per query",
        format!("{:.1}", default.plt_ms),
    );
    compare(
        "Median DoTCP PLT, RFC 9210 behaviour (ms)",
        "-> DoUDP-like",
        format!("{:.1}", upgraded.plt_ms),
    );
    if opts.json {
        let out = serde_json::json!({
            "default":  { "plt_median_ms": default.plt_ms, "conns_median": default.connections },
            "rfc9210":  { "plt_median_ms": upgraded.plt_ms, "conns_median": upgraded.connections },
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    }
}
