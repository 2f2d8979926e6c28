//! A2 — ablation: the dnsproxy DoT reconnect bug on/off.
//!
//! §3.2: with a DoT query in flight, the unpatched dnsproxy opened a
//! brand-new connection for the next query — a full TCP+TLS handshake
//! in ~60% of page loads — which made DoT look worse than DoH. The
//! paper upstreamed a fix; `dot_bug = false` is that fix.

use doqlab_bench::{compare, load_stats, parse_options};
use doqlab_core::dox::DnsTransport;
use doqlab_core::measure::webperf::WebperfCampaign;

fn main() {
    let opts = parse_options();
    let study = &opts.study;
    let buggy = study.webperf_campaign();
    let fixed = WebperfCampaign {
        dot_bug: false,
        ..buggy.clone()
    };
    let on = load_stats(&study.run_webperf_campaign(&buggy), DnsTransport::DoT);
    let off = load_stats(&study.run_webperf_campaign(&fixed), DnsTransport::DoT);

    println!("== A2: dnsproxy DoT reconnect-bug ablation ==\n");
    compare(
        "Multi-query page loads with extra DoT connections (bug ON)",
        "~60%",
        format!("{:.0}%", on.reconnect_share * 100.0),
    );
    compare(
        "... with the upstreamed fix (bug OFF)",
        "0%",
        format!("{:.0}%", off.reconnect_share * 100.0),
    );
    compare(
        "Median DoT connections per load (bug ON)",
        ">1",
        format!("{:.1}", on.connections),
    );
    compare(
        "Median DoT connections per load (bug OFF)",
        "1",
        format!("{:.1}", off.connections),
    );
    compare(
        "Median DoT PLT, bug ON (ms)",
        "worse than DoH",
        format!("{:.1}", on.plt_ms),
    );
    compare(
        "Median DoT PLT, bug OFF (ms)",
        "~DoH",
        format!("{:.1}", off.plt_ms),
    );
    if opts.json {
        let out = serde_json::json!({
            "bug_on":  { "plt_median_ms": on.plt_ms, "reconnect_load_fraction": on.reconnect_share },
            "bug_off": { "plt_median_ms": off.plt_ms, "reconnect_load_fraction": off.reconnect_share },
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    }
}
