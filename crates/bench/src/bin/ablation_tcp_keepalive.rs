//! A4 — ablation: RFC 9210-compliant DoTCP.
//!
//! §3.2 observes that no resolver supports `edns-tcp-keepalive` (or
//! TFO) and no connection is re-used, so every DoTCP query pays the
//! full 2 RTT. This ablation upgrades both sides — resolvers honour
//! keepalive, the proxy re-uses the connection like RFC 9210
//! recommends — and measures how much of DoTCP's Web-performance gap
//! that recovers.

use doqlab_bench::{compare, parse_options};
use doqlab_core::dox::DnsTransport;
use doqlab_core::measure::median;
use doqlab_core::simnet::Duration;
use doqlab_core::webperf::{run_page_load, PageLoadConfig};

fn main() {
    let opts = parse_options();
    let population = opts.study.population();
    let pages = opts.study.pages();
    let vps = doqlab_core::measure::vantage_points();

    // The campaign abstraction keeps client behaviour fixed, so this
    // ablation drives run_page_load directly with both sides upgraded.
    let resolvers = opts.study.scale.sample_resolvers(&population);

    let mut plt_default = Vec::new();
    let mut plt_upgraded = Vec::new();
    let mut conns_default = Vec::new();
    let mut conns_upgraded = Vec::new();
    for vp in &vps {
        for r in &resolvers {
            for page in opts.study.scale.sample_pages(&pages) {
                for upgraded in [false, true] {
                    let mut resolver_cfg = r.server_config();
                    if upgraded {
                        resolver_cfg.tcp_keepalive = true;
                        resolver_cfg.enable_tfo = true;
                        resolver_cfg.close_tcp_after_response = false;
                    }
                    let mut cfg = PageLoadConfig::new(page.clone(), DnsTransport::DoTcp);
                    cfg.seed = opts.study.seed
                        ^ (vp.index as u64) << 32
                        ^ (r.index as u64) << 8
                        ^ page.dns_query_count() as u64;
                    cfg.resolver = resolver_cfg;
                    cfg.vp_location = vp.location;
                    cfg.resolver_location = r.location;
                    cfg.load_timeout = Duration::from_secs(30);
                    cfg.tcp_keepalive_client = upgraded;
                    let loads = run_page_load(&cfg);
                    let Some(r0) = loads.first().filter(|l| !l.failed) else {
                        continue;
                    };
                    if upgraded {
                        plt_upgraded.push(r0.plt_ms);
                        conns_upgraded.push(r0.proxy_connections as f64);
                    } else {
                        plt_default.push(r0.plt_ms);
                        conns_default.push(r0.proxy_connections as f64);
                    }
                }
            }
        }
    }

    println!("== A4: RFC 9210 DoTCP ablation (keepalive + TFO + reuse) ==\n");
    compare(
        "Median DoTCP connections per load (observed behaviour)",
        "= #queries",
        format!("{:.1}", median(&conns_default).unwrap_or(f64::NAN)),
    );
    compare(
        "Median DoTCP connections per load (RFC 9210)",
        "1",
        format!("{:.1}", median(&conns_upgraded).unwrap_or(f64::NAN)),
    );
    compare(
        "Median DoTCP PLT, observed behaviour (ms)",
        "2 RTT per query",
        format!("{:.1}", median(&plt_default).unwrap_or(f64::NAN)),
    );
    compare(
        "Median DoTCP PLT, RFC 9210 behaviour (ms)",
        "-> DoUDP-like",
        format!("{:.1}", median(&plt_upgraded).unwrap_or(f64::NAN)),
    );
    if opts.json {
        let out = serde_json::json!({
            "default":  { "plt_median_ms": median(&plt_default), "conns_median": median(&conns_default) },
            "rfc9210":  { "plt_median_ms": median(&plt_upgraded), "conns_median": median(&conns_upgraded) },
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    }
}
