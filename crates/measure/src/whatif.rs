//! The counterfactual ("what-if") sweep: feature-flag regimes over the
//! resolver population reporting the resolve-time deltas the paper
//! could not measure (§5's discussion of where DoQ's remaining cost
//! goes, and §4's future work).
//!
//! Each regime re-runs the single-query unit with one dormant
//! capability switched on:
//!
//! * **resumption** — TLS 1.3 session-ticket resumption (and the QUIC
//!   address-validation token) on the measured connection;
//! * **0rtt** — resumption plus early data: resolvers issue
//!   early-data-capable tickets and the measured DoQ/DoT/DoH query
//!   rides the first flight (reject falls back to the 1-RTT replay);
//! * **tfo** — TCP Fast Open (RFC 7413): the measured DoTCP query
//!   rides the SYN, using the cookie the warming connection cached;
//! * **keepalive** — edns-tcp-keepalive (RFC 7828): the client asks,
//!   the resolver grants a hold-open timeout instead of closing after
//!   the first response (§5's fresh-2-RTT-per-query cost);
//! * **doh3** — DoH units run as DNS over HTTP/3 against an
//!   HTTP/3-capable resolver.
//!
//! Every regime, the all-off baseline included, sets resumption itself
//! (the baseline runs without it, like the paper's world) and reuses
//! the single-query unit seeds: a regime unit is the *same* unit — same
//! path draws, same resolver — with only the capability changed, so
//! per-unit deltas are genuine counterfactuals rather than resampled
//! noise (see [`crate::sweep`]).
//!
//! The Web half re-runs the Web campaign with the doh3 regime's
//! capabilities, [`DOH3`], on the Web campaign's own unit seeds.

use crate::single_query::UnitOptions;
use crate::sweep::{Regime, SeedRule};
use doqlab_dox::Capabilities;

/// The doh3 regime's capabilities, which the what-if Web half runs
/// with too.
pub const DOH3: Capabilities = Capabilities {
    zero_rtt: false,
    tfo: false,
    keepalive: false,
    doh3: true,
};

/// The default sweep: the all-off baseline, then each capability
/// switched on alone (0-RTT implies resumption — early data needs a
/// ticket to ride on).
pub fn standard_whatif_sweep() -> Vec<Regime> {
    let whatif = |name: &str, resumption, switch_on: fn(&mut Capabilities)| {
        let mut options = UnitOptions::default();
        switch_on(&mut options.caps);
        Regime {
            name: name.into(),
            seed: SeedRule::SingleQuery,
            options,
            resumption: Some(resumption),
        }
    };
    vec![
        whatif("baseline", false, |_| {}),
        whatif("resumption", true, |_| {}),
        whatif("0rtt", true, |c| c.zero_rtt = true),
        whatif("tfo", false, |c| c.tfo = true),
        whatif("keepalive", false, |c| c.keepalive = true),
        whatif("doh3", false, |c| *c = DOH3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_query::SingleQuerySample;
    use crate::sweep::tests::tiny_sweep;
    use crate::sweep::{run_sweep_unit, SweepSample};
    use doqlab_dox::DnsTransport;
    use doqlab_simnet::path::GeoPathParams;
    use doqlab_simnet::Simulator;
    use doqlab_telemetry::metrics::{self, Counter};

    /// Run unit `[vp 0 : first resolver : regime : transport : rep 0]`
    /// of the standard sweep on a jitter- and loss-free path: unit
    /// timing becomes a pure function of the flags, so paired regimes
    /// differ by exact RTTs.
    fn exact_unit(regime: usize, transport: DnsTransport) -> SweepSample {
        let (mut c, pop) = tiny_sweep(standard_whatif_sweep());
        c.path_params = GeoPathParams {
            jitter_frac: 0.0,
            loss: 0.0,
            egress_bps: None,
            ..GeoPathParams::default()
        };
        let resolver = c.scale.sample_resolvers(&pop)[0];
        run_sweep_unit(
            &mut Simulator::arena(),
            &c,
            0,
            resolver,
            regime,
            transport,
            0,
        )
    }

    /// handshake + resolve: first transport packet to answered query.
    fn total_ms(s: &SingleQuerySample) -> f64 {
        s.handshake_ms.unwrap_or(0.0) + s.resolve_ms.expect("unit answered")
    }

    #[test]
    fn zero_rtt_doq_saves_exactly_one_rtt_over_resumed_1rtt() {
        // The campaign's headline claim, pinned: on the same unit (same
        // seed, same path, jitter-free), a warm-resumption 0-RTT DoQ
        // query resolves exactly one RTT faster than its 1-RTT resumed
        // twin — the query rides the first flight instead of waiting
        // for the handshake round trip.
        let resumed = exact_unit(1, DnsTransport::DoQ);
        let zrtt = exact_unit(2, DnsTransport::DoQ);
        assert!(!resumed.sample.failed && !zrtt.sample.failed);
        assert!(resumed.sample.metadata.resumed && zrtt.sample.metadata.resumed);
        assert!(
            !resumed.sample.metadata.zero_rtt,
            "no early data without a 0-RTT ticket"
        );
        assert!(
            zrtt.sample.metadata.zero_rtt,
            "0-RTT regime accepted early data"
        );
        // The resumed handshake is exactly one RTT; the 0-RTT unit
        // finishes exactly that much sooner.
        let rtt = resumed.sample.handshake_ms.expect("DoQ handshakes");
        let saved = total_ms(&resumed.sample) - total_ms(&zrtt.sample);
        assert!(
            (saved - rtt).abs() < 1e-6,
            "0-RTT saved {saved} ms, expected exactly one RTT = {rtt} ms"
        );
    }

    #[test]
    fn tfo_puts_the_dotcp_query_on_the_syn_and_saves_a_round_trip() {
        metrics::set_enabled(true);
        let before = metrics::snapshot().counter(Counter::TfoSynData);
        let base = exact_unit(0, DnsTransport::DoTcp);
        let tfo = exact_unit(3, DnsTransport::DoTcp);
        assert!(!base.sample.failed && !tfo.sample.failed);
        assert!(
            metrics::snapshot().counter(Counter::TfoSynData) > before,
            "the measured SYN carried data"
        );
        let saved = total_ms(&base.sample) - total_ms(&tfo.sample);
        let rtt = base.sample.handshake_ms.expect("DoTCP handshakes");
        assert!(
            (saved - rtt).abs() < 1e-6,
            "TFO saved {saved} ms, expected exactly one RTT = {rtt} ms"
        );
    }

    #[test]
    fn keepalive_grants_are_requested_and_honored() {
        metrics::set_enabled(true);
        let before = metrics::snapshot().counter(Counter::KeepaliveHonored);
        let ka = exact_unit(4, DnsTransport::DoTcp);
        assert!(!ka.sample.failed);
        assert!(
            metrics::snapshot().counter(Counter::KeepaliveHonored) > before,
            "the resolver granted the keepalive and the client honored it"
        );
    }

    #[test]
    fn zero_rtt_telemetry_counts_accepts() {
        metrics::set_enabled(true);
        let before = metrics::snapshot().counter(Counter::ZeroRttAccepted);
        for t in [DnsTransport::DoQ, DnsTransport::DoT, DnsTransport::DoH] {
            let s = exact_unit(2, t);
            assert!(s.sample.metadata.zero_rtt, "{t:?} accepted early data");
        }
        assert!(
            metrics::snapshot().counter(Counter::ZeroRttAccepted) >= before + 3,
            "every encrypted transport counted its accepted 0-RTT"
        );
    }
}
