//! The artefact table end to end: one invocation runs each campaign its
//! reports read once, and the shape checks the reports print hold.

use doqlab_core::artefacts::{Samples, PAPER_ARTEFACTS};
use doqlab_core::measure::report::Section;
use doqlab_core::measure::Scale;
use doqlab_core::telemetry::metrics::{self, Counter};
use doqlab_core::Study;

#[test]
fn rendering_every_paper_artefact_runs_each_campaign_once_and_its_checks_hold() {
    let study = Study {
        scale: Scale {
            resolvers: Some(2),
            repetitions: 1,
            rounds: 1,
            loads_per_round: 1,
            pages: Some(1),
            clients: Some(512),
            threads: 2,
        },
        ..Study::quick(3)
    };
    metrics::set_enabled(true);
    metrics::reset();
    let entries: Vec<_> = PAPER_ARTEFACTS.iter().collect();
    let mut names = Vec::new();
    Samples::new(&study, "quick").render(&entries, |artefact, report| {
        for section in &report.sections {
            if let Section::Check { label, holds } = section {
                assert!(holds, "{}: {label}", artefact.name);
            }
        }
        names.push(artefact.name);
    });
    assert_eq!(names, PAPER_ARTEFACTS.map(|a| a.name));
    // Every campaign's grid is 6 vantage points x 2 resolvers x 5
    // transports per regime or page (one repetition, one round). The
    // distinct campaigns: single-query; the Web campaign with its
    // DoT-fix and RFC 9210 variants; the what-if sweep's six regimes and
    // the loss sweep's five. The discovery scan counts no units.
    let grid = 6 * 2 * 5;
    let expected = grid + 3 * grid + 6 * grid + 5 * grid;
    let units_run = metrics::snapshot().counter(Counter::UnitsRun);
    assert_eq!(units_run, expected as u64);
}
