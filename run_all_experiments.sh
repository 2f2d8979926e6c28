#!/bin/sh
# Regenerate every paper artefact into results/ (see EXPERIMENTS.md).
# Usage: ./run_all_experiments.sh [quick|medium|paper]
#
# One `doqlab report` invocation runs each campaign its reports read
# once, so the artefacts at the full scale share one invocation; the
# Web ablations (A2, A4) run on 48 resolvers and the loss sweep (S1)
# on 24.
set -e
SCALE="${1:-medium}"
SEED=2022
mkdir -p results
cargo build --release -p doqlab

report() {
    ./target/release/doqlab report "$@" --scale "$SCALE" --seed "$SEED"
}

# E0-E8, A1, and A3/F1 (the what-if sweep's `0rtt` and `doh3` regimes).
report fig1 overview table1 fig2a fig2b fig3 fig4 headline a1 whatif |
    tee "results/paper_$SCALE.txt"
{
    report a2 a4 --resolvers 48
    report s1 --resolvers 24
} | tee "results/ablations_$SCALE.txt"
