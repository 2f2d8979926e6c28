#!/bin/sh
# Regenerate every paper artefact into results/ (see EXPERIMENTS.md).
# Usage: ./run_all_experiments.sh [quick|medium|paper]
set -e
SCALE="${1:-medium}"
SEED=2022
mkdir -p results
cargo build --release -p doqlab-bench -p doqlab

run() {
    echo "=== $1 ($SCALE) ==="
    ./target/release/"$1" --scale "$SCALE" --seed "$SEED" ${2:+$2}
}

{
    run fig1_discovery
    run overview_versions
    run table1_sizes
    run fig2a_handshake
    run fig2b_resolve
} | tee "results/single_query_$SCALE.txt"

{
    run fig3_cdf
    run fig4_doq_vs
    run headline_claims
} | tee "results/webperf_$SCALE.txt"

{
    run ablation_amplification
    run ablation_dot_bug "--resolvers 48"
    run ablation_tcp_keepalive "--resolvers 48"
    run sweep_loss "--resolvers 24"
    # A3 (0-RTT resolvers) and F1 (DoH3): the what-if sweep's `0rtt`
    # and `doh3` regimes.
    echo "=== doqlab measure whatif ($SCALE) ==="
    ./target/release/doqlab measure whatif --scale "$SCALE" --seed "$SEED"
} | tee "results/ablations_$SCALE.txt"
