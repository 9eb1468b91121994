#!/usr/bin/env bash
# Repo verification: build, test, lint. This is what CI runs and what a
# contributor should run before pushing. Tier-1 (ROADMAP.md) is the
# build+test pair; clippy keeps the workspace, tests and benches included,
# warning-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# Benchmark correctness gate: perfbench's own tests run whole fleets with
# 48 KiB PIs through its receipt, round-trip and per-journey digest checks,
# so a codec or pipeline change that alters a journey fails here (~1 s of
# runs once built).
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Federation ablation smoke: with the fleet plane off, the soak must still
# pass every shape check (results are asserted byte-identical to the
# federated run by the crate's unit tests; here we guard the knob itself).
# Runs first so the BENCH_soak.json left on disk is the full federated one.
cargo build --release -p pdagent-bench --bin soak
SOAK_FED=0 ./target/release/soak 64 1,2 > /dev/null

# Tail-sampling ablation smoke: with the sampler off, the soak must still
# pass every shape check and drop zero spans (the crate's unit tests assert
# the off mode leaves results, events and obs digest byte-identical; here we
# guard the knob and the inertness gate bench_diff.sh enforces).
SOAK_SAMPLE=0 ./target/release/soak 64 1,2 > /dev/null

# Soak smoke: a small sharded soak (64 devices, 1 vs 2 shards) must stay
# byte-identical across the partitionings and keep the batched-delivery
# event reduction above 5x; the binary exits nonzero if either fails. The
# default run also exercises the fleet plane — federation scrapes, fleet
# rules and the paging drill — via its own shape checks.
./target/release/soak 64 1,2 > /dev/null

# Federation delta-plane smoke: the 300-cell A/B must keep the merged
# rollup byte-identical between delta and full scrape modes while moving at
# least 3x fewer bytes per round (the binary exits nonzero on either gate).
cargo build --release -p pdagent-bench --bin fed_bench
./target/release/fed_bench 300 12 42 > /dev/null

# Chaos-matrix smoke: a small fixed-seed fault grid (four classes, one
# intensity, 1 vs 2 shards) through every system invariant. Any violation
# exits nonzero after shrinking the plan to a replayable reproducer under
# target/chaos/ (uploaded as a CI artifact). SOAK_CHAOS=1 additionally rides
# a mixed fault schedule on the soak itself and holds the same invariants.
cargo build --release -p pdagent-bench --bin chaos
./target/release/chaos --classes partition,loss,duplicate,crash \
    --intensities 0.5 --seeds 42 --shards 1,2 > /dev/null
SOAK_CHAOS=1 ./target/release/soak 64 1,2 > /dev/null

# Event-queue smoke: the timer wheel's replay must pop the (time, seq)
# stream of the binary-heap oracle byte for byte (the binary exits nonzero
# on divergence), and every criterion event-loop bench group must run clean
# (no name filter).
cargo build --release -p pdagent-bench --bin event_queue
./target/release/event_queue 200000 5000 42 > /dev/null
cargo bench -p pdagent-bench --bench event_queue > /dev/null

# Codec micro-bench smoke: the compression group, including Auto compress and
# decompress on the 48 KiB base64 and word-text PIs, must run clean. The
# positional argument is the criterion name filter, so no other group runs.
cargo bench -p pdagent-bench --bench micro -- compression > /dev/null

echo "verify: OK"
