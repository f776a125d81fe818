#!/usr/bin/env bash
# The benchmark's self-tests, then every workload at 2 % of its length with
# all correctness checks on. Well under a minute once built; meant for CI.
set -euo pipefail
cd "$(dirname "$0")"

# The self-tests load and serve the full 200 000-record set, so they run on
# the optimised build the benchmark itself uses.
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- run --scale 0.02
