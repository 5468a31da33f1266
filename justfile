# Common tasks for the dck workspace (https://github.com/casey/just).

# Run everything CI runs.
ci: fmt-check clippy test doc lint

fmt:
    cargo fmt --all

fmt-check:
    cargo fmt --all --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

test:
    cargo test --workspace

doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Workspace determinism/panic-safety lint against the justified baseline.
lint:
    cargo build --release -p dck-cli
    ./target/release/dck lint

# Non-test Rust lines per crate (each file up to its first
# `#[cfg(test)]`): the one measure every change reports its net line
# count with.
loc:
    scripts/loc.sh

# Regenerate the analyze.toml skeleton after intentional changes.
lint-baseline:
    cargo build --release -p dck-cli
    ./target/release/dck lint baseline

# Dump the resolved cross-crate call graph the workspace lints run on.
lint-graph:
    cargo build --release -p dck-cli
    ./target/release/dck lint --graph

# Regenerate every table/figure + validations + extensions into results/.
experiments:
    cargo run -p dck-cli --release -- experiments all --out results

# Quick (CI-sized) experiment pass.
experiments-fast:
    cargo run -p dck-cli --release -- experiments all --fast --out results

# Kill-and-resume crash-safety e2e against the release binary.
resume-kill:
    cargo test --release -p dck-cli --test resume_kill -- --nocapture

# Perf-trajectory harness: writes BENCH_reps.json / BENCH_sweep.json
# at the repo root and validates them against the report schema.
bench:
    cargo build --release -p dck-cli
    ./target/release/dck bench --out .
    ./target/release/dck validate --bench BENCH_reps.json
    ./target/release/dck validate --bench BENCH_sweep.json

# Adaptive-controller regret harness: adaptive vs misspecified-static
# vs oracle arms over shared failure streams. Writes BENCH_adapt.json
# at the repo root, enforces the acceptance gates (stationary regret
# <= 10%, drift beats static), and validates the artifact.
adapt:
    cargo build --release -p dck-cli
    ./target/release/dck adapt --out BENCH_adapt.json
    ./target/release/dck validate --bench BENCH_adapt.json

# Model-vs-sim conformance: the coarse regions (benign grid for
# k = 2..5, V1, E5, E1) with fault prediction and adaptation, plus the
# recorded stress regions; writes both v4 reports and re-judges them.
conformance-k:
    cargo build --release -p dck-cli
    DCK_CONFORMANCE_OUT=$(pwd)/conformance.json \
        cargo test --release -p dck-testkit --test conformance -- --include-ignored
    ./target/release/dck validate --conformance conformance.json
    ./target/release/dck validate --conformance conformance-stress.json

# Long-running waste/risk/sweep-cell service on a fixed local port.
# Send {"v":1,"method":"shutdown"} (or `just loadgen` then that) to stop.
serve:
    cargo run --release -p dck-cli --bin dck -- serve --addr 127.0.0.1:4817

# Measured load against `just serve`: writes BENCH_serve.json at the
# repo root and validates it against the serve report schema.
loadgen:
    cargo build --release -p dck-cli
    ./target/release/dck loadgen --addr 127.0.0.1:4817 \
        --threads 4 --concurrency 4 --duration 5s \
        --out BENCH_serve.json --metrics serve-metrics.json
    ./target/release/dck validate --bench BENCH_serve.json

# Render the figures (requires gnuplot).
figures:
    cd results && for f in fig*.gp; do gnuplot "$f"; done

# Run all examples.
examples:
    for e in quickstart exascale_planner risk_audit protocol_tradeoff \
             failure_replay overlap_tuning two_level timeline; do \
        cargo run --release --example "$e"; done
