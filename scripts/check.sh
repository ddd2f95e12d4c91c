#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, guards, lints, docs, the full test
# suite and the bench smokes, in the workspace's one build configuration
# (telemetry is always on). Run from anywhere inside the repo:
#
#   scripts/check.sh
#
# Everything runs --offline: this workspace vendors its few dependencies
# under crates/vendor/ and must build without network access.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "layering guard: planning stays in crates/access"
# Transports must plan through the access layer: no private plan structs
# and no hand-rolled replan loops in the transport crates.
guard_hits=$(grep -rnE "'replan|struct (ReadPlan|BlockReadPlan|DegradedPlan|RepairPlan|PlanCache)" \
  crates/filestore/src crates/dfs/src crates/cluster/src || true)
if [ -n "$guard_hits" ]; then
  printf 'transport crates must not define plans or replan loops:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "concurrency guard: client-side fan-out goes through workloads::parallel"
# Wire concurrency on the client/transport side must use the shared
# ParallelCtx pool (and its pipeline helper), not hand-rolled threads —
# that is what keeps fan-out width a single knob and tallies race-free.
# crates/cluster/src/datanode.rs and crates/cluster/src/repair.rs are the
# two exclusions: a datanode is a *server* and legitimately owns its
# accept/connection/heartbeat threads, and the background repair
# scheduler owns its long-lived worker/monitor threads (its *clients*
# still fan out through ParallelCtx).
guard_hits=$(grep -rnE "thread::(spawn|scope|Builder)" \
  crates/cluster/src crates/dfs/src crates/filestore/src crates/access/src \
  | grep -vE 'crates/cluster/src/(datanode|repair)\.rs' || true)
if [ -n "$guard_hits" ]; then
  printf 'use workloads::parallel (ParallelCtx / pipeline) instead of raw threads:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "kernel guard: everything goes through the kernel engine"
# The slice free functions (mul_slice & co.) were deprecated shims and are
# now deleted; nothing anywhere — gf256 included — may reintroduce them.
guard_hits=$(grep -rnE "\b(mul_slice|mul_acc_slice|add_assign_slice|mul_slice_in_place)\b" \
  --include='*.rs' src tests examples \
  crates/access crates/bench crates/cluster crates/core crates/dfs crates/erasure \
  crates/filestore crates/gf256 crates/lrc crates/mapreduce crates/msr crates/rs \
  crates/simcore crates/telemetry crates/workloads || true)
if [ -n "$guard_hits" ]; then
  printf 'use gf256::kernel() instead of the deprecated slice helpers:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "unsafe guard: intrinsics stay in gf256::kernel::simd"
# The SIMD kernels are the workspace's only sanctioned unsafe: every
# intrinsic lives behind a #[target_feature] function in
# crates/gf256/src/kernel/simd.rs, and kernels are registered only after
# runtime CPU-feature detection. Nothing else may contain unsafe code
# (attribute mentions like deny(unsafe_code) and comments are fine).
guard_hits=$(grep -rnE '\bunsafe\b' --include='*.rs' src tests examples \
  crates/access crates/bench crates/cluster crates/core crates/dfs crates/erasure \
  crates/filestore crates/gf256 crates/lrc crates/mapreduce crates/msr crates/rs \
  crates/simcore crates/telemetry crates/workloads \
  | grep -v 'crates/gf256/src/kernel/simd\.rs' \
  | grep -vE 'unsafe_code|:[0-9]+:\s*//' || true)
if [ -n "$guard_hits" ]; then
  printf 'unsafe code is confined to crates/gf256/src/kernel/simd.rs:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "object-store guard: everything goes through the ObjectStore trait"
# The free-standing put_file/get_file signatures are pub(crate) plumbing
# inside the cluster client now; every consumer — tool, tests, benches,
# transports — uses the ObjectStore trait (put_opts/get/write_range/
# append/delete) instead.
guard_hits=$(grep -rnE "\.(put_file|get_file)\(" \
  --include='*.rs' src tests examples \
  crates/access crates/bench crates/cluster crates/core crates/dfs crates/erasure \
  crates/filestore crates/gf256 crates/lrc crates/mapreduce crates/msr crates/rs \
  crates/simcore crates/telemetry crates/workloads \
  | grep -v 'crates/cluster/src/client\.rs' || true)
if [ -n "$guard_hits" ]; then
  printf 'use the ObjectStore trait (put_opts/get) instead of put_file/get_file:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "telemetry guard: one always-on build"
# Telemetry is unconditional: no crate may compile it out again, and no
# code may branch on whether it is there.
guard_hits=$(grep -rnE 'telemetry::ENABLED|feature *= *"telemetry"|--no-default-features' \
  src tests examples crates/*/src || true)
if [ -n "$guard_hits" ]; then
  printf 'telemetry is always on; remove the switch:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Vendored third-party crates are excluded from the doc gate; only our
# own crates must document cleanly.
doc_excludes=(--exclude rand --exclude proptest --exclude criterion)

step "cargo doc (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${doc_excludes[@]}" --offline -q

step "cargo test"
cargo test --workspace --offline -q

step "cluster loopback smoke test"
cargo test --offline -q --test cluster_loopback

step "kernel bench smoke + JSONL schema check"
metrics=$(mktemp /tmp/carousel-metrics.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_kernels -- --smoke --metrics "$metrics"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$metrics"
rm -f "$metrics"

step "wire-parallelism bench smoke"
cargo run --release --offline -p carousel-bench --bin ext_pipeline -- --smoke

step "observability bench smoke"
cargo run --release --offline -p carousel-bench --bin ext_observe -- --smoke

step "repair-storm bench smoke"
cargo run --release --offline -p carousel-bench --bin ext_repair_storm -- --smoke

step "metadata scale-out bench smoke + JSONL schema check"
meta_jsonl=$(mktemp /tmp/carousel-meta.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_metadata -- --smoke --metrics "$meta_jsonl"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$meta_jsonl"
rm -f "$meta_jsonl"

step "update/packing bench smoke + JSONL schema check"
upd=$(mktemp /tmp/carousel-update.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_update -- --smoke --metrics "$upd"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$upd"
rm -f "$upd"

step "cross-compile gate: aarch64 NEON kernel path"
# The NEON kernel cannot run on x86 CI, but it must at least keep
# compiling; `cargo check` for the aarch64 target catches intrinsic or
# cfg rot. Falls back with a warning when the target's std isn't
# installed (e.g. a fresh toolchain without `rustup target add`).
if rustup target list --installed 2>/dev/null | grep -q '^aarch64-unknown-linux-gnu$'; then
  cargo check -p carousel-gf256 --target aarch64-unknown-linux-gnu --offline -q
else
  echo "warning: aarch64-unknown-linux-gnu target not installed; skipping NEON cross-check"
fi

step "build ext_cluster (real-TCP experiment binary)"
cargo build --release --offline -p carousel-bench --bin ext_cluster

step "all checks passed"
