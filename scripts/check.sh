#!/usr/bin/env bash
# One-command configure + build + test.
#
#   scripts/check.sh            # release preset, full suite + bench smoke
#   scripts/check.sh debug      # debug preset
#   scripts/check.sh asan       # ASan+UBSan preset
#   scripts/check.sh release tier1   # only the fast tier-1 label
set -euo pipefail

preset="${1:-release}"
label="${2:-}"

cd "$(dirname "$0")/.."

cmake --preset "$preset"
cmake --build --preset "$preset" -j
ctest --preset "$preset" ${label:+-L "$label"}

# Bench smoke-run: the incremental-maintenance bench self-checks that the
# planner's append answer matches a full remine bit-for-bit and that the
# smallest batch is delta-derived with fewer page reads. Skipped when
# benches were not built for this preset.
bench_bin="build/$preset/bench/incremental_updates"
if [[ -x "$bench_bin" ]]; then
  "$bench_bin" --smoke
fi

# Repeated-query bench smoke: re-queries through the MiningPlanner must be
# cache-filtered with zero mining iterations, bit-identical results and
# >=10x fewer page reads than the cold mine.
cache_bench_bin="build/$preset/bench/repeated_query"
if [[ -x "$cache_bench_bin" ]]; then
  "$cache_bench_bin" --smoke
fi

# Count-budget bench smoke: a C_k count budget sweep on the retail data;
# itemsets must be identical at every budget, the 4 KiB budget (below C_1's
# own count) must spill, a budget that holds the unbounded count's peak
# table must not, a budget that holds every level's dense count must make
# no hash probe, and no mine may write more pages than it allocates plus
# the ids it reuses.
count_bench_bin="build/$preset/bench/ablation_count_method"
if [[ -x "$count_bench_bin" ]]; then
  "$count_bench_bin" --smoke
fi

# Buffer-pool bench smoke: mines at 16, 256 and 4096 pool frames must find
# the same itemsets and write no more pages than they allocate plus the ids
# they reuse; at 16 frames they read within the one-scan-per-iteration
# bound, and at 256 at most 20% of that mine's pages (last scans read the
# pool's head of R_{k-1} from its frames, and R_k goes around unread
# scratch). Under the asan preset this also runs both scratch paths under
# the sanitizers, as CI's sanitize job does.
pool_bench_bin="build/$preset/bench/ablation_buffer_pool"
if [[ -x "$pool_bench_bin" ]]; then
  "$pool_bench_bin" --smoke
fi

# filter_r1 bench smoke: mines with and without filter_r1 must find the
# same itemsets, and the filtered R_1 must pair no more R'_2 rows. Under
# the asan preset this also runs the grouped page codec under the
# sanitizers (filter_r1 rewrites R_1 through the encoder), as CI's
# sanitize job does.
filter_bench_bin="build/$preset/bench/ablation_filter_r1"
if [[ -x "$filter_bench_bin" ]]; then
  "$filter_bench_bin" --smoke
fi

# Figure 5 bench smoke: every iteration must report R_k in the paper's
# bytes, |R_k|*(k+1)*4, however the engine stores it (one group per
# transaction). Under the asan preset this also encodes and decodes every
# R_k under the sanitizers, as CI's sanitize job does.
fig5_bench_bin="build/$preset/bench/fig5_relation_sizes"
if [[ -x "$fig5_bench_bin" ]]; then
  "$fig5_bench_bin" --smoke
fi

# Persistence smoke: store a mined run into a database file in one
# setm_mine invocation, append incrementally from a second invocation, and
# assert bit-identical rules with fewer page reads than a full remine.
mine_bin="build/$preset/tools/setm_mine"
if [[ -x "$mine_bin" ]]; then
  scripts/smoke_db_persist.sh "$mine_bin"
fi

# Crash-recovery smoke: SIGKILL setm_mine mid-append at varied points, retry
# each interrupted batch, and assert the recovered database is bit-identical
# to a never-killed control. Under the asan preset this also runs the delta
# derive, its old-partition count included, under the sanitizers, as CI's
# sanitize job does.
if [[ -x "$mine_bin" ]]; then
  scripts/smoke_crash_recovery.sh "$mine_bin"
fi

# Result-cache smoke: store a run at a low support in one setm_mine
# invocation, re-query at a higher support from a second one, and assert it
# is cache-filtered with zero mining iterations and identical rules.
if [[ -x "$mine_bin" ]]; then
  scripts/smoke_cache.sh "$mine_bin"
fi

# Cross-algorithm smoke: every algorithm in `setm_mine --algo list` must
# reproduce the SETM golden rules on the paper example and match the SETM
# output on a deterministic Quest-style workload. Under the asan preset
# this also runs the pass kernel (setm at --threads 4 too, counting
# sibling extensions only) under the sanitizers, every UBSan finding
# fatal, as CI's sanitize job does.
if [[ -x "$mine_bin" ]]; then
  UBSAN_OPTIONS=halt_on_error=1 scripts/smoke_algos.sh "$mine_bin"
fi

# Observability smoke: a store/re-query pair with --trace and
# --metrics prom must produce a full-mine trace with per-iteration read
# deltas, a cache-filter trace with zero iteration spans, parseable
# Prometheus exports and the pool:/wal: --stats ledger lines, the pool:
# line with its bypass reads and writes.
if [[ -x "$mine_bin" ]]; then
  scripts/smoke_observability.sh "$mine_bin"
fi

# Server smoke: setm_served on a seeded database, concurrent clients
# byte-identical to the CLI, cache-filter traces without iteration spans,
# parseable STATS prom, survival of a client killed mid-MINE, graceful
# SIGTERM shutdown. Under the asan preset this also runs the server's
# sessions under the sanitizers, every UBSan finding fatal, as CI's
# sanitize job does.
served_bin="build/$preset/tools/setm_served"
loadgen_bin="build/$preset/tools/setm_loadgen"
if [[ -x "$served_bin" && -x "$loadgen_bin" && -x "$mine_bin" ]]; then
  UBSAN_OPTIONS=halt_on_error=1 \
    scripts/smoke_server.sh "$served_bin" "$loadgen_bin" "$mine_bin"
fi

# Server load bench smoke: N concurrent in-process clients over a mixed
# MINE/RULES/STATS workload; asserts zero protocol errors, bit-identity
# with a direct mine, and that the shared result cache engages.
server_load_bin="build/$preset/bench/server_load"
if [[ -x "$server_load_bin" ]]; then
  "$server_load_bin" --smoke
fi

# Shard smoke: setm_shardctl splits a CSV 3 ways; the distributed mine over
# file shards AND over three live setm_served daemons must be byte-identical
# to single-node setm_mine; a killed daemon must surface as a clean
# Unavailable naming the shard while the survivors keep serving. Under the
# asan preset this also runs the bound-shard intake (each file shard and
# daemon reads its SALES table into R_1, counting C_1, at every BeginRun)
# under the sanitizers, as CI's sanitize job does.
shardctl_bin="build/$preset/tools/setm_shardctl"
if [[ -x "$shardctl_bin" && -x "$mine_bin" && -x "$served_bin" \
      && -x "$loadgen_bin" ]]; then
  scripts/smoke_shards.sh "$shardctl_bin" "$mine_bin" "$served_bin" \
    "$loadgen_bin"
fi

# Shard scaling bench smoke: the distributed coordinator must stay
# bit-identical to single-node SETM at 1/2/4/8 shards and turn an injected
# shard failure into Unavailable, never wrong output.
shard_bench_bin="build/$preset/bench/shard_scaling"
if [[ -x "$shard_bench_bin" ]]; then
  "$shard_bench_bin" --smoke
fi
