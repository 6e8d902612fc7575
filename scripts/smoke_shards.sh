#!/usr/bin/env bash
# End-to-end smoke of the scale-out subsystem:
#
#   split     setm_shardctl shards a 1500-transaction CSV 3 ways into
#             per-shard database files + a manifest;
#   local     distributed mine over the file shards must be byte-identical
#             to `setm_mine --format csv` on the unsplit CSV, including the
#             per-iteration |R'| / |R| / |C| stats;
#   remote    the same query through THREE live setm_served daemons (one
#             per shard, remote manifest) must also be byte-identical, and
#             so must a --max-k 2 mine against `setm_mine --max-k 2`;
#   failure   with one daemon killed, the distributed mine must fail with
#             a clean Unavailable naming the dead shard — never wrong
#             output — `shardctl stats` must exit 3, and the survivors
#             must still serve a parseable STATS prom export.
#
#   usage: scripts/smoke_shards.sh setm_shardctl setm_mine setm_served setm_loadgen [workdir]
set -euo pipefail

SHARDCTL="${1:?usage: smoke_shards.sh setm_shardctl setm_mine setm_served setm_loadgen [workdir]}"
SETM_MINE="${2:?usage: smoke_shards.sh setm_shardctl setm_mine setm_served setm_loadgen [workdir]}"
SERVED="${3:?usage: smoke_shards.sh setm_shardctl setm_mine setm_served setm_loadgen [workdir]}"
LOADGEN="${4:?usage: smoke_shards.sh setm_shardctl setm_mine setm_served setm_loadgen [workdir]}"
WORK="${5:-$(mktemp -d)}"
mkdir -p "$WORK"

MINSUP=2
MINCONF=70

SERVER_PIDS=()
cleanup() {
  for pid in "${SERVER_PIDS[@]:-}"; do
    [[ -n "$pid" ]] && kill -KILL "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

awk 'BEGIN{for(t=1;t<=1500;t++){print t","1; print t","2;
  if(t%2==0)print t","3; if(t%3==0)print t","4;
  print t","(5+t%7); print t","(12+t%11)}}' > "$WORK/sales.csv"

# The reference answer: the one-shot CLI on the unsplit CSV.
"$SETM_MINE" --input "$WORK/sales.csv" --minsup "$MINSUP" \
  --minconf "$MINCONF" --format csv --stats \
  > "$WORK/rules_cli.csv" 2> "$WORK/cli.stats"

echo "== split: 3 file shards + manifest"
"$SHARDCTL" split --input "$WORK/sales.csv" --shards 3 \
  --out "$WORK/shards" > "$WORK/split.out"
MANIFEST="$WORK/shards/shards.manifest"
[[ -s "$MANIFEST" ]] || { echo "FAIL: split wrote no manifest"; exit 1; }
grep -q "^setm-shards v1$" "$MANIFEST" || {
  echo "FAIL: manifest header missing"; cat "$MANIFEST"; exit 1
}

echo "== local: distributed mine over the file shards"
"$SHARDCTL" mine --manifest "$MANIFEST" --minsup "$MINSUP" \
  --minconf "$MINCONF" --format csv --stats \
  > "$WORK/rules_local.csv" 2> "$WORK/local.stats"
cmp -s "$WORK/rules_local.csv" "$WORK/rules_cli.csv" || {
  echo "FAIL: file-shard rules differ from setm_mine --format csv"
  diff "$WORK/rules_cli.csv" "$WORK/rules_local.csv" | head -10; exit 1
}
# Per-iteration cardinalities must match too (timings excluded).
for f in cli local; do
  grep '^  k=' "$WORK/$f.stats" | awk '{print $1, $2, $3, $4}' \
    > "$WORK/$f.iters"
done
cmp -s "$WORK/local.iters" "$WORK/cli.iters" || {
  echo "FAIL: per-iteration stats diverge between sharded and single-node"
  diff "$WORK/cli.iters" "$WORK/local.iters"; exit 1
}
echo "file shards byte-identical ($(wc -l < "$WORK/rules_cli.csv") rule lines, $(wc -l < "$WORK/cli.iters") iterations)"

echo "== remote: one setm_served daemon per shard"
PORTS=()
for i in 0 1 2; do
  "$SERVED" --db "$WORK/shards/shard$i.db" --port 0 \
    --port-file "$WORK/port$i" > /dev/null 2> "$WORK/server$i.err" &
  SERVER_PIDS[$i]=$!
done
for i in 0 1 2; do
  for _ in $(seq 1 100); do
    [[ -s "$WORK/port$i" ]] && break
    kill -0 "${SERVER_PIDS[$i]}" 2>/dev/null || {
      echo "FAIL: daemon $i died during startup"
      cat "$WORK/server$i.err"; exit 1
    }
    sleep 0.1
  done
  [[ -s "$WORK/port$i" ]] || { echo "FAIL: no port file for daemon $i"; exit 1; }
  PORTS[$i]="$(cat "$WORK/port$i")"
done
{
  echo "setm-shards v1"
  echo "epoch 1"
  echo "shards 3"
  for i in 0 1 2; do
    echo "shard $i remote 127.0.0.1:${PORTS[$i]} table sales"
  done
} > "$WORK/remote.manifest"

"$SHARDCTL" stats --manifest "$WORK/remote.manifest" > "$WORK/stats.out" || {
  echo "FAIL: shardctl stats reports unreachable shards"
  cat "$WORK/stats.out"; exit 1
}
grep -c "reachable=yes" "$WORK/stats.out" | grep -q "^3$" || {
  echo "FAIL: expected 3 reachable shards"; cat "$WORK/stats.out"; exit 1
}

"$SHARDCTL" mine --manifest "$WORK/remote.manifest" --minsup "$MINSUP" \
  --minconf "$MINCONF" --format csv --stats \
  > "$WORK/rules_remote.csv" 2> "$WORK/remote.stats"
cmp -s "$WORK/rules_remote.csv" "$WORK/rules_cli.csv" || {
  echo "FAIL: socket-shard rules differ from setm_mine --format csv"
  diff "$WORK/rules_cli.csv" "$WORK/rules_remote.csv" | head -10; exit 1
}
grep '^  k=' "$WORK/remote.stats" | awk '{print $1, $2, $3, $4}' \
  > "$WORK/remote.iters"
cmp -s "$WORK/remote.iters" "$WORK/cli.iters" || {
  echo "FAIL: remote per-iteration stats diverge from single-node"
  diff "$WORK/cli.iters" "$WORK/remote.iters"; exit 1
}

# A length-limited mine: the limit rides on LCOUNT, and the answer matches
# the CLI's at the same limit.
"$SETM_MINE" --input "$WORK/sales.csv" --minsup "$MINSUP" \
  --minconf "$MINCONF" --max-k 2 --format csv --stats \
  > "$WORK/rules_cli_k2.csv" 2> "$WORK/cli_k2.stats"
"$SHARDCTL" mine --manifest "$WORK/remote.manifest" --minsup "$MINSUP" \
  --minconf "$MINCONF" --max-k 2 --format csv --stats \
  > "$WORK/rules_remote_k2.csv" 2> "$WORK/remote_k2.stats"
cmp -s "$WORK/rules_remote_k2.csv" "$WORK/rules_cli_k2.csv" || {
  echo "FAIL: --max-k 2 socket-shard rules differ from setm_mine --max-k 2"
  diff "$WORK/rules_cli_k2.csv" "$WORK/rules_remote_k2.csv" | head -10
  exit 1
}
for f in cli_k2 remote_k2; do
  grep '^  k=' "$WORK/$f.stats" | awk '{print $1, $2, $3, $4}' \
    > "$WORK/$f.iters"
done
[[ "$(wc -l < "$WORK/cli_k2.iters")" -eq 2 ]] || {
  echo "FAIL: --max-k 2 should stop after 2 iterations"
  cat "$WORK/cli_k2.iters"; exit 1
}
cmp -s "$WORK/remote_k2.iters" "$WORK/cli_k2.iters" || {
  echo "FAIL: --max-k 2 remote per-iteration stats diverge from single-node"
  diff "$WORK/cli_k2.iters" "$WORK/remote_k2.iters"; exit 1
}
echo "socket shards byte-identical to the CLI (unlimited and --max-k 2)"

echo "== failure: kill shard 1's daemon, the mine must go Unavailable"
disown "${SERVER_PIDS[1]}"   # suppress the shell's job-kill notification
kill -KILL "${SERVER_PIDS[1]}"
SERVER_PIDS[1]=""
rc=0
"$SHARDCTL" mine --manifest "$WORK/remote.manifest" --minsup "$MINSUP" \
  --minconf "$MINCONF" --format csv \
  > "$WORK/rules_down.csv" 2> "$WORK/down.err" || rc=$?
[[ "$rc" -ne 0 ]] || {
  echo "FAIL: mine succeeded with a dead shard"; exit 1
}
grep -q "Unavailable" "$WORK/down.err" || {
  echo "FAIL: dead shard did not surface as Unavailable"
  cat "$WORK/down.err"; exit 1
}
grep -q "shard 's1@" "$WORK/down.err" || {
  echo "FAIL: the Unavailable error does not name the dead shard"
  cat "$WORK/down.err"; exit 1
}
[[ ! -s "$WORK/rules_down.csv" ]] || {
  echo "FAIL: a failed distributed mine still produced rule output"; exit 1
}
rc=0
"$SHARDCTL" stats --manifest "$WORK/remote.manifest" \
  > "$WORK/stats_down.out" || rc=$?
[[ "$rc" -eq 3 ]] || {
  echo "FAIL: shardctl stats should exit 3 with a dead shard, got $rc"
  cat "$WORK/stats_down.out"; exit 1
}
grep -q "reachable=no" "$WORK/stats_down.out" || {
  echo "FAIL: stats does not mark the dead shard unreachable"; exit 1
}

# The survivors must still serve: parseable STATS prom with served requests.
printf 'STATS prom\nQUIT\n' | "$LOADGEN" --connect "127.0.0.1:${PORTS[0]}" \
  --payload-only --fail-on-err > "$WORK/survivor.prom"
grep -q "^# TYPE setm_srv_requests_total counter" "$WORK/survivor.prom" || {
  echo "FAIL: survivor STATS prom lacks setm_srv_requests_total"
  head "$WORK/survivor.prom"; exit 1
}
awk '/^# /{next} !/^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9]+$/ {
  print "FAIL: unparseable sample line: " $0; bad=1 } END{ exit bad }' \
  "$WORK/survivor.prom"
echo "survivors healthy: STATS prom parses on shard 0"

echo "shard smoke OK"
