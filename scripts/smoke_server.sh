#!/usr/bin/env bash
# End-to-end smoke of the resident mining daemon:
#
#   seed      setm_mine loads a 2000-transaction CSV into a database file;
#   serve     setm_served opens it once (--trace) on an ephemeral port;
#   phase 1   one client full-mines at a low support (write-back stores it);
#   phase 2   TWO CONCURRENT clients re-ask at a higher support — both must
#             be answered from the shared result cache;
#   phase 3   a client APPENDs a batch at the cold support, one-item
#             transactions among its rows, and asks for the rules; the
#             batch's new items make the derive count borderline itemsets
#             over the old rows;
#   phase 4   a client is hard-killed mid-MINE; the daemon must cancel the
#             orphaned job and keep serving;
#   shutdown  SIGTERM must exit 0 with the served-requests summary.
#
# Asserts:
#   1. both concurrent clients' RULES payloads are byte-identical to
#      `setm_mine --format csv` on the same question — the CLI and the
#      server share one renderer, and the smoke proves it end to end;
#   2. the server's --trace stream contains a full-mine request tree with
#      iteration spans AND cache-filter request trees with ZERO iteration
#      spans (checked per trace block, not globally);
#   3. STATS prom parses exactly like the CLI's --metrics prom export
#      (unique # TYPE names, well-formed samples, monotone cumulative
#      buckets) and carries the setm_srv_* server families;
#   4. the rules after the APPEND are byte-identical to `setm_mine
#      --format csv` remining the combined CSV, and the APPEND's trace block
#      is a delta-derive with an "old partition" span;
#   5. after the mid-MINE kill the daemon still answers, and its final
#      summary counts the disconnect.
#
#   usage: scripts/smoke_server.sh setm_served setm_loadgen setm_mine [workdir]
set -euo pipefail

SERVED="${1:?usage: smoke_server.sh setm_served setm_loadgen setm_mine [workdir]}"
LOADGEN="${2:?usage: smoke_server.sh setm_served setm_loadgen setm_mine [workdir]}"
SETM_MINE="${3:?usage: smoke_server.sh setm_served setm_loadgen setm_mine [workdir]}"
WORK="${4:-$(mktemp -d)}"
mkdir -p "$WORK"

SEED_MINSUP=5    # percent: the seed store, ABOVE the cold query so the
                 # server's first MINE is a genuine full mine
COLD_MINSUP=2    # percent: the cold full mine, written back to the store
QUERY_MINSUP=3   # percent: the dominated re-query both clients ask
MINCONF=70

SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

awk 'BEGIN{for(t=1;t<=2000;t++){print t","1; print t","2;
  if(t%2==0)print t","3; if(t%3==0)print t","4;
  print t","(5+t%7); print t","(12+t%11)}}' > "$WORK/sales.csv"

echo "== seed: load the CSV into a database file"
"$SETM_MINE" --db "$WORK/sales.db" --input "$WORK/sales.csv" --store fi \
  --minsup "$SEED_MINSUP" --minconf "$MINCONF" --format csv \
  > /dev/null 2>&1

# The reference answer, from the one-shot CLI on the same data: what every
# server client must receive, byte for byte.
"$SETM_MINE" --input "$WORK/sales.csv" --minsup "$QUERY_MINSUP" \
  --minconf "$MINCONF" --format csv > "$WORK/rules_cli.csv" 2>/dev/null

echo "== serve: daemon on an ephemeral port, tracing to stderr"
"$SERVED" --db "$WORK/sales.db" --port 0 --port-file "$WORK/port" --trace \
  > "$WORK/server.out" 2> "$WORK/server.err" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$WORK/port" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "FAIL: daemon died during startup"; cat "$WORK/server.err"; exit 1
  }
  sleep 0.1
done
[[ -s "$WORK/port" ]] || { echo "FAIL: no port file"; exit 1; }
PORT="$(cat "$WORK/port")"
echo "   listening on 127.0.0.1:$PORT"

run_client() {  # run_client <script-string> <output-file>
  printf '%s\n' "$1" | "$LOADGEN" --connect "127.0.0.1:$PORT" \
    --payload-only --fail-on-err > "$2"
}

echo "== phase 1: cold full mine at ${COLD_MINSUP}% (stores the run)"
run_client "MINE sales SUPPORT ${COLD_MINSUP}%
QUIT" "$WORK/cold.out"

echo "== phase 2: two concurrent clients re-query at ${QUERY_MINSUP}%"
run_client "MINE sales SUPPORT ${QUERY_MINSUP}%
RULES ${MINCONF}
QUIT" "$WORK/client_a.out" &
A_PID=$!
run_client "MINE sales SUPPORT ${QUERY_MINSUP}%
RULES ${MINCONF}
QUIT" "$WORK/client_b.out" &
B_PID=$!
wait "$A_PID" "$B_PID"

# -- 1. bit-identity against the CLI -----------------------------------------
# The client output is the MINE itemsets payload followed by the RULES CSV;
# the CSV starts at its header line.
for c in a b; do
  awk '/^antecedent,consequent,/{p=1} p' "$WORK/client_$c.out" \
    > "$WORK/rules_$c.csv"
  cmp -s "$WORK/rules_$c.csv" "$WORK/rules_cli.csv" || {
    echo "FAIL: client $c's RULES payload differs from setm_mine --format csv"
    diff "$WORK/rules_cli.csv" "$WORK/rules_$c.csv" | head -10
    exit 1
  }
done
cmp -s "$WORK/client_a.out" "$WORK/client_b.out" || {
  echo "FAIL: the two concurrent clients got different answers"; exit 1
}
echo "both clients byte-identical to the CLI ($(wc -l < "$WORK/rules_cli.csv") rule lines)"

# -- 2. per-block trace shape -------------------------------------------------
# Each request renders one "trace:" block (indented span tree) to stderr.
# The cold mine must show iteration spans; every cache-filter block must
# show NONE — the planner's no-mining guarantee, observed at the server.
awk '
  function flush() {
    if (!blk) return
    blocks++
    if (fm) { full++; if (!it) missing_iter=1 }
    if (cf) { cache++; if (it) { print "offending cache-filter block:" blktxt; bad=1 } }
    blk=0; blktxt=""
  }
  /^trace:$/ { flush(); blk=1; cf=0; fm=0; it=0; next }
  blk && /^[^ ]/ { flush(); next }
  blk {
    blktxt=blktxt "\n" $0
    if (/strategy=cache-filter/) cf=1
    if (/strategy=full-mine/)    fm=1
    if (/^ +iteration /)         it++
  }
  END {
    flush()
    printf "trace blocks: %d total, %d full-mine, %d cache-filter\n", blocks, full, cache
    if (full < 1)    { print "FAIL: no full-mine trace block"; bad=1 }
    if (missing_iter){ print "FAIL: a full-mine block has no iteration spans"; bad=1 }
    if (cache < 2)   { print "FAIL: expected both re-queries cache-filtered"; bad=1 }
    exit bad
  }
' "$WORK/server.err" || { echo "(server trace was $WORK/server.err)"; exit 1; }

# -- 3. STATS prom parses like the CLI export ---------------------------------
run_client "STATS prom
QUIT" "$WORK/stats.prom"
awk '
  /^# HELP /{next}
  /^# TYPE /{
    if (seen[$3]++) { print "FAIL: duplicate # TYPE for " $3; bad=1 }
    next
  }
  {
    if ($0 !~ /^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9]+$/) {
      print "FAIL: unparseable sample line: " $0; bad=1; next
    }
    name=$1
    if (name ~ /_bucket\{le="\+Inf"\}$/) {
      base=name; sub(/_bucket\{.*/, "", base)
      inf[base]=$2
    } else if (name ~ /_bucket\{/) {
      base=name; sub(/_bucket\{.*/, "", base)
      if ($2+0 < last[base]+0) {
        print "FAIL: non-monotone buckets for " base; bad=1
      }
      last[base]=$2
    } else if (name ~ /_count$/) {
      base=name; sub(/_count$/, "", base)
      if (base in inf && inf[base]+0 != $2+0) {
        print "FAIL: +Inf bucket != _count for " base; bad=1
      }
    }
  }
  END{ exit bad }
' "$WORK/stats.prom" || { echo "(export was $WORK/stats.prom)"; exit 1; }
for family in setm_srv_requests_total setm_srv_connections_total \
              setm_srv_request_micros setm_plan_requests_total \
              setm_plan_cache_filter_total; do
  grep -q "^# TYPE $family " "$WORK/stats.prom" || {
    echo "FAIL: metric family $family missing from STATS prom"; exit 1
  }
done
echo "STATS prom parses (unique names, monotone buckets, srv families)"

# -- 4. APPEND: delta derive against a remine of the combined CSV -------------
# The stored run answers the cold support, so an APPEND at that support is
# derived. Every third transaction holds one item; transactions holding
# the new items 30 and 31 make them borderline, counted over the old rows.
echo "== phase 3: APPEND a batch at ${COLD_MINSUP}% and ask for the rules"
{
  echo "!send APPEND sales SUPPORT ${COLD_MINSUP}%"
  for t in $(seq 2001 2040); do
    if (( t % 3 == 0 )); then
      echo "!send $t $((5 + t % 7))"
    elif (( t % 5 == 0 )); then
      echo "!send $t 1 30 31"
    else
      echo "!send $t 1 2 $((12 + t % 11))"
    fi
  done
  echo "."
  echo "RULES ${MINCONF}"
  echo "QUIT"
} > "$WORK/append.script"
"$LOADGEN" --connect "127.0.0.1:$PORT" --payload-only --fail-on-err \
  < "$WORK/append.script" > "$WORK/append.out"
{
  cat "$WORK/sales.csv"
  awk '/^!send [0-9]/{for (i = 3; i <= NF; i++) print $2 "," $i}' \
    "$WORK/append.script"
} > "$WORK/combined.csv"
"$SETM_MINE" --input "$WORK/combined.csv" --minsup "$COLD_MINSUP" \
  --minconf "$MINCONF" --format csv > "$WORK/rules_combined_cli.csv" 2>/dev/null
awk '/^antecedent,consequent,/{p=1} p' "$WORK/append.out" \
  > "$WORK/rules_append.csv"
cmp -s "$WORK/rules_append.csv" "$WORK/rules_combined_cli.csv" || {
  echo "FAIL: the rules after APPEND differ from a remine of the combined CSV"
  diff "$WORK/rules_combined_cli.csv" "$WORK/rules_append.csv" | head -10
  exit 1
}
echo "rules after APPEND byte-identical to the remine ($(wc -l < "$WORK/rules_combined_cli.csv") rule lines)"

# -- 5. hard-killed client mid-MINE -------------------------------------------
echo "== phase 4: kill a client mid-MINE"
printf '!send MINE sales SUPPORT 0.1%%\n!abort\n' \
  | "$LOADGEN" --connect "127.0.0.1:$PORT" > /dev/null || true
sleep 0.5
kill -0 "$SERVER_PID" 2>/dev/null || {
  echo "FAIL: daemon died after a client was killed mid-MINE"
  cat "$WORK/server.err"; exit 1
}
run_client "PING
QUIT" "$WORK/after_kill.out" || {
  echo "FAIL: daemon unresponsive after a client was killed mid-MINE"; exit 1
}
echo "daemon healthy after the kill"

# -- graceful shutdown ---------------------------------------------------------
kill -TERM "$SERVER_PID"
rc=0
wait "$SERVER_PID" || rc=$?
SERVER_PID=""
[[ "$rc" -eq 0 ]] || {
  echo "FAIL: daemon exited $rc on SIGTERM"; cat "$WORK/server.err"; exit 1
}
grep -Eq "^served [0-9]+ requests on [0-9]+ connections" "$WORK/server.err" || {
  echo "FAIL: no served-requests summary after shutdown"
  tail -5 "$WORK/server.err"; exit 1
}
DISCONNECTS="$(grep -Eo "[0-9]+ disconnects" "$WORK/server.err" | grep -Eo "^[0-9]+")"
[[ "${DISCONNECTS:-0}" -ge 1 ]] || {
  echo "FAIL: the killed client was not counted as a disconnect"; exit 1
}
echo "graceful shutdown: $(grep -E '^served' "$WORK/server.err")"

# The APPEND's trace block, read once the daemon has exited: a derive whose
# borderline itemsets were counted over the old partition.
awk '
  /^trace:$/ { blk=1; append=0; next }
  blk && /^[^ ]/ { blk=0; next }
  blk && /verb=append/ {
    append=1
    if (/strategy=delta-derive/) derive++
  }
  blk && append && /^ +old partition / { old++ }
  END {
    printf "APPEND trace: %d delta-derive block(s), %d old-partition span(s)\n", derive, old
    exit !(derive == 1 && old == 1)
  }
' "$WORK/server.err" || {
  echo "FAIL: the APPEND was not a delta derive with an old-partition span"
  echo "(server trace was $WORK/server.err)"; exit 1
}

echo "server smoke OK"
