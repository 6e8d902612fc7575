#!/usr/bin/env bash
# End-to-end smoke of the observability subsystem behind setm_mine:
#
#   process A  mines at a low threshold with a small pool and stores the
#              run, exporting --trace and --metrics prom;
#   process B  reopens the file and re-asks at a HIGHER threshold, same
#              exports.
#
# Asserts, per the ISSUE 8 acceptance criteria:
#   1. A's trace is a full-mine tree: a "request" root tagged
#      strategy=full-mine with plan and mine children, one "iteration"
#      span per pass, and at least one iteration carrying a non-zero
#      page-read delta (the pool is sized to force real traffic); the mine
#      span carries the SALES intake's sales_rows and kept_rows, equal;
#   2. B's trace is a cache-filter tree: strategy=cache-filter, a "load"
#      child, and ZERO iteration spans — the no-mining guarantee made
#      structural;
#   3. both Prometheus exports parse: unique # TYPE names, every sample
#      line well-formed, cumulative histogram buckets monotone with the
#      +Inf bucket equal to _count, and the io/pool/wal/plan/mine families
#      all present;
#   4. the --stats ledger carries the pool: line, with the scratch pages
#      read and written around the pool, and the wal: line; A's small pool
#      moves some scratch pages around it;
#   5. process C appends a batch with borderline itemsets (item 23, in no
#      stored run) and derives: its "old partition" span carries the
#      SALES intake's counts, sales_rows (rows scanned) and kept_rows
#      (rows up to the watermark of the lattice's items), with
#      0 < kept_rows < sales_rows.
#
#   usage: scripts/smoke_observability.sh path/to/setm_mine [workdir]
set -euo pipefail

SETM_MINE="${1:?usage: smoke_observability.sh path/to/setm_mine [workdir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"

STORE_MINSUP=2
QUERY_MINSUP=3
POOL=16   # small on purpose: iteration spans must show real page reads
# 6,000 transactions, so that A's R_k outgrow the pool and its last scans
# and R_k writes go around it (R_k is stored as one group per transaction).

awk 'BEGIN{for(t=1;t<=6000;t++){print t","1; print t","2;
  if(t%2==0)print t","3; if(t%3==0)print t","4;
  print t","(5+t%7); print t","(12+t%11)}}' > "$WORK/sales.csv"

echo "== process A: full mine + store, tracing and exporting"
"$SETM_MINE" --db "$WORK/sales.db" --input "$WORK/sales.csv" --store fi \
  --minsup "$STORE_MINSUP" --pool-frames "$POOL" --format csv \
  --trace --metrics prom --stats \
  > /dev/null 2> "$WORK/a.err"

echo "== process B: dominated re-query, tracing and exporting"
"$SETM_MINE" --db "$WORK/sales.db" --store fi --minsup "$QUERY_MINSUP" \
  --pool-frames "$POOL" --format csv --trace --metrics prom --stats \
  > /dev/null 2> "$WORK/b.err"

# The trace block: from "trace:" to the first non-indented line.
trace_of() {
  awk '/^trace:$/{blk=1; next} blk && /^[^ ]/{blk=0} blk' "$1"
}
trace_of "$WORK/a.err" > "$WORK/a.trace"
trace_of "$WORK/b.err" > "$WORK/b.trace"

# -- 1. full-mine trace shape ------------------------------------------------
grep -q "request .*strategy=full-mine" "$WORK/a.trace" || {
  echo "FAIL: A's root span is not tagged full-mine:"; cat "$WORK/a.trace"
  exit 1
}
grep -q "^    plan " "$WORK/a.trace" || {
  echo "FAIL: A's trace has no plan span"; cat "$WORK/a.trace"; exit 1
}
grep -q "^    mine .*algorithm=" "$WORK/a.trace" || {
  echo "FAIL: A's trace has no mine span"; cat "$WORK/a.trace"; exit 1
}
# A full mine keeps every SALES row it scans.
grep -q "^    mine .* sales_rows=\([1-9][0-9]*\) kept_rows=\1$" "$WORK/a.trace" || {
  echo "FAIL: A's mine span lacks sales_rows = kept_rows > 0"
  cat "$WORK/a.trace"; exit 1
}
A_ITERS="$(grep -c "^      iteration .*k=" "$WORK/a.trace" || true)"
if [[ "$A_ITERS" -lt 2 ]]; then
  echo "FAIL: full mine traced only $A_ITERS iteration spans"
  cat "$WORK/a.trace"; exit 1
fi
grep -q "^      iteration .*reads=[1-9]" "$WORK/a.trace" || {
  echo "FAIL: no iteration span carries a page-read delta (pool=$POOL)"
  cat "$WORK/a.trace"; exit 1
}
echo "full-mine trace: $A_ITERS iteration spans with read deltas"

# -- 2. cache-filter trace shape ---------------------------------------------
grep -q "request .*strategy=cache-filter" "$WORK/b.trace" || {
  echo "FAIL: B's root span is not tagged cache-filter:"; cat "$WORK/b.trace"
  exit 1
}
grep -q "^    load " "$WORK/b.trace" || {
  echo "FAIL: B's trace has no load span"; cat "$WORK/b.trace"; exit 1
}
if grep -q "iteration" "$WORK/b.trace"; then
  echo "FAIL: cache-filtered re-query traced mining iterations:"
  cat "$WORK/b.trace"; exit 1
fi
echo "cache-filter trace: load span, zero iteration spans"

# -- 3. Prometheus exports parse ----------------------------------------------
# The export block: from the first "# HELP"/"# TYPE" line to the end of the
# metric samples (setm_mine prints it last before exiting).
prom_of() {
  awk '/^# (HELP|TYPE) /{blk=1}
       blk && !/^(# (HELP|TYPE) )|^[A-Za-z_:]/{blk=0}
       blk' "$1"
}
check_prom() {
  local file="$1"; shift
  prom_of "$file" > "$file.prom"
  [[ -s "$file.prom" ]] || {
    echo "FAIL: no Prometheus export in $file"; exit 1;
  }
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
  ' "$file.prom" || { echo "(export was $file.prom)"; exit 1; }
  # The stack must report: every family that had traffic is present.
  for family in "$@"; do
    grep -q "^# TYPE $family " "$file.prom" || {
      echo "FAIL: metric family $family missing from $file.prom"; exit 1;
    }
  done
}
# A mined and appended: every instrumented layer saw traffic. B only
# loaded the store, so the WAL-append and iteration families (registered
# lazily, on first use) are legitimately absent from its export.
check_prom "$WORK/a.err" setm_io_page_reads_total setm_pool_hits_total \
  setm_pool_bypass_reads_total setm_pool_bypass_writes_total \
  setm_wal_page_records_total setm_plan_requests_total \
  setm_mine_iterations_total
check_prom "$WORK/b.err" setm_io_page_reads_total setm_pool_hits_total \
  setm_plan_requests_total
echo "Prometheus exports parse (unique names, monotone buckets)"

# -- 4. the --stats ledger lines ----------------------------------------------
for f in "$WORK/a.err" "$WORK/b.err"; do
  grep -Eq "^pool: hits=[0-9]+ misses=[0-9]+ hit_ratio=[0-9.]+ .*bypass_reads=[0-9]+ bypass_writes=[0-9]+$" "$f" || {
    echo "FAIL: no pool: ledger line with bypass counts in $f"; exit 1;
  }
  grep -Eq "^wal: records=[0-9]+ commits=[0-9]+ bytes=[0-9]+ fsyncs=[0-9]+" \
    "$f" || { echo "FAIL: no wal: ledger line in $f"; exit 1; }
done
grep -Eq "^pool: .*bypass_reads=[1-9][0-9]* bypass_writes=[1-9][0-9]*$" \
  "$WORK/a.err" || {
  echo "FAIL: A's $POOL-frame mine moved no scratch page around the pool:"
  grep "^pool:" "$WORK/a.err"; exit 1;
}
echo "pool: and wal: ledger lines present"

# -- 5. the derive's intake counts ---------------------------------------------
awk 'BEGIN{for(t=6001;t<=6300;t++){print t","1; print t","2;
  print t","(5+t%7); if(t%4==0)print t","23}}' > "$WORK/batch.csv"
echo "== process C: append with borderline itemsets, tracing"
"$SETM_MINE" --db "$WORK/sales.db" --append "$WORK/batch.csv" --incremental \
  --store fi --minsup "$STORE_MINSUP" --pool-frames "$POOL" --format csv \
  --trace > /dev/null 2> "$WORK/c.err"
trace_of "$WORK/c.err" > "$WORK/c.trace"
OLD="$(grep -m1 "^      old partition " "$WORK/c.trace" || true)"
[[ -n "$OLD" ]] || {
  echo "FAIL: C's derive has no old partition span"; cat "$WORK/c.trace"
  exit 1
}
SALES_ROWS="$(sed -n 's/.* sales_rows=\([0-9]*\).*/\1/p' <<< "$OLD")"
KEPT_ROWS="$(sed -n 's/.* kept_rows=\([0-9]*\).*/\1/p' <<< "$OLD")"
if [[ -z "$SALES_ROWS" || -z "$KEPT_ROWS" || "$KEPT_ROWS" -le 0 ||
      "$KEPT_ROWS" -ge "$SALES_ROWS" ]]; then
  echo "FAIL: old partition span lacks 0 < kept_rows < sales_rows: $OLD"
  exit 1
fi
echo "old partition intake: kept_rows=$KEPT_ROWS of sales_rows=$SALES_ROWS"

echo "observability smoke OK"
