#!/usr/bin/env bash
# SIGKILL crash-recovery smoke for `setm_mine --db`: append a series of
# delta batches to a database file, killing the process mid-append at a
# different point for every batch, then retry each interrupted batch the
# way a real ingest pipeline would. A control database receives the same
# batches with no kills.
#
# Asserts, per the crash-consistency acceptance criteria:
#   1. a SIGKILL at any point leaves the file openable — every retry either
#      succeeds or reports the batch as already applied (watermark check);
#      a corruption error is an instant failure;
#   2. after all batches the killed database's stored run is bit-identical
#      to the control's (rules and SALES row count), so no kill tears or
#      double-applies a batch.
#
# What the kills land on: in practice either before the append's commit
# (the retry finds the table as it was and applies the whole batch) or
# after the store save (the retry is refused as already applied). No run
# has been seen to stop between the commit and the save, which is the
# one window that leaves crash orphans: committed rows beyond the stored
# watermark. That path, Plan()'s tail scan of SALES beyond the watermark
# and the retry that re-submits or refuses the orphans, is covered by
# planner_test's InterruptedAppendIsCompletedByRetryUnderEveryBudget and
# InterruptedAppendRefusesADifferentBatchUnderEveryBudget.
#
#   usage: scripts/smoke_crash_recovery.sh path/to/setm_mine [workdir]
set -euo pipefail

SETM_MINE="${1:?usage: smoke_crash_recovery.sh path/to/setm_mine [workdir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"

MINSUP=20
POOL=32
BATCHES=6
BASE_TXNS=50000
BATCH_TXNS=1000

# Deterministic correlated data: a frequent {1,2}(+3,+4) core plus
# id-dependent filler — same shape as smoke_db_persist.sh but sized so one
# append takes tens of milliseconds, giving the SIGKILLs below a real
# window to land mid-flight. Item 23, in every fourth batch transaction
# only, is frequent in each batch but in no stored run, so every derive
# also counts its itemsets over the old partition, which the earlier
# batches' 23s are part of and a killed batch's orphans are not.
awk -v n="$BASE_TXNS" 'BEGIN{for(t=1;t<=n;t++){print t","1; print t","2;
  if(t%2==0)print t","3; if(t%3==0)print t","4;
  print t","(5+t%7); print t","(12+t%11)}}' > "$WORK/base.csv"
for ((b=1; b<=BATCHES; b++)); do
  awk -v lo=$((BASE_TXNS + (b-1)*BATCH_TXNS + 1)) \
      -v hi=$((BASE_TXNS + b*BATCH_TXNS)) \
    'BEGIN{for(t=lo;t<=hi;t++){print t","1; print t","2;
      if(t%2==0)print t","3; print t","(5+t%7); if(t%4==0)print t","23}}' \
    > "$WORK/batch_$b.csv"
done

append_args() {  # $1 = db file, $2 = batch csv
  echo --db "$1" --append "$2" --incremental --store fi \
    --minsup "$MINSUP" --pool-frames "$POOL" --format csv
}

echo "== seed both databases with the mined base run (no kills)"
for db in control crash; do
  "$SETM_MINE" --db "$WORK/$db.db" --input "$WORK/base.csv" --store fi \
    --minsup "$MINSUP" --pool-frames "$POOL" --format csv \
    > /dev/null 2> "$WORK/seed_$db.err"
done

echo "== control: $BATCHES clean appends"
for ((b=1; b<=BATCHES; b++)); do
  # shellcheck disable=SC2046
  "$SETM_MINE" $(append_args "$WORK/control.db" "$WORK/batch_$b.csv") \
    > /dev/null 2> "$WORK/control_$b.err"
done

echo "== crash db: kill each append mid-flight, then retry"
DELAYS=(0.010 0.018 0.026 0.034 0.042 0.055)
replayed=0
for ((b=1; b<=BATCHES; b++)); do
  delay="${DELAYS[$(( (b-1) % ${#DELAYS[@]} ))]}"
  # shellcheck disable=SC2046
  "$SETM_MINE" $(append_args "$WORK/crash.db" "$WORK/batch_$b.csv") \
    > /dev/null 2> "$WORK/killed_$b.err" &
  pid=$!
  sleep "$delay"
  kill -KILL "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true

  # The retry is the openability check: it must either apply the batch or
  # report it already applied — never a corruption error.
  # shellcheck disable=SC2046
  if "$SETM_MINE" $(append_args "$WORK/crash.db" "$WORK/batch_$b.csv") \
       > /dev/null 2> "$WORK/retry_$b.err"; then
    replayed=$((replayed + 1))
  elif grep -q "at or below the stored watermark" "$WORK/retry_$b.err"; then
    echo "   batch $b survived the kill (already applied)"
  else
    echo "FAIL: batch $b retry failed after SIGKILL (delay ${delay}s):"
    cat "$WORK/retry_$b.err"
    exit 1
  fi
done
echo "   $replayed/$BATCHES batches needed the retry"

echo "== final state: killed database must match the control"
for db in control crash; do
  "$SETM_MINE" --db "$WORK/$db.db" --store fi --minsup "$MINSUP" \
    --pool-frames "$POOL" --format csv \
    > "$WORK/${db}_final.csv" 2> "$WORK/${db}_final.err"
done

rows_of() { sed -n 's/^reopened database: \([0-9]*\) rows in sales.*/\1/p' "$1"; }
CONTROL_ROWS="$(rows_of "$WORK/control_final.err")"
CRASH_ROWS="$(rows_of "$WORK/crash_final.err")"
echo "sales rows: control=$CONTROL_ROWS crash=$CRASH_ROWS"
if [[ -z "$CONTROL_ROWS" || "$CONTROL_ROWS" != "$CRASH_ROWS" ]]; then
  echo "FAIL: SALES row counts diverged (torn or double-applied batch)"
  exit 1
fi

if ! diff <(sort "$WORK/control_final.csv") <(sort "$WORK/crash_final.csv"); then
  echo "FAIL: stored run differs between killed and control databases"
  exit 1
fi
echo "rules identical ($(($(wc -l < "$WORK/crash_final.csv") - 1)) rules)"

echo "crash-recovery smoke OK"
