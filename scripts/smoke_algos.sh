#!/usr/bin/env bash
# Cross-algorithm smoke for the unified `--algo` dispatch:
#
#   1. `setm_mine --algo list` must enumerate the registry (all six
#      built-in algorithms present);
#   2. every listed algorithm mines the paper's Section 4.2 example and its
#      rule output must be byte-identical to the committed SETM golden file
#      (tests/golden/paper_example_rules.csv);
#   3. every listed algorithm mines a deterministic Quest-style workload
#      and is diffed against the SETM run's output — setm and apriori
#      additionally at --threads 4 (four in-process shards for setm, four
#      counting chunks for apriori).
#
# A newly registered algorithm is covered automatically: it appears in
# `--algo list` and therefore in both sweeps.
#
#   usage: scripts/smoke_algos.sh path/to/setm_mine [workdir]
set -euo pipefail

SETM_MINE="${1:?usage: smoke_algos.sh path/to/setm_mine [workdir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"
GOLDEN="$(cd "$(dirname "$0")/.." && pwd)/tests/golden/paper_example_rules.csv"

echo "== --algo list enumerates the registry"
"$SETM_MINE" --algo list > "$WORK/algos.tsv"
ALGOS="$(cut -f1 "$WORK/algos.tsv")"
[ -n "$ALGOS" ] || { echo "FAIL: --algo list printed nothing"; exit 1; }
for a in setm setm-sql nested-loop apriori ais brute-force; do
  grep -qx "$a" <<< "$ALGOS" || {
    echo "FAIL: built-in '$a' missing from --algo list"; exit 1;
  }
done
echo "$(wc -l < "$WORK/algos.tsv") algorithms registered"

echo "== paper example: every algorithm vs the SETM golden file"
{
  echo "trans_id,item"
  for row in 10,0 10,1 10,2 20,0 20,1 20,3 30,0 30,1 30,2 40,1 40,2 40,3 \
             50,0 50,2 50,6 60,0 60,3 60,6 70,0 70,4 70,7 80,3 80,4 80,5 \
             90,3 90,4 90,5 99,3 99,4 99,5; do
    echo "$row"
  done
} > "$WORK/paper.csv"
for a in $ALGOS; do
  "$SETM_MINE" --input "$WORK/paper.csv" --algo "$a" \
    --minsup 30 --minconf 70 --format csv > "$WORK/paper_$a.csv"
  diff "$WORK/paper_$a.csv" "$GOLDEN" > /dev/null || {
    echo "FAIL: --algo $a diverges from the SETM golden on the paper example"
    diff "$WORK/paper_$a.csv" "$GOLDEN" || true
    exit 1
  }
done
echo "all algorithms byte-identical to $GOLDEN"

echo "== deterministic Quest-style workload: every algorithm vs setm"
awk 'BEGIN{for(t=1;t<=600;t++){print t","1; print t","2;
  if(t%2==0)print t","3; if(t%3==0)print t","4;
  print t","(5+t%7); print t","(12+t%11)}}' > "$WORK/quest.csv"
"$SETM_MINE" --input "$WORK/quest.csv" --minsup 10 --format csv \
  > "$WORK/quest_ref.csv"
for a in $ALGOS; do
  "$SETM_MINE" --input "$WORK/quest.csv" --algo "$a" --minsup 10 \
    --format csv > "$WORK/quest_$a.csv"
  diff "$WORK/quest_$a.csv" "$WORK/quest_ref.csv" > /dev/null || {
    echo "FAIL: --algo $a diverges from setm on the Quest workload"; exit 1;
  }
done
for a in setm apriori; do
  "$SETM_MINE" --input "$WORK/quest.csv" --algo "$a" --threads 4 \
    --minsup 10 --format csv > "$WORK/quest_${a}_par4.csv"
  diff "$WORK/quest_${a}_par4.csv" "$WORK/quest_$a.csv" > /dev/null || {
    echo "FAIL: $a --threads 4 diverges from serial $a"; exit 1;
  }
done
rules=$(($(wc -l < "$WORK/quest_ref.csv") - 1))
echo "all algorithms identical on the Quest workload ($rules rules)"

echo "algo smoke OK"
