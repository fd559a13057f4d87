#!/bin/sh
# Paired benchmark runs: a parent revision against HEAD.
#
#   bench/pairs.sh [-p REV] [-n PAIRS] [-w WORKLOAD] [-s SEED]
#                  [-t SECONDS] [-m METRIC]
#
# Builds bench/suite/suite.exe from the committed files of REV
# (default HEAD~1) and of HEAD, each in its own temporary directory,
# then runs PAIRS pairs (default 10) of
#   suite.exe --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
# alternating which side runs first.  METRIC (default tune_s) is read
# from the suite's "name value unit" lines.  Prints every pair, each
# side's median and quartiles, and how many pairs HEAD won with a
# lower value.  Uncommitted changes are not measured.
set -eu

rev=HEAD~1 pairs=10 workload=paper_ops seed=2025 seconds=15
metric=tune_s
while getopts p:n:w:s:t:m: opt; do
  case $opt in
    p) rev=$OPTARG ;;
    n) pairs=$OPTARG ;;
    w) workload=$OPTARG ;;
    s) seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    m) metric=$OPTARG ;;
    *) sed -n '2,15p' "$0" >&2; exit 2 ;;
  esac
done

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

for side in parent head; do
  if [ "$side" = parent ]; then r=$rev; else r=HEAD; fi
  mkdir "$tmp/$side"
  git -C "$root" archive "$r" | tar -x -C "$tmp/$side"
  echo "building $side ($(git -C "$root" rev-parse --short "$r"))" >&2
  (cd "$tmp/$side" && dune build --root . bench/suite/suite.exe 2>&1) >&2
done

run() {
  (cd "$tmp/$1" &&
    ./_build/default/bench/suite/suite.exe --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --trace 0) |
    awk -v m="$metric" '$1 == m { print $2 }'
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    p=$(run parent); h=$(run head)
  else
    h=$(run head); p=$(run parent)
  fi
  if [ -z "$p" ] || [ -z "$h" ]; then
    echo "pair $i: no $metric line" >&2; exit 1
  fi
  echo "pair $i: parent $p head $h"
  echo "$p $h" >>"$tmp/values"
  i=$((i + 1))
done

# Quartiles by linear interpolation between order statistics.
summary() {
  sort -g | awk -v side="$1" '
    { v[NR] = $1 }
    function q(p,   h, lo) {
      h = (NR - 1) * p + 1; lo = int(h)
      return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    END { printf "%s: q1 %g median %g q3 %g (spread %g)\n",
            side, q(0.25), q(0.5), q(0.75), q(0.75) - q(0.25) }'
}
echo "$workload $metric, seed $seed, ${seconds}s runs:"
cut -d' ' -f1 "$tmp/values" | summary parent
cut -d' ' -f2 "$tmp/values" | summary head
awk '
  { if ($2 < $1) w++ }
  END { printf "head wins %d of %d pairs\n", w, NR }' "$tmp/values"
