#!/usr/bin/env bash
# Checks that the working tree's study outputs are identical to those of a
# git revision.
#
#   tools/identity-vs.sh REF
#
# Builds REF's `repro` from a plain checkout of REF (`git archive`) with
# its own target directory, in a temporary directory that is removed on
# exit, and builds the working tree's `repro` as usual. Then, for every
# scale in quick, faults, nat64, panel and internet-smoke, seeds 42 and 7,
# and IPV6WEB_THREADS 1 and 4, it runs
#
#   repro all --scale S --seed N --json F --metrics M
#
# on both, byte-compares the two reports and the two stdouts with
# tools/ci-compare.sh, and gates the working tree's run against REF's
# BENCH.json (`repro --baseline`), which fails on any counter or histogram
# that differs (besides a wall time or peak RSS 50% over REF's). It also
# runs
#
#   repro all --scale faults --seed 42 --checkpoint-dir D
#
# on both at IPV6WEB_THREADS 1 and 4, each into a fresh D, and byte-compares
# every file of REF's D with the working tree's. Every comparison runs; the
# script exits 1 if any of them failed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 REF" >&2
  exit 2
fi
ref=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "identity-vs: building $ref" >&2
mkdir "$work/ref"
git archive "$ref" | tar -x -C "$work/ref"
(cd "$work/ref" && CARGO_TARGET_DIR="$work/ref-target" cargo build --release -q -p ipv6web-bench)
echo "identity-vs: building the working tree" >&2
cargo build --release -q -p ipv6web-bench
ref_repro="$work/ref-target/release/repro"
cur_repro="${CARGO_TARGET_DIR:-target}/release/repro"

fail=0
for scale in quick faults nat64 panel internet-smoke; do
  for seed in 42 7; do
    for threads in 1 4; do
      run="$scale seed $seed threads $threads"
      out="$work/$scale-$seed-$threads"
      same=1
      if ! IPV6WEB_THREADS=$threads "$ref_repro" all --scale "$scale" --seed "$seed" \
        --json "$out.ref.json" --metrics "$out.ref.bench.json" \
        >"$out.ref.txt" 2>"$out.ref.err"; then
        echo "identity-vs: $run: REF's run failed:" >&2
        tail -5 "$out.ref.err" >&2
        fail=1
        continue
      fi
      if ! IPV6WEB_THREADS=$threads "$cur_repro" all --scale "$scale" --seed "$seed" \
        --json "$out.cur.json" --metrics "$out.cur.bench.json" \
        --baseline "$out.ref.bench.json" >"$out.cur.txt" 2>"$out.cur.err"; then
        echo "identity-vs: $run: the working tree's run or its gate against REF failed:" >&2
        sed -n '/bench gate/,$p' "$out.cur.err" >&2
        same=0
      fi
      for kind in json txt; do
        if ! tools/ci-compare.sh "$out.ref.$kind" "$out.cur.$kind" >/dev/null; then
          echo "identity-vs: $run: the $kind output differs (above)" >&2
          same=0
        fi
      done
      if [[ $same -eq 1 ]]; then
        echo "identity-vs: $run: identical"
      else
        fail=1
      fi
    done
  done
done

for threads in 1 4; do
  run="faults seed 42 threads $threads checkpoints"
  out="$work/ckpt-$threads"
  ran=1
  for side in ref cur; do
    repro_bin=$ref_repro
    if [[ $side == cur ]]; then repro_bin=$cur_repro; fi
    if ! IPV6WEB_THREADS=$threads "$repro_bin" all --scale faults --seed 42 \
      --checkpoint-dir "$out.$side" >/dev/null 2>"$out.$side.err"; then
      echo "identity-vs: $run: the $side run failed:" >&2
      tail -5 "$out.$side.err" >&2
      ran=0
    fi
  done
  if [[ $ran -eq 0 ]]; then
    fail=1
  elif [[ -z "$(ls -A "$out.ref")" ]]; then
    echo "identity-vs: $run: REF wrote no checkpoint files" >&2
    fail=1
  elif diff -r -q "$out.ref" "$out.cur" >&2; then
    echo "identity-vs: $run: identical ($(ls "$out.ref" | wc -l) files)"
  else
    echo "identity-vs: $run: the checkpoint files differ (above)" >&2
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "identity-vs: FAIL — the working tree differs from $ref" >&2
  exit 1
fi
echo "identity-vs: reports, stdout, counts and checkpoints identical to $ref"
