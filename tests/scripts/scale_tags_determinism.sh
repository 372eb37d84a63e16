#!/usr/bin/env bash
# Determinism gate for the many-tag scale sweep (ISSUE 10 satellite b).
#
# Runs bench_scale_tags four ways — {--threads 1, --threads 8} ×
# {--waveform-cache on, off} — with a fixed seed, tag sweep, and trial
# count, then byte-compares scale_tags.csv and the metrics JSON (which
# embeds the per-tag fleet.* counters and histograms) across all four
# runs.  This is the end-to-end proof that the fleet world model keeps
# the trial engine's contracts: per-tag Rng sub-streams independent of
# scheduling, arbitration pure in the contender set, superposition
# probes keyed on drawn content.
#
# A fast-path leg reruns the sweep with --fast-path off, which walks
# every tag's contention on the scalar oracle instead of the vector
# lanes, and then the 1024-tag operating point (full and ragged lane
# groups) at --threads 1 and 8, each with the fast path on and off; all
# of them must match byte for byte.
#
# A SIGKILL leg then crashes the sweep mid-flight (MS_CRASH_AFTER_CELLS)
# with a checkpoint journal armed, resumes from the journal, and
# byte-compares the resumed output against the uninterrupted reference.
#
# usage: scale_tags_determinism.sh <bench_scale_tags binary> <workdir>
set -euo pipefail

bench="$1"
workdir="$2"

rm -rf "$workdir"
mkdir -p "$workdir"

# Small sweep, big enough to exercise the waveform probe (N <= 8) and
# the analytic-only path (N = 16, 32) across several grid cells.
common=(--trials 3 --seed 7 --tags 32 --capture-threshold-db 6)

run() {
  local dir="$1" threads="$2" cache="$3"
  shift 3
  mkdir -p "$dir"
  "$bench" "${common[@]}" --threads "$threads" --waveform-cache "$cache" \
    --out "$dir" --metrics-out "$dir/metrics.json" "$@" \
    >>"$dir/stdout.txt" 2>>"$dir/stderr.txt"
}

# same_outputs REF VARIANT...: scale_tags.csv and metrics.json of every
# variant run directory are byte-identical to REF's.
same_outputs() {
  local ref="$1"
  shift
  for f in scale_tags.csv metrics.json; do
    for variant in "$@"; do
      if ! cmp -s "$workdir/$ref/$f" "$workdir/$variant/$f"; then
        echo "FAIL: $f differs between $ref and $variant" >&2
        diff "$workdir/$ref/$f" "$workdir/$variant/$f" >&2 || true
        exit 1
      fi
    done
  done
}

run "$workdir/t1_on" 1 on
run "$workdir/t8_on" 8 on
run "$workdir/t1_off" 1 off
run "$workdir/t8_off" 8 off
same_outputs t1_on t8_on t1_off t8_off
echo "scale tags: CSV + metrics byte-identical across threads x cache"

# --- fast-path oracle legs --------------------------------------------
run "$workdir/t8_ref" 8 on --fast-path off
same_outputs t1_on t8_ref
for threads in 1 8; do
  for fast in on off; do
    run "$workdir/n1024_t${threads}_${fast}" "$threads" on \
      --tags 1024 --trials 1 --fast-path "$fast"
  done
done
same_outputs n1024_t1_on n1024_t1_off n1024_t8_on n1024_t8_off
echo "scale tags: fast path byte-identical to its oracle (32 and 1024 tags)"

# --- SIGKILL-and-resume leg -------------------------------------------
res="$workdir/resumed"
ckpt="$workdir/run.ckpt"
mkdir -p "$res"

status=0
MS_CRASH_AFTER_CELLS=5 \
  run "$res" 8 on --checkpoint-out "$ckpt" --checkpoint-interval 1 \
  || status=$?
if [ "$status" -eq 0 ]; then
  echo "FAIL: crash leg outran the sweep (raise the cell budget)" >&2
  exit 1
fi
if [ "$status" -ne 137 ]; then
  echo "FAIL: crashed run exited $status, expected 137 (SIGKILL)" >&2
  cat "$res/stderr.txt" >&2
  exit 1
fi
[ -f "$ckpt" ] || { echo "FAIL: crash left no journal at $ckpt" >&2; exit 1; }

rm -f "$res"/*.csv "$res/metrics.json"
run "$res" 8 on --resume "$ckpt"
grep -q "resume: replaying" "$res/stderr.txt" || {
  echo "FAIL: resumed run never reported replaying the journal" >&2
  exit 1
}
for f in scale_tags.csv metrics.json; do
  if ! cmp -s "$workdir/t8_on/$f" "$res/$f"; then
    echo "FAIL: $f differs between reference and resumed run" >&2
    diff "$workdir/t8_on/$f" "$res/$f" >&2 || true
    exit 1
  fi
done
echo "scale tags: SIGKILL + resume byte-identical to uninterrupted run"
