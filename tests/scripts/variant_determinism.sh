#!/usr/bin/env bash
# Variant-determinism gate: run each bench under several variants of its
# command line (thread count, waveform cache, kernel fast path, ...) and
# require the named outputs to be byte-identical across the variants.
# Every trial draws from Rng::fork(point, trial) streams and merges
# row-major, and every oracle toggle is bit-exact, so no variant may move
# a byte of a figure CSV, the metrics JSON, the trace or the printed
# table.
#
# usage: variant_determinism.sh <workdir> <files> <args> <bench>... -- <variant>...
#   <files>    space-separated output names relative to a run's
#              directory; shell globs are allowed ('*.csv') and
#              stdout.txt is the bench's standard output.  Each must
#              match at least one file in the first variant's run.
#   <args>     arguments common to every run; @DIR@ stands for the
#              run's directory.
#   <variant>  NAME=ARGS: the run's name and its extra arguments.
# Each bench runs once per variant into <workdir>/<bench>/<NAME>; every
# compared file is then cmp'd against the first variant's copy.
set -euo pipefail
shopt -s nullglob

usage() {
  echo "usage: $0 <workdir> <files> <args> <bench>... -- <variant>..." >&2
  exit 2
}

[ $# -ge 4 ] || usage
workdir="$1"
read -ra files <<<"$2"
read -ra common <<<"$3"
shift 3
benches=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
  benches+=("$1")
  shift
done
[ $# -gt 0 ] && shift
variants=("$@")
[ ${#benches[@]} -ge 1 ] && [ ${#variants[@]} -ge 2 ] || usage

rm -rf "$workdir"

for bench in "${benches[@]}"; do
  label="$(basename "$bench")"
  for variant in "${variants[@]}"; do
    name="${variant%%=*}"
    read -ra extra <<<"${variant#*=}"
    dir="$workdir/$label/$name"
    mkdir -p "$dir"
    if ! "$bench" "${common[@]//@DIR@/"$dir"}" "${extra[@]}" \
        >"$dir/stdout.txt" 2>"$dir/stderr.txt"; then
      echo "FAIL: $label $name exited nonzero" >&2
      cat "$dir/stderr.txt" >&2
      exit 1
    fi
  done

  base_name="${variants[0]%%=*}"
  base="$workdir/$label/$base_name"
  for pattern in "${files[@]}"; do
    matches=("$base"/$pattern)
    [ ${#matches[@]} -gt 0 ] && [ -e "${matches[0]}" ] || {
      echo "FAIL: $label $base_name wrote no $pattern" >&2
      exit 1
    }
    for path in "${matches[@]}"; do
      f="${path#"$base"/}"
      for variant in "${variants[@]:1}"; do
        other="$workdir/$label/${variant%%=*}/$f"
        if ! cmp -s "$path" "$other"; then
          echo "FAIL: $label $f differs between $base_name and" \
               "${variant%%=*}" >&2
          diff "$path" "$other" >&2 || true
          exit 1
        fi
      done
    done
  done
  echo "$label: ${files[*]} byte-identical across ${#variants[@]} variants"
done
