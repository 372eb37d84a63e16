#!/usr/bin/env bash
# Full CI sweep: Release build + the four labeled ctest suites (unit,
# property, integration, golden) — the property label includes the
# bitpack equivalence, multipath-trajectory, PHY fast-path
# differential (with the noise, FIR, calibration-search,
# contention-walk and tag-link-slot oracle suites), and fleet
# capture/superposition suites, and the unit label the workload/degradation/
# time-varying-channel/fleet suites and the telemetry concurrency test
# (4 threads observing while a fifth registers metrics), so all of
# them get an ASan+UBSan pass below for free — then the
# bench-smoke label (which includes the threads-1 vs threads-8
# byte-identity gates for the waveform cache, the workload scorecard,
# the kernel fast path, and the many-tag scale sweep), a bench-perf
# smoke of the identification-, PHY-throughput, and tag-scaling
# microbenches, and finally the same four suites under ASan+UBSan
# (-DMS_SANITIZE=ON).  Exits nonzero on the first failing step.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc)"
labels=(unit property integration golden)

run_suites() {
  local build_dir="$1"
  for label in "${labels[@]}"; do
    echo "==> ctest -L ${label} (${build_dir##*/})"
    ctest --test-dir "${build_dir}" -L "${label}" --output-on-failure -j"${jobs}"
  done
}

echo "=== Release build ==="
cmake -B "${repo_root}/build" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${repo_root}/build" -j"${jobs}"
run_suites "${repo_root}/build"
echo "==> ctest -L bench-smoke (Release only)"
ctest --test-dir "${repo_root}/build" -L bench-smoke --output-on-failure -j"${jobs}"

echo "==> bench-perf smoke (Release only)"
# Short passes through the identification- and PHY-throughput
# microbenches: each runs its live fast-vs-reference bitwise equivalence
# gate and exercises the metrics plumbing.  Timing numbers on CI
# hardware are informational; the >=3x acceptance figures are measured
# on a quiet machine.  Each bench also writes a ms.run.v1 manifest;
# obs_report diff compares bench_ident_throughput's against the
# committed BENCH_seed.json baseline — warn-only, because CI hardware
# timing noise is not a regression, but a determinism break (exit 8 on
# the deterministic section) or an incomparable manifest (exit 2) still
# deserves a loud line in the log.
perf_dir="${repo_root}/build/bench-perf"
mkdir -p "${perf_dir}"
"${repo_root}/build/bench/bench_ident_throughput" --trials 1 \
    --out "${perf_dir}" --metrics-out "${perf_dir}/metrics.json" \
    --manifest-out "${perf_dir}/ident_manifest.json"
"${repo_root}/build/tools/validate_metrics" "${perf_dir}/metrics.json"
"${repo_root}/build/bench/bench_phy_throughput" --trials 2 \
    --out "${perf_dir}" --metrics-out "${perf_dir}/phy_metrics.json" \
    --manifest-out "${perf_dir}/phy_manifest.json"
"${repo_root}/build/tools/validate_metrics" "${perf_dir}/phy_metrics.json"
"${repo_root}/build/bench/bench_scale_tags" --trials 2 --threads 2 \
    --seed 7 --tags 32 \
    --out "${perf_dir}" --metrics-out "${perf_dir}/scale_metrics.json" \
    --manifest-out "${perf_dir}/scale_manifest.json"
"${repo_root}/build/tools/validate_metrics" "${perf_dir}/scale_metrics.json"

echo "==> cross-run regression report (warn-only)"
if [ -f "${repo_root}/BENCH_seed.json" ]; then
  diff_rc=0
  "${repo_root}/build/tools/obs_report" diff \
      "${repo_root}/BENCH_seed.json" "${perf_dir}/ident_manifest.json" \
      --tolerance 50 || diff_rc=$?
  case "${diff_rc}" in
    0|4) echo "obs_report: ident manifest consistent with BENCH_seed.json" ;;
    *)   echo "WARNING: obs_report diff vs BENCH_seed.json exited ${diff_rc}" \
             "(warn-only; refresh the baseline if the change is intentional)" ;;
  esac
else
  echo "WARNING: BENCH_seed.json baseline missing; skipping obs_report diff"
fi
if [ -f "${repo_root}/BENCH_seed_scale.json" ]; then
  diff_rc=0
  "${repo_root}/build/tools/obs_report" diff \
      "${repo_root}/BENCH_seed_scale.json" "${perf_dir}/scale_manifest.json" \
      --tolerance 50 || diff_rc=$?
  case "${diff_rc}" in
    0|4) echo "obs_report: scale manifest consistent with BENCH_seed_scale.json" ;;
    *)   echo "WARNING: obs_report diff vs BENCH_seed_scale.json exited ${diff_rc}" \
             "(warn-only; refresh the baseline if the change is intentional)" ;;
  esac
else
  echo "WARNING: BENCH_seed_scale.json baseline missing; skipping obs_report diff"
fi

echo "=== ASan+UBSan build ==="
cmake -B "${repo_root}/build-asan" -S "${repo_root}" -DMS_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${repo_root}/build-asan" -j"${jobs}"
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1"
run_suites "${repo_root}/build-asan"

echo "==> chaos + watchdog gates under ASan"
# The crash-safety paths deserve a sanitized pass of their own: the
# checkpoint writer/loader (including the corruption-matrix unit tests
# above), a quick kill-and-resume chain, and the watchdog quarantine all
# run against the ASan binaries.  CHAOS_QUICK keeps the chaos matrix
# affordable at sanitizer speed.
chaos_dir="${repo_root}/build-asan/chaos"
CHAOS_QUICK=1 bash "${repo_root}/tests/scripts/chaos_resume.sh" \
    "${repo_root}/build-asan/bench/bench_fig7_ordered" \
    "${repo_root}/build-asan/bench/bench_fig13_los" \
    "${chaos_dir}/resume"
bash "${repo_root}/tests/scripts/watchdog_quarantine.sh" \
    "${repo_root}/build-asan/bench/bench_fig7_ordered" \
    "${chaos_dir}/watchdog"

echo "CI: all suites green (Release + sanitizers)"
