#!/usr/bin/env bash
# Perf-regression smoke: time a fixed 200-seed tmsim_fuzz batch
# (single job, quiet) and compare against the checked-in baseline in
# tools/perf_baseline.json.
#
# The gate is deliberately loose: only a regression of more than
# regression_threshold_pct (default 40%) over the baseline fails, so
# ordinary host-to-host and runner-to-runner variance does not flake.
# A softer tier warns (without failing) above warn_threshold_pct
# (default 20%) so creeping slowdowns surface before they trip the
# gate. Improvements never fail; refresh the baseline when the hot
# path gets faster so the gate stays meaningful.
#
# The measurement is not discarded: both the wall ms and the derived
# seeds/s are appended to the perf-trend file (BENCH_TREND.json, or
# TMSIM_TREND_FILE) via tools/bench_trend, as fuzz200_ms and
# fuzz200_seeds_per_second, so every smoke run extends the recorded
# trajectory. The names carry the batch size: fuzz_seeds_per_second is
# BENCH_hotpath.json's 1000-seed batch, a different measurement.
#
# Usage:
#   tools/perf_smoke.sh <path-to-tmsim_fuzz>
#   TMSIM_PERF_BASELINE_MS=900 tools/perf_smoke.sh ...   # override
#   TMSIM_TREND_FILE=/tmp/t.ndjson tools/perf_smoke.sh ...

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
fuzz_bin="${1:?usage: perf_smoke.sh <path-to-tmsim_fuzz>}"
baseline_file="${repo_root}/tools/perf_baseline.json"

read -r baseline_ms threshold_pct warn_pct < <(python3 - "$baseline_file" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print(doc["fuzz200_ms"], doc.get("regression_threshold_pct", 40),
      doc.get("warn_threshold_pct", 20))
EOF
)
baseline_ms="${TMSIM_PERF_BASELINE_MS:-${baseline_ms}}"

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

# Best of three: the batch is deterministic, so the minimum is the
# cleanest estimate of what the host can do.
best_ms=""
for _ in 1 2 3; do
    t0=$(date +%s%N)
    "${fuzz_bin}" --seeds 200 --quiet --out-dir "${workdir}" > /dev/null
    t1=$(date +%s%N)
    ms=$(( (t1 - t0) / 1000000 ))
    if [ -z "${best_ms}" ] || [ "${ms}" -lt "${best_ms}" ]; then
        best_ms="${ms}"
    fi
done

limit_ms=$(( baseline_ms * (100 + threshold_pct) / 100 ))
warn_ms=$(( baseline_ms * (100 + warn_pct) / 100 ))
echo "perf_smoke: 200-seed batch best-of-3 ${best_ms} ms" \
     "(baseline ${baseline_ms} ms, warn above ${warn_ms} ms," \
     "fail above ${limit_ms} ms)"

# Keep the measurement: append wall ms and seeds/s to the trend file.
seeds_per_s=$(python3 -c "print(round(200 / (${best_ms} / 1000.0), 1))")
"${repo_root}/tools/bench_trend" record \
    --metric fuzz200_ms --value "${best_ms}" --unit ms \
    --direction lower --baseline "${baseline_ms}" \
    --source perf_smoke || true
"${repo_root}/tools/bench_trend" record \
    --metric fuzz200_seeds_per_second --value "${seeds_per_s}" \
    --unit seeds/s --direction higher --source perf_smoke || true

if [ "${best_ms}" -gt "${limit_ms}" ]; then
    echo "perf_smoke: FAIL - >${threshold_pct}% slower than baseline" >&2
    exit 1
fi
if [ "${best_ms}" -gt "${warn_ms}" ]; then
    echo "perf_smoke: WARN - >${warn_pct}% slower than baseline" \
         "(not failing; investigate before it crosses" \
         "${threshold_pct}%)" >&2
fi
echo "perf_smoke: OK"
