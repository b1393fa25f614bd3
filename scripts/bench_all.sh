#!/usr/bin/env bash
# Run the JSON-emitting bench suite and roll every BENCH_*.json up into one
# BENCH_summary.json for dashboards / regression diffing.
#
#   scripts/bench_all.sh [build-dir]
#
# Each bench binary writes its BENCH_<name>.json into the build directory;
# the aggregation step then collects *all* BENCH_*.json found there —
# including ones from benches run by hand earlier — under their "bench" key
# (filename stem as fallback), stamped with the git revision.
#
# Knobs:
#   HACC_BENCH_SKIP_RUN=1   aggregate whatever JSON already exists, run nothing
#   HACC_BENCH_ONLY="a b"   run only the named benches (default: all emitters)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Benches that emit BENCH_*.json (micro_kernels & friends are stdout-only).
EMITTERS="${HACC_BENCH_ONLY:-fft_scaling io_bandwidth force_kernel recovery chaos_campaign serve_load obs_overhead sdc_overhead campaign_throughput}"

if [[ "${HACC_BENCH_SKIP_RUN:-0}" != "1" ]]; then
  echo "== bench_all: configure + build (${BUILD}) =="
  cmake -B "$BUILD" -S . >/dev/null
  # shellcheck disable=SC2086
  cmake --build "$BUILD" -j "$JOBS" --target $EMITTERS

  for bench in $EMITTERS; do
    echo "== bench_all: $bench =="
    (cd "$BUILD" && "./bench/$bench")
  done
fi

echo "== bench_all: aggregate =="
BUILD_DIR="$BUILD" python3 - <<'PY'
import glob
import json
import os
import subprocess

build = os.environ["BUILD_DIR"]
files = sorted(glob.glob(os.path.join(build, "BENCH_*.json")))
if not files:
    raise SystemExit(f"no BENCH_*.json found in {build}/ — run the benches first")

try:
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
except (OSError, subprocess.CalledProcessError):
    rev = "unknown"

summary = {"git_rev": rev, "benches": {}}
for path in files:
    name = os.path.basename(path)
    if name == "BENCH_summary.json":
        continue
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise SystemExit(f"{path}: invalid JSON ({e})")
    key = data.get("bench") if isinstance(data, dict) else None
    if not key:
        key = name[len("BENCH_"):-len(".json")]
    summary["benches"][key] = data

out = os.path.join(build, "BENCH_summary.json")
with open(out, "w") as f:
    json.dump(summary, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}: {len(summary['benches'])} bench(es): "
      + ", ".join(sorted(summary["benches"])))
PY

echo "== bench_all: done =="
