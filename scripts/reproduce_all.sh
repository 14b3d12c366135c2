#!/usr/bin/env bash
# One-command reproduction: tests, every table/figure benchmark, the
# paper-vs-measured report and the SVG figures.
#
#   bash scripts/reproduce_all.sh [smoke|bench|paper]
#
# smoke (default) finishes in about an hour on one CPU.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-smoke}"
export REPRO_BENCH_SCALE="$SCALE"

echo "== 1/12 unit + integration tests =="
python3 -m pytest tests/ 2>&1 | tee test_output.txt

echo "== 2/12 telemetry end-to-end check =="
bash scripts/verify_telemetry.sh

echo "== 3/12 parallel observability check =="
bash scripts/verify_observability.sh

echo "== 4/12 probe-cache determinism check =="
bash scripts/verify_probe_cache.sh

echo "== 5/12 parallel probe determinism check =="
bash scripts/verify_parallel.sh

echo "== 6/12 chaos / self-healing pool check =="
bash scripts/verify_chaos.sh

echo "== 7/12 DDP recovery determinism check =="
bash scripts/verify_ddp.sh

echo "== 8/12 kernel equivalence check =="
bash scripts/verify_kernels.sh

echo "== 9/12 integer serving engine check =="
bash scripts/verify_serving.sh

echo "== 10/12 table/figure benchmarks (scale: $SCALE) =="
python3 -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

echo "== 11/12 regenerate EXPERIMENTS.md =="
python3 benchmarks/make_experiments_report.py

echo "== 12/12 render figures =="
python3 benchmarks/make_figures.py

echo "done: see EXPERIMENTS.md, benchmarks/figures/, test_output.txt, bench_output.txt"
