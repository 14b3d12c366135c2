#!/usr/bin/env bash
# Prove the integer serving engine is a faithful deployment of the
# fake-quant training result, end to end:
#
#   1. the serving test suites: compiler equivalence (hypothesis),
#      micro-batcher concurrency, fault isolation, export round trip,
#      and the model graph with its other readers (MAC counter, summary)
#   2. the slow sustained-stress test (excluded from tier-1 by the
#      `slow` marker)
#   3. a short CLI load test through `repro bench-serve`: >= 8
#      concurrent clients, asserting batch-invariance, zero failures
#      and a finite p99 (the command exits non-zero otherwise)
#
# Finishes in a couple of minutes on one CPU.
#
#   bash scripts/verify_serving.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "workdir: $WORK"

echo "== 1/3 serving equivalence + engine + export + model graph suites =="
python3 -m pytest tests/serving tests/quantization/test_export_roundtrip.py \
    tests/nn/test_graph.py tests/hardware tests/nn/test_summary.py -q

echo "== 2/3 sustained stress (slow marker) =="
python3 -m pytest tests/serving -m slow -q --override-ini "addopts=-q"

echo "== 3/3 CLI load test: 8 clients through repro bench-serve =="
python3 -m repro.cli bench-serve \
    --clients 8 --requests 8 --max-batch 8 \
    --output "$WORK/bench_serve.json"

python3 - "$WORK/bench_serve.json" <<'EOF'
import json
import math
import sys

load = json.load(open(sys.argv[1]))
assert load["batch_invariant"] is True, "batched outputs diverged"
assert load["n_failures"] == 0, f"failures: {load['n_failures']}"
assert math.isfinite(load["latency_p99_ms"]), "p99 is not finite"
print(f"OK: {load['n_requests']} requests from {load['n_clients']} clients, "
      f"p50 {load['latency_p50_ms']:.2f} ms, p99 {load['latency_p99_ms']:.2f} ms, "
      f"{load['throughput_rps']:.0f} req/s, batch-invariant")
EOF
