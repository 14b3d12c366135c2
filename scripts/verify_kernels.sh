#!/usr/bin/env bash
# Prove the kernels are bit-identical and not slower, end to end:
#
#   1. the backend equivalence + integer-lowering test suites
#   2. timing checks against the test-only oracle
#      (tests/nn/kernel_oracle.py): the im2col gather must not be
#      slower than the sliding-window im2col on the headline conv
#      shape, and int_gemm must not be slower than the int64 `a @ b`
#      on the serving engine's GEMM shapes (min-of-N each)
#   3. two micro-scale CCQ runs through the CLI — --kernel-backend
#      reference vs fast — whose reported trajectories must match
#      key for key
#
# Finishes in a few minutes on one CPU.
#
#   bash scripts/verify_kernels.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "workdir: $WORK"

echo "== 1/3 backend equivalence + integer-lowering tests =="
python3 -m pytest tests/nn/test_backends.py \
    tests/quantization/test_integer_inference.py \
    tests/core/test_backend_invariance.py -q

echo "== 2/3 kernels vs the oracle: must not be slower =="
python3 - <<'EOF'
import time

import numpy as np

from repro.nn.backends import current
from tests.nn import kernel_oracle as oracle


def best_of(fn, *args, repeats=9, warmup=2):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def not_slower(label, kernel, baseline, *args):
    ours, theirs = best_of(kernel, *args), best_of(baseline, *args)
    print(f"{label:<24} oracle {theirs * 1e3:8.3f} ms   kernel "
          f"{ours * 1e3:8.3f} ms   speedup {theirs / ours:5.2f}x")
    # 5% slack absorbs scheduler noise on a loaded single-CPU box; a
    # real regression (the kernel slower by design) blows well past it.
    return ours <= theirs * 1.05


rng = np.random.default_rng(0)
backend = current()
ok = not_slower("im2col 16x16x32x32 k3", backend.im2col, oracle.im2col,
                rng.normal(size=(16, 16, 32, 32)), (3, 3), (1, 1), (1, 1))
# The serving engine's conv GEMMs: 4-bit activation codes times 4-bit
# weight codes, one row per output pixel of a batch of 8.
for m, k, f in [(8192, 27, 16), (2048, 144, 32), (512, 288, 64)]:
    a = rng.integers(0, 16, size=(m, k))
    b = np.ascontiguousarray(rng.integers(-8, 8, size=(f, k)).T)
    ok &= not_slower(f"int_gemm {m}x{k}x{f}", backend.int_gemm,
                     oracle.int_gemm, a, b)
if not ok:
    raise SystemExit("a kernel is slower than the oracle it replaced")
EOF

echo "== 3/3 CCQ trajectory identical across --kernel-backend =="
COMMON=(run-ccq --task resnet20_cifar10 --scale micro --probes 6
        --max-steps 4 --seed 0)

python3 -m repro.cli "${COMMON[@]}" --kernel-backend reference \
    --output "$WORK/reference.json"
python3 -m repro.cli "${COMMON[@]}" --kernel-backend fast \
    --output "$WORK/fast.json"

python3 - "$WORK/reference.json" "$WORK/fast.json" <<'EOF'
import json
import sys

reference, fast = (json.load(open(path)) for path in sys.argv[1:3])

mismatches = [
    key for key in ("bit_config", "final_accuracy", "compression",
                    "probe_rounds", "probe_forward_passes",
                    "probe_cache_hits")
    if reference[key] != fast[key]
]
if mismatches:
    for key in mismatches:
        print(f"MISMATCH {key}: reference={reference[key]!r} "
              f"fast={fast[key]!r}")
    sys.exit(1)

print(f"OK: identical trajectory under --kernel-backend fast "
      f"(bit config {reference['bit_config']}, "
      f"accuracy {reference['final_accuracy']})")
EOF
