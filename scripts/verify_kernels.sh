#!/usr/bin/env bash
# Prove the kernels are bit-identical and not slower:
#
#   1. the kernel-oracle + integer-lowering test suites (the lowering
#      is the serving compiler's: its stage spies live in
#      test_integer_inference.py, its one-layer match in test_compile.py)
#   2. timing checks against the test-only oracle
#      (tests/nn/kernel_oracle.py): the im2col gather must not be
#      slower than the sliding-window im2col on the headline conv
#      shape; the channels-last col2im must not be slower than the
#      NCHW strided scatter-add on the smoke ResNet-20's layer-1 and
#      layer-3 backward shapes (64x4x16x16 and 64x16x4x4, 3x3, s1,
#      p1); and int_gemm -- allocating, and into caller-owned
#      buffers as the serving stages call it -- must not be slower
#      than the int64 `a @ b` on the serving engine's GEMM shapes
#      (min-of-N each).  OpenBLAS runs on one thread here: with its
#      default threads on a loaded 2-vCPU host, int_gemm's best-of-9
#      sat at a fixed ~7.9 ms for whole runs (a preempted BLAS helper
#      thread is the likely cause).  The oracle never calls BLAS, so
#      one thread can only slow the kernel side.
#
# Finishes in about ten seconds.
#
#   bash scripts/verify_kernels.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== 1/2 kernel-oracle + integer-lowering tests =="
python3 -m pytest tests/nn/test_backends.py \
    tests/quantization/test_integer_inference.py \
    tests/serving/test_compile.py::TestIntegerLowering -q

echo "== 2/2 kernels vs the oracle: must not be slower =="
OPENBLAS_NUM_THREADS=1 python3 - <<'EOF'
import functools
import time

import numpy as np

from repro.nn import kernels
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
    print(f"{label:<28} oracle {theirs * 1e3:8.3f} ms   kernel "
          f"{ours * 1e3:8.3f} ms   speedup {theirs / ours:5.2f}x")
    # 5% slack absorbs scheduler noise on a loaded single-CPU box; a
    # real regression (the kernel slower by design) blows well past it.
    return ours <= theirs * 1.05


rng = np.random.default_rng(0)
ok = not_slower("im2col 16x16x32x32 k3", kernels.im2col, oracle.im2col,
                rng.normal(size=(16, 16, 32, 32)), (3, 3), (1, 1), (1, 1))
# The column gradient of a 3x3, stride-1, padding-1 conv at batch 64.
for c, hw in [(4, 16), (16, 4)]:
    dcols = rng.normal(size=(64 * hw * hw, c * 9))
    ok &= not_slower(f"col2im 64x{c}x{hw}x{hw} k3", kernels.col2im,
                     oracle.col2im, dcols, (64, c, hw, hw), (3, 3), (1, 1),
                     (1, 1), (hw, hw))
# The serving engine's conv GEMMs: 4-bit activation codes times 4-bit
# weight codes, one row per output pixel of a batch of 8.
for m, k, f in [(8192, 27, 16), (2048, 144, 32), (512, 288, 64)]:
    a = rng.integers(0, 16, size=(m, k))
    b = np.ascontiguousarray(rng.integers(-8, 8, size=(f, k)).T)
    ok &= not_slower(f"int_gemm {m}x{k}x{f}", kernels.int_gemm,
                     oracle.int_gemm, a, b)
    into = functools.partial(
        kernels.int_gemm, out=np.empty((m, f), dtype=np.int64),
        work=np.empty(a.size + b.size + m * f),
    )
    ok &= not_slower(f"int_gemm out= {m}x{k}x{f}", into, oracle.int_gemm,
                     a, b)
if not ok:
    raise SystemExit("a kernel is slower than the oracle it replaced")
EOF
