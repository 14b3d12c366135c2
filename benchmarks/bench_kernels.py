"""Kernel microbenchmarks: measured times beside the oracle's, asserted bits.

The kernels in :mod:`repro.nn.kernels` must stay byte-identical to the
straightforward numpy formulation they replaced, kept as the test-only
oracle in ``tests/nn/kernel_oracle.py``.  This benchmark *measures* the
forward conv on four probe shapes, ``col2im`` on the smoke ResNet-20's
backward shapes, and the integer conv (``int_im2col`` + ``int_gemm``,
the core of every compiled serving stage), each beside the same
computation on the oracle's im2col, col2im and int64 GEMM, and records
the times without asserting them (machines differ;
``tests/nn/test_backends.py`` owns the hard guarantees).

Two things ARE asserted, because they are correctness claims rather than
timing claims:
  * every output timed here is byte-identical to the oracle's (a
    benchmark that times divergent kernels would be meaningless);
  * the integer conv performs zero float64 im2col work — the column
    matrices it builds are int64 end to end (the float round-trip the
    integer-native lowering replaced).
"""

import contextlib
import pathlib
import sys
import time

import numpy as np

from repro.nn import Tensor, kernels, no_grad
from repro.nn import functional as F

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.nn import kernel_oracle as oracle  # noqa: E402

# (label, x shape, filters, kernel, stride, padding).  The headline row
# is the CCQ probe workhorse: a mid-network conv at CIFAR resolution.
CONV_SHAPES = [
    ("headline-conv3x3", (16, 16, 32, 32), 16, 3, 1, 1),
    ("first-layer", (16, 3, 32, 32), 16, 3, 1, 1),
    ("stride2-downsample", (16, 16, 16, 16), 32, 3, 2, 1),
    ("pointwise", (16, 32, 16, 16), 32, 1, 1, 0),
]

# (label, x shape, kernel, stride, padding): the column gradients
# col2im scatters back in a smoke ResNet-20 backward at batch 64.
COL2IM_SHAPES = [
    ("layer1-3x3", (64, 4, 16, 16), 3, 1, 1),
    ("layer2-3x3", (64, 8, 8, 8), 3, 1, 1),
    ("layer3-3x3", (64, 16, 4, 4), 3, 1, 1),
    ("layer2-downsample", (64, 4, 16, 16), 3, 2, 1),
    ("layer2-shortcut", (64, 4, 16, 16), 1, 2, 0),
]

REPEATS = 7
WARMUP = 2


def _best_of(fn, repeats=REPEATS, warmup=WARMUP):
    """Min-of-N wall clock: the least-noisy point estimate on a busy
    single-CPU container."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _conv_inputs(rng, shape_row):
    _, xshape, filters, kernel, _, _ = shape_row
    x = Tensor(rng.normal(size=xshape))
    w = Tensor(rng.normal(size=(filters, xshape[1], kernel, kernel)) * 0.2)
    b = Tensor(rng.normal(size=(filters,)) * 0.1)
    return x, w, b


def _oracle_conv(x, w, b, stride, padding):
    """conv2d_forward's computation on the oracle's column matrix."""
    f = w.shape[0]
    cols, (oh, ow) = oracle.im2col(
        x, w.shape[2:], (stride, stride), (padding, padding)
    )
    out = cols @ w.reshape(f, -1).T
    out += b
    return out.reshape(x.shape[0], oh, ow, f).transpose(0, 3, 1, 2)


@contextlib.contextmanager
def _oracle_kernels():
    """Route the integer path's im2col and int_gemm through the oracle.

    The oracle allocates its own column matrix, so it drops the
    caller-owned buffers ``int_im2col`` passes.
    """
    real = kernels.im2col, kernels.int_gemm

    def oracle_im2col(x, kernel, stride, padding, out=None, padded=None):
        return oracle.im2col(x, kernel, stride, padding)

    kernels.im2col, kernels.int_gemm = oracle_im2col, oracle.int_gemm
    try:
        yield
    finally:
        kernels.im2col, kernels.int_gemm = real


def test_kernel_speed(record_result):
    rng = np.random.default_rng(0)

    conv_rows = []
    for row in CONV_SHAPES:
        label, xshape, filters, kernel, stride, padding = row
        x, w, b = _conv_inputs(rng, row)
        with no_grad():
            seconds = _best_of(
                lambda: F.conv2d(x, w, b, stride=stride, padding=padding)
            )
            out = F.conv2d(x, w, b, stride=stride, padding=padding).data
        oracle_s = _best_of(
            lambda: _oracle_conv(x.data, w.data, b.data, stride, padding)
        )
        want = _oracle_conv(x.data, w.data, b.data, stride, padding)
        assert out.tobytes() == want.tobytes(), label
        conv_rows.append({
            "shape": label,
            "x": list(xshape),
            "filters": filters,
            "kernel": kernel,
            "stride": stride,
            "padding": padding,
            "seconds": seconds,
            "oracle_seconds": oracle_s,
        })

    # --- col2im: the conv backward's scatter-add ---------------------
    col2im_rows = []
    for label, xshape, kernel, stride, padding in COL2IM_SHAPES:
        n, c, h, w = xshape
        out_size = tuple(
            F.conv_output_size(d, kernel, stride, padding) for d in (h, w)
        )
        dcols = rng.normal(size=(n * out_size[0] * out_size[1],
                                 c * kernel * kernel))
        args = (dcols, xshape, (kernel, kernel), (stride, stride),
                (padding, padding), out_size)
        got = kernels.col2im(*args)
        want = oracle.col2im(*args)
        assert got.flags.c_contiguous, label
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), label
        col2im_rows.append({
            "shape": label,
            "x": list(xshape),
            "kernel": kernel,
            "stride": stride,
            "padding": padding,
            "seconds": _best_of(lambda: kernels.col2im(*args)),
            "oracle_seconds": _best_of(lambda: oracle.col2im(*args)),
        })

    # --- integer conv: the compiled stages' exact int64 core ---------
    x_codes = rng.integers(0, 15, size=(16, 16, 32, 32)).astype(np.int64)
    w_codes = rng.integers(0, 7, size=(16, 16, 3, 3)).astype(np.int64)
    w_flat_t = np.ascontiguousarray(w_codes.reshape(16, -1).T)

    def int_conv():
        cols, _, _ = kernels.int_im2col(x_codes, (3, 3), (1, 1), (1, 1))
        return kernels.int_gemm(cols, w_flat_t)

    # Spy on every im2col lowering the integer path triggers: it must
    # never build a float64 column matrix from codes.
    im2col_dtypes = []
    real_im2col = kernels.im2col

    def spying_im2col(array, *args, **kwargs):
        im2col_dtypes.append(np.asarray(array).dtype)
        return real_im2col(array, *args, **kwargs)

    kernels.im2col = spying_im2col
    try:
        int_seconds = _best_of(int_conv)
        int_out = int_conv()
    finally:
        kernels.im2col = real_im2col
    with _oracle_kernels():
        int_oracle_s = _best_of(int_conv)
        int_want = int_conv()
    assert int_out.tobytes() == int_want.tobytes()
    assert im2col_dtypes, "integer conv never reached the im2col lowering"
    float64_cols = sum(1 for d in im2col_dtypes if d.kind == "f")
    assert float64_cols == 0, (
        "integer path built a float column matrix — the round-trip bug"
    )

    record_result("BENCH_kernels", {
        "repeats": REPEATS,
        "warmup": WARMUP,
        "conv_forward": conv_rows,
        "col2im": col2im_rows,
        "integer_conv": {
            "x_codes": list(x_codes.shape),
            "w_codes": list(w_codes.shape),
            "seconds": int_seconds,
            "oracle_seconds": int_oracle_s,
            "im2col_dtypes_seen": sorted(
                {str(d) for d in im2col_dtypes}
            ),
            "float64_im2col_calls": float64_cols,
        },
    })
