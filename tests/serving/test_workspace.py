"""The per-thread workspace compiled forwards draw their temporaries from.

A warm forward must allocate nothing column-sized, threads must never
share a workspace, and whatever a forward hands back must stay the
caller's after the next forward reuses the workspace.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import models
from repro.nn import Tensor, no_grad
from repro.quantization import quantize_model, set_uniform_bits
from repro.serving import compile_model
from repro.serving.compile import _WORKSPACE


def _compiled(make, sample_shape, policy="pact", bits=4):
    rng = np.random.default_rng(0)
    shape = (8,) + sample_shape
    net = make(rng)
    net.train()
    with no_grad():
        for _ in range(3):
            net(Tensor(rng.normal(size=shape)))
    net.eval()
    quantize_model(net, policy)
    set_uniform_bits(net, bits, bits)
    calibration = rng.normal(size=shape)
    with no_grad():
        net(Tensor(calibration))
    return compile_model(net, calibration)


def _compiled_convnet(width, image, policy="pact", bits=4):
    return _compiled(
        lambda rng: models.SmallConvNet(width=width, rng=rng),
        (3, image, image), policy, bits,
    )


# The flattening chains: LeNet flattens between a pool and its first
# Linear, the MLP flattens its raw input.
_MODELS = {
    "SmallConvNet": (lambda rng: models.SmallConvNet(width=8, rng=rng),
                     (3, 12, 12)),
    "LeNet": (lambda rng: models.LeNet(rng=rng), (3, 32, 32)),
    "MLP": (lambda rng: models.MLP(24, [16], 10, rng=rng), (24,)),
}


def _buffer_addresses():
    return {buf.ctypes.data for buf in _WORKSPACE.buffers.values()}


@pytest.fixture(scope="module")
def small():
    return _compiled_convnet(width=8, image=12)


def test_warm_forward_allocates_less_than_a_column_matrix():
    """The serving benchmark's model: conv2's column matrix, 2048 x 144
    int64 (2.36 MB) at batch 8, is the largest a forward builds.  Drawn
    from the workspace, no temporary of a warm forward comes near it."""
    compiled = _compiled_convnet(width=16, image=32)
    x = np.random.default_rng(1).normal(size=(8, 3, 32, 32))
    compiled.forward(x)
    compiled.forward(x)
    largest_columns = 2048 * 144 * 8
    tracemalloc.start()
    try:
        compiled.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest_columns, f"warm forward peaked at {peak} B"


def test_threads_get_their_solo_results(small):
    """More threads than cores, switching as often as the interpreter
    allows: a workspace shared between threads corrupts the codes."""
    rng = np.random.default_rng(2)
    inputs = [rng.normal(size=(n, 3, 12, 12)) for n in (8, 3, 5, 1)]
    solo = [[small.forward(x[i:i + 1])[0] for i in range(len(x))]
            for x in inputs]
    start = threading.Barrier(len(inputs), timeout=60)
    done = threading.Barrier(len(inputs), timeout=60)
    outputs = [[] for _ in inputs]
    addresses = [set() for _ in inputs]

    def loop(k):
        start.wait()
        for _ in range(15):
            outputs[k].append(small.forward(inputs[k]))
        addresses[k] = _buffer_addresses()
        done.wait()  # every workspace is alive when they are compared

    threads = [threading.Thread(target=loop, args=(k,))
               for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, want in enumerate(solo):
        assert len(outputs[k]) == 15
        for batch in outputs[k]:
            for got, expected in zip(batch, want):
                assert got.tobytes() == expected.tobytes()
    seen = _buffer_addresses()
    for mine in addresses:
        assert mine and not mine & seen
        seen |= mine


def test_forward_codes_trace_survives_a_later_forward(small):
    rng = np.random.default_rng(3)
    x, other = rng.normal(size=(2, 5, 3, 12, 12))
    trace, logits = small.forward_codes(x)
    kept = [codes.copy() for codes in trace], logits.copy()
    small.forward(other)
    small.forward_codes(other)
    for codes, before in zip(trace, kept[0]):
        assert codes.tobytes() == before.tobytes()
    assert logits.tobytes() == kept[1].tobytes()
    for buf in _WORKSPACE.buffers.values():
        for array in trace + [logits]:
            assert not np.shares_memory(array, buf)


@pytest.mark.parametrize("model", list(_MODELS))
def test_batch_sizes_grow_and_shrink_the_same_plan(model):
    """A workspace sized by a big batch serves a small one (and the
    other way round, down to an empty batch) with the solo results."""
    compiled = _compiled(*_MODELS[model])
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9,) + _MODELS[model][1])
    solo = np.concatenate([compiled.forward(x[i:i + 1]) for i in range(9)])
    for n in (9, 1, 4, 9, 2, 0):
        got = compiled.forward(x[:n])
        assert got.shape == solo[:n].shape
        assert got.tobytes() == solo[:n].tobytes()
