"""The core budget: BLAS thread shares of pool workers, and the float
kernels' bytes at any BLAS thread count."""

import numpy as np
import pytest

from repro import models
from repro.nn.autograd import Context
from repro.nn.backends import available_backends, get_backend
from repro.parallel import ProbeWorkerPool, cores
from repro.parallel.cores import (
    get_blas_threads,
    set_blas_threads,
    usable_cores,
)
from repro.quantization import quantize_model

needs_blas = pytest.mark.skipif(
    get_blas_threads() is None, reason="no settable OpenBLAS loaded"
)


@pytest.fixture()
def blas_restored():
    """Put the parent's BLAS thread count back after the test."""
    before = get_blas_threads()
    yield before
    set_blas_threads(before)


@pytest.fixture()
def quantized_net():
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    quantize_model(net, "pact")
    return net


def _float_kernels(backend):
    """The float kernels of a smoke-scale ResNet-20 step on its largest
    shapes: batch 64 at 16x16, stem 3->4 and stage-1 4->4 channels
    (im2col ``(16384, 27|36)`` and weight gradients with K = 16384)."""
    rng = np.random.default_rng(3)
    out = [
        backend.gemm(rng.normal(size=(16384, 36)), rng.normal(size=(36, 4))),
        backend.gemm(rng.normal(size=(4, 16384)), rng.normal(size=(16384, 36))),
    ]
    for c in (3, 4):
        x = rng.normal(size=(64, c, 16, 16))
        w = rng.normal(size=(4, c, 3, 3))
        b = rng.normal(size=(4,))
        ctx = Context()
        ctx.needs_input_grad = (True, True, True)
        y = backend.conv2d_forward(ctx, x, w, b, (1, 1), (1, 1))
        out.append(y)
        out.extend(backend.conv2d_backward(ctx, rng.normal(size=y.shape)))
    return [np.array(a, copy=True) for a in out]


@needs_blas
@pytest.mark.skipif(usable_cores() < 2, reason="one usable core")
@pytest.mark.parametrize("name", available_backends())
def test_float_kernels_identical_at_any_blas_thread_count(
    name, blas_restored
):
    backend = get_backend(name)
    set_blas_threads(1)
    serial = _float_kernels(backend)
    set_blas_threads(usable_cores())
    threaded = _float_kernels(backend)
    assert len(serial) == len(threaded)
    for one, many in zip(serial, threaded):
        assert one.dtype == many.dtype and one.shape == many.shape
        assert one.tobytes() == many.tobytes()


@needs_blas
class TestWorkerShare:
    def _pool(self, net):
        return ProbeWorkerPool(net, n_workers=2, start_timeout=60.0)

    def test_share_holds_at_spawn_and_respawn(self, quantized_net):
        expected = max(1, min(get_blas_threads(), usable_cores() // 2))
        pool = self._pool(quantized_net)
        try:
            assert pool.blas_threads == expected
            assert pool.worker_blas_threads == {0: expected, 1: expected}
            # Let worker 1 exit cleanly first.  Terminating a live worker
            # whose queue feeder has not yet released the shared result
            # queue's write lock would leave it held, and the respawned
            # worker's handshake could never be written.
            pool._command_queues[1].put(("stop",))
            pool._workers[1].join(timeout=30.0)
            assert pool.dead_workers() == [1]
            del pool.worker_blas_threads[1]
            pool.respawn_worker(1)
            assert pool.worker_blas_threads == {0: expected, 1: expected}
        finally:
            pool.close()

    def test_share_is_capped_by_the_parent(
        self, quantized_net, blas_restored, monkeypatch
    ):
        # Room for 4 threads per worker: the parent's own count caps it.
        monkeypatch.setattr(cores, "usable_cores", lambda: 8)
        for parent in (1, 2):
            set_blas_threads(parent)
            pool = self._pool(quantized_net)
            try:
                assert pool.blas_threads == parent
                assert pool.worker_blas_threads == {0: parent, 1: parent}
            finally:
                pool.close()
            assert get_blas_threads() == parent  # the parent keeps its own
