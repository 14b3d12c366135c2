"""Micro-batcher under concurrent load: exactness, ordering, deadlines.

The engine's whole pitch is that batching is a latency optimization
with *zero* numerical consequence: every response under interleaved
concurrent load must be bitwise identical to running that input alone,
responses must come back to the right client in submission order, and
the deadline flush must fire when the queue is under-full instead of
waiting forever for a full batch.
"""

import threading
import time

import numpy as np
import pytest

from repro import models
from repro.nn import Tensor, no_grad
from repro.quantization import quantize_model, set_uniform_bits
from repro.serving import (
    ServingEngine,
    batch_invariance_errors,
    compile_model,
    run_load,
)
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(7)
    net = models.SmallConvNet(width=4, rng=rng)
    net.train()
    with no_grad():
        for _ in range(3):
            net(Tensor(rng.normal(size=(8, 3, 8, 8))))
    net.eval()
    quantize_model(net, "pact")
    set_uniform_bits(net, 4, 4)
    calibration = rng.normal(size=(8, 3, 8, 8))
    with no_grad():
        net(Tensor(calibration))
    return compile_model(net, calibration)


@pytest.fixture()
def telemetry():
    t = Telemetry.create(log_level="silent")
    yield t
    t.close()


def _inputs(compiled, n, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=compiled.input_shape) for _ in range(n)]


class TestInterleavedClients:
    def test_batched_responses_match_solo_runs(self, compiled):
        inputs = _inputs(compiled, 16)
        with ServingEngine(compiled, max_batch_size=4, max_wait_ms=2.0) as eng:
            result = run_load(
                eng, inputs, n_clients=6, requests_per_client=8
            )
        assert result.n_failures == 0
        assert batch_invariance_errors(compiled, inputs, result) == []

    def test_no_drops_and_per_client_order(self, compiled):
        inputs = _inputs(compiled, 8)
        with ServingEngine(compiled, max_batch_size=4, max_wait_ms=1.0) as eng:
            result = run_load(
                eng, inputs, n_clients=5, requests_per_client=7
            )
        assert result.n_requests == 5 * 7
        for c, trace in enumerate(result.clients):
            # Closed-loop clients submit their inputs in a known order;
            # a drop or cross-client swap breaks either length or the
            # index sequence.
            assert len(trace.outputs) == 7
            assert all(err is None for err in trace.errors)
            expected = [(c + i * 5) % len(inputs) for i in range(7)]
            assert trace.input_indices == expected

    def test_batches_actually_form(self, compiled, telemetry):
        inputs = _inputs(compiled, 8)
        with ServingEngine(
            compiled, max_batch_size=8, max_wait_ms=20.0, telemetry=telemetry
        ) as eng:
            run_load(eng, inputs, n_clients=8, requests_per_client=4)
        sizes = telemetry.registry.histogram("serving.batch_size").values
        assert sizes, "no batches were recorded"
        assert max(sizes) > 1, "concurrent load never coalesced a batch"


class TestDeadlineFlush:
    def test_single_request_is_not_starved(self, compiled, telemetry):
        """An under-full queue must flush at the deadline, not wait for
        max_batch_size requests that will never come."""
        engine = ServingEngine(
            compiled, max_batch_size=64, max_wait_ms=25.0,
            telemetry=telemetry,
        )
        try:
            x = _inputs(compiled, 1)[0]
            t0 = time.monotonic()
            out = engine.predict(x, timeout=10.0)
            elapsed = time.monotonic() - t0
        finally:
            engine.close()
        np.testing.assert_array_equal(out, compiled.forward(x[None])[0])
        assert elapsed < 5.0, "deadline flush did not fire"
        sizes = telemetry.registry.histogram("serving.batch_size").values
        assert sizes and sizes[0] == 1.0

    def test_zero_wait_serves_immediately(self, compiled):
        with ServingEngine(compiled, max_batch_size=8, max_wait_ms=0.0) as eng:
            x = _inputs(compiled, 1)[0]
            out = eng.predict(x, timeout=10.0)
        np.testing.assert_array_equal(out, compiled.forward(x[None])[0])

    def test_deadline_flush_takes_the_queued_backlog(self, compiled):
        """Requests that queued past their deadline behind a busy
        forward go out together, not one by one."""
        entered, release = threading.Event(), threading.Event()
        sizes = []

        class GatedModel:
            input_shape = compiled.input_shape

            def forward(self, xb):
                sizes.append(len(xb))
                if len(sizes) == 1:
                    entered.set()
                    assert release.wait(timeout=10.0)
                return compiled.forward(xb)

        inputs = _inputs(compiled, 9)
        engine = ServingEngine(GatedModel(), max_batch_size=8, max_wait_ms=2.0)
        try:
            first = engine.submit(inputs[0])
            assert entered.wait(timeout=10.0)
            backlog = [engine.submit(x) for x in inputs[1:]]
            time.sleep(0.05)  # every queued request is now past its deadline
            release.set()
            outs = [f.result(timeout=10.0) for f in [first] + backlog]
        finally:
            release.set()
            engine.close()
        assert sizes == [1, 8]
        for x, out in zip(inputs, outs):
            np.testing.assert_array_equal(out, compiled.forward(x[None])[0])


class TestShutdown:
    def test_close_drains_pending_requests(self, compiled):
        eng = ServingEngine(compiled, max_batch_size=4, max_wait_ms=50.0)
        xs = _inputs(compiled, 6)
        futures = [eng.submit(x) for x in xs]
        eng.close(drain=True)
        for x, fut in zip(xs, futures):
            np.testing.assert_array_equal(
                fut.result(timeout=1.0), compiled.forward(x[None])[0]
            )

    def test_submit_after_close_raises(self, compiled):
        eng = ServingEngine(compiled)
        eng.close()
        with pytest.raises(RuntimeError):
            eng.submit(_inputs(compiled, 1)[0])


@pytest.mark.slow
def test_sustained_stress_stays_exact(compiled):
    """Longer mixed load: many clients, thread-pool backend, reused
    engine — the invariance contract must hold for every response."""
    inputs = _inputs(compiled, 64, seed=23)
    with ServingEngine(
        compiled, max_batch_size=8, max_wait_ms=2.0, backend="threaded"
    ) as eng:
        result = run_load(
            eng, inputs, n_clients=12, requests_per_client=40, timeout=300
        )
    assert result.n_failures == 0
    assert result.n_requests == 12 * 40
    assert batch_invariance_errors(compiled, inputs, result) == []
