"""Serving-engine benchmark: throughput and tail latency under load.

Drives the compiled integer engine with >= 8 concurrent closed-loop
clients through the micro-batcher and records p50/p90/p99 latency and
throughput into ``results/serving.json`` (and, via the telemetry
registry, the serving histograms into ``BENCH_trajectory.json``).

Two correctness claims ARE asserted, because a benchmark that times a
wrong engine is meaningless:

* every response under concurrent batched load is bitwise identical to
  solo serial execution of the same input (batch-invariance), and
* the measured p99 is finite with zero failed requests.
"""

import math
import os

import numpy as np

from repro import models
from repro.nn import Tensor, no_grad
from repro.quantization import quantize_model, set_uniform_bits
from repro.serving import (
    ServingEngine,
    batch_invariance_errors,
    compile_model,
    run_load,
)

def _scale() -> str:
    """Mirror of ``conftest.bench_scale`` (kept import-free so the
    module also runs standalone outside pytest collection)."""
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


N_CLIENTS = 8
SCALE_REQUESTS = {"micro": 6, "smoke": 12, "bench": 40, "paper": 120}


def _build_compiled(rng):
    net = models.SmallConvNet(in_channels=3, num_classes=10, width=8, rng=rng)
    net.train()
    with no_grad():
        for _ in range(3):
            net(Tensor(rng.normal(size=(8, 3, 12, 12))))
    net.eval()
    quantize_model(net, "pact")
    set_uniform_bits(net, 4, 4)
    calibration = rng.normal(size=(8, 3, 12, 12))
    with no_grad():
        net(Tensor(calibration))
    return compile_model(net, calibration)


def test_serving_concurrent_load(record_result):
    telemetry = record_result.telemetry("serving")
    rng = np.random.default_rng(0)
    compiled = _build_compiled(rng)
    requests_per_client = SCALE_REQUESTS.get(_scale(), 12)
    inputs = [rng.normal(size=compiled.input_shape) for _ in range(32)]

    engine = ServingEngine(
        compiled,
        max_batch_size=8,
        max_wait_ms=2.0,
        telemetry=telemetry,
    )
    try:
        result = run_load(
            engine, inputs,
            n_clients=N_CLIENTS,
            requests_per_client=requests_per_client,
        )
    finally:
        engine.close()

    mismatches = batch_invariance_errors(compiled, inputs, result)
    assert mismatches == [], (
        f"batched responses diverged from solo execution: {mismatches}"
    )
    assert result.n_failures == 0
    assert math.isfinite(result.latency_p99_ms)

    batch_sizes = telemetry.registry.histogram("serving.batch_size")
    record_result("serving", {
        "scale": _scale(),
        "n_clients": result.n_clients,
        "requests_per_client": result.requests_per_client,
        "n_requests": result.n_requests,
        "n_failures": result.n_failures,
        "throughput_rps": result.throughput_rps,
        "latency_p50_ms": result.latency_p50_ms,
        "latency_p90_ms": result.latency_p90_ms,
        "latency_p99_ms": result.latency_p99_ms,
        "mean_batch_size": (
            sum(batch_sizes.values) / len(batch_sizes.values)
            if getattr(batch_sizes, "values", None) else None
        ),
        "batch_invariant": True,
    })
