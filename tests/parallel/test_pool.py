"""The probe worker pool: bit-identical worker evals, failure modes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import models
from repro.core.probe import pin_probe_batches
from repro.core.training import evaluate
from repro.datasets.synthetic import SyntheticImageConfig, _make_splits
from repro.nn.data import DataLoader
from repro.nn.serialization import named_state_arrays
from repro.parallel import (
    PoolError,
    PoolSupervisor,
    ProbeWorkerPool,
    SupervisionConfig,
    create_probe_pool,
)
from repro.quantization import (
    quantize_model,
    quantized_layers,
    quantizer_states,
)


@pytest.fixture(scope="module")
def val_dataset():
    config = SyntheticImageConfig(
        n_classes=10, image_size=12, channels=3, seed=0
    )
    return _make_splits(
        config, n_train=16, n_val=64, n_test=8, augment=False
    ).val


@pytest.fixture()
def quantized_net():
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    quantize_model(net, "pact")
    return net


def serial_loss(net, layers, layer_names, bits, pinned):
    saved = [(layers[n].w_bits, layers[n].a_bits) for n in layer_names]
    try:
        for n in layer_names:
            layers[n].w_bits = bits
            layers[n].a_bits = bits
        return float(evaluate(net, pinned).loss)
    finally:
        for n, (w, a) in zip(layer_names, saved):
            layers[n].w_bits = w
            layers[n].a_bits = a


class TestPoolEvaluation:
    def test_worker_losses_bit_identical_to_serial(
        self, quantized_net, val_dataset
    ):
        net = quantized_net
        layers = dict(quantized_layers(net))
        names = list(layers)
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=32), max_batches=1
        )
        pool = create_probe_pool(net, n_workers=2)
        try:
            tasks = [
                ((i, 4), [name], 4) for i, name in enumerate(names[:3])
            ]
            outcomes = PoolSupervisor().run_round(
                pool, named_state_arrays(net),
                quantizer_states(quantized_layers(net)),
                pinned.batches, tasks,
            ).outcomes
            assert set(outcomes) == {key for key, _, _ in tasks}
            for (key, layer_names, bits) in tasks:
                outcome = outcomes[key]
                assert outcome["status"] == "ok"
                assert outcome["elapsed"] > 0
                expected = serial_loss(net, layers, layer_names, bits,
                                       pinned)
                assert outcome["loss"] == expected

            # The candidates landed on both workers (round-robin over 2).
            assert {o["worker"] for o in outcomes.values()} == {0, 1}
        finally:
            pool.close()

    def test_rebroadcast_picks_up_new_state(
        self, quantized_net, val_dataset
    ):
        net = quantized_net
        layers = dict(quantized_layers(net))
        name = next(iter(layers))
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=32), max_batches=1
        )
        pool = ProbeWorkerPool(net, n_workers=1)
        supervisor = PoolSupervisor()

        def run_round():
            return supervisor.run_round(
                pool, named_state_arrays(net),
                quantizer_states(quantized_layers(net)),
                pinned.batches, [(("k", 4), [name], 4)],
            ).outcomes

        try:
            first = run_round()

            # Perturb the model, re-broadcast (same layout -> same
            # segment), and the worker must score the *new* weights.
            for _, p in net.named_parameters():
                p.data += 0.05
            second = run_round()

            assert first[("k", 4)]["loss"] != second[("k", 4)]["loss"]
            expected = serial_loss(net, layers, [name], 4, pinned)
            assert second[("k", 4)]["loss"] == expected
        finally:
            pool.close()


class TestPoolFailure:
    def test_unknown_layer_comes_back_as_a_fault(
        self, quantized_net, val_dataset
    ):
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=32), max_batches=1
        )
        pool = ProbeWorkerPool(quantized_net, n_workers=1)
        try:
            report = PoolSupervisor().run_round(
                pool, named_state_arrays(quantized_net),
                quantizer_states(quantized_layers(quantized_net)),
                pinned.batches,
                [(("k", 4), ["no.such.layer"], 4)],
            )
            # The worker shipped its error instead of dying.
            assert any("no.such.layer" in fault for fault in report.faults)
            assert report.missing == [("k", 4)]
            assert ("k", 4) not in report.outcomes
        finally:
            pool.close()

    def test_closed_pool_rejects_work(self, quantized_net):
        pool = ProbeWorkerPool(quantized_net, n_workers=1)
        pool.close()
        pool.close()  # idempotent
        # A closed pool's workers read as dead; a zero respawn budget
        # skips the respawn backoff before the broadcast is refused.
        supervisor = PoolSupervisor(SupervisionConfig(respawn_budget=0))
        with pytest.raises(PoolError):
            supervisor.run_round(
                pool, {}, {}, [], [(("k", 4), ["no.such.layer"], 4)]
            )

    def test_invalid_worker_count(self, quantized_net):
        with pytest.raises(ValueError):
            ProbeWorkerPool(quantized_net, n_workers=0)


_TWO_POOLS = """
import numpy as np
from repro import models
from repro.nn.serialization import named_state_arrays
from repro.parallel import ProbeWorkerPool
from repro.quantization import (
    quantize_model, quantized_layers, quantizer_states,
)

net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
quantize_model(net, "pact")
batches = [(np.zeros((2, 3, 12, 12)), np.zeros(2, dtype=np.int64))]
for _ in range(2):
    pool = ProbeWorkerPool(net, n_workers=1)
    try:
        pool.broadcast(
            named_state_arrays(net),
            quantizer_states(quantized_layers(net)),
            batches,
        )
    finally:
        pool.close()
"""


def run_python(script):
    """Run ``script`` in a fresh interpreter that imports this repro."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=120,
    )


class TestSharedMemoryCleanup:
    def test_pools_in_turn_leave_the_resource_tracker_quiet(self):
        """A worker that attaches a segment must not unregister it from
        the tracker it shares with the parent: the parent's unlink then
        made the tracker print ``KeyError: '/psm_...'``."""
        shm = Path("/dev/shm")
        if not shm.is_dir():
            pytest.skip("no /dev/shm")
        before = {p.name for p in shm.glob("psm_*")}
        done = run_python(_TWO_POOLS)
        assert done.returncode == 0, done.stderr
        assert "KeyError" not in done.stderr, done.stderr
        assert "leaked" not in done.stderr, done.stderr
        assert {p.name for p in shm.glob("psm_*")} <= before


_TORN_RESULT = """
import time
import numpy as np
from repro import models
from repro.nn.serialization import named_state_arrays
from repro.parallel import ProbeWorkerPool
from repro.parallel.worker import DDP_PREFIX
from repro.quantization import (
    quantize_model, quantized_layers, quantizer_states,
)

# ~0.75 MB of gradients: more than a pipe holds, so a worker shipping
# them blocks mid-send until the parent reads.
net = models.SmallConvNet(width=32, rng=np.random.default_rng(0))
quantize_model(net, "pact")
arrays = dict(named_state_arrays(net))
arrays[DDP_PREFIX + "0.images"] = np.zeros((2, 3, 12, 12))
arrays[DDP_PREFIX + "0.labels"] = np.zeros(2, dtype=np.int64)
pool = ProbeWorkerPool(net, n_workers=2)
try:
    name, manifest = pool.train_broadcast(arrays)
    states = quantizer_states(quantized_layers(net))
    pool.begin_round()
    pool.submit_train(1, 0, name, manifest, states, 0, 2)
    time.sleep(2.0)  # nothing read: worker 1 is stuck mid-send
    pool.respawn_worker(1)
    pool.submit_train(0, 0, name, manifest, states, 0, 2)
    deadline = time.monotonic() + 60.0
    message = None
    while message is None or message[0] != "result":
        assert time.monotonic() < deadline, "no result after the respawn"
        message = pool.next_message(timeout=1.0)
    assert message[1]["worker"] == 0, message[1]
    assert message[1]["status"] == "ok", message[1]
finally:
    pool.close()
"""


class TestTornResult:
    def test_worker_killed_mid_send_silences_no_one(self):
        """Respawning a worker half-way through writing its result must
        leave its replacement and the other workers heard: no lock the
        dead writer held may gate their writes, and its torn message
        must not block the parent's reads."""
        done = run_python(_TORN_RESULT)
        assert done.returncode == 0, done.stderr
