"""The pool supervision layer: deadlines, respawn, salvage, quarantine.

Unit tests cover the pure policy pieces (adaptive deadline math, outcome
schema validation, budget bookkeeping).  Integration tests run a *real*
forked pool with :class:`~tests.core.fault_injection.WorkerFaultInjector`
installed as the worker fault hook and assert the supervisor heals
kills, hangs and corrupt results while keeping every salvaged loss
bit-identical to the serial evaluation.
"""

import numpy as np
import pytest

import repro.parallel.worker as worker_mod
from repro import models
from repro.core.probe import pin_probe_batches
from repro.core.training import evaluate
from repro.datasets.synthetic import SyntheticImageConfig, _make_splits
from repro.nn.data import DataLoader
from repro.nn.serialization import named_state_arrays
from repro.parallel import (
    PoolSupervisor,
    ProbeWorkerPool,
    SupervisionConfig,
)
from repro.parallel.supervisor import outcome_problem
from repro.quantization import (
    quantize_model,
    quantized_layers,
    quantizer_states,
)

from ..core.fault_injection import WorkerFaultInjector


class TestDeadlinePolicy:
    def test_startup_timeout_before_any_observation(self):
        sup = PoolSupervisor(SupervisionConfig(startup_timeout=77.0))
        assert sup.ema_batch_s is None
        assert sup.task_deadline_s(4) == 77.0

    def test_probe_timeout_override_wins(self):
        sup = PoolSupervisor(SupervisionConfig(probe_timeout=3.5))
        sup.observe_elapsed(10.0, 1)  # would derive a huge deadline
        assert sup.task_deadline_s(100) == 3.5

    def test_ema_derived_deadline(self):
        cfg = SupervisionConfig(
            deadline_safety=10.0, deadline_floor=0.5,
            deadline_ceiling=1000.0, ema_alpha=0.5,
        )
        sup = PoolSupervisor(cfg)
        sup.observe_elapsed(1.0, 4)  # 0.25 s/batch
        assert sup.ema_batch_s == pytest.approx(0.25)
        assert sup.task_deadline_s(4) == pytest.approx(10.0)
        sup.observe_elapsed(2.0, 4)  # 0.5 s/batch -> EMA 0.375
        assert sup.ema_batch_s == pytest.approx(0.375)
        assert sup.task_deadline_s(4) == pytest.approx(15.0)

    def test_deadline_clamped_to_floor_and_ceiling(self):
        cfg = SupervisionConfig(
            deadline_safety=1.0, deadline_floor=2.0, deadline_ceiling=5.0,
        )
        sup = PoolSupervisor(cfg)
        sup.observe_elapsed(0.001, 1)  # tiny: would derive ~1 ms
        assert sup.task_deadline_s(1) == 2.0
        sup = PoolSupervisor(cfg)
        sup.observe_elapsed(100.0, 1)  # huge: would derive 100 s
        assert sup.task_deadline_s(1) == 5.0

    def test_round_deadline_scales_with_waves(self):
        sup = PoolSupervisor(SupervisionConfig(probe_timeout=2.0))
        # 5 tasks over 2 workers -> 3 waves.
        assert sup.round_deadline_s(5, 1, 2) == pytest.approx(6.0)
        assert sup.round_deadline_s(2, 1, 2) == pytest.approx(2.0)

    def test_nonpositive_observations_ignored(self):
        sup = PoolSupervisor()
        sup.observe_elapsed(0.0, 4)
        sup.observe_elapsed(-1.0, 4)
        sup.observe_elapsed(1.0, 0)
        assert sup.ema_batch_s is None


class TestOutcomeSchema:
    def _ok(self, **overrides):
        outcome = {
            "task_id": 0, "worker": 1, "status": "ok",
            "loss": 1.25, "elapsed": 0.01,
        }
        outcome.update(overrides)
        return outcome

    def test_well_formed_outcomes_pass(self):
        assert outcome_problem(self._ok()) is None
        assert outcome_problem(self._ok(status="diverged", loss=None)) is None
        assert outcome_problem(self._ok(status="error", loss=None)) is None

    def test_malformed_outcomes_are_described(self):
        assert "not a dict" in outcome_problem(["nope"])
        assert "task_id" in outcome_problem(self._ok(task_id="x"))
        assert "status" in outcome_problem(self._ok(status="weird"))
        assert "loss" in outcome_problem(self._ok(loss=None))
        assert "loss" in outcome_problem(self._ok(loss=float("nan")))
        assert "loss" in outcome_problem(self._ok(loss=float("inf")))


class TestBudgetBookkeeping:
    def test_reset_budget_rearms_the_supervisor(self):
        sup = PoolSupervisor(SupervisionConfig(respawn_budget=2))
        sup.respawns_used = 2
        sup._written_off.add(0)
        sup.reset_budget()
        assert sup.respawns_used == 0
        assert sup._written_off == set()


# -- integration against a real forked pool -----------------------------------


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


@pytest.fixture()
def install_hook(monkeypatch):
    """Install a WorkerFaultInjector as the worker fault hook."""

    def install(injector):
        monkeypatch.setattr(worker_mod, "FAULT_HOOK", injector)
        return injector

    return install


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


def run_one_round(net, pool, supervisor, tasks, val_dataset):
    pinned = pin_probe_batches(
        DataLoader(val_dataset, batch_size=32), max_batches=1
    )
    report = supervisor.run_round(
        pool, named_state_arrays(net),
        quantizer_states(quantized_layers(net)),
        pinned.batches, tasks,
    )
    return report, pinned


class TestSupervisedFaults:
    def test_worker_kill_is_respawned_and_results_salvaged(
        self, quantized_net, val_dataset, install_hook, tmp_path
    ):
        net = quantized_net
        layers = dict(quantized_layers(net))
        names = list(layers)
        install_hook(WorkerFaultInjector(tmp_path / "faults",
                                         kill_on={(0, 0)}))
        pool = ProbeWorkerPool(net, n_workers=2)
        sup = PoolSupervisor(SupervisionConfig(startup_timeout=60.0))
        try:
            tasks = [((i, 4), [name], 4)
                     for i, name in enumerate(names[:4])]
            report, pinned = run_one_round(
                net, pool, sup, tasks, val_dataset
            )
            assert report.respawned >= 1
            assert report.faults  # the death was recorded
            # Every candidate completed: the killed worker's in-flight
            # task was requeued onto a survivor (or its replacement).
            assert set(report.outcomes) == {key for key, _, _ in tasks}
            assert report.salvaged == report.completed == len(tasks)
            assert not report.degraded
            # Salvaged losses are still bit-identical to serial.
            for key, layer_names, bits in tasks:
                expected = serial_loss(net, layers, layer_names, bits,
                                       pinned)
                assert report.outcomes[key]["loss"] == expected
            # The pool is whole again.
            assert pool.alive_workers() == [0, 1]
        finally:
            pool.close()

    def test_hung_worker_is_reaped_at_the_deadline(
        self, quantized_net, val_dataset, install_hook, tmp_path
    ):
        net = quantized_net
        names = list(dict(quantized_layers(net)))
        install_hook(WorkerFaultInjector(
            tmp_path / "faults", hang_on={(0, 0)}, hang_seconds=60.0,
        ))
        pool = ProbeWorkerPool(net, n_workers=2)
        sup = PoolSupervisor(SupervisionConfig(probe_timeout=1.5))
        try:
            tasks = [((i, 4), [name], 4)
                     for i, name in enumerate(names[:3])]
            report, _ = run_one_round(net, pool, sup, tasks, val_dataset)
            assert any("hung" in fault for fault in report.faults)
            assert report.respawned >= 1
            # The healthy worker's results were kept; the hung worker's
            # candidates go serial.
            assert report.completed >= 1
            assert report.missing
            assert set(report.outcomes) | set(report.missing) == {
                key for key, _, _ in tasks
            }
            assert pool.alive_workers() == [0, 1]
        finally:
            pool.close()

    def test_corrupt_result_recycles_worker_and_goes_serial(
        self, quantized_net, val_dataset, install_hook, tmp_path
    ):
        net = quantized_net
        names = list(dict(quantized_layers(net)))
        install_hook(WorkerFaultInjector(tmp_path / "faults",
                                         corrupt_on={(0, 0)}))
        pool = ProbeWorkerPool(net, n_workers=2)
        sup = PoolSupervisor()
        try:
            tasks = [((i, 4), [name], 4)
                     for i, name in enumerate(names[:3])]
            report, _ = run_one_round(net, pool, sup, tasks, val_dataset)
            assert any("corrupt result" in f for f in report.faults)
            # The corrupt candidate is never trusted: it goes serial.
            assert (0, 4) in report.missing
            assert (0, 4) not in report.outcomes
            # Everything else completed.
            assert set(report.outcomes) == {(1, 4), (2, 4)}
            assert report.respawned >= 1
        finally:
            pool.close()

    def test_repeated_crashes_quarantine_the_candidate(
        self, quantized_net, val_dataset, install_hook, tmp_path
    ):
        net = quantized_net
        names = list(dict(quantized_layers(net)))
        poison = names[0]
        install_hook(WorkerFaultInjector(tmp_path / "faults",
                                         kill_layers=[poison]))
        pool = ProbeWorkerPool(net, n_workers=2)
        sup = PoolSupervisor(SupervisionConfig(quarantine_threshold=2))
        try:
            tasks = [((i, 4), [name], 4)
                     for i, name in enumerate(names[:3])]
            report, _ = run_one_round(net, pool, sup, tasks, val_dataset)
            assert report.quarantined == [(0, 4)]
            assert sup.is_quarantined((0, 4))
            assert (0, 4) in report.missing
            assert report.respawned >= 2  # both crashes healed

            # A later round never fans the quarantined candidate out.
            report2, _ = run_one_round(net, pool, sup, tasks, val_dataset)
            assert report2.attempted == 2
            assert set(report2.outcomes) == {(1, 4), (2, 4)}
            assert report2.respawned == 0
        finally:
            pool.close()

    def test_kill_during_respawn_is_retried_under_budget(
        self, quantized_net, val_dataset, install_hook, tmp_path
    ):
        net = quantized_net
        names = list(dict(quantized_layers(net)))
        # Worker 0's first eval kills it; its first *respawn* (start
        # index 1) dies before the handshake, so the supervisor must
        # retry the respawn itself.
        install_hook(WorkerFaultInjector(
            tmp_path / "faults", kill_on={(0, 0)}, start_kill={(0, 1)},
        ))
        pool = ProbeWorkerPool(net, n_workers=2)
        sup = PoolSupervisor(SupervisionConfig(respawn_budget=4))
        try:
            tasks = [((i, 4), [name], 4)
                     for i, name in enumerate(names[:3])]
            report, _ = run_one_round(net, pool, sup, tasks, val_dataset)
            assert any("respawn of worker 0 failed" in f
                       for f in report.faults)
            assert report.respawned >= 1
            assert sup.respawns_used >= 2  # failed attempt consumed budget
            assert not report.degraded
            assert set(report.outcomes) == {key for key, _, _ in tasks}
            assert pool.alive_workers() == [0, 1]
        finally:
            pool.close()

    def test_exhausted_budget_degrades_but_still_salvages(
        self, quantized_net, val_dataset, install_hook, tmp_path
    ):
        net = quantized_net
        names = list(dict(quantized_layers(net)))
        install_hook(WorkerFaultInjector(tmp_path / "faults",
                                         kill_on={(0, 0)}))
        pool = ProbeWorkerPool(net, n_workers=2)
        sup = PoolSupervisor(SupervisionConfig(respawn_budget=0))
        try:
            tasks = [((i, 4), [name], 4)
                     for i, name in enumerate(names[:4])]
            report, _ = run_one_round(net, pool, sup, tasks, val_dataset)
            assert report.degraded
            assert report.respawned == 0
            # The dead worker's tasks were still requeued onto the
            # survivor: nothing was thrown away.
            assert set(report.outcomes) == {key for key, _, _ in tasks}
            assert pool.alive_workers() == [1]
        finally:
            pool.close()
