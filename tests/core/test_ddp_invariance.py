"""Data-parallel recovery training: the worker count must be invisible.

Acceptance for the DDP backend (``docs/ddp.md``): with
``recovery.trainer="ddp"`` the SGD trajectory — per-epoch losses,
updated weight bytes, and at the CCQ level the step trace and journal —
is bit-for-bit identical for ``recover_workers`` 0 (in-process shards),
1, 2 and 4, because the shard plan and the all-reduce order are fixed
by ``grad_shards`` alone.  ``grad_shards=1`` degenerates to the serial
reference loop exactly.  A pool that cannot start (or dies mid-round)
falls back without perturbing a single bit.
"""

import numpy as np
import pytest

import repro.parallel.worker as worker_mod
from repro import models
from repro.core import CCQConfig, CCQQuantizer, RecoveryConfig
from repro.core.training import make_sgd, train_epoch
from repro.nn.data import DataLoader
from repro.nn.serialization import named_state_arrays
from repro.parallel import DDPTrainer, PoolError, PoolExecutor, plan_shards
from repro.quantization import quantize_model
from repro.telemetry import Telemetry

from .fault_injection import WorkerFaultInjector
from .test_parallel_invariance import journal_payload, probe_trace
from .test_probe_determinism import make_config, trajectory


@pytest.fixture()
def train_factory(pretrained_state, tiny_splits):
    """(model, train loader, optimizer) triples with identical state."""
    state, _ = pretrained_state

    def build():
        net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
        net.load_state_dict(state)
        quantize_model(net, "pact")
        train = DataLoader(tiny_splits.train, batch_size=64, shuffle=True,
                           seed=0)
        optimizer = make_sgd(net, lr=0.02)
        return net, train, optimizer

    return build


@pytest.fixture()
def run_factory(pretrained_state, tiny_splits):
    state, _ = pretrained_state

    def build():
        net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
        net.load_state_dict(state)
        quantize_model(net, "pact")
        train = DataLoader(tiny_splits.train, batch_size=64, shuffle=True,
                           seed=0)
        val = DataLoader(tiny_splits.val, batch_size=100, shuffle=True,
                         seed=7)
        return net, train, val

    return build


def ddp_config(checkpoint_dir=None, **overrides):
    defaults = dict(
        recovery=RecoveryConfig(
            mode="manual", epochs=1, use_hybrid_lr=False,
            trainer="ddp", grad_shards=4, max_batches_per_epoch=5,
        ),
        max_steps=3,
    )
    defaults.update(overrides)
    return make_config(checkpoint_dir, **defaults)


def ddp_executor(net, workers):
    """A pool executor whose trainer shards 4 ways over ``workers``."""
    return PoolExecutor(net, CCQConfig(
        recover_workers=workers,
        recovery=RecoveryConfig(trainer="ddp", grad_shards=4),
    ))


def weight_bytes(model):
    return {
        name: array.tobytes()
        for name, array in named_state_arrays(model).items()
    }


class CountingLoader:
    """Pass-through wrapper that counts the batches actually served."""

    def __init__(self, loader):
        self.loader = loader
        self.batches_served = 0

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def __len__(self):
        return len(self.loader)

    def __iter__(self):
        for batch in self.loader:
            self.batches_served += 1
            yield batch


class TestPlanShards:
    def test_contiguous_and_balanced(self):
        assert plan_shards(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert plan_shards(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert plan_shards(7, 4) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_degenerate_counts(self):
        assert plan_shards(5, 1) == [(0, 5)]
        # Never more shards than examples, never zero shards.
        assert plan_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert plan_shards(4, 0) == [(0, 4)]

    def test_covers_batch_exactly(self):
        for batch, shards in ((64, 4), (65, 4), (17, 3), (100, 7)):
            bounds = plan_shards(batch, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == batch
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start


class TestTrainerEquivalence:
    def test_one_shard_matches_serial_reference_bitwise(
        self, train_factory
    ):
        net_s, train_s, opt_s = train_factory()
        loss_s = train_epoch(net_s, train_s, opt_s, max_batches=5)

        net_d, train_d, opt_d = train_factory()
        trainer = DDPTrainer(net_d, grad_shards=1, workers=0)
        loss_d = trainer(net_d, train_d, opt_d, max_batches=5)

        assert loss_d == loss_s
        assert weight_bytes(net_d) == weight_bytes(net_s)

    def test_worker_count_invariant_at_weight_byte_granularity(
        self, train_factory
    ):
        reference = None
        for workers in (0, 1, 2, 4):
            net, train, optimizer = train_factory()
            if workers == 0:
                trainer = DDPTrainer(net, grad_shards=4, workers=0)
                loss = trainer(net, train, optimizer, max_batches=5)
            else:
                executor = ddp_executor(net, workers)
                trainer = executor.trainer
                try:
                    loss = trainer(net, train, optimizer, max_batches=5)
                finally:
                    executor.close()
                # The pooled runs really sharded across processes (a
                # silent fallback would make this test vacuous).
                assert not executor.pool_failed
                assert not trainer.degraded
            observed = (loss, weight_bytes(net))
            if reference is None:
                reference = observed
            else:
                assert observed == reference

    def test_batch_cap_not_divisible_by_workers(self, train_factory):
        """cap=7 with 4 workers must consume exactly the serial batch
        sequence — no rounding to worker multiples, no extra draws."""
        net_0, train_0, opt_0 = train_factory()
        counted_0 = CountingLoader(train_0)
        serial_served_ref = train_epoch(
            net_0, counted_0, opt_0, max_batches=7
        )
        serial_draws = counted_0.batches_served

        net_s, train_s, opt_s = train_factory()
        counted_s = CountingLoader(train_s)
        trainer_s = DDPTrainer(net_s, grad_shards=4, workers=0)
        loss_s = trainer_s(net_s, counted_s, opt_s, max_batches=7)
        assert counted_s.batches_served == serial_draws

        net_p, train_p, opt_p = train_factory()
        counted_p = CountingLoader(train_p)
        executor_p = ddp_executor(net_p, 4)
        trainer_p = executor_p.trainer
        try:
            loss_p = trainer_p(net_p, counted_p, opt_p, max_batches=7)
        finally:
            executor_p.close()
        assert not executor_p.pool_failed
        assert not trainer_p.degraded
        assert counted_p.batches_served == serial_draws
        assert loss_p == loss_s
        assert weight_bytes(net_p) == weight_bytes(net_s)

    def test_worker_kill_mid_round_is_salvaged_bitwise(
        self, train_factory, monkeypatch, tmp_path
    ):
        """A worker dying on its shard changes where the gradient is
        computed (respawn + requeue, or in-process salvage), never its
        bytes."""
        net_r, train_r, opt_r = train_factory()
        trainer_r = DDPTrainer(net_r, grad_shards=4, workers=0)
        loss_r = trainer_r(net_r, train_r, opt_r, max_batches=3)

        monkeypatch.setattr(worker_mod, "FAULT_HOOK", WorkerFaultInjector(
            tmp_path / "faults", kill_on={(0, 1)},
        ))
        net_k, train_k, opt_k = train_factory()
        executor_k = ddp_executor(net_k, 2)
        try:
            loss_k = executor_k.trainer(net_k, train_k, opt_k, max_batches=3)
        finally:
            executor_k.close()

        assert loss_k == loss_r
        assert weight_bytes(net_k) == weight_bytes(net_r)


class TestCCQWorkerCountInvariance:
    def test_trajectory_journal_and_weights_identical(
        self, run_factory, tmp_path
    ):
        results = {}
        for workers in (0, 1, 2, 4):
            net, train, val = run_factory()
            quantizer = CCQQuantizer(
                net, train, val,
                config=ddp_config(
                    tmp_path / f"ckpt{workers}",
                    recover_workers=workers,
                    probe_workers=workers,
                ),
            )
            result = quantizer.run()
            if workers > 0:
                assert not quantizer.executor.pool_failed
                assert quantizer.executor.trainer is not None
                assert not quantizer.executor.trainer.degraded
            results[workers] = (
                trajectory(result),
                probe_trace(result),
                journal_payload(quantizer.store.journal),
                weight_bytes(net),
            )

        serial = results[0]
        for workers in (1, 2, 4):
            assert results[workers] == serial


class TestRecoveryFallback:
    def test_pool_start_failure_degrades_to_in_process_shards(
        self, run_factory, monkeypatch
    ):
        import repro.parallel

        def refuse(*args, **kwargs):
            raise PoolError("no processes in this sandbox")

        net, train, val = run_factory()
        reference = CCQQuantizer(
            net, train, val, config=ddp_config(recover_workers=0)
        )
        ref_result = reference.run()

        monkeypatch.setattr(repro.parallel, "create_probe_pool", refuse)
        net, train, val = run_factory()
        telemetry = Telemetry.create(log_level="silent")
        quantizer = CCQQuantizer(
            net, train, val,
            config=ddp_config(recover_workers=2),
            telemetry=telemetry,
        )
        result = quantizer.run()
        telemetry.close()

        assert trajectory(result) == trajectory(ref_result)
        assert weight_bytes(net) == weight_bytes(reference.model)
