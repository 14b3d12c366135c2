"""Probe-cache determinism: memoization must be invisible to the search.

Acceptance for the probe engine: with the cache on (the default) the
CCQ trajectory — winners, bit configuration, per-step accuracies — is
bit-for-bit identical to a cache-off run, while the number of probe
forward passes drops to at most ``min(U, n_awake)`` per step.  This
must hold even with a *shuffling* validation loader (the pinned probe
subsets decouple probing from the loader's RNG) and across
kill-and-resume.
"""

import numpy as np
import pytest

from repro import models
from repro.core import (
    DEFAULT_LADDER,
    BitLadder,
    CCQConfig,
    CCQQuantizer,
    LambdaSchedule,
    RecoveryConfig,
)
from repro.nn.data import DataLoader
from repro.quantization import quantize_model

from .fault_injection import FaultyLoader, SimulatedKill


def make_config(checkpoint_dir=None, **overrides):
    defaults = dict(
        ladder=BitLadder((8, 4, 2)),
        probes_per_step=6,
        probe_batches=1,
        recovery=RecoveryConfig(mode="manual", epochs=1, use_hybrid_lr=False),
        lr=0.02,
        initial_recovery_epochs=1,
        seed=0,
    )
    if checkpoint_dir is not None:
        defaults["checkpoint_dir"] = str(checkpoint_dir)
    defaults.update(overrides)
    return CCQConfig(**defaults)


@pytest.fixture()
def run_factory(pretrained_state, tiny_splits):
    """Builds (model, train, val) triples with identical fresh state.

    The validation loader SHUFFLES — the historical trigger for the
    incomparable-probe-batches bug the pinned subsets fix.
    """
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


def resnet_config(checkpoint_dir=None, **overrides):
    """run-ccq's search on the micro ResNet-20: the full ladder, its
    lambda schedule, manual one-epoch recoveries."""
    defaults = dict(
        ladder=DEFAULT_LADDER,
        probe_batches=2,
        lambda_schedule=LambdaSchedule(start=0.7, end=0.2, decay_steps=15),
    )
    defaults.update(overrides)
    return make_config(checkpoint_dir, **defaults)


def full_trajectory(result):
    """Everything a run computed: winners, every probe loss, every
    step's and recovery epoch's scores, the initial and final evals."""
    return (
        [(r.layer_name, r.from_bits, r.to_bits) for r in result.records],
        [
            (r.competition.probes, sorted(r.competition.probe_losses.items()))
            for r in result.records
        ],
        [
            (r.pre_accuracy, r.post_quant_accuracy, r.recovered_accuracy,
             r.recovery.accuracy_history, r.recovery.train_loss_history)
            for r in result.records
        ],
        (result.initial_eval.loss, result.initial_eval.accuracy),
        (result.final_eval.loss, result.final_eval.accuracy),
        result.bit_config,
    )


def step_log(result):
    return [
        (r.step, r.layer_name, r.from_bits, r.to_bits) for r in result.records
    ]


def trajectory(result):
    return (
        step_log(result),
        result.bit_config,
        [r.pre_accuracy for r in result.records],
        [r.post_quant_accuracy for r in result.records],
        [r.recovered_accuracy for r in result.records],
        result.final_eval.accuracy,
        result.final_eval.loss,
        result.compression,
    )


class TestCacheTransparency:
    def test_cache_on_off_identical_trajectory(self, run_factory):
        net, train, val = run_factory()
        cached = CCQQuantizer(
            net, train, val, config=make_config(probe_cache=True)
        ).run()

        net, train, val = run_factory()
        uncached = CCQQuantizer(
            net, train, val, config=make_config(probe_cache=False)
        ).run()

        assert trajectory(cached) == trajectory(uncached)

        # Same probe rounds issued; the cache converts repeats into hits.
        assert cached.probe_rounds == uncached.probe_rounds
        assert uncached.probe_cache_hits == 0
        assert uncached.probe_forward_passes == uncached.probe_rounds
        assert (
            cached.probe_forward_passes + cached.probe_cache_hits
            == cached.probe_rounds
        )

    @pytest.mark.parametrize("policy,steps", [
        ("pact", 3), ("lsq", 3), ("qil", 3), ("lqnets", 3),
        # Counting evaluation forwards toward LQ-Nets' refresh interval
        # only shows after ~14 steps: the long-run guard.
        pytest.param("lqnets", 20, marks=pytest.mark.slow),
    ])
    def test_caches_on_off_identical_on_resnet(
        self, policy, steps, resnet_factory
    ):
        """The probe cache may not move any number a run computes, for
        any policy: probes restore quantizer state, and evaluation
        forwards never feed a policy's training.  (pact holds no such
        state and is the control.)"""
        runs = {}
        for probe_cache in (True, False):
            net, train, val = resnet_factory(policy)
            runs[probe_cache] = CCQQuantizer(
                net, train, val,
                config=resnet_config(
                    max_steps=steps, probe_cache=probe_cache
                ),
            ).run()
        assert len(runs[True].records) == steps
        assert full_trajectory(runs[False]) == full_trajectory(runs[True])

    def test_forward_passes_bounded_by_distinct_candidates(
        self, run_factory
    ):
        # 4 experts, U=6 probes/step: at most min(6, n_awake) distinct
        # candidates exist per step, so with the cache the passes are
        # strictly fewer than rounds (6 rounds over <= 4 candidates
        # must repeat by pigeonhole).
        net, train, val = run_factory()
        result = CCQQuantizer(net, train, val, config=make_config()).run()

        n_experts = 4
        per_step_bound = sum(
            min(6, n_experts) for _ in result.records
        )
        assert result.probe_forward_passes <= per_step_bound
        assert result.probe_forward_passes < result.probe_rounds
        assert result.probe_cache_hits > 0


class TestShuffledValLoader:
    def test_probes_unaffected_by_val_shuffle_seed(
        self, pretrained_state, tiny_splits
    ):
        """Pinning makes the val loader's shuffle RNG irrelevant."""
        state, _ = pretrained_state

        def run(val_seed, shuffle):
            net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
            net.load_state_dict(state)
            quantize_model(net, "pact")
            train = DataLoader(tiny_splits.train, batch_size=64,
                               shuffle=True, seed=0)
            val = DataLoader(tiny_splits.val, batch_size=100,
                             shuffle=shuffle, seed=val_seed)
            return CCQQuantizer(
                net, train, val, config=make_config(max_steps=3)
            ).run()

        a = run(val_seed=7, shuffle=True)
        b = run(val_seed=1234, shuffle=True)
        c = run(val_seed=0, shuffle=False)
        assert step_log(a) == step_log(b) == step_log(c)
        assert a.bit_config == b.bit_config == c.bit_config


class TestKillAndResumeWithCache:
    def test_resumed_cached_run_matches_reference(self, run_factory,
                                                  tmp_path):
        ckpt = tmp_path / "ckpt"

        net, train, val = run_factory()
        reference = CCQQuantizer(net, train, val, config=make_config()).run()
        assert len(reference.records) == 8

        net, train, val = run_factory()
        killed_train = FaultyLoader(train, fail_at_batch=25, mode="kill")
        interrupted = CCQQuantizer(
            net, killed_train, val, config=make_config(ckpt)
        )
        with pytest.raises(SimulatedKill):
            interrupted.run()
        assert interrupted.store.journal.events("step_complete")

        net, train, val = run_factory()
        resumed = CCQQuantizer(net, train, val, config=make_config(ckpt))
        result = resumed.run(resume=True)

        assert trajectory(result) == trajectory(reference)
        # Cache counters resume from the checkpoint instead of resetting.
        completed_before = len(
            interrupted.store.journal.events("step_complete")
        )
        assert completed_before > 0
        assert result.probe_rounds == reference.probe_rounds

    def test_cache_flag_absent_from_fingerprint(self, run_factory,
                                                tmp_path):
        """probe_cache is trajectory-invariant, so flipping it must not
        invalidate a checkpoint."""
        ckpt = tmp_path / "ckpt"
        net, train, val = run_factory()
        CCQQuantizer(
            net, train, val,
            config=make_config(ckpt, max_steps=2, probe_cache=True),
        ).run()

        net, train, val = run_factory()
        flipped = CCQQuantizer(
            net, train, val, config=make_config(ckpt, probe_cache=False)
        )
        result = flipped.run(resume=True)
        assert [r.step for r in result.records] == list(range(8))
