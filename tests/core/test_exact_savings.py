"""Suffix probes and the standing-eval slot change no number a run computes.

The reference runs hide the ResNets' ``stages()`` (every probe then runs
the full, hand-written forward below) and make the standing-eval slot
always miss (every validation pass then runs).  Both are monkeypatched
here; neither is an option of the program.
"""

import pytest

from repro.core import CCQQuantizer
from repro.core import ccq as ccq_module
from repro.core import collaboration
from repro.core.probe import StageSuffix
from repro.models.resnet import CifarResNet
from repro.nn import functional as F
from repro.nn.data import DataLoader
from repro.quantization import quantize_model

from .fault_injection import FaultyLoader, SimulatedKill
from .test_probe_determinism import full_trajectory, make_config, resnet_config


def classic_forward(self, x):
    out = self.bn1(self.conv1(x)).relu()
    out = self.layer1(out)
    out = self.layer2(out)
    out = self.layer3(out)
    return self.fc(F.global_avg_pool2d(out))


def as_reference(monkeypatch, run):
    """``run()`` with stages hidden and the slot always missing."""
    with monkeypatch.context() as patch:
        patch.delattr(CifarResNet, "stages")
        patch.setattr(CifarResNet, "forward", classic_forward)
        patch.setattr(CCQQuantizer, "_slot_get", lambda self: None)
        return run()


def count_evaluations(monkeypatch):
    """Record the (model, loader) of every ``evaluate`` the driver calls."""
    calls = []
    for module in (ccq_module, collaboration):
        def counted(model, loader, *args, _evaluate=module.evaluate, **kw):
            calls.append((model, loader))
            return _evaluate(model, loader, *args, **kw)

        monkeypatch.setattr(module, "evaluate", counted)
    return calls


class TestMatchesReference:
    @pytest.mark.parametrize("policy", [
        "pact", "lsq", "lqnets",
        pytest.param("dorefa", marks=pytest.mark.slow),
        pytest.param("wrpn", marks=pytest.mark.slow),
        pytest.param("qil", marks=pytest.mark.slow),
        pytest.param("pact_sawb", marks=pytest.mark.slow),
    ])
    def test_search_equals_reference(
        self, policy, resnet_factory, monkeypatch
    ):
        def run():
            net, train, val = resnet_factory(policy)
            return CCQQuantizer(
                net, train, val, config=resnet_config(max_steps=8)
            ).run()

        reference = as_reference(monkeypatch, run)
        calls = count_evaluations(monkeypatch)
        result = run()
        assert full_trajectory(result) == full_trajectory(reference)
        assert result.probe_forward_passes == reference.probe_forward_passes
        # Not vacuous: probes did run as suffixes.
        assert any(isinstance(model, StageSuffix) for model, _ in calls)

    @pytest.mark.parametrize("max_retries", [2, 0], ids=["retry", "skip"])
    def test_recovery_divergence_equals_reference(
        self, max_retries, resnet_factory, monkeypatch, tmp_path
    ):
        """A NaN batch in step 0's recovery rolls the step back; it is
        retried (max_retries=2) or skipped (max_retries=0)."""
        def run(directory):
            net, train, val = resnet_factory("lsq")
            # initialize trains on batches 0-1; batch 2 opens step 0's
            # recovery epoch.
            faulty = FaultyLoader(train, fail_at_batch=2, mode="nan")
            quantizer = CCQQuantizer(
                net, faulty, val,
                config=resnet_config(
                    tmp_path / directory, max_steps=3,
                    initial_recovery_adaptive=False,
                    max_retries=max_retries,
                ),
            )
            return quantizer, quantizer.run()

        ref_quantizer, reference = as_reference(
            monkeypatch, lambda: run("reference")
        )
        quantizer, result = run("change")
        assert full_trajectory(result) == full_trajectory(reference)
        journal = quantizer.store.journal
        assert len(journal.events("recovery_retry")) == 1
        assert len(journal.events("expert_skipped")) == (max_retries == 0)
        assert [e["event"] for e in journal.events()] == [
            e["event"] for e in ref_quantizer.store.journal.events()
        ]

    def test_kill_and_resume_equals_reference(
        self, resnet_factory, monkeypatch, tmp_path
    ):
        def run():
            net, train, val = resnet_factory("pact")
            return CCQQuantizer(
                net, train, val, config=resnet_config(max_steps=4)
            ).run()

        reference = as_reference(monkeypatch, run)

        ckpt = tmp_path / "ckpt"
        net, train, val = resnet_factory("pact")
        # Batches 0-1 train initialize, 2k+2 and 2k+3 step k's recovery:
        # batch 6 dies inside step 2.
        killed = FaultyLoader(train, fail_at_batch=6, mode="kill")
        interrupted = CCQQuantizer(
            net, killed, val, config=resnet_config(ckpt, max_steps=4)
        )
        with pytest.raises(SimulatedKill):
            interrupted.run()
        assert len(interrupted.store.journal.events("step_complete")) == 2

        net, train, val = resnet_factory("pact")
        result = CCQQuantizer(
            net, train, val, config=resnet_config(ckpt, max_steps=4)
        ).run(resume=True)
        assert full_trajectory(result) == full_trajectory(reference)


class TestScoreOnce:
    def run_counting(self, monkeypatch, pretrained_net, tiny_splits,
                     shuffle):
        net, _ = pretrained_net
        quantize_model(net, "pact")
        train = DataLoader(tiny_splits.train, batch_size=64, shuffle=True,
                           seed=0)
        val = DataLoader(tiny_splits.val, batch_size=100, shuffle=shuffle,
                         seed=7)
        calls = count_evaluations(monkeypatch)
        CCQQuantizer(net, train, val, config=make_config(max_steps=2)).run()
        return sum(loader is val for _, loader in calls)

    def test_each_state_scored_once(
        self, monkeypatch, pretrained_net, tiny_splits
    ):
        """2 manual-recovery steps: float, initial recovery start and
        epoch, then each step's post-quant and recovery epoch.  The
        initialize return, pre-step, recovery start and final evals
        re-score a state scored just before."""
        assert self.run_counting(
            monkeypatch, pretrained_net, tiny_splits, shuffle=False
        ) == 7

    def test_reference_scores_every_pass(
        self, monkeypatch, pretrained_net, tiny_splits
    ):
        monkeypatch.setattr(CCQQuantizer, "_slot_get", lambda self: None)
        assert self.run_counting(
            monkeypatch, pretrained_net, tiny_splits, shuffle=False
        ) == 13

    def test_shuffled_val_loader_scores_every_pass(
        self, monkeypatch, pretrained_net, tiny_splits
    ):
        """Each pass of a shuffling loader draws from its RNG, so none
        may be skipped."""
        assert self.run_counting(
            monkeypatch, pretrained_net, tiny_splits, shuffle=True
        ) == 13

    def test_out_of_band_write_misses(self, resnet_factory):
        net, train, val = resnet_factory("pact")
        quantizer = CCQQuantizer(net, train, val, config=resnet_config())
        scored = quantizer._standing_eval()
        assert quantizer._slot_get() is scored
        next(iter(net.parameters())).data[...] *= 0.5
        assert quantizer._slot_get() is None
