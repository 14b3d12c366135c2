"""Kill-and-resume determinism for the fault-tolerant CCQ runtime.

Acceptance: a CCQ run interrupted at an arbitrary step and resumed from
its checkpoint directory yields the same final bit configuration, step
log, and accuracy as the uninterrupted reference run — bit for bit.
"""

import numpy as np
import pytest

from repro import models
from repro.core import (
    BitLadder,
    CCQConfig,
    CCQQuantizer,
    RecoveryConfig,
)
from repro.nn.data import DataLoader
from repro.nn.serialization import CheckpointError
from repro.quantization import quantize_model

from ..core.fault_injection import FaultyLoader, SimulatedKill


def make_config(checkpoint_dir=None, **overrides):
    defaults = dict(
        ladder=BitLadder((8, 4, 2)),
        probes_per_step=3,
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
    """Builds (model, train, val) triples with identical fresh state."""
    state, _ = pretrained_state

    def build(policy="pact"):
        net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
        net.load_state_dict(state)
        quantize_model(net, policy)
        train = DataLoader(tiny_splits.train, batch_size=64, shuffle=True,
                           seed=0)
        val = DataLoader(tiny_splits.val, batch_size=100)
        return net, train, val

    return build


def step_log(result):
    return [
        (r.step, r.layer_name, r.from_bits, r.to_bits) for r in result.records
    ]


class TestKillAndResume:
    def test_resumed_run_matches_uninterrupted_reference(
        self, run_factory, tmp_path
    ):
        self.check_resume_matches_reference(run_factory, tmp_path, "pact")

    @pytest.mark.parametrize("policy", ["lsq", "qil", "lqnets"])
    def test_stateful_quantizers_resume_exactly(
        self, run_factory, tmp_path, policy
    ):
        """Checkpoints carry whole quantizer state (LSQ steps, QIL
        intervals, LQ-Nets levels and counters), so a resumed run of
        these policies matches the uninterrupted one too."""
        self.check_resume_matches_reference(run_factory, tmp_path, policy)

    def check_resume_matches_reference(self, run_factory, tmp_path, policy):
        ckpt = tmp_path / "ckpt"

        # Uninterrupted reference (no checkpointing at all).
        net, train, val = run_factory(policy)
        reference = CCQQuantizer(net, train, val, config=make_config()).run()
        assert len(reference.records) == 8

        # Interrupted run: a simulated kill fires mid-step (batch 25
        # lands inside step 1's recovery epoch).
        net, train, val = run_factory(policy)
        killed_train = FaultyLoader(train, fail_at_batch=25, mode="kill")
        interrupted = CCQQuantizer(
            net, killed_train, val, config=make_config(ckpt)
        )
        with pytest.raises(SimulatedKill):
            interrupted.run()
        # At least one step committed before the kill.
        assert interrupted.store.journal.events("step_complete")

        # Resume in a fresh process model: new objects, fault-free loader.
        net, train, val = run_factory(policy)
        resumed = CCQQuantizer(net, train, val, config=make_config(ckpt))
        result = resumed.run(resume=True)

        assert result.bit_config == reference.bit_config
        assert step_log(result) == step_log(reference)
        assert len(result.records) == len(reference.records)
        assert result.final_eval.accuracy == reference.final_eval.accuracy
        assert result.final_eval.loss == reference.final_eval.loss
        assert result.compression == reference.compression
        assert (
            result.initial_eval.accuracy == reference.initial_eval.accuracy
        )
        # Per-step accuracies match bit-for-bit too.
        for mine, theirs in zip(result.records, reference.records):
            assert mine.pre_accuracy == theirs.pre_accuracy
            assert mine.post_quant_accuracy == theirs.post_quant_accuracy
            assert mine.recovered_accuracy == theirs.recovered_accuracy
        journal = resumed.store.journal
        assert journal.events("resumed")
        assert journal.events("run_complete")

    def test_resume_continues_step_numbering(self, run_factory, tmp_path):
        ckpt = tmp_path / "ckpt"
        net, train, val = run_factory()
        first = CCQQuantizer(
            net, train, val, config=make_config(ckpt, max_steps=3)
        ).run()
        assert len(first.records) == 3

        net, train, val = run_factory()
        second = CCQQuantizer(net, train, val, config=make_config(ckpt))
        result = second.run(resume=True)
        assert [r.step for r in result.records] == list(range(8))

    def test_resume_with_mismatched_config_is_rejected(
        self, run_factory, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        net, train, val = run_factory()
        CCQQuantizer(
            net, train, val, config=make_config(ckpt, max_steps=1)
        ).run()

        net, train, val = run_factory()
        other = CCQQuantizer(
            net, train, val, config=make_config(ckpt, seed=1)
        )
        with pytest.raises(CheckpointError, match="seed"):
            other.run(resume=True)

    def test_resume_without_checkpoint_dir_is_rejected(self, run_factory):
        net, train, val = run_factory()
        ccq = CCQQuantizer(net, train, val, config=make_config())
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ccq.run(resume=True)

    def test_resume_with_empty_directory_starts_fresh(
        self, run_factory, tmp_path
    ):
        ckpt = tmp_path / "fresh"
        net, train, val = run_factory()
        ccq = CCQQuantizer(
            net, train, val, config=make_config(ckpt, max_steps=2)
        )
        result = ccq.run(resume=True)
        assert len(result.records) == 2
        assert ccq.store.journal.events("run_start")


class TestCorruptedCheckpointRollback:
    def test_flipped_byte_rolls_back_and_reproduces_reference(
        self, run_factory, tmp_path
    ):
        """Regression: a corrupted newest checkpoint must not kill the
        resume — digest verification rejects it, the predecessor loads,
        and the deterministic re-run of the lost step reproduces the
        uninterrupted reference bit for bit."""
        from repro.telemetry import Telemetry

        ckpt = tmp_path / "ckpt"

        net, train, val = run_factory()
        reference = CCQQuantizer(net, train, val, config=make_config()).run()

        net, train, val = run_factory()
        CCQQuantizer(
            net, train, val, config=make_config(ckpt, max_steps=3)
        ).run()

        # Bit rot: flip one byte in the newest model archive.
        import json as json_module

        state = json_module.loads((ckpt / "state.json").read_text())
        archive = ckpt / state["model_file"]
        data = bytearray(archive.read_bytes())
        data[200] ^= 0xFF
        archive.write_bytes(bytes(data))

        net, train, val = run_factory()
        telemetry = Telemetry.create(log_level="silent")
        resumed = CCQQuantizer(
            net, train, val, config=make_config(ckpt),
            telemetry=telemetry,
        )
        result = resumed.run(resume=True)
        telemetry.close()

        # The corruption was detected, counted, and journaled ...
        failures = [
            entry["value"]
            for entry in telemetry.registry.snapshot()["counters"]
            if entry["name"] == "ccq.checkpoint_integrity_failures"
        ]
        assert failures and failures[0] >= 1
        assert resumed.store.journal.events("checkpoint_rollback")
        # ... and the run resumed from the predecessor all the way to
        # the reference trajectory.
        assert step_log(result) == step_log(reference)
        assert result.bit_config == reference.bit_config
        assert result.final_eval.accuracy == reference.final_eval.accuracy
        assert result.final_eval.loss == reference.final_eval.loss
        assert result.compression == reference.compression
