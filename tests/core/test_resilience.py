"""Divergence guards, retry policy, and the CCQ rollback/skip paths."""

import numpy as np
import pytest

from repro.core import (
    BitLadder,
    CCQConfig,
    CCQQuantizer,
    DivergenceError,
    RecoveryConfig,
    RetryPolicy,
)
from repro.core.training import evaluate, make_sgd, train_epoch
from repro.nn.data import DataLoader
from repro.quantization import get_bit_config, quantize_model, state_digest

from .fault_injection import FaultyLoader, FaultyModule, InjectedFault


def fresh_loaders(tiny_splits, seed=0):
    """Per-test loaders so faults never perturb the shared fixtures."""
    train = DataLoader(tiny_splits.train, batch_size=64, shuffle=True,
                       seed=seed)
    val = DataLoader(tiny_splits.val, batch_size=100)
    return train, val


def fast_config(tmp_path=None, **overrides):
    defaults = dict(
        ladder=BitLadder((8, 4, 2)),
        probes_per_step=3,
        probe_batches=1,
        recovery=RecoveryConfig(mode="manual", epochs=1, use_hybrid_lr=False),
        lr=0.02,
        initial_recovery_epochs=1,
        seed=0,
    )
    if tmp_path is not None:
        defaults["checkpoint_dir"] = str(tmp_path / "ckpt")
    defaults.update(overrides)
    return CCQConfig(**defaults)


class TestDivergenceGuards:
    def test_evaluate_raises_on_nan_loss(self, pretrained_net, tiny_splits):
        net, _ = pretrained_net
        _, val = fresh_loaders(tiny_splits)
        poisoned = FaultyLoader(val, fail_at_batch=0, mode="nan")
        with pytest.raises(DivergenceError) as excinfo:
            evaluate(net, poisoned)
        assert excinfo.value.stage == "evaluate"
        assert excinfo.value.batch_index == 0

    def test_evaluate_opt_out_preserves_silent_nan(
        self, pretrained_net, tiny_splits
    ):
        net, _ = pretrained_net
        _, val = fresh_loaders(tiny_splits)
        poisoned = FaultyLoader(val, fail_at_batch=0, mode="nan", once=False)
        result = evaluate(net, poisoned, check_divergence=False)
        assert np.isnan(result.loss)

    def test_train_epoch_raises_before_applying_poisoned_update(
        self, pretrained_net, tiny_splits
    ):
        net, _ = pretrained_net
        train, _ = fresh_loaders(tiny_splits)
        optimizer = make_sgd(net, lr=0.05, momentum=0.9)
        # Learnable parameters must be untouched by the poisoned batch.
        # (BatchNorm running stats mutate during forward, before a loss
        # exists; CCQ's snapshot rollback is what restores those.)
        before = [p.data.copy() for p in net.parameters()]
        poisoned = FaultyLoader(train, fail_at_batch=0, mode="nan")
        with pytest.raises(DivergenceError) as excinfo:
            train_epoch(net, poisoned, optimizer)
        assert excinfo.value.stage == "train"
        for param, value in zip(net.parameters(), before):
            np.testing.assert_array_equal(param.data, value)

    def test_train_epoch_guards_mid_epoch_divergence(
        self, pretrained_net, tiny_splits
    ):
        net, _ = pretrained_net
        train, _ = fresh_loaders(tiny_splits)
        optimizer = make_sgd(net, lr=0.05)
        poisoned = FaultyLoader(train, fail_at_batch=3, mode="nan")
        with pytest.raises(DivergenceError) as excinfo:
            train_epoch(net, poisoned, optimizer)
        assert excinfo.value.batch_index == 3

    def test_faulty_module_nan_output_is_caught(
        self, pretrained_net, tiny_splits
    ):
        net, _ = pretrained_net
        _, val = fresh_loaders(tiny_splits)
        wrapped = FaultyModule(net, fail_at_call=0, mode="nan")
        with pytest.raises(DivergenceError):
            evaluate(wrapped, val)

    def test_injected_raise_passes_through(self, pretrained_net, tiny_splits):
        net, _ = pretrained_net
        _, val = fresh_loaders(tiny_splits)
        broken = FaultyLoader(val, fail_at_batch=0, mode="raise")
        with pytest.raises(InjectedFault):
            evaluate(net, broken)

    def test_stall_mode_delays_but_continues(
        self, pretrained_net, tiny_splits
    ):
        net, _ = pretrained_net
        _, val = fresh_loaders(tiny_splits)
        slow = FaultyLoader(val, fail_at_batch=0, mode="stall",
                            stall_seconds=0.01)
        result = evaluate(net, slow)
        assert np.isfinite(result.loss)
        assert slow.faults_fired == 1


class TestRetryPolicy:
    def test_lr_backoff_sequence(self):
        policy = RetryPolicy(max_retries=3, lr_decay=0.5)
        lrs = [policy.lr_for(a, 0.1) for a in policy.attempts()]
        assert lrs == pytest.approx([0.1, 0.05, 0.025, 0.0125])
        assert policy.max_attempts == 4

    def test_zero_retries_means_single_attempt(self):
        policy = RetryPolicy(max_retries=0)
        assert list(policy.attempts()) == [0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(lr_decay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(lr_decay=1.5)


class TestCCQRollback:
    def test_transient_nan_recovers_via_retry(
        self, pretrained_net, tiny_splits, tmp_path
    ):
        """Acceptance: a NaN forced during one recovery stage completes
        the run via rollback+retry, and the journal records it."""
        net, _ = pretrained_net
        quantize_model(net, "pact")
        train, val = fresh_loaders(tiny_splits)
        # Batch 12 lands inside step 0's recovery epoch (initialize
        # consumes batches 0-9); once=True makes the retry clean.
        faulty_train = FaultyLoader(train, fail_at_batch=12, mode="nan")
        ccq = CCQQuantizer(net, faulty_train, val,
                           config=fast_config(tmp_path))
        result = ccq.run()
        assert faulty_train.faults_fired == 1
        # Run completed all the way to the ladder floor.
        assert len(result.records) == 8
        for name, (w_bits, _) in result.bit_config.items():
            assert w_bits == 2, name
        retries = ccq.store.journal.events("recovery_retry")
        assert len(retries) == 1
        assert retries[0]["step"] == 0
        assert retries[0]["stage"] == "train"
        # The retry decayed the LR for the second attempt.
        assert retries[0]["lr"] == pytest.approx(0.02 * 0.5)

    @pytest.mark.parametrize("policy", ["pact", "lqnets"])
    def test_persistent_nan_degrades_to_journaled_skips(
        self, policy, pretrained_net, tiny_splits, tmp_path
    ):
        """When every retry fails the step is skipped: the bit drop is
        reverted, the expert sleeps, and the search ends gracefully.
        LQ-Nets' nearest-level snap must pass the NaN on to the loss,
        or the divergence goes unseen."""
        net, _ = pretrained_net
        quantize_model(net, policy)
        train, val = fresh_loaders(tiny_splits)
        # Fault on every training batch after initialize: all recovery
        # stages diverge, all retries fail.
        faulty_train = FaultyLoader(train, fail_at_batch=10, mode="nan",
                                    once=False)
        ccq = CCQQuantizer(net, faulty_train, val,
                           config=fast_config(tmp_path, max_retries=1))
        result = ccq.run()  # must not raise
        assert result.records == []
        # Every expert was retired after its retries were exhausted.
        skips = ccq.store.journal.events("expert_skipped")
        assert len(skips) == 4
        assert all(s["attempts"] == 2 for s in skips)
        # The winners' bit drops were all reverted to the start level.
        for name, (w_bits, _) in get_bit_config(net).items():
            assert w_bits == 8, name

    @pytest.mark.parametrize("policy", ["pact", "lsq", "qil", "lqnets"])
    def test_skipped_step_leaves_the_state_as_before(
        self, policy, pretrained_net, tiny_splits, monkeypatch
    ):
        """A step whose every recovery attempt diverges rolls back to
        the pre-step state exactly: the quantizers' whole state too,
        which the bit setters would re-arm (LSQ, QIL) or drop (LQ-Nets'
        levels) when reverting the winner's bit drop."""
        import repro.core.collaboration as collaboration

        net, _ = pretrained_net
        quantize_model(net, policy)
        train, val = fresh_loaders(tiny_splits)
        ccq = CCQQuantizer(net, train, val, config=fast_config(max_retries=1))
        ccq.initialize()
        before = state_digest(net)
        real_train_epoch = collaboration.train_epoch

        def train_then_diverge(*args, **kwargs):
            real_train_epoch(*args, **kwargs)
            raise DivergenceError("injected", stage="train")

        monkeypatch.setattr(collaboration, "train_epoch", train_then_diverge)
        assert ccq._execute_step(0) is None
        assert state_digest(net) == before

    def test_fatal_divergence_is_journaled_and_raised(
        self, pretrained_net, tiny_splits, tmp_path
    ):
        """A standing model that is already NaN cannot be rolled back;
        the driver journals the post-mortem and surfaces a typed error."""
        net, _ = pretrained_net
        quantize_model(net, "pact")
        train, val = fresh_loaders(tiny_splits)
        ccq = CCQQuantizer(net, train, val, config=fast_config(tmp_path))
        ccq.initialize()
        for p in net.parameters():
            p.data[...] = np.nan
        with pytest.raises(DivergenceError):
            ccq._execute_step(0)
        assert ccq.store.journal.events("fatal_divergence")

    def test_diverged_probe_returns_penalty(
        self, pretrained_net, tiny_splits, tmp_path, monkeypatch
    ):
        from repro.core.ccq import PROBE_DIVERGENCE_PENALTY

        net, _ = pretrained_net
        quantize_model(net, "pact")
        train, val = fresh_loaders(tiny_splits)
        ccq = CCQQuantizer(net, train, val, config=fast_config(tmp_path))
        monkeypatch.setattr(
            ccq, "_probe_loss",
            lambda index: (_ for _ in ()).throw(
                DivergenceError("boom", stage="evaluate")
            ),
        )
        loss = ccq._guarded_probe(0)
        assert loss == PROBE_DIVERGENCE_PENALTY
        assert ccq.store.journal.events("probe_divergence")
