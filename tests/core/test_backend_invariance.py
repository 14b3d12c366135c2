"""Kernel-backend selection must be invisible to the CCQ trajectory.

Acceptance for the pluggable backend (mirroring the worker-count
invariance contract): with any registered backend the CCQ trajectory —
winners, bit configuration, per-round probe losses, per-step
accuracies, journal contents — is bit-for-bit identical to the
``reference`` run, serial or pooled.  The backend is therefore excluded
from the checkpoint fingerprint, exactly like ``probe_workers``.
"""

import numpy as np
import pytest

from repro import models
from repro.core import CCQQuantizer
from repro.nn import backends
from repro.nn.data import DataLoader
from repro.quantization import quantize_model

from .test_parallel_invariance import journal_payload, probe_trace
from .test_probe_determinism import make_config, trajectory


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


class TestBackendInvariance:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_trajectory_and_journal_identical(self, run_factory, tmp_path,
                                              workers):
        results = {}
        journals = {}
        for name in ("reference", "fast"):
            net, train, val = run_factory()
            with backends.use_backend(name):
                quantizer = CCQQuantizer(
                    net, train, val,
                    config=make_config(
                        tmp_path / f"ckpt-{name}-{workers}",
                        max_steps=3, probe_workers=workers,
                    ),
                )
                results[name] = quantizer.run()
                if workers > 0:
                    # The pooled runs really used the pool (a silent
                    # serial fallback would make this test vacuous).
                    assert not quantizer.executor.pool_failed
            journals[name] = journal_payload(quantizer.store.journal)

        assert trajectory(results["fast"]) == trajectory(results["reference"])
        # Stronger than winners: every probe round observed the
        # bit-identical loss, in the identical draw order.
        assert (
            probe_trace(results["fast"])
            == probe_trace(results["reference"])
        )
        assert (
            results["fast"].probe_rounds
            == results["reference"].probe_rounds
        )
        assert journals["fast"] == journals["reference"]

    def test_backend_switch_does_not_invalidate_checkpoint(
        self, run_factory, tmp_path
    ):
        """The backend never appears in the checkpoint fingerprint, so
        finishing a ``reference`` run's checkpoint under ``fast`` must
        resume instead of restarting."""
        ckpt = tmp_path / "ckpt"
        net, train, val = run_factory()
        with backends.use_backend("reference"):
            CCQQuantizer(
                net, train, val, config=make_config(ckpt, max_steps=2)
            ).run()

        net, train, val = run_factory()
        with backends.use_backend("fast"):
            result = CCQQuantizer(
                net, train, val, config=make_config(ckpt)
            ).run(resume=True)
        assert [r.step for r in result.records] == list(range(8))
