"""Parallel probe fan-out: the worker count must be invisible.

Acceptance for the parallel backend: with ``probe_workers=N`` the CCQ
trajectory — winners, bit configuration, per-round probe losses, per-step
accuracies, journal contents — is bit-for-bit identical to the serial
run for *any* worker count, including 1.  Speculative worker
evaluations only ever show up in ``probe_forward_passes``.  A pool that
cannot start (or dies mid-run) silently degrades to the serial path
with the same guarantee.
"""

import numpy as np
import pytest

from repro import models
from repro.core import CCQQuantizer
from repro.nn.data import DataLoader
from repro.parallel import PoolError
from repro.quantization import quantize_model

from .fault_injection import FaultyLoader, SimulatedKill
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


def probe_trace(result):
    """Per-step probe sequence and per-round losses, in draw order."""
    return [
        (
            r.competition.probes,
            [r.competition.probe_losses[m] for m in r.competition.probes],
        )
        for r in result.records
    ]


def journal_payload(journal):
    """Journal contents with the wall-clock stamps stripped."""
    return [
        {k: v for k, v in event.items() if k not in ("ts", "mono")}
        for event in journal.events()
    ]


class TestWorkerCountInvariance:
    def test_trajectory_identical_across_worker_counts(self, run_factory):
        results = {}
        for workers in (0, 1, 2, 4):
            net, train, val = run_factory()
            quantizer = CCQQuantizer(
                net, train, val,
                config=make_config(max_steps=4, probe_workers=workers),
            )
            results[workers] = quantizer.run()
            # The parallel runs really used the pool (no silent
            # serial fallback would make this test vacuous).
            if workers > 0:
                assert not quantizer.executor.pool_failed

        serial = results[0]
        for workers in (1, 2, 4):
            parallel = results[workers]
            assert trajectory(parallel) == trajectory(serial)
            # Stronger than winners: every probe round observed the
            # bit-identical loss, in the identical draw order.
            assert probe_trace(parallel) == probe_trace(serial)
            assert parallel.probe_rounds == serial.probe_rounds
            assert parallel.probe_cache_hits == serial.probe_cache_hits
            # Speculation can only add forward passes, never remove.
            assert (
                parallel.probe_forward_passes
                >= serial.probe_forward_passes
            )

    def test_journal_identical_serial_vs_parallel(self, run_factory,
                                                  tmp_path):
        journals = {}
        for workers in (0, 2):
            net, train, val = run_factory()
            quantizer = CCQQuantizer(
                net, train, val,
                config=make_config(
                    tmp_path / f"ckpt{workers}",
                    max_steps=3, probe_workers=workers,
                ),
            )
            quantizer.run()
            journals[workers] = journal_payload(quantizer.store.journal)
        assert journals[2] == journals[0]


class TestKillAndResumeWithPool:
    def test_resumed_parallel_run_matches_parallel_reference(
        self, run_factory, tmp_path
    ):
        ckpt = tmp_path / "ckpt"

        net, train, val = run_factory()
        reference = CCQQuantizer(
            net, train, val, config=make_config(probe_workers=2)
        ).run()

        net, train, val = run_factory()
        killed_train = FaultyLoader(train, fail_at_batch=25, mode="kill")
        interrupted = CCQQuantizer(
            net, killed_train, val,
            config=make_config(ckpt, probe_workers=2),
        )
        with pytest.raises(SimulatedKill):
            interrupted.run()
        interrupted.executor.close()
        assert interrupted.store.journal.events("step_complete")

        net, train, val = run_factory()
        resumed = CCQQuantizer(
            net, train, val, config=make_config(ckpt, probe_workers=2)
        )
        result = resumed.run(resume=True)

        assert trajectory(result) == trajectory(reference)
        assert result.probe_rounds == reference.probe_rounds


class TestSerialFallback:
    def test_pool_start_failure_falls_back_to_serial(
        self, run_factory, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise PoolError("no processes in this sandbox")

        import repro.parallel

        monkeypatch.setattr(repro.parallel, "create_probe_pool", refuse)

        net, train, val = run_factory()
        serial = CCQQuantizer(
            net, train, val, config=make_config(max_steps=3)
        ).run()

        net, train, val = run_factory()
        quantizer = CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=3, probe_workers=2),
        )
        fallback = quantizer.run()

        assert quantizer.executor.pool_failed
        assert trajectory(fallback) == trajectory(serial)
        # Fully serial: not a single speculative evaluation happened.
        assert (
            fallback.probe_forward_passes == serial.probe_forward_passes
        )

    def test_mid_run_pool_failure_falls_back_to_serial(
        self, run_factory, monkeypatch
    ):
        class DyingPool:
            n_workers = 2

            def __init__(self):
                self.closed = False

            def broadcast(self, *args, **kwargs):
                raise PoolError("worker died")

            def close(self):
                self.closed = True

        pools = []

        def make_pool(*args, **kwargs):
            pool = DyingPool()
            pools.append(pool)
            return pool

        import repro.parallel

        monkeypatch.setattr(repro.parallel, "create_probe_pool", make_pool)

        net, train, val = run_factory()
        serial = CCQQuantizer(
            net, train, val, config=make_config(max_steps=3)
        ).run()

        net, train, val = run_factory()
        quantizer = CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=3, probe_workers=2),
        )
        result = quantizer.run()

        assert quantizer.executor.pool_failed
        assert [pool.closed for pool in pools] == [True]
        assert trajectory(result) == trajectory(serial)


class TestWorkerTelemetry:
    def test_trajectory_unchanged_with_worker_telemetry_enabled(
        self, run_factory, tmp_path
    ):
        """Telemetry capture inside the workers (per-worker event files,
        span/trace propagation through the command queue) must be as
        bit-invisible to the trajectory as the pool itself."""
        from repro.telemetry import Telemetry

        net, train, val = run_factory()
        serial = CCQQuantizer(
            net, train, val, config=make_config(max_steps=3)
        ).run()

        telemetry = Telemetry.create(
            directory=tmp_path / "telem", log_level="error"
        )
        net, train, val = run_factory()
        quantizer = CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=3, probe_workers=2),
            telemetry=telemetry,
        )
        instrumented = quantizer.run()
        telemetry.close()
        assert not quantizer.executor.pool_failed

        assert trajectory(instrumented) == trajectory(serial)
        assert probe_trace(instrumented) == probe_trace(serial)

    def test_two_worker_run_emits_mergeable_worker_telemetry(
        self, run_factory, tmp_path
    ):
        from repro.telemetry import (
            Telemetry,
            assemble_traces,
            load_aggregated_run,
            merge_worker_metrics,
            pool_summary,
            worker_lanes,
        )

        directory = tmp_path / "telem"
        telemetry = Telemetry.create(
            directory=directory, log_level="error"
        )
        net, train, val = run_factory()
        CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=3, probe_workers=2),
            telemetry=telemetry,
        ).run()
        telemetry.close()

        agg = load_aggregated_run(directory)
        assert agg.n_workers == 2

        lanes = worker_lanes(agg)
        assert set(lanes) == {0, 1}
        assert all(lane.evals > 0 for lane in lanes.values())
        assert all(lane.busy_s > 0.0 for lane in lanes.values())

        summary = pool_summary(agg)
        assert summary["fanout_rounds"] == 3
        assert 0.0 < summary["utilization"] <= 1.0

        # Every worker eval stitches to a parent fan-out span.
        traces = assemble_traces(agg)
        assert len(traces) == 3
        children = [c for t in traces for c in t["children"]]
        assert children
        joined = sum(len(t["children"]) for t in traces)
        total_evals = sum(lane.evals for lane in lanes.values())
        assert joined == total_evals

        merged = merge_worker_metrics(directory)
        names = {name for name, _, _, _ in merged.series()}
        assert "worker.evals" in names
        assert "worker.eval_s" in names


class TestConfigSurface:
    def test_negative_probe_workers_rejected(self, run_factory):
        net, train, val = run_factory()
        with pytest.raises(ValueError):
            CCQQuantizer(
                net, train, val, config=make_config(probe_workers=-1)
            )

    def test_parallel_knobs_absent_from_fingerprint(self, run_factory,
                                                    tmp_path):
        """probe_workers and the supervision knobs are
        trajectory-invariant, so flipping them must not invalidate a
        checkpoint."""
        ckpt = tmp_path / "ckpt"
        net, train, val = run_factory()
        CCQQuantizer(
            net, train, val, config=make_config(ckpt, max_steps=2)
        ).run()

        net, train, val = run_factory()
        flipped = CCQQuantizer(
            net, train, val,
            config=make_config(ckpt, probe_workers=2,
                               probe_timeout=42.0,
                               pool_respawn_budget=3,
                               pool_repromote_after=9),
        )
        result = flipped.run(resume=True)
        assert [r.step for r in result.records] == list(range(8))
