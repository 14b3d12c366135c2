"""Chaos acceptance: CCQ under injected worker faults.

The self-healing contract of the supervised probe pool
(``docs/resilience.md``): worker kills, hangs, corrupt results and even
a crash *during* a respawn may change where a probe loss is computed,
but never which loss the competition observes.  Every test here runs a
real multi-worker CCQ search with ``WorkerFaultInjector`` wired into
the forked workers and asserts the trajectory — and where a journal
exists, the journal — stays bit-identical to the serial run while the
telemetry records the healing that happened.
"""

import numpy as np
import pytest

import repro.parallel.worker as worker_mod
from repro import models
from repro.core import CCQQuantizer
from repro.nn.data import DataLoader
from repro.parallel import PoolError, ProbeWorkerPool
from repro.quantization import quantize_model, quantized_layers
from repro.telemetry import Telemetry

from .fault_injection import SimulatedKill, WorkerFaultInjector
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


@pytest.fixture()
def install_hook(monkeypatch):
    def install(injector):
        monkeypatch.setattr(worker_mod, "FAULT_HOOK", injector)
        return injector

    return install


def counters(telemetry):
    return {
        entry["name"]: entry["value"]
        for entry in telemetry.registry.snapshot()["counters"]
        if not entry.get("labels")
    }


class TestChaosTrajectory:
    def test_kills_and_hangs_leave_trajectory_and_journal_identical(
        self, run_factory, install_hook, tmp_path
    ):
        """The headline acceptance test: a 4-worker run peppered with
        worker kills and a hang matches the serial run bit for bit."""
        net, train, val = run_factory()
        serial_q = CCQQuantizer(
            net, train, val,
            config=make_config(tmp_path / "ckpt0", max_steps=3),
        )
        serial = serial_q.run()

        install_hook(WorkerFaultInjector(
            tmp_path / "faults",
            # Two kills on different workers at different steps, plus
            # one hang the adaptive deadline must reap.
            kill_on={(0, 0), (1, 2)},
            hang_on={(2, 1)},
            hang_seconds=60.0,
        ))
        net, train, val = run_factory()
        telemetry = Telemetry.create(log_level="silent")
        chaos_q = CCQQuantizer(
            net, train, val,
            config=make_config(
                tmp_path / "ckpt4", max_steps=3, probe_workers=4,
                probe_timeout=2.0,
            ),
            telemetry=telemetry,
        )
        chaos = chaos_q.run()
        telemetry.close()

        # The faults really happened and really were healed.
        seen = counters(telemetry)
        assert seen.get("ccq.pool_respawns", 0) >= 1
        assert seen.get("ccq.pool_salvaged_results", 0) >= 1
        # ... without demoting the run to serial.
        assert not chaos_q.executor.pool_failed

        # And none of it is visible to the search.
        assert trajectory(chaos) == trajectory(serial)
        assert probe_trace(chaos) == probe_trace(serial)
        assert chaos.probe_rounds == serial.probe_rounds
        assert journal_payload(chaos_q.store.journal) == journal_payload(
            serial_q.store.journal
        )

    def test_crash_looping_candidate_is_quarantined(
        self, run_factory, install_hook, tmp_path
    ):
        net, train, val = run_factory()
        serial = CCQQuantizer(
            net, train, val, config=make_config(max_steps=2)
        ).run()

        net, train, val = run_factory()
        # Poison one layer: every worker that evaluates it dies, so the
        # candidate crashes its first worker, crashes the requeue
        # target, and is then quarantined to the serial path.
        poison = next(iter(dict(quantized_layers(net))))
        install_hook(WorkerFaultInjector(tmp_path / "faults",
                                         kill_layers=[poison]))
        telemetry = Telemetry.create(log_level="silent")
        chaos_q = CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=2, probe_workers=2,
                               pool_respawn_budget=8),
            telemetry=telemetry,
        )
        chaos = chaos_q.run()
        telemetry.close()

        seen = counters(telemetry)
        assert seen.get("ccq.quarantined_candidates", 0) >= 1
        assert seen.get("ccq.pool_respawns", 0) >= 2
        # The quarantined candidate evaluated serially: same losses,
        # same trajectory.
        assert trajectory(chaos) == trajectory(serial)
        assert probe_trace(chaos) == probe_trace(serial)


class TestRePromotion:
    def test_pool_is_retried_after_clean_serial_steps(
        self, run_factory, monkeypatch, tmp_path
    ):
        class DyingPool:
            n_workers = 2

            def __init__(self):
                self.closed = False

            def broadcast(self, *args, **kwargs):
                raise PoolError("transient node fault")

            def close(self):
                self.closed = True

        import repro.parallel

        real_create = repro.parallel.create_probe_pool
        created = []

        def flaky_create(*args, **kwargs):
            if not created:
                pool = DyingPool()
            else:
                pool = real_create(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(
            repro.parallel, "create_probe_pool", flaky_create
        )

        net, train, val = run_factory()
        serial = CCQQuantizer(
            net, train, val, config=make_config(max_steps=3)
        ).run()

        net, train, val = run_factory()
        telemetry = Telemetry.create(log_level="silent")
        quantizer = CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=3, probe_workers=2,
                               pool_repromote_after=1),
            telemetry=telemetry,
        )
        result = quantizer.run()
        telemetry.close()

        # Step 0 degraded on the dying pool; after one clean serial
        # step the pool was re-promoted with a real pool and stuck.
        assert len(created) == 2
        assert created[0].closed
        assert counters(telemetry).get("ccq.pool_repromotions", 0) == 1
        assert not quantizer.executor.pool_failed
        assert trajectory(result) == trajectory(serial)


class TestKillMidRespawnResume:
    def test_resume_after_death_during_respawn_is_deterministic(
        self, run_factory, install_hook, monkeypatch, tmp_path
    ):
        """The nastiest crash window: the run dies *while healing* a
        worker fault.  Resume must still reproduce the reference."""
        ckpt = tmp_path / "ckpt"

        net, train, val = run_factory()
        reference = CCQQuantizer(
            net, train, val,
            config=make_config(max_steps=4, probe_workers=2),
        ).run()

        with monkeypatch.context() as m:
            # Worker 0's third eval lands in step >= 1 (so a checkpoint
            # exists); the respawn it triggers hits simulated power loss.
            m.setattr(worker_mod, "FAULT_HOOK", WorkerFaultInjector(
                tmp_path / "faults", kill_on={(0, 2)},
            ))

            def power_loss(self, worker_id):
                raise SimulatedKill("died mid-respawn")

            m.setattr(ProbeWorkerPool, "respawn_worker", power_loss)

            net, train, val = run_factory()
            interrupted = CCQQuantizer(
                net, train, val,
                config=make_config(ckpt, max_steps=4, probe_workers=2),
            )
            with pytest.raises(SimulatedKill):
                interrupted.run()
            interrupted.executor.close()
            assert interrupted.store.journal.events("step_complete")

        # Fresh process model, fault-free workers.
        net, train, val = run_factory()
        resumed = CCQQuantizer(
            net, train, val,
            config=make_config(ckpt, max_steps=4, probe_workers=2),
        )
        result = resumed.run(resume=True)

        assert trajectory(result) == trajectory(reference)
        assert probe_trace(result) == probe_trace(reference)
        assert result.probe_rounds == reference.probe_rounds


class TestCooperativeStop:
    def test_stop_mid_run_checkpoints_and_resumes_exactly(
        self, run_factory, monkeypatch, tmp_path
    ):
        """``request_stop()`` (what the CLI signal guard calls) finishes
        the step in flight, journals ``interrupted``, and leaves a
        checkpoint a later ``--resume`` continues bit-identically."""
        ckpt = tmp_path / "ckpt"

        net, train, val = run_factory()
        reference = CCQQuantizer(
            net, train, val, config=make_config(max_steps=4)
        ).run()

        net, train, val = run_factory()
        stopped = CCQQuantizer(
            net, train, val, config=make_config(ckpt, max_steps=4)
        )
        original = stopped._execute_step

        def stop_after_first(step):
            record = original(step)
            stopped.request_stop()  # as the SIGTERM handler would
            return record

        monkeypatch.setattr(stopped, "_execute_step", stop_after_first)
        partial = stopped.run()

        # The step in flight completed and was checkpointed; the run
        # wound down with the full artifact set of a finished run.
        assert len(partial.records) == 1
        assert partial.final_eval is not None
        journal = stopped.store.journal
        assert journal.events("interrupted")
        assert journal.events("run_complete")

        net, train, val = run_factory()
        resumed = CCQQuantizer(
            net, train, val, config=make_config(ckpt, max_steps=4)
        )
        result = resumed.run(resume=True)
        assert trajectory(result) == trajectory(reference)
