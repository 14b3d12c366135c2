"""The pool executor's own policy, on fake pools (no processes forked).

End-to-end behaviour under real pools (including a pool that cannot
start) lives in ``tests/core/test_parallel_invariance.py``,
``test_ddp_invariance.py`` and ``test_chaos.py``; this file pins what
the executor decides by itself: when a step fans out, how raw worker
outcomes become ``ProbeOutcome``s, how a degraded pool cools down and
comes back, and how the fan-out totals survive a checkpoint.
"""

import math

import numpy as np
import pytest

import repro.parallel
from repro import models
from repro.core import CCQConfig, RecoveryConfig
from repro.core.probe import ProbeOutcome
from repro.parallel import FanOutReport, PoolExecutor
from repro.quantization import quantize_model

TASKS = [(("a", 4), ["conv1"], 4), (("b", 4), ["conv2"], 4)]


class FakePool:
    n_workers = 2

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


@pytest.fixture()
def net():
    net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
    quantize_model(net, "pact")
    return net


@pytest.fixture()
def pools(monkeypatch):
    created = []

    def create(*args, **kwargs):
        created.append(FakePool())
        return created[-1]

    monkeypatch.setattr(repro.parallel, "create_probe_pool", create)
    return created


def with_reports(executor, *reports):
    """Make the supervisor hand out ``reports`` round by round."""
    queue = list(reports)
    executor.supervisor.run_round = lambda *args, **kwargs: queue.pop(0)


def ok_report():
    return FanOutReport(
        outcomes={
            ("a", 4): {"status": "ok", "loss": 0.5, "elapsed": 0.1,
                       "worker": 0, "task_id": 0},
            ("b", 4): {"status": "diverged", "message": "loss is nan",
                       "stage": "eval", "batch_index": 1,
                       "value": math.nan, "elapsed": 0.2, "worker": 1,
                       "task_id": 1},
        },
        attempted=2, completed=2,
    )


class TestWhenAStepFansOut:
    def test_no_probe_workers_never_starts_a_pool(self, net, pools):
        executor = PoolExecutor(net, CCQConfig(
            recovery=RecoveryConfig(trainer="ddp"),
        ))
        assert executor.fan_out(0, TASKS, []) == {}
        assert pools == []
        assert executor.trainer is not None

    def test_a_single_candidate_is_not_worth_a_round(self, net, pools):
        executor = PoolExecutor(net, CCQConfig(probe_workers=2))
        assert executor.fan_out(0, TASKS[:1], []) == {}
        assert pools == []
        assert executor.trainer is None


class TestOutcomes:
    def test_raw_outcomes_become_probe_outcomes(self, net, pools):
        executor = PoolExecutor(net, CCQConfig(probe_workers=2))
        with_reports(executor, ok_report())
        outcomes = executor.fan_out(0, TASKS, [])

        assert outcomes[("a", 4)] == ProbeOutcome(
            loss=0.5, elapsed=0.1, diverged=False, worker=0,
        )
        diverged = outcomes[("b", 4)]
        assert diverged.diverged
        assert (diverged.message, diverged.stage, diverged.batch_index) == (
            "loss is nan", "eval", 1,
        )
        assert math.isnan(diverged.value)
        assert executor.totals["rounds"] == 1
        assert executor.stats()["completed"] == 2
        assert [pool.closed for pool in pools] == [False]
        executor.close()
        assert [pool.closed for pool in pools] == [True]


class TestDegradeAndRepromote:
    def test_degraded_pool_cools_down_then_comes_back(self, net, pools):
        executor = PoolExecutor(net, CCQConfig(
            probe_workers=2, pool_repromote_after=2,
        ))
        with_reports(
            executor, FanOutReport(attempted=2, degraded=True), ok_report()
        )

        assert executor.fan_out(0, TASKS, []) == {}
        assert executor.pool_failed and pools[0].closed
        # One clean serial step is not enough ...
        assert executor.fan_out(1, TASKS, []) == {}
        assert len(pools) == 1
        # ... the second re-promotes onto a fresh pool.
        assert set(executor.fan_out(2, TASKS, [])) == {("a", 4), ("b", 4)}
        assert not executor.pool_failed
        assert len(pools) == 2
        assert executor.totals["degraded_rounds"] == 1
        assert executor.totals["rounds"] == 2


class TestTotals:
    def test_restore_takes_known_keys_and_tolerates_absence(self, net):
        executor = PoolExecutor(net, CCQConfig(probe_workers=2))
        executor.restore_totals(None)  # pre-observability checkpoint
        assert executor.stats() == {}

        executor.restore_totals({"rounds": 3, "attempted": 6, "bogus": 9})
        assert executor.totals["rounds"] == 3
        assert executor.totals["attempted"] == 6
        assert executor.totals["completed"] == 0
        assert "bogus" not in executor.stats()
