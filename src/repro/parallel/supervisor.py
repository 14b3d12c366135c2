"""Supervision layer for the probe worker pool: self-healing fan-out.

The :class:`~repro.parallel.pool.ProbeWorkerPool` only provides the
primitives; without supervision one dead worker, one hung evaluation
or one malformed result would throw away the whole step's fan-out and
demote the run to serial probing forever.  For a multi-hour CCQ
campaign that is far too blunt — the serial path is bit-identical but
much slower, and most faults are transient.

:class:`PoolSupervisor` wraps each fan-out round with:

* **adaptive per-task deadlines** — derived from the pinned-batch count
  times a measured per-batch EMA of healthy evaluations (``U`` batches
  at 50 ms should not wait the 120 s a hardcoded timeout allows), with
  an explicit ``probe_timeout`` override for operators who know better;
* **worker health monitoring and respawn** — a worker that dies (or
  hangs past the deadline) is terminated, re-forked, re-handshaken and
  re-synced from the cached broadcast, under a bounded respawn budget
  with exponential backoff;
* **partial-result salvage** — results already delivered by healthy
  workers are *kept*; in-flight candidates of the faulted worker are
  requeued once onto the survivors, and whatever is still missing at
  the end of the round simply evaluates serially inside the Hedge loop
  (the probe engine treats an absent prefetch exactly like a serial
  run, so the trajectory is untouched);
* **candidate quarantine** — a candidate observed in flight across
  repeated worker crashes is assumed to be the trigger; it is never
  fanned out again and evaluates once on the serial path instead.

None of this is trajectory-relevant: supervision only decides *where*
a loss is computed, never *what* loss the competition observes, so the
bit-identical-to-serial contract of ``docs/parallel.md`` holds under
arbitrary worker faults.  The caller reads :class:`FanOutReport` to
account respawns/salvage/quarantine in telemetry and to decide when
the budget is exhausted and the run should degrade to serial (and
later re-promote; see :class:`repro.parallel.executor.PoolExecutor`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set

from ..telemetry import NULL_TELEMETRY, Telemetry
from .pool import PoolError, ProbeTask, ProbeWorkerPool

__all__ = [
    "SupervisionConfig",
    "FanOutReport",
    "PendingRound",
    "PoolSupervisor",
    "outcome_problem",
    "train_outcome_problem",
]

# Statuses a well-formed worker outcome may carry.
_VALID_STATUSES = ("ok", "diverged", "error")

# Statuses a recovery-shard outcome may carry (divergence is detected
# by the parent trainer after the all-reduce, never shard-side).
_VALID_TRAIN_STATUSES = ("ok", "error")


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs of the supervision layer (all trajectory-invariant)."""

    # Fixed per-candidate deadline in seconds; ``None`` derives it from
    # the measured per-batch EMA instead (the adaptive default).
    probe_timeout: Optional[float] = None
    # Deadline used before any healthy evaluation has been measured.
    startup_timeout: float = 120.0
    # Adaptive deadline = batches x EMA x safety, clamped to the band
    # below.  The safety factor is deliberately generous: a false
    # timeout only costs a respawn plus a serial re-run, but it should
    # stay rare.
    deadline_safety: float = 25.0
    deadline_floor: float = 2.0
    deadline_ceiling: float = 600.0
    # EMA smoothing for the measured per-batch evaluation time.
    ema_alpha: float = 0.2
    # Total respawns allowed over the supervisor's lifetime before the
    # pool is declared beyond saving and the run degrades to serial.
    respawn_budget: int = 8
    # Exponential backoff before each respawn: base * 2**respawns_used,
    # capped.
    respawn_backoff_s: float = 0.05
    respawn_backoff_cap_s: float = 2.0
    # A candidate observed in flight across this many worker crashes is
    # quarantined: never fanned out again, evaluated serially instead.
    quarantine_threshold: int = 2


@dataclass
class FanOutReport:
    """What happened during one supervised fan-out round."""

    outcomes: Dict[Hashable, Dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    completed: int = 0
    # Results kept from a round in which at least one fault occurred
    # (the pre-supervision pool would have discarded all of them).
    salvaged: int = 0
    respawned: int = 0
    # In-flight candidates moved (once) from a faulted worker onto a
    # survivor instead of going serial.
    requeued: int = 0
    # Candidates newly quarantined during this round.
    quarantined: List[Hashable] = field(default_factory=list)
    # Candidates whose results never arrived (they evaluate serially).
    missing: List[Hashable] = field(default_factory=list)
    # Human-readable fault descriptions, for the structured log.
    faults: List[str] = field(default_factory=list)
    # The respawn budget ran out: the caller should close the pool and
    # fall back to serial probing (and maybe re-promote later).
    degraded: bool = False
    # The round deadline that was in force, for observability.
    deadline_s: float = 0.0


def outcome_problem(outcome: Any) -> Optional[str]:
    """Validate a worker outcome's schema; return a description or None.

    A worker that ships a malformed result (memory corruption, a bug, a
    fault injector) must not poison the probe engine: the supervisor
    discards the result, recycles the worker and lets the candidate
    evaluate serially.
    """
    if not isinstance(outcome, dict):
        return f"outcome is not a dict: {type(outcome).__name__}"
    if not isinstance(outcome.get("task_id"), int):
        return f"non-integer task_id: {outcome.get('task_id')!r}"
    status = outcome.get("status")
    if status not in _VALID_STATUSES:
        return f"unknown status: {status!r}"
    if status == "ok":
        loss = outcome.get("loss")
        if not isinstance(loss, float) or not math.isfinite(loss):
            return f"status 'ok' with non-finite loss: {loss!r}"
    return None


def train_outcome_problem(outcome: Any) -> Optional[str]:
    """Validate a recovery-shard outcome's schema.

    Unlike :func:`outcome_problem` a non-finite loss is *not* corrupt
    here: a diverging shard is a property of the trajectory, and the
    parent trainer's post-all-reduce ``ensure_finite`` must see it at
    exactly the point the serial trainer would — schema validation only
    rejects results a healthy worker could never have produced.
    """
    if not isinstance(outcome, dict):
        return f"outcome is not a dict: {type(outcome).__name__}"
    if outcome.get("kind") != "train":
        return f"not a train outcome: kind={outcome.get('kind')!r}"
    if not isinstance(outcome.get("task_id"), int):
        return f"non-integer task_id: {outcome.get('task_id')!r}"
    status = outcome.get("status")
    if status not in _VALID_TRAIN_STATUSES:
        return f"unknown status: {status!r}"
    if status == "ok":
        if not isinstance(outcome.get("loss"), float):
            return f"status 'ok' with non-float loss: {outcome.get('loss')!r}"
        if not isinstance(outcome.get("grads"), list):
            return "status 'ok' without a gradient list"
        if not isinstance(outcome.get("bn"), list):
            return "status 'ok' without BatchNorm statistics"
    return None


class _InFlight:
    """One submitted task awaiting its result."""

    __slots__ = ("key", "layer_names", "bits", "worker", "requeued")

    def __init__(
        self, key: Hashable, layer_names: Sequence[str], bits: int,
        worker: int,
    ) -> None:
        self.key = key
        self.layer_names = list(layer_names)
        self.bits = bits
        self.worker = worker
        self.requeued = False


class PendingRound:
    """A fan-out round that has been submitted but not yet collected.

    The handle :meth:`PoolSupervisor.start_round` passes to
    :meth:`PoolSupervisor.collect_round`.  The deadline *duration* is
    fixed at start time, but its clock starts at collect time.
    """

    __slots__ = ("gen", "pending", "report", "n_batches", "trace")

    def __init__(
        self,
        gen: int,
        pending: Dict[int, _InFlight],
        report: FanOutReport,
        n_batches: int,
        trace: Optional[Dict[str, Any]],
    ) -> None:
        self.gen = gen
        self.pending = pending
        self.report = report
        self.n_batches = n_batches
        self.trace = trace


class PoolSupervisor:
    """Per-run supervisor: deadlines, respawns, salvage, quarantine.

    One instance lives for the whole CCQ run (its EMA, quarantine set
    and respawn budget span pool generations); each competition step's
    fan-out goes through :meth:`run_round` — :meth:`start_round` then
    :meth:`collect_round`, kept as two methods so submission and the
    wait can be timed apart — and each data-parallel recovery batch
    through :meth:`run_train_round`.
    """

    def __init__(
        self,
        config: Optional[SupervisionConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or SupervisionConfig()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self._ema_batch_s: Optional[float] = None
        # Per-shard EMA of recovery-train rounds (a shard's scaled
        # forward/backward has a very different cost profile from a
        # probe evaluation, so the two deadlines adapt independently).
        self._ema_train_s: Optional[float] = None
        self.respawns_used = 0
        self._crash_counts: Dict[Hashable, int] = {}
        self._quarantined: Set[Hashable] = set()
        # Workers whose respawn failed for good (budget or repeated
        # failure): excluded from sweeps until the pool is rebuilt.
        self._written_off: Set[int] = set()
        # Trace context of the round in flight, so requeues carry the
        # same cross-process parentage as the original submit.
        self._round_trace: Optional[Dict[str, Any]] = None

    # -- deadline policy -----------------------------------------------------

    @property
    def ema_batch_s(self) -> Optional[float]:
        """Measured per-batch evaluation time (EMA), if any yet."""
        return self._ema_batch_s

    def observe_elapsed(self, elapsed: float, n_batches: int) -> None:
        """Feed one healthy evaluation's wall clock into the EMA."""
        if elapsed <= 0 or n_batches <= 0:
            return
        per_batch = elapsed / n_batches
        if self._ema_batch_s is None:
            self._ema_batch_s = per_batch
        else:
            alpha = self.config.ema_alpha
            self._ema_batch_s = (
                alpha * per_batch + (1.0 - alpha) * self._ema_batch_s
            )

    def task_deadline_s(self, n_batches: int) -> float:
        """Deadline for a single candidate evaluation."""
        cfg = self.config
        if cfg.probe_timeout is not None:
            return cfg.probe_timeout
        if self._ema_batch_s is None:
            return cfg.startup_timeout
        derived = max(1, n_batches) * self._ema_batch_s * cfg.deadline_safety
        return min(max(derived, cfg.deadline_floor), cfg.deadline_ceiling)

    def round_deadline_s(
        self, n_tasks: int, n_batches: int, n_workers: int
    ) -> float:
        """Deadline for a whole fan-out round (tasks run ``n_workers``-wide)."""
        per_task = self.task_deadline_s(n_batches)
        waves = math.ceil(n_tasks / max(1, n_workers))
        return per_task * max(1, waves)

    @property
    def ema_train_s(self) -> Optional[float]:
        """Measured per-shard recovery compute time (EMA), if any yet."""
        return self._ema_train_s

    def observe_train_elapsed(self, elapsed: float) -> None:
        """Feed one healthy shard's wall clock into the train EMA."""
        if elapsed <= 0:
            return
        if self._ema_train_s is None:
            self._ema_train_s = elapsed
        else:
            alpha = self.config.ema_alpha
            self._ema_train_s = (
                alpha * elapsed + (1.0 - alpha) * self._ema_train_s
            )

    def train_task_deadline_s(self) -> float:
        """Deadline for a single recovery shard."""
        cfg = self.config
        if cfg.probe_timeout is not None:
            return cfg.probe_timeout
        if self._ema_train_s is None:
            return cfg.startup_timeout
        derived = self._ema_train_s * cfg.deadline_safety
        return min(max(derived, cfg.deadline_floor), cfg.deadline_ceiling)

    def train_round_deadline_s(self, n_shards: int, n_workers: int) -> float:
        """Deadline for one batch's shard round."""
        waves = math.ceil(n_shards / max(1, n_workers))
        return self.train_task_deadline_s() * max(1, waves)

    # -- quarantine ----------------------------------------------------------

    @property
    def quarantined(self) -> Set[Hashable]:
        return set(self._quarantined)

    def is_quarantined(self, key: Hashable) -> bool:
        return key in self._quarantined

    def _count_crash(self, key: Hashable, report: FanOutReport) -> None:
        if key in self._quarantined:
            return
        count = self._crash_counts.get(key, 0) + 1
        self._crash_counts[key] = count
        if count >= self.config.quarantine_threshold:
            self._quarantined.add(key)
            report.quarantined.append(key)
            self.telemetry.logger.warning(
                "candidate quarantined after repeated worker crashes",
                candidate=str(key), crashes=count,
            )

    # -- budget lifecycle ----------------------------------------------------

    def reset_budget(self) -> None:
        """Re-arm the respawn budget (called at pool re-promotion)."""
        self.respawns_used = 0
        self._written_off.clear()

    # -- the supervised round ------------------------------------------------

    def run_round(
        self,
        pool: ProbeWorkerPool,
        state_arrays: Dict[str, Any],
        quantizer_states: Dict[str, Any],
        pinned_batches: Sequence[Any],
        tasks: Sequence[ProbeTask],
        trace: Optional[Dict[str, Any]] = None,
    ) -> FanOutReport:
        """Broadcast, fan ``tasks`` out, and collect under supervision.

        Never raises for a *worker* fault — those are healed or
        absorbed into the report.  A fault in the supervisor's own
        machinery (or an unrecoverable broadcast failure) still
        propagates as :class:`PoolError` and the caller degrades.

        ``trace`` (optional) is forwarded with every submit — including
        requeues — so worker-side spans join the parent's fan-out span
        into one trace.
        """
        started = self.start_round(
            pool, state_arrays, quantizer_states, pinned_batches, tasks,
            trace=trace,
        )
        if started is None:
            return FanOutReport()
        return self.collect_round(pool, started)

    def start_round(
        self,
        pool: ProbeWorkerPool,
        state_arrays: Dict[str, Any],
        quantizer_states: Dict[str, Any],
        pinned_batches: Sequence[Any],
        tasks: Sequence[ProbeTask],
        trace: Optional[Dict[str, Any]] = None,
    ) -> Optional[PendingRound]:
        """Broadcast and submit ``tasks``; return the round handle.

        The first half of :meth:`run_round`.  Returns ``None`` when
        nothing was fanned out (every task quarantined).
        """
        report = FanOutReport()
        self._round_trace = trace
        tasks = [t for t in tasks if t[0] not in self._quarantined]
        if not tasks:
            return None
        report.attempted = len(tasks)

        # 1. Heal anything already dead, then broadcast (retry once
        #    after healing if the sync itself trips over a fault).
        self._sweep_dead(pool, None, report)
        try:
            pool.broadcast(state_arrays, quantizer_states, pinned_batches)
        except PoolError as err:
            report.faults.append(f"broadcast failed: {err}")
            self._sweep_dead(pool, None, report)
            if report.degraded:
                raise
            pool.broadcast(state_arrays, quantizer_states, pinned_batches)

        # 2. Submit round-robin over the live workers.
        gen = pool.begin_round()
        alive = pool.alive_workers()
        if not alive:
            raise PoolError("no live workers to fan out to")
        pending: Dict[int, _InFlight] = {}
        for i, (key, layer_names, bits) in enumerate(tasks):
            worker = alive[i % len(alive)]
            pool.submit(worker, i, layer_names, bits, trace=trace)
            pending[i] = _InFlight(key, layer_names, bits, worker)

        n_batches = len(pinned_batches)
        report.deadline_s = self.round_deadline_s(
            len(tasks), n_batches, len(alive)
        )
        return PendingRound(gen, pending, report, n_batches, trace)

    def collect_round(
        self, pool: ProbeWorkerPool, started: PendingRound
    ) -> FanOutReport:
        """Collect a started round's results under supervision.

        The second half of :meth:`run_round`.  The deadline duration was
        fixed at :meth:`start_round`; its clock starts now.
        """
        self._round_trace = started.trace
        report = started.report
        pending = started.pending
        gen = started.gen
        n_batches = started.n_batches

        # 3. Collect until done or the adaptive deadline expires.
        deadline = time.monotonic() + report.deadline_s
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            message = pool.next_message(timeout=min(0.1, remaining))
            if message is not None and message[0] == "result":
                self._absorb_result(
                    pool, message[1], gen, pending, report, n_batches
                )
            self._sweep_dead(pool, pending, report)

        # 4. Deadline expired with stragglers: the workers still holding
        #    them are hung — recycle them, send the candidates serial.
        if pending:
            hung = sorted({entry.worker for entry in pending.values()})
            report.faults.append(
                f"round deadline ({report.deadline_s:.1f}s) expired; "
                f"worker(s) {hung} hung with "
                f"{len(pending)} candidate(s) in flight"
            )
            for entry in pending.values():
                self._count_crash(entry.key, report)
                report.missing.append(entry.key)
            pending.clear()
            for worker_id in hung:
                self._recycle_worker(pool, worker_id, None, report)

        report.completed = len(report.outcomes)
        if report.faults:
            report.salvaged = report.completed
        return report

    # -- the supervised train round ------------------------------------------

    def run_train_round(
        self,
        pool: ProbeWorkerPool,
        arrays: Dict[str, Any],
        quantizer_states: Dict[str, Any],
        batch_seq: int,
        shard_ids: Sequence[int],
        batch_total: int,
        n_workers: int,
        trace: Optional[Dict[str, Any]] = None,
    ) -> "tuple[Dict[int, Dict[str, Any]], FanOutReport]":
        """One recovery batch's shard round under supervision.

        Returns ``(outcomes by shard id, report)``.  The same healing
        policy as probe rounds — dead workers respawned under the
        shared budget, lost shards requeued once onto survivors — but
        no quarantine: a missing shard is recomputed in-process by the
        trainer (bit-identically), so there is never a reason to ban
        one.  Divergent (non-finite) shard losses are valid results
        here; the trainer's post-all-reduce guard judges them.
        """
        report = FanOutReport()
        report.attempted = len(shard_ids)
        self._round_trace = trace
        self._sweep_dead(pool, None, report)
        name, manifest = pool.train_broadcast(arrays)
        gen = pool.begin_round()
        alive = pool.alive_workers()[: max(1, n_workers)]
        if not alive:
            raise PoolError("no live workers for the train round")

        def resubmit(worker_id: int, shard_id: int) -> None:
            pool.submit_train(
                worker_id, shard_id, name, manifest, quantizer_states,
                batch_seq, batch_total, trace=self._round_trace,
            )

        pending: Dict[int, _InFlight] = {}
        for i, shard_id in enumerate(shard_ids):
            worker = alive[i % len(alive)]
            resubmit(worker, shard_id)
            pending[shard_id] = _InFlight(shard_id, (), 0, worker)
        report.deadline_s = self.train_round_deadline_s(
            len(shard_ids), len(alive)
        )
        deadline = time.monotonic() + report.deadline_s
        outcomes: Dict[int, Dict[str, Any]] = {}
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            message = pool.next_message(timeout=min(0.1, remaining))
            if message is not None and message[0] == "result":
                self._absorb_train_result(
                    pool, message[1], gen, pending, outcomes, report,
                    resubmit,
                )
            self._sweep_train_dead(pool, pending, report, resubmit)
        if pending:
            hung = sorted({entry.worker for entry in pending.values()})
            report.faults.append(
                f"train deadline ({report.deadline_s:.1f}s) expired; "
                f"worker(s) {hung} hung with "
                f"{len(pending)} shard(s) in flight"
            )
            for entry in pending.values():
                report.missing.append(entry.key)
            pending.clear()
            for worker_id in hung:
                self._recycle_train_worker(pool, worker_id, None, report,
                                           resubmit)
        report.completed = len(outcomes)
        if report.faults:
            report.salvaged = report.completed
        return outcomes, report

    def _absorb_train_result(
        self,
        pool: ProbeWorkerPool,
        outcome: Any,
        gen: int,
        pending: Dict[int, _InFlight],
        outcomes: Dict[int, Dict[str, Any]],
        report: FanOutReport,
        resubmit: Any,
    ) -> None:
        if isinstance(outcome, dict) and outcome.get("gen") != gen:
            return  # stale result from an aborted earlier round
        problem = train_outcome_problem(outcome)
        if problem is not None:
            task_id = (
                outcome.get("task_id") if isinstance(outcome, dict) else None
            )
            entry = pending.pop(task_id, None) if isinstance(
                task_id, int
            ) else None
            worker = (
                entry.worker if entry is not None
                else outcome.get("worker") if isinstance(outcome, dict)
                else None
            )
            report.faults.append(
                f"corrupt train result from worker {worker}: {problem}"
            )
            if entry is not None:
                report.missing.append(entry.key)
            if isinstance(worker, int):
                self._recycle_train_worker(pool, worker, pending, report,
                                           resubmit)
            return
        entry = pending.pop(outcome["task_id"], None)
        if entry is None:
            return  # duplicate or already-requeued-and-answered
        if outcome["status"] == "error":
            report.faults.append(
                f"worker {outcome.get('worker')} error on shard "
                f"{entry.key}: {outcome.get('message')}"
            )
            report.missing.append(entry.key)
            return
        outcomes[entry.key] = outcome
        self.observe_train_elapsed(float(outcome.get("elapsed", 0.0)))

    def _sweep_train_dead(
        self,
        pool: ProbeWorkerPool,
        pending: Dict[int, _InFlight],
        report: FanOutReport,
        resubmit: Any,
    ) -> None:
        for worker_id in pool.dead_workers():
            if worker_id in self._written_off:
                continue
            report.faults.append(f"worker {worker_id} died")
            self._recycle_train_worker(pool, worker_id, pending, report,
                                       resubmit)

    def _recycle_train_worker(
        self,
        pool: ProbeWorkerPool,
        worker_id: int,
        pending: Optional[Dict[int, _InFlight]],
        report: FanOutReport,
        resubmit: Any,
    ) -> None:
        """Respawn ``worker_id`` and requeue (once) its lost shards.

        No crash counting: shards are positions in a batch, not
        candidates — quarantining one would silently change which work
        runs where forever, for no diagnostic gain.
        """
        lost = (
            [tid for tid, e in pending.items() if e.worker == worker_id]
            if pending else []
        )
        self._respawn(pool, worker_id, report)
        if not pending:
            return
        alive = pool.alive_workers()
        for i, tid in enumerate(lost):
            entry = pending[tid]
            if entry.requeued or not alive:
                del pending[tid]
                report.missing.append(entry.key)
                continue
            entry.requeued = True
            entry.worker = alive[i % len(alive)]
            resubmit(entry.worker, tid)
            report.requeued += 1

    # -- internals -----------------------------------------------------------

    def _absorb_result(
        self,
        pool: ProbeWorkerPool,
        outcome: Any,
        gen: int,
        pending: Dict[int, _InFlight],
        report: FanOutReport,
        n_batches: int,
    ) -> None:
        if isinstance(outcome, dict) and outcome.get("gen") != gen:
            return  # stale result from an aborted earlier round
        problem = outcome_problem(outcome)
        if problem is not None:
            # Corrupt result: untrusted worker, candidate goes serial.
            task_id = (
                outcome.get("task_id") if isinstance(outcome, dict) else None
            )
            entry = pending.pop(task_id, None) if isinstance(
                task_id, int
            ) else None
            worker = (
                entry.worker if entry is not None
                else outcome.get("worker") if isinstance(outcome, dict)
                else None
            )
            report.faults.append(
                f"corrupt result from worker {worker}: {problem}"
            )
            if entry is not None:
                self._count_crash(entry.key, report)
                report.missing.append(entry.key)
            if isinstance(worker, int):
                self._recycle_worker(pool, worker, pending, report)
            return
        entry = pending.pop(outcome["task_id"], None)
        if entry is None:
            return  # duplicate or already-requeued-and-answered
        if outcome["status"] == "error":
            # The worker is healthy; the *candidate's* evaluation
            # failed.  The serial path will raise the same error if it
            # is real — identical to a serial run, so just step aside.
            report.faults.append(
                f"worker {outcome.get('worker')} error on candidate "
                f"{entry.key}: {outcome.get('message')}"
            )
            self._count_crash(entry.key, report)
            report.missing.append(entry.key)
            return
        report.outcomes[entry.key] = outcome
        if outcome["status"] == "ok":
            self.observe_elapsed(
                float(outcome.get("elapsed", 0.0)), n_batches
            )

    def _sweep_dead(
        self,
        pool: ProbeWorkerPool,
        pending: Optional[Dict[int, _InFlight]],
        report: FanOutReport,
    ) -> None:
        for worker_id in pool.dead_workers():
            if worker_id in self._written_off:
                continue
            report.faults.append(f"worker {worker_id} died")
            self._recycle_worker(pool, worker_id, pending, report)

    def _recycle_worker(
        self,
        pool: ProbeWorkerPool,
        worker_id: int,
        pending: Optional[Dict[int, _InFlight]],
        report: FanOutReport,
    ) -> None:
        """Respawn ``worker_id`` and requeue (once) its in-flight tasks."""
        lost = (
            [tid for tid, e in pending.items() if e.worker == worker_id]
            if pending else []
        )
        for tid in lost:
            self._count_crash(pending[tid].key, report)
        self._respawn(pool, worker_id, report)
        if not pending:
            return
        alive = pool.alive_workers()
        for i, tid in enumerate(lost):
            entry = pending[tid]
            if (
                entry.key in self._quarantined
                or entry.requeued
                or not alive
            ):
                # Second fault on this candidate (or nowhere to run it):
                # it evaluates serially inside the Hedge loop instead.
                del pending[tid]
                report.missing.append(entry.key)
                continue
            entry.requeued = True
            entry.worker = alive[i % len(alive)]
            pool.submit(entry.worker, tid, entry.layer_names, entry.bits,
                        trace=self._round_trace)
            report.requeued += 1

    def _respawn(
        self, pool: ProbeWorkerPool, worker_id: int, report: FanOutReport
    ) -> bool:
        while True:
            if self.respawns_used >= self.config.respawn_budget:
                report.degraded = True
                self._written_off.add(worker_id)
                report.faults.append(
                    f"respawn budget ({self.config.respawn_budget}) "
                    f"exhausted; worker {worker_id} stays down"
                )
                return False
            backoff = min(
                self.config.respawn_backoff_s * (2 ** self.respawns_used),
                self.config.respawn_backoff_cap_s,
            )
            if backoff > 0:
                time.sleep(backoff)
            self.respawns_used += 1
            try:
                pool.respawn_worker(worker_id)
            except PoolError as err:
                report.faults.append(
                    f"respawn of worker {worker_id} failed: {err}"
                )
                continue  # retry under the same budget/backoff regime
            report.respawned += 1
            self._written_off.discard(worker_id)
            self.telemetry.logger.info(
                "probe worker respawned", worker=worker_id,
                respawns_used=self.respawns_used,
                budget=self.config.respawn_budget,
            )
            return True
