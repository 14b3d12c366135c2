"""The pool executor: where a CCQ run's pooled work happens.

:class:`~repro.core.ccq.CCQQuantizer` runs Algorithm 1; this class
decides where its two stages compute when the run's config asks for a
pool or for data-parallel recovery.  The quantizer calls it at four
points only:

* :meth:`PoolExecutor.fan_out` — evaluate the step's candidates on the
  pool ahead of the Hedge draws (competition);
* :attr:`PoolExecutor.trainer` — the data-parallel recovery trainer it
  hands to ``recover`` (collaboration), ``None`` unless
  ``recovery.trainer == "ddp"``;
* :meth:`PoolExecutor.close` — stop the pool when the run ends;
* :attr:`PoolExecutor.totals` / :meth:`restore_totals` /
  :meth:`stats` — the run's fan-out accounting, for checkpoints and
  ``CCQResult.fanout_stats``.

Behind those calls: the pool starts on first use and a start failure
falls back to serial; a round the supervisor cannot heal degrades the
run to serial probing until ``pool_repromote_after`` clean steps have
passed; one :class:`PoolSupervisor` spans the run, so its deadline EMA,
quarantine set and respawn budget outlive pool generations; and raw
worker outcomes become :class:`~repro.core.probe.ProbeOutcome` here, so
no other package knows the worker-outcome schema.

None of it is trajectory-relevant.  A candidate the pool does not
deliver evaluates serially inside the Hedge loop with the identical
loss, and the shard plan fixes the DDP trainer's bytes wherever the
shards run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, Optional, Sequence

from ..core.probe import ProbeOutcome
from ..nn.modules import Module
from ..nn.serialization import named_state_arrays
from ..quantization.qmodules import quantized_layers, quantizer_states
from ..telemetry import NULL_TELEMETRY, Telemetry
from .ddp import DDPTrainer
from .pool import ProbeTask, ProbeWorkerPool
from .supervisor import FanOutReport, PoolSupervisor, SupervisionConfig

if TYPE_CHECKING:
    from ..core.ccq import CCQConfig

__all__ = ["PoolExecutor"]

_TOTAL_KEYS = (
    "rounds", "attempted", "completed", "salvaged", "requeued",
    "respawned", "quarantined", "missing", "degraded_rounds",
)


class PoolExecutor:
    """The worker pool, its supervisor and the DDP trainer of one run.

    One pool serves both workloads, probe fan-out and recovery shard
    rounds, sized for the larger of ``probe_workers`` and
    ``recover_workers``; each fan-out uses at most its own width.
    """

    def __init__(
        self,
        model: Module,
        config: "CCQConfig",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.pool: Optional[ProbeWorkerPool] = None
        # Set when the pool failed to start or degraded mid-run: probing
        # stays serial (same losses) until re-promotion.
        self.pool_failed = False
        self._clean_steps = 0
        self.supervisor = PoolSupervisor(
            SupervisionConfig(
                probe_timeout=config.probe_timeout,
                respawn_budget=config.pool_respawn_budget,
            ),
            telemetry=self.telemetry,
        )
        self.trainer: Optional[DDPTrainer] = None
        if config.recovery.trainer == "ddp":
            self.trainer = DDPTrainer(
                model,
                grad_shards=config.recovery.grad_shards,
                workers=config.recover_workers,
                pool_getter=self._train_pool,
                supervisor=self.supervisor,
                telemetry=self.telemetry,
                on_fallback=self._on_recover_fallback,
            )
        # Running totals of the per-round FanOutReports.
        self.totals: Dict[str, int] = dict.fromkeys(_TOTAL_KEYS, 0)

    # -- pool lifecycle ------------------------------------------------------

    def ensure_pool(self) -> Optional[ProbeWorkerPool]:
        """The worker pool, started on first use; ``None`` means serial."""
        if self.pool is not None:
            return self.pool
        size = max(self.config.probe_workers, self.config.recover_workers)
        if self.pool_failed or size <= 0:
            return None
        try:
            # Looked up at call time, so the factory can be substituted.
            from . import create_probe_pool

            self.pool = create_probe_pool(
                self.model, size, self.config.quantize_activations,
                telemetry=self.telemetry,
            )
        except Exception as err:
            # Graceful degradation (sandboxed CI, fork unavailable, shm
            # forbidden): the serial path computes identical losses.
            self.pool_failed = True
            self.telemetry.counter("ccq.probe_pool_fallbacks").inc()
            self.telemetry.logger.warning(
                "probe pool unavailable; falling back to serial probes",
                workers=size, error=str(err),
            )
            return None
        self.telemetry.gauge("ccq.probe_pool_workers").set(self.pool.n_workers)
        # A pool from a substituted factory need not budget BLAS threads.
        self.telemetry.logger.info(
            "probe pool started", workers=self.pool.n_workers,
            blas_threads=getattr(self.pool, "blas_threads", None),
        )
        return self.pool

    def close(self) -> None:
        """Stop the pool (idempotent); a later fan-out starts a new one."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.close()

    def _degrade(self, step: int, reason: str) -> None:
        """Drop to serial probing (re-promotion may retry later)."""
        self.pool_failed = True
        self._clean_steps = 0
        self.close()
        self.telemetry.counter("ccq.probe_pool_fallbacks").inc()
        self.telemetry.logger.warning(
            "probe pool degraded; falling back to serial probes",
            step=step, reason=reason,
            repromote_after=self.config.pool_repromote_after,
        )

    def _repromoted(self, step: int) -> bool:
        """Count one serial step of a degraded pool's cooldown; True
        once the pool deserves another chance (transient faults — an
        OOM kill, a node hiccup — should not demote a long run
        forever)."""
        self._clean_steps += 1
        after = self.config.pool_repromote_after
        if after <= 0 or self._clean_steps < after:
            return False
        self.pool_failed = False
        self._clean_steps = 0
        self.supervisor.reset_budget()
        self.telemetry.counter("ccq.pool_repromotions").inc()
        self.telemetry.logger.info(
            "re-promoting probe pool after serial cooldown",
            step=step, cooldown_steps=after,
        )
        return True

    # -- competition: the probe fan-out ---------------------------------------

    def fan_out(
        self,
        step: int,
        tasks: Sequence[ProbeTask],
        pinned_batches: Sequence[Any],
    ) -> Dict[Hashable, ProbeOutcome]:
        """Evaluate the step's candidate ``tasks`` on the pool.

        Returns the outcomes the pool delivered, by candidate key.  It
        is empty when the step probes serially: no probe workers, a
        degraded pool still cooling down, fewer than two candidates, a
        pool that cannot start, or a round that failed outright.
        """
        if self.config.probe_workers <= 0:
            return {}
        if self.pool_failed and not self._repromoted(step):
            return {}
        if len(tasks) < 2:
            return {}  # nothing to fan out
        pool = self.ensure_pool()
        if pool is None:
            return {}
        try:
            with self.telemetry.span(
                "probe_fanout", step=step, candidates=len(tasks)
            ) as fanout_span:
                # Cross-process trace context: workers attach their eval
                # spans to this fan-out span by id.  Timestamps and ids
                # only — nothing the trajectory can observe.
                trace = {
                    "trace_id": f"step{step}",
                    "parent_span": getattr(fanout_span, "span_id", None),
                    "step": step,
                }
                report = self.supervisor.run_round(
                    pool,
                    named_state_arrays(self.model),
                    quantizer_states(quantized_layers(self.model)),
                    pinned_batches,
                    tasks,
                    trace=trace,
                )
        except Exception as err:
            # Unhealable (broadcast kept failing, supervisor machinery
            # fault, or a non-conforming pool double): degrade.
            self._degrade(step, str(err))
            return {}
        self._account(step, report)
        outcomes = self._probe_outcomes(report.outcomes)
        if report.degraded:
            self._degrade(step, "respawn budget exhausted")
        return outcomes

    def _account(self, step: int, report: FanOutReport) -> None:
        """Counters, totals, gauges and logs for one FanOutReport."""
        telemetry = self.telemetry
        if report.respawned:
            telemetry.counter("ccq.pool_respawns").inc(report.respawned)
        if report.salvaged:
            telemetry.counter("ccq.pool_salvaged_results").inc(report.salvaged)
        if report.requeued:
            telemetry.counter("ccq.pool_requeued").inc(report.requeued)
        if report.quarantined:
            telemetry.counter("ccq.quarantined_candidates").inc(
                len(report.quarantined)
            )
        totals = self.totals
        totals["rounds"] += 1
        totals["attempted"] += report.attempted
        totals["completed"] += report.completed
        totals["salvaged"] += report.salvaged
        totals["requeued"] += report.requeued
        totals["respawned"] += report.respawned
        totals["quarantined"] += len(report.quarantined)
        totals["missing"] += len(report.missing)
        totals["degraded_rounds"] += 1 if report.degraded else 0
        ema_batch_s = self.supervisor.ema_batch_s
        if telemetry.enabled:
            telemetry.gauge("ccq.pool_deadline_s").set(report.deadline_s)
            if ema_batch_s is not None:
                telemetry.gauge("ccq.pool_ema_batch_s").set(ema_batch_s)
            telemetry.event(
                "fanout_report",
                step=step,
                attempted=report.attempted,
                completed=report.completed,
                salvaged=report.salvaged,
                requeued=report.requeued,
                respawned=report.respawned,
                quarantined=len(report.quarantined),
                missing=len(report.missing),
                degraded=report.degraded,
                deadline_s=report.deadline_s,
                ema_batch_s=ema_batch_s,
            )
        for fault in report.faults:
            telemetry.logger.warning(
                "probe pool fault absorbed", step=step, fault=fault,
            )
        if report.missing:
            # Salvage contract: unprefetched candidates simply evaluate
            # serially inside the Hedge loop — identical losses, so the
            # trajectory cannot tell.
            telemetry.logger.info(
                "missing probe results will evaluate serially",
                step=step, missing=len(report.missing),
            )

    def _probe_outcomes(
        self, raw_outcomes: Dict[Hashable, Dict[str, Any]]
    ) -> Dict[Hashable, ProbeOutcome]:
        """Convert raw worker outcomes into the probe engine's type."""
        telemetry = self.telemetry
        outcomes: Dict[Hashable, ProbeOutcome] = {}
        for key, raw in raw_outcomes.items():
            ok = raw["status"] == "ok"
            elapsed = float(raw.get("elapsed", 0.0))
            if telemetry.enabled:
                telemetry.histogram(
                    "ccq.probe_worker_eval_s", worker=raw.get("worker")
                ).observe(elapsed)
                if ok:
                    telemetry.histogram("ccq.probe_loss").observe(
                        float(raw["loss"])
                    )
            outcomes[key] = ProbeOutcome(
                loss=raw.get("loss"),
                elapsed=elapsed,
                diverged=not ok,
                worker=raw.get("worker"),
                message=str(raw.get("message", "")),
                stage=str(raw.get("stage", "")),
                batch_index=raw.get("batch_index"),
                value=raw.get("value"),
            )
        telemetry.counter("ccq.probe_pool_evals").inc(len(outcomes))
        return outcomes

    # -- collaboration: the DDP trainer's view of the pool --------------------

    def _train_pool(self) -> Optional[ProbeWorkerPool]:
        """The pool as the DDP trainer sees it (None = in-process)."""
        if self.config.recover_workers <= 0:
            return None
        return self.ensure_pool()

    def _on_recover_fallback(self, reason: str) -> None:
        self.telemetry.counter("ccq.recover_pool_fallbacks").inc()

    # -- fan-out accounting ---------------------------------------------------

    def restore_totals(self, saved: Any) -> None:
        """Resume the fan-out totals from a checkpoint's copy of
        :attr:`totals` (absent from pre-observability checkpoints)."""
        if isinstance(saved, dict):
            for key in self.totals:
                self.totals[key] = int(saved.get(key, 0))

    def stats(self) -> Dict[str, Any]:
        """Run totals plus the final deadline EMA (empty if the run
        never fanned out).  Observability only — never consulted by
        the search."""
        if not self.totals["rounds"]:
            return {}
        stats: Dict[str, Any] = dict(self.totals)
        if self.supervisor.ema_batch_s is not None:
            stats["ema_batch_s"] = self.supervisor.ema_batch_s
        return stats
