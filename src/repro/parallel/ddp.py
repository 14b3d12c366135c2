"""Data-parallel recovery fine-tuning over the probe worker pool.

The collaboration stage dominates CCQ wall-clock (see the ``report-run``
stage breakdowns), and — unlike probing — it *trains*: every batch ends
in an optimizer step, so the parallelism has to preserve the SGD
trajectory, not just individual losses.  This module shards each
training batch across the existing fork-based worker pool and combines
the per-shard gradients with a deterministic fixed-order all-reduce.

Determinism contract
--------------------
The unit of work is the **canonical shard plan**: a batch of ``B``
samples is split into ``G = grad_shards`` contiguous slices (sizes
``B // G``, the first ``B % G`` slices one larger) — a pure function of
``(B, G)``, independent of how many workers exist or which worker runs
which shard.  Each shard computes

    ``loss_s = cross_entropy(model(x_s), y_s)``           (task loss)
    ``total_s = loss_s * (n_s / B) [+ reg  if s == 0]``   (backward root)

with exactly the serial kernels, and ships its gradient list (in
:func:`repro.core.training.trainable_parameters` order), its task loss,
and its captured BatchNorm batch statistics.  The parent then:

1. folds the batch task loss ``sum_s loss_s * (n_s / B)`` in shard
   order (python floats — one canonical reduction order);
2. all-reduces each parameter's gradient in shard order
   (``red = g_0.copy(); red += g_1; ...`` — the same
   ``copy()``-then-``+=`` accumulation the autograd tape uses for
   repeated leaves);
3. replays the BatchNorm running-stat EMA folds in shard order (shard
   batch statistics depend only on the shard data, never on the
   buffers, so capture-and-replay is bitwise identical to computing
   the shards sequentially in one process);
4. runs the divergence checks and the (parent-only) optimizer step.

Every number above is a pure function of the shard plan, so the weight
trajectory is **bit-identical for any worker count** — including 0,
where the shards run sequentially in-process through the *same*
:func:`compute_shard_grad` and the same reduce.  Worker count is
therefore trajectory-invariant (like ``probe_workers``), while
``grad_shards`` and the trainer choice itself are trajectory-defining
(they change the gradient reduction order versus a whole-batch
backward) and live in the fingerprinted :class:`RecoveryConfig`.

Failure policy
--------------
Shard rounds run under the same :class:`~repro.parallel.supervisor.
PoolSupervisor` budget as probe rounds: dead workers are respawned and
their shards requeued once; whatever is still missing at the deadline
is recomputed in-process by the parent (bit-identical by the contract
above, so a fault never perturbs the trajectory).  When the respawn
budget runs out the trainer degrades to in-process sharding for the
rest of the run and reports through ``on_fallback``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.resilience import ensure_all_finite, ensure_finite
from ..core.training import trainable_parameters
from ..nn import functional as F
from ..nn.modules import (
    BatchNorm2d,
    Module,
    collect_bn_batch_stats,
    fold_bn_batch_stats,
)
from ..nn.serialization import named_state_arrays
from ..nn.tensor import Tensor
from ..quantization.qmodules import (
    collect_regularization, quantized_layers, quantizer_states,
)
from ..telemetry import NULL_TELEMETRY, Telemetry
from .worker import DDP_PREFIX

__all__ = [
    "plan_shards",
    "compute_shard_grad",
    "reduce_shard_outcomes",
    "DDPTrainer",
]

# One shard's result: the same dict schema whether it was computed in a
# worker (and pickled over its result pipe) or in-process.
ShardOutcome = Dict[str, Any]


def plan_shards(batch_size: int, n_shards: int) -> List[Tuple[int, int]]:
    """The canonical shard plan: contiguous ``(start, stop)`` slices.

    A pure function of ``(batch_size, n_shards)`` — never of the worker
    count — so every execution venue agrees on what the shards are.
    Shards never go empty: a batch smaller than ``n_shards`` simply
    yields fewer shards.
    """
    n = max(1, min(int(n_shards), int(batch_size)))
    base, extra = divmod(int(batch_size), n)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for s in range(n):
        stop = start + base + (1 if s < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def bn_module_names(model: Module) -> Dict[int, str]:
    """``id(module) -> dotted name`` for every BatchNorm in the tree.

    Module-tree traversal order is deterministic, so a forked replica
    builds exactly the same mapping as the parent — the names are how
    captured batch statistics travel across the process boundary.
    """
    return {
        id(module): name
        for name, module in model.named_modules()
        if isinstance(module, BatchNorm2d)
    }


def compute_shard_grad(
    model: Module,
    params: Sequence[Any],
    bn_names: Dict[int, str],
    images: np.ndarray,
    labels: np.ndarray,
    shard_index: int,
    batch_total: int,
) -> ShardOutcome:
    """One shard's scaled forward/backward; the venue-independent kernel.

    Runs identically inside a worker replica and in the parent (the
    in-process path and the missing-shard salvage path), which is what
    makes "where a shard ran" invisible to the trajectory.  BatchNorm
    running stats are *captured*, not applied — the caller replays them
    in canonical shard order.  The quantizer regularization (PACT's
    alpha penalty) is attached to shard 0 only, unscaled, so the batch
    total matches the serial trainer's ``loss + reg`` exactly once.
    """
    for p in params:
        p.grad = None
    model.train()
    t0 = time.perf_counter()
    sink: List[Tuple[BatchNorm2d, np.ndarray, np.ndarray]] = []
    with collect_bn_batch_stats(sink):
        logits = model(Tensor(images))
        loss = F.cross_entropy(logits, labels)
        scale = float(len(labels)) / float(batch_total)
        total = loss * scale
        reg = collect_regularization(model) if shard_index == 0 else None
        if reg is not None:
            total = total + reg
        total.backward()
    return {
        "kind": "train",
        "task_id": int(shard_index),
        "status": "ok",
        "loss": float(loss.item()),
        "n": int(len(labels)),
        "reg": None if reg is None else float(reg.item()),
        "grads": [p.grad for p in params],
        "bn": [
            (bn_names[id(module)], mean, var)
            for module, mean, var in sink
        ],
        "elapsed": time.perf_counter() - t0,
    }


def reduce_shard_outcomes(
    outcomes: Sequence[ShardOutcome],
    params: Sequence[Any],
    bn_modules: Dict[str, BatchNorm2d],
    batch_total: int,
) -> Tuple[float, float]:
    """The deterministic all-reduce: fold ``outcomes`` (in shard order)
    into parameter gradients and BatchNorm buffers.

    Returns ``(task_loss, total_loss)`` — the batch task loss and the
    task-plus-regularization value the divergence guard checks.  The
    gradient fold mirrors the autograd tape's leaf accumulation
    (``copy()`` then ``+=``), and the BN replay mirrors the training
    forward's EMA fold, so the result is bitwise identical to running
    the shards sequentially in one process.
    """
    task_loss = 0.0
    reg_value: Optional[float] = None
    for outcome in outcomes:
        task_loss += float(outcome["loss"]) * (
            float(outcome["n"]) / float(batch_total)
        )
        if outcome.get("reg") is not None:
            reg_value = float(outcome["reg"])
    total_loss = task_loss if reg_value is None else task_loss + reg_value
    for j, p in enumerate(params):
        reduced: Optional[np.ndarray] = None
        for outcome in outcomes:
            g = outcome["grads"][j]
            if g is None:
                continue
            g = np.asarray(g, dtype=p.data.dtype)
            if reduced is None:
                reduced = g.copy()
            else:
                reduced += g
        p.grad = reduced
    for outcome in outcomes:
        for name, mean, var in outcome["bn"]:
            fold_bn_batch_stats(
                bn_modules[name], np.asarray(mean), np.asarray(var)
            )
    return task_loss, total_loss


class DDPTrainer:
    """Drop-in ``train_epoch`` strategy that shards batches over the pool.

    Callable with the exact :func:`repro.core.training.train_epoch`
    signature, so :func:`repro.core.collaboration.recover` (and the
    initial-recovery loop) can swap it in without knowing anything
    about pools.  ``workers == 0`` — or a pool that cannot start, or a
    supervision budget that runs out — runs the same canonical shards
    sequentially in-process: same numbers, no forks.

    Parameters
    ----------
    model:
        The live model (the parent's; workers hold replicas).
    grad_shards:
        ``G`` of the canonical shard plan (trajectory-defining).
    workers:
        Max worker processes to fan shards over (trajectory-invariant).
    pool_getter:
        Lazy provider of the shared :class:`ProbeWorkerPool`; returning
        ``None`` means "train in-process".  Lazy so the pool starts at
        the first sharded batch, not at construction.
    supervisor:
        The run's :class:`PoolSupervisor`, whose respawn budget shard
        rounds share with probe rounds.
    on_fallback:
        Called once with a reason string when the trainer degrades to
        in-process sharding for good.
    """

    def __init__(
        self,
        model: Module,
        grad_shards: int = 4,
        workers: int = 0,
        pool_getter: Optional[Callable[[], Any]] = None,
        supervisor: Optional[Any] = None,
        telemetry: Optional[Telemetry] = None,
        on_fallback: Optional[Callable[[str], None]] = None,
    ) -> None:
        if grad_shards < 1:
            raise ValueError(f"grad_shards must be >= 1, got {grad_shards}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.model = model
        self.grad_shards = int(grad_shards)
        self.workers = int(workers)
        self._pool_getter = pool_getter
        self._supervisor = supervisor
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._on_fallback = on_fallback
        self._degraded = False
        self._params: Optional[List[Any]] = None
        self._bn_names: Optional[Dict[int, str]] = None
        self._bn_modules: Optional[Dict[str, BatchNorm2d]] = None
        # Monotonic per-batch state version: cues workers to reload the
        # broadcast weights exactly once per batch even when they run
        # several shards of it.
        self._batch_seq = 0

    @property
    def degraded(self) -> bool:
        return self._degraded

    # -- the epoch loop ------------------------------------------------------

    def __call__(
        self,
        model: Module,
        loader: Any,
        optimizer: Any,
        max_batches: Optional[int] = None,
        check_divergence: bool = True,
        telemetry: Optional[object] = None,
    ) -> float:
        return self.train_epoch(
            model, loader, optimizer,
            max_batches=max_batches,
            check_divergence=check_divergence,
            telemetry=telemetry,
        )

    def train_epoch(
        self,
        model: Module,
        loader: Any,
        optimizer: Any,
        max_batches: Optional[int] = None,
        check_divergence: bool = True,
        telemetry: Optional[object] = None,
    ) -> float:
        """One sharded quantization-aware epoch; mean task loss.

        The batch sequence is driven by ``loader`` exactly as the serial
        trainer drives it — one ``next()`` per batch, the same
        ``max_batches`` cap check — so the shuffle RNG advances
        identically and a cap that is not divisible by the worker count
        still consumes exactly the serial batch sequence (the shard
        plan splits *within* a batch, never across batches).
        """
        tel = telemetry if telemetry is not None else self.telemetry
        observe = tel is not None and getattr(tel, "enabled", False)
        params, bn_modules = self._ensure_meta(model, optimizer)
        t0 = time.perf_counter() if observe else 0.0
        n_samples = 0
        model.train()
        losses: List[float] = []
        pool, supervisor, n_workers = self._fanout_state()
        with tel.span(
            "recover_fanout",
            shards=self.grad_shards, workers=n_workers,
        ) as epoch_span:
            trace = {
                "trace_id": f"recover{self._batch_seq}",
                "parent_span": getattr(epoch_span, "span_id", None),
                "step": None,
            }
            for batch_index, (images, labels) in enumerate(loader):
                if max_batches is not None and batch_index >= max_batches:
                    break
                n_samples += len(labels)
                losses.append(
                    self._train_batch(
                        model, optimizer, params, bn_modules,
                        images, labels, batch_index,
                        pool, supervisor, n_workers,
                        tel, check_divergence, trace,
                    )
                )
                # A fault mid-epoch may have degraded the fan-out; the
                # remaining batches go in-process without re-checking
                # the pool every time.
                if self._degraded and pool is not None:
                    pool, supervisor, n_workers = (None, None, 0)
        if not losses:
            raise RuntimeError("training loader produced no batches")
        if observe:
            elapsed = time.perf_counter() - t0
            tel.histogram("train.samples_per_sec").observe(
                n_samples / max(elapsed, 1e-9)
            )
            tel.counter("train.samples").inc(n_samples)
            tel.gauge("train.lr").set(optimizer.lr)
        return float(np.mean(losses))

    # -- one batch -----------------------------------------------------------

    def _train_batch(
        self,
        model: Module,
        optimizer: Any,
        params: List[Any],
        bn_modules: Dict[str, BatchNorm2d],
        images: np.ndarray,
        labels: np.ndarray,
        batch_index: int,
        pool: Optional[Any],
        supervisor: Optional[Any],
        n_workers: int,
        tel: Any,
        check_divergence: bool,
        trace: Optional[Dict[str, Any]],
    ) -> float:
        observe = tel is not None and getattr(tel, "enabled", False)
        t_batch = time.perf_counter()
        self._batch_seq += 1
        batch_total = len(labels)
        bounds = plan_shards(batch_total, self.grad_shards)
        outcomes: List[Optional[ShardOutcome]] = [None] * len(bounds)
        fanned_out = 0
        if pool is not None and supervisor is not None and len(bounds) > 1:
            fanned_out = self._fan_out_batch(
                model, pool, supervisor, n_workers,
                images, labels, bounds, batch_total, outcomes, tel, trace,
            )
        # In-process pass: everything not (successfully) fanned out —
        # all shards when serial, the missing ones when salvaging.
        for shard_index, (start, stop) in enumerate(bounds):
            if outcomes[shard_index] is None:
                outcomes[shard_index] = compute_shard_grad(
                    model, params, self._bn_names,
                    images[start:stop], labels[start:stop],
                    shard_index, batch_total,
                )
        optimizer.zero_grad()
        t_reduce = time.perf_counter()
        task_loss, total_loss = reduce_shard_outcomes(
            outcomes, params, bn_modules, batch_total
        )
        if check_divergence:
            ensure_finite(
                total_loss, "training loss",
                stage="train", batch_index=batch_index,
            )
            for p in optimizer.params:
                if p.grad is not None:
                    ensure_all_finite(
                        p.grad, "parameter gradient",
                        stage="train", batch_index=batch_index,
                    )
        optimizer.step()
        if observe:
            now = time.perf_counter()
            tel.histogram("ccq.recover_allreduce_s").observe(now - t_reduce)
            tel.histogram("ccq.recover_batch_s").observe(now - t_batch)
            tel.gauge("ccq.recover_active_shards").set(float(fanned_out))
            tel.gauge("ccq.recover_allreduce_round").set(
                float(self._batch_seq)
            )
        return task_loss

    def _fan_out_batch(
        self,
        model: Module,
        pool: Any,
        supervisor: Any,
        n_workers: int,
        images: np.ndarray,
        labels: np.ndarray,
        bounds: List[Tuple[int, int]],
        batch_total: int,
        outcomes: List[Optional[ShardOutcome]],
        tel: Any,
        trace: Optional[Dict[str, Any]],
    ) -> int:
        """Run the shard round on the pool; fill ``outcomes`` in place.

        Returns how many shards the workers actually delivered.  Any
        fault short of a supervisor/pool crash leaves the missing
        shards ``None`` for the in-process salvage pass.
        """
        arrays: Dict[str, np.ndarray] = dict(named_state_arrays(model))
        for shard_index, (start, stop) in enumerate(bounds):
            arrays[f"{DDP_PREFIX}{shard_index}.images"] = images[start:stop]
            arrays[f"{DDP_PREFIX}{shard_index}.labels"] = labels[start:stop]
        try:
            delivered, report = supervisor.run_train_round(
                pool,
                arrays,
                quantizer_states(quantized_layers(model)),
                self._batch_seq,
                list(range(len(bounds))),
                batch_total,
                n_workers,
                trace=trace,
            )
        except Exception as err:
            self._mark_degraded(f"train round failed: {err}")
            return 0
        for shard_index, outcome in delivered.items():
            outcomes[shard_index] = outcome
        for fault in report.faults:
            tel.logger.warning(
                "recovery fan-out fault absorbed; shard salvaged "
                "in-process", fault=fault,
            )
        if report.respawned:
            tel.counter("ccq.pool_respawns").inc(report.respawned)
        if report.requeued:
            tel.counter("ccq.pool_requeued").inc(report.requeued)
        if report.degraded:
            self._mark_degraded("respawn budget exhausted")
        return len(delivered)

    # -- plumbing ------------------------------------------------------------

    def _fanout_state(self) -> Tuple[Optional[Any], Optional[Any], int]:
        if (
            self._degraded
            or self.workers <= 0
            or self._pool_getter is None
            or self._supervisor is None
            or self.grad_shards < 2
        ):
            return None, None, 0
        try:
            pool = self._pool_getter()
        except Exception as err:
            self._mark_degraded(f"pool unavailable: {err}")
            return None, None, 0
        if pool is None:
            return None, None, 0
        return pool, self._supervisor, min(self.workers, pool.n_workers)

    def _mark_degraded(self, reason: str) -> None:
        if self._degraded:
            return
        self._degraded = True
        self.telemetry.logger.warning(
            "recovery fan-out degraded; training shards in-process",
            reason=reason,
        )
        if self._on_fallback is not None:
            self._on_fallback(reason)

    def _ensure_meta(
        self, model: Module, optimizer: Any
    ) -> Tuple[List[Any], Dict[str, BatchNorm2d]]:
        if self._params is None or model is not self.model:
            self.model = model
            self._params = trainable_parameters(model)
            self._bn_names = bn_module_names(model)
            self._bn_modules = {
                name: module
                for name, module in model.named_modules()
                if isinstance(module, BatchNorm2d)
            }
        known = {id(p) for p in self._params}
        extra = [p for p in optimizer.params if id(p) not in known]
        if extra:
            raise ValueError(
                "DDP recovery requires every optimizer parameter to be "
                f"enumerable from the model; {len(extra)} are not "
                "(build the optimizer with make_sgd)"
            )
        return self._params, self._bn_modules
