"""Parallel execution backend for CCQ probe evaluation.

A persistent multiprocess worker pool (:class:`ProbeWorkerPool`) with
shared-memory ndarray broadcast (:class:`SharedArrayStore`): each
competition step, the frozen model state and pinned probe batches are
packed once into a shared segment, the step's distinct ``(expert,
next_bits)`` candidates are fanned out across the workers, and the
losses come back bit-identical to the serial path for any worker count
(see ``docs/parallel.md`` for the determinism contract).

Mid-run faults are handled by the supervision layer
(:class:`PoolSupervisor`): adaptive deadlines, worker respawn under a
bounded budget, partial-result salvage and candidate quarantine — all
trajectory-invariant, since a missing result simply evaluates serially
inside the Hedge loop.

Each worker runs its share of the usable cores in BLAS threads
(:mod:`repro.parallel.cores`), so ``W`` forked workers do not each
inherit the parent's full thread count and oversubscribe the host.

A CCQ run reaches all of this through one :class:`PoolExecutor`
(pool lifecycle, degradation and re-promotion, the DDP trainer, fan-out
accounting).  Pools are built by :func:`create_probe_pool`, looked up
at call time so tests can swap the factory; any failure to start is a
:class:`PoolError`, which the executor treats as "run serial instead".
"""

from __future__ import annotations

from typing import Optional

from ..telemetry import Telemetry
from .ddp import DDPTrainer, compute_shard_grad, plan_shards
from .executor import PoolExecutor
from .pool import PoolError, ProbeTask, ProbeWorkerPool
from .sharedmem import SharedArrayStore, attach_arrays, views_from
from .supervisor import (
    FanOutReport,
    PendingRound,
    PoolSupervisor,
    SupervisionConfig,
)

__all__ = [
    "PoolError",
    "ProbeTask",
    "ProbeWorkerPool",
    "SharedArrayStore",
    "attach_arrays",
    "views_from",
    "create_probe_pool",
    "PoolExecutor",
    "PoolSupervisor",
    "SupervisionConfig",
    "FanOutReport",
    "PendingRound",
    "DDPTrainer",
    "plan_shards",
    "compute_shard_grad",
]


def create_probe_pool(
    model,
    n_workers: int,
    quantize_activations: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> ProbeWorkerPool:
    """Start a probe pool; raises :class:`PoolError` when it cannot."""
    return ProbeWorkerPool(
        model, n_workers=n_workers,
        quantize_activations=quantize_activations,
        telemetry=telemetry,
    )
