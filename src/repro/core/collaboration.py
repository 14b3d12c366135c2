"""The collaboration stage: fine-tuning to recover post-quantization loss.

After a competition quantizes one layer, all layers "collaborate" — i.e.
train jointly under quantization-aware SGD — until the accuracy drop is
recovered (Section III-B(b) and IV-f).  Two recovery modes are provided:

* **manual** — a predetermined epoch budget ``S_t`` per quantization step
  (optionally growing with the step index, the paper's first attempt);
* **adaptive** — keep fine-tuning until validation accuracy re-attains a
  threshold (an absolute target or "within ``slack`` of the pre-step
  accuracy"), bounded by ``max_epochs``.  This is the mode the paper
  recommends, combined with the hybrid plateau-cosine learning rate
  (Fig. 4) to escape recovery plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Literal, Optional

from ..nn.data import DataLoader
from ..nn.modules import Module
from ..nn.optim import Optimizer
from ..nn.schedule import HybridPlateauCosine, LRScheduler
from .training import EvalResult, evaluate, train_epoch

__all__ = ["RecoveryConfig", "RecoveryReport", "recover"]


@dataclass(frozen=True)
class RecoveryConfig:
    """How to run the collaboration stage after each quantization step."""

    mode: Literal["manual", "adaptive"] = "adaptive"
    epochs: int = 2                    # manual: S_t; adaptive: ignored
    max_epochs: int = 8                # adaptive: hard cap per step
    threshold: Optional[float] = None  # adaptive: absolute accuracy target
    slack: float = 0.005               # adaptive: allowed drop vs reference
    use_hybrid_lr: bool = True         # plateau-bump cosine rule (Fig. 4)
    hybrid_patience: int = 2
    hybrid_bump: float = 4.0
    hybrid_cycle: int = 3
    max_batches_per_epoch: Optional[int] = None
    # Training strategy.  "serial" is the whole-batch reference loop;
    # "ddp" shards every batch into ``grad_shards`` slices and combines
    # the gradients with a deterministic fixed-order all-reduce (see
    # docs/ddp.md).  Both fields are trajectory-DEFINING — the shard
    # plan fixes the gradient reduction order — and therefore part of
    # the resume fingerprint, unlike the worker count that merely
    # decides where shards run.
    trainer: Literal["serial", "ddp"] = "serial"
    grad_shards: int = 4

    def target_accuracy(self, reference: float) -> float:
        """The accuracy the adaptive mode must re-attain."""
        if self.threshold is not None:
            return self.threshold
        return reference - self.slack


@dataclass
class RecoveryReport:
    """What happened during one collaboration stage."""

    epochs_used: int
    start_accuracy: float
    end_accuracy: float
    target_accuracy: Optional[float]
    recovered: bool
    accuracy_history: List[float] = field(default_factory=list)
    train_loss_history: List[float] = field(default_factory=list)
    lr_history: List[float] = field(default_factory=list)
    # The stage's last validation result, on the model as recover left
    # it — the driver reuses it instead of re-scoring that state.  Not
    # serialized and not compared: two reports are equal on their
    # trajectory fields alone.
    last_eval: Optional[EvalResult] = field(
        default=None, compare=False, repr=False
    )


def recover(
    model: Module,
    train_loader: DataLoader,
    val_loader: DataLoader,
    optimizer: Optimizer,
    config: RecoveryConfig,
    reference_accuracy: float,
    scheduler: Optional[LRScheduler] = None,
    on_epoch: Optional[Callable[[int, float, float], None]] = None,
    telemetry: Optional[object] = None,
    trainer: Optional[Callable] = None,
    start: Optional[EvalResult] = None,
) -> RecoveryReport:
    """Run the collaboration stage and report the recovery trajectory.

    ``reference_accuracy`` is the validation accuracy before the layer was
    quantized; the adaptive mode fine-tunes until the model is back within
    ``config.slack`` of it (or hits ``config.max_epochs``).

    ``on_epoch(epoch_index, val_accuracy, train_loss)`` is invoked after
    every completed fine-tuning epoch — the fault-tolerant driver uses it
    to journal recovery progress, so an interrupted run's log shows how
    far the collaboration stage got.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`, optional) times
    each fine-tuning epoch as a ``recover_epoch`` span and tracks the
    hybrid schedule's learning rate as the ``recover.lr`` gauge.

    ``trainer`` is the training strategy: any callable with the
    :func:`~repro.core.training.train_epoch` signature (the default
    when ``None``).  :class:`repro.parallel.ddp.DDPTrainer` plugs in
    here to shard batches across the worker pool.

    ``start`` is the validation result of the model as handed in, when
    the caller has already scored that exact state; ``None`` scores it
    here.  The report's ``last_eval`` is the stage's final score.
    """
    train_fn = trainer if trainer is not None else train_epoch
    if telemetry is None:
        from ..telemetry import NULL_TELEMETRY

        telemetry = NULL_TELEMETRY
    if scheduler is None and config.use_hybrid_lr:
        scheduler = HybridPlateauCosine(
            optimizer,
            patience=config.hybrid_patience,
            bump_factor=config.hybrid_bump,
            cycle_length=config.hybrid_cycle,
        )

    if start is None:
        start = evaluate(model, val_loader)
    history: List[float] = [start.accuracy]
    train_losses: List[float] = []
    lrs: List[float] = []

    if config.mode == "manual":
        budget = config.epochs
        target: Optional[float] = None
    else:
        budget = config.max_epochs
        target = config.target_accuracy(reference_accuracy)

    epochs_used = 0
    current = start
    for _ in range(budget):
        if target is not None and current.accuracy >= target:
            break
        with telemetry.span("recover_epoch", epoch=epochs_used + 1):
            train_loss = train_fn(
                model, train_loader, optimizer,
                max_batches=config.max_batches_per_epoch,
                telemetry=telemetry,
            )
            current = evaluate(model, val_loader, telemetry=telemetry)
        epochs_used += 1
        history.append(current.accuracy)
        train_losses.append(train_loss)
        if scheduler is not None:
            lr = scheduler.step(metric=current.accuracy)
            lrs.append(lr)
            telemetry.gauge("recover.lr").set(lr)
        if on_epoch is not None:
            on_epoch(epochs_used, current.accuracy, train_loss)
        telemetry.counter("recover.epochs").inc()

    recovered = target is None or current.accuracy >= target
    return RecoveryReport(
        epochs_used=epochs_used,
        start_accuracy=start.accuracy,
        end_accuracy=current.accuracy,
        target_accuracy=target,
        recovered=recovered,
        accuracy_history=history,
        train_loss_history=train_losses,
        lr_history=lrs,
        last_eval=current,
    )
