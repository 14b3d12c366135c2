"""The Competitive-Collaborative Quantization driver (Algorithm 1).

:class:`CCQQuantizer` orchestrates the full framework of the paper:

1. quantize every layer to the ladder's starting precision ``N^(0)`` and
   briefly fine-tune;
2. repeat until every layer sleeps (or a step/compression budget is hit):

   a. **competition** — probe candidate one-layer quantizations on the
      validation set, update the exponential-weights distribution, mix in
      the memory term (Eq. 7), and draw a winner;
   b. quantize the winner to its next bit level;
   c. **collaboration** — fine-tune all layers (weights + quantizer
      parameters) until the accuracy recovers.

The driver is *policy-agnostic*: it accepts any registered quantization
policy (or an already-converted model) and only ever manipulates per-layer
bit widths.  Passing ``target_config`` pins each layer's final precision,
which is how Table I forces CCQ to reach the exact ``fp-3b-fp``
configuration of the one-shot baselines, but gradually.

The driver is also *fault tolerant*.  With ``CCQConfig.checkpoint_dir``
set, every step is journaled (append-only JSONL) and followed by an
atomic checkpoint of the complete search state — model, bit config,
Hedge weights, λ position, step counter, optimizer slots and RNG states
— so an interrupted run resumed with ``run(resume=True)`` reproduces the
uninterrupted trajectory bit-for-bit.  A collaboration stage whose loss
or gradients diverge (NaN/Inf) is rolled back to the pre-step snapshot
and retried with a decayed learning rate; after ``max_retries`` failures
the winner's bit drop is reverted, the expert is put to sleep, the skip
is journaled, and the search continues instead of dying.

The competition stage is the search's dominant cost, so its candidate
evaluations route through a :class:`~repro.core.probe.ProbeEngine`:
probe batches are pinned once per step in dataset order (all candidates
in a step score on identical data, regardless of the validation
loader's shuffle RNG) and repeated candidates within a step are served
from an exact per-step cache instead of re-running the forward pass —
``U`` probe rounds cost at most ``min(U, n_awake)`` forward passes with
a provably unchanged trajectory.  With ``CCQConfig.probe_workers > 0``
those forward passes additionally fan out across a persistent forked
worker pool (``repro.parallel``) that shares the frozen model state
through shared memory; the sequential Hedge loop consumes the
prefetched losses, which are bit-identical to serial for any worker
count.  Orthogonally, ``CCQConfig.qweight_cache`` reuses each frozen
layer's quantized weight tensor across all probes of a stage instead
of re-quantizing every layer on every probe forward.

The driver is also *observable*.  Passing a live
:class:`repro.telemetry.Telemetry` as ``CCQQuantizer(telemetry=...)``
emits nested wall-clock spans for every stage (``run`` > ``step`` >
``probe`` / ``eval`` / ``recover`` / ``checkpoint``), probe-loss
histograms, per-expert Hedge-weight and per-layer bit gauges,
divergence/retry/skip counters, throughput histograms and a live
progress line — without affecting the search trajectory in any way
(telemetry is deliberately not part of :class:`CCQConfig` or the resume
fingerprint).  The default is a shared null object whose operations are
no-ops, so an uninstrumented run pays nothing.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..nn.data import DataLoader
from ..nn.modules import Module
from ..nn.serialization import CheckpointError, named_state_arrays
from ..quantization.policy import QuantPolicy
from ..quantization.qmodules import (
    enable_weight_cache,
    get_bit_config,
    quantize_model,
    quantized_layers,
    set_bit_config,
    weight_cache_stats,
)
from .collaboration import RecoveryConfig, RecoveryReport, recover
from .competition import CompetitionResult, HedgeCompetition, LambdaSchedule
from .compression import model_size_report
from .probe import ProbeEngine, ProbeOutcome
from .resilience import DivergenceError, RetryPolicy
from .runstate import (
    RunStateStore,
    eval_from_json,
    eval_to_json,
    get_rng_state,
    record_from_json,
    record_to_json,
    set_rng_state,
)
from .schedule import DEFAULT_LADDER, BitLadder
from .training import EvalResult, evaluate, make_sgd, train_epoch
from ..telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["CCQConfig", "StepRecord", "CCQResult", "CCQQuantizer"]

BitTarget = Optional[int]

# Loss credited to a probe whose evaluation diverged: large enough that
# Hedge treats the candidate as a terrible move, finite so the
# exponential-weights update stays well defined.
PROBE_DIVERGENCE_PENALTY = 1e3


@dataclass(frozen=True)
class CCQConfig:
    """All knobs of the framework, with the paper's defaults."""

    ladder: BitLadder = DEFAULT_LADDER
    gamma: float = 1.0
    probes_per_step: int = 8
    probe_batches: Optional[int] = 2     # val-subset size for probes
    lambda_schedule: Optional[LambdaSchedule] = None
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    max_steps: Optional[int] = None      # T (None = until all layers sleep)
    target_compression: Optional[float] = None
    initial_recovery_epochs: int = 1
    # Recover the initial N^(0) quantization with the full collaboration
    # machinery (adaptive, targeting the float accuracy) instead of a
    # fixed epoch count.  Policies whose activation transform is lossy
    # even at high bits (e.g. DoReFa's [0, 1] clip) need this: without
    # it the run starts from a collapsed reference and the adaptive
    # recoveries never engage.
    initial_recovery_adaptive: bool = True
    quantize_activations: bool = True    # step a_bits together with w_bits
    # What |Q_m| measures in the Eq. 7 memory mixing: "memory" (the
    # paper's storage bits) or "macs" (compute cost — a hardware-aware
    # variant in the spirit of HAQ's latency/energy constraints, which
    # prioritizes quantizing the layers that dominate MAC energy).
    size_metric: str = "memory"
    # Input shape (C, H, W) used to trace per-layer MACs when
    # size_metric="macs"; required in that mode.
    input_shape: Optional[Tuple[int, int, int]] = None
    seed: int = 0
    # Per-step probe memoization (see repro.core.probe).  Within one
    # competition stage the model is frozen, so a re-probed candidate's
    # loss is bit-identical to its first evaluation; caching it skips
    # the redundant forward pass.  The observed losses — and therefore
    # the whole trajectory — are the same on or off, which is why this
    # knob is deliberately NOT part of the resume fingerprint: runs
    # with different cache settings are interchangeable.
    probe_cache: bool = True
    # Parallel probe fan-out (see repro.parallel).  With N > 0 workers,
    # each step's distinct (expert, next_bits) candidates are evaluated
    # speculatively on a persistent forked worker pool — sharing the
    # frozen model state through shared memory — and the sequential
    # Hedge loop consumes the prefetched losses.  The losses are
    # bit-identical to the serial path for any worker count, so like
    # probe_cache this knob is trajectory-invariant and deliberately
    # NOT part of the resume fingerprint.  0 = serial (the default);
    # a pool that cannot start (sandboxed CI) falls back to serial.
    probe_workers: int = 0
    # Data-parallel recovery fan-out (see repro.parallel.ddp).  With
    # N > 0 workers and ``recovery.trainer == "ddp"``, each recovery
    # batch's canonical shards run on the worker pool instead of
    # in-process.  The shard *plan* (``recovery.grad_shards``) is
    # trajectory-defining and fingerprinted; the worker count only
    # decides where shards run — the deterministic fixed-order
    # all-reduce makes the SGD trajectory bit-identical for any value,
    # including 0 — so like probe_workers this knob is deliberately
    # NOT part of the resume fingerprint.
    recover_workers: int = 0
    # Probe/recovery pipelining: after each step's collaboration, start
    # the next step's probe fan-out speculatively so the workers
    # compute during the parent's accounting, checkpoint and pre-step
    # evaluation.  Speculation the realized step invalidates is
    # discarded; consumed results are bit-identical to a fresh fan-out,
    # so this is trajectory-invariant and fingerprint-excluded.
    probe_pipeline: bool = True
    # Per-step frozen-layer quantized-weight cache: within a
    # competition stage the shadow weights are constant, so each
    # layer's quantized weight tensor is computed once per (layer,
    # bits) and reused across probes.  Inference-only (training
    # forwards bypass it), invalidated whenever the weights may have
    # moved — exact, trajectory-invariant, and excluded from the
    # fingerprint like the two knobs above.
    qweight_cache: bool = True
    # Fixed per-candidate pool deadline in seconds (``--probe-timeout``).
    # None (the default) derives the deadline adaptively from the
    # pinned-batch count times a measured per-batch EMA — see
    # repro.parallel.supervisor.  Where a loss is computed never changes
    # which loss the competition observes, so like the other pool knobs
    # this is trajectory-invariant and NOT part of the resume
    # fingerprint.
    probe_timeout: Optional[float] = None
    # Total worker respawns allowed before the pool is declared beyond
    # saving and the run degrades to serial probing.  Fingerprint-
    # excluded (supervision is invisible to the trajectory).
    pool_respawn_budget: int = 8
    # After degrading to serial, retry the pool once this many clean
    # steps have passed (0 disables re-promotion — degraded stays
    # degraded, the pre-supervision behaviour).  Fingerprint-excluded.
    pool_repromote_after: int = 4
    # -- resilience ------------------------------------------------------
    # Directory for the run journal + atomic checkpoints (None disables
    # both; the run is then neither resumable nor crash-safe).
    checkpoint_dir: Optional[str] = None
    # How many times a diverged collaboration stage is rolled back and
    # retried (with the recovery LR decayed by retry_lr_decay each time)
    # before the step is skipped and the expert put to sleep.
    max_retries: int = 2
    retry_lr_decay: float = 0.5


@dataclass
class StepRecord:
    """Everything that happened in one quantization step."""

    step: int
    layer_index: int
    layer_name: str
    from_bits: int
    to_bits: int
    lambda_used: float
    pre_accuracy: float
    post_quant_accuracy: float
    recovered_accuracy: float
    recovery: RecoveryReport
    competition: CompetitionResult
    compression: float


@dataclass
class CCQResult:
    """Final state and full trace of a CCQ run."""

    records: List[StepRecord]
    final_eval: EvalResult
    initial_eval: EvalResult
    bit_config: Dict[str, Tuple[Optional[int], Optional[int]]]
    compression: float
    probe_forward_passes: int
    # Probe-engine accounting: rounds served from the per-step memo vs
    # rounds whose loss came from a fresh evaluation.  On the serial
    # path misses == probe_forward_passes; with the parallel backend
    # forward passes also count speculative worker evaluations the
    # Hedge loop never consumed, so they can exceed the misses.
    probe_cache_hits: int = 0
    probe_cache_misses: int = 0
    # Frozen-layer quantized-weight cache counters (serial and parallel
    # parent-side forwards; worker-side replicas are not aggregated).
    qweight_cache_hits: int = 0
    qweight_cache_misses: int = 0
    # Aggregated parallel fan-out accounting across the run (empty when
    # the run never fanned out): rounds/attempted/completed plus the
    # salvage/requeue/respawn/quarantine totals from each round's
    # FanOutReport and the final deadline EMA.  Observability only —
    # never consulted by the search.
    fanout_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def probe_rounds(self) -> int:
        """Total competition probe rounds issued (hits + misses)."""
        return self.probe_cache_hits + self.probe_cache_misses

    @property
    def accuracy_trace(self) -> List[Tuple[int, float, str]]:
        """Flattened ``(epoch, accuracy, event)`` series for Fig. 2.

        Each step contributes its post-quantization valley followed by
        the per-epoch recovery accuracies.
        """
        trace: List[Tuple[int, float, str]] = []
        epoch = 0
        trace.append((epoch, self.initial_eval.accuracy, "initial"))
        for rec in self.records:
            epoch += 1
            trace.append((epoch, rec.post_quant_accuracy,
                          f"quantize:{rec.layer_name}->{rec.to_bits}b"))
            for acc in rec.recovery.accuracy_history[1:]:
                epoch += 1
                trace.append((epoch, acc, "recover"))
        return trace


class CCQQuantizer:
    """Run the competitive-collaborative framework on one model."""

    def __init__(
        self,
        model: Module,
        train_loader: DataLoader,
        val_loader: DataLoader,
        config: Optional[CCQConfig] = None,
        policy: "QuantPolicy | str | None" = None,
        target_config: Optional[Dict[str, BitTarget]] = None,
        groups: Optional[Dict[str, Sequence[str]]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or CCQConfig()
        # Observability: all spans/metrics/log lines route through this
        # handle.  The default is the shared null singleton, whose every
        # operation is a no-op — instrumentation costs nothing unless a
        # live Telemetry is passed.  Deliberately NOT part of CCQConfig:
        # it never affects the search trajectory or the fingerprint.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if policy is not None:
            quantize_model(model, policy)
        self.model = model
        self.train_loader = train_loader
        self.val_loader = val_loader
        self.layers = quantized_layers(model)
        if not self.layers:
            raise ValueError(
                "model has no quantized layers; pass a policy or convert "
                "it with quantize_model() first"
            )
        self.target_config = dict(target_config) if target_config else None
        if self.target_config is not None:
            names = {name for name, _ in self.layers}
            unknown = set(self.target_config) - names
            if unknown:
                raise KeyError(f"target_config names unknown layers: {unknown}")
        # Experts: the units that compete.  One per layer by default; a
        # ``groups`` mapping {expert_name: [layer names]} coarsens the
        # granularity to blocks (paper: "different parts of the model,
        # e.g. layers") — grouped layers always share one precision.
        self.experts = self._build_experts(groups)
        self.rng = np.random.default_rng(self.config.seed)
        self.competition = HedgeCompetition(
            n_layers=len(self.experts),
            gamma=self.config.gamma,
            probes_per_step=self.config.probes_per_step,
            lambda_schedule=self.config.lambda_schedule,
            rng=self.rng,
            # Divergence penalties demote their expert but must not
            # pollute the auto loss-scale history (satellite of the
            # probe-engine work; see HedgeCompetition.outlier_threshold).
            outlier_threshold=PROBE_DIVERGENCE_PENALTY,
            telemetry=self.telemetry,
        )
        # All candidate evaluations route through the probe engine:
        # per-step memoization plus probe subsets pinned in dataset
        # order, decoupled from the validation loader's shuffle RNG.
        self.probe_engine = ProbeEngine(
            loader=val_loader,
            probe_batches=self.config.probe_batches,
            memoize=self.config.probe_cache,
            telemetry=self.telemetry,
        )
        self.optimizer = make_sgd(
            model,
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self._base_lr = self.config.lr
        self.probe_forward_passes = 0
        if self.config.probe_workers < 0:
            raise ValueError(
                f"probe_workers must be >= 0, "
                f"got {self.config.probe_workers}"
            )
        if self.config.recover_workers < 0:
            raise ValueError(
                f"recover_workers must be >= 0, "
                f"got {self.config.recover_workers}"
            )
        if self.config.recovery.trainer not in ("serial", "ddp"):
            raise ValueError(
                f"recovery.trainer must be 'serial' or 'ddp', "
                f"got {self.config.recovery.trainer!r}"
            )
        if self.config.recovery.grad_shards < 1:
            raise ValueError(
                f"recovery.grad_shards must be >= 1, "
                f"got {self.config.recovery.grad_shards}"
            )
        # Parallel probe backend: created lazily at the first fan-out
        # (so serial runs never fork), torn down in run()'s finally.
        # A pool that fails to start or dies mid-run flips
        # _pool_failed and the search continues serially — same
        # losses, same trajectory.
        self._pool: Optional[Any] = None
        self._pool_failed = False
        # Serial steps since the pool degraded; once it reaches
        # pool_repromote_after the pool gets another chance.
        self._pool_clean_steps = 0
        # The supervision layer (deadlines, respawn, salvage,
        # quarantine) lives for the whole run so its EMA, quarantine
        # set and respawn budget span pool generations.
        self._supervisor: Optional[Any] = None
        # The data-parallel recovery trainer (recovery.trainer="ddp"),
        # built lazily; shares the pool and supervisor with probing.
        self._ddp_trainer: Optional[Any] = None
        # A speculative probe round started at the end of the previous
        # step and not yet collected: (step it targets, PendingRound).
        # In-memory only — a resumed run simply starts without one.
        self._spec: Optional[Tuple[int, Any]] = None
        if (
            self.config.probe_timeout is not None
            and self.config.probe_timeout <= 0
        ):
            raise ValueError(
                f"probe_timeout must be positive, "
                f"got {self.config.probe_timeout}"
            )
        # Cooperative interruption (SIGTERM/SIGINT): the run finishes
        # the step in flight, checkpoints, journals and returns.
        self._stop_requested = False
        # Frozen-layer quantized-weight cache: enabled for the whole
        # run, scoped per stage (off while collaboration trains, reset
        # whenever the weights may have moved).
        if self.config.qweight_cache:
            enable_weight_cache(self.model, True)
        self._qweight_restored = (0, 0)
        self._qweight_prev = (0, 0)
        if self.config.size_metric not in ("memory", "macs"):
            raise ValueError(
                f"size_metric must be 'memory' or 'macs', "
                f"got {self.config.size_metric!r}"
            )
        self._mac_counts: Optional[Dict[str, int]] = None
        if self.config.size_metric == "macs":
            if self.config.input_shape is None:
                raise ValueError(
                    "size_metric='macs' requires CCQConfig.input_shape"
                )
            from ..hardware.mac import trace_layer_macs

            self._mac_counts = {
                entry.name: entry.macs
                for entry in trace_layer_macs(
                    self.model, self.config.input_shape
                )
            }
        # -- resilience state -------------------------------------------
        self.retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            lr_decay=self.config.retry_lr_decay,
        )
        self.store: Optional[RunStateStore] = (
            RunStateStore(self.config.checkpoint_dir)
            if self.config.checkpoint_dir is not None
            else None
        )
        self._forced_asleep: Set[int] = set()
        self._records: List[StepRecord] = []
        self._step = 0
        self._save_seq = 0
        self._best_accuracy = 0.0
        self._initial_eval: Optional[EvalResult] = None
        if self.telemetry.enabled:
            # Pre-register the resilience counters at zero so every
            # run's metrics.json answers "how often did recovery fail?"
            # even when the answer is "never".
            for counter_name in (
                "ccq.steps", "ccq.checkpoints", "ccq.probe_divergence",
                "ccq.recovery_retry", "ccq.expert_skipped",
                "ccq.fatal_divergence",
                "ccq.probe_cache_hits", "ccq.probe_cache_misses",
                "ccq.qweight_cache_hits", "ccq.qweight_cache_misses",
                "ccq.probe_pool_evals", "ccq.probe_pool_fallbacks",
                "ccq.pool_respawns", "ccq.pool_salvaged_results",
                "ccq.pool_requeued", "ccq.pool_repromotions",
                "ccq.quarantined_candidates",
                "ccq.checkpoint_integrity_failures",
                "ccq.spec_probe_hits", "ccq.spec_probe_discarded",
                "ccq.recover_pool_fallbacks",
            ):
                self.telemetry.counter(counter_name)
        # Running totals of the per-round FanOutReports, surfaced in
        # CCQResult.fanout_stats and the run-ccq results JSON.
        self._fanout_totals: Dict[str, int] = {
            "rounds": 0, "attempted": 0, "completed": 0, "salvaged": 0,
            "requeued": 0, "respawned": 0, "quarantined": 0,
            "missing": 0, "degraded_rounds": 0,
        }

    # -- expert bookkeeping -----------------------------------------------------

    def _build_experts(
        self, groups: Optional[Dict[str, Sequence[str]]]
    ) -> List[Tuple[str, List[int]]]:
        """Resolve the competing units: singleton layers or named groups."""
        index_of = {name: i for i, (name, _) in enumerate(self.layers)}
        if not groups:
            return [(name, [i]) for i, (name, _) in enumerate(self.layers)]
        experts: List[Tuple[str, List[int]]] = []
        claimed: Dict[str, str] = {}
        for expert_name, members in groups.items():
            indices = []
            for member in members:
                if member not in index_of:
                    raise KeyError(
                        f"group {expert_name!r} names unknown layer "
                        f"{member!r}"
                    )
                if member in claimed:
                    raise ValueError(
                        f"layer {member!r} appears in groups "
                        f"{claimed[member]!r} and {expert_name!r}"
                    )
                claimed[member] = expert_name
                indices.append(index_of[member])
            if not indices:
                raise ValueError(f"group {expert_name!r} is empty")
            targets = {self._layer_target(i) for i in indices}
            if len(targets) > 1:
                raise ValueError(
                    f"group {expert_name!r} mixes target precisions "
                    f"{sorted(targets, key=str)}"
                )
            experts.append((expert_name, indices))
        # Ungrouped layers compete individually.
        for i, (name, _) in enumerate(self.layers):
            if name not in claimed:
                experts.append((name, [i]))
        return experts

    def _layer_target(self, layer_index: int) -> BitTarget:
        name, _ = self.layers[layer_index]
        if self.target_config is None:
            return self.config.ladder.floor
        return self.target_config.get(name, self.config.ladder.floor)

    def _target_bits(self, index: int) -> BitTarget:
        """Final precision for expert ``index`` (ladder floor by default)."""
        _, members = self.experts[index]
        return self._layer_target(members[0])

    def _participates(self, index: int) -> bool:
        """Whether the expert is quantized at all (fp-pinned ones are not)."""
        return self._target_bits(index) is not None

    def _current_bits(self, index: int) -> Optional[int]:
        _, members = self.experts[index]
        return self.layers[members[0]][1].w_bits

    def _is_awake(self, index: int) -> bool:
        """Awake = can still be quantized one more level toward its target."""
        if index in self._forced_asleep:
            return False  # retired by the retry policy after repeated failures
        target = self._target_bits(index)
        if target is None:
            return False
        current = self._current_bits(index)
        if current is None:
            return False  # not yet initialized
        return current > target

    def _awake_mask(self) -> List[bool]:
        return [self._is_awake(i) for i in range(len(self.experts))]

    def _layer_sizes(self) -> List[float]:
        """Per-expert ``|Q_m|`` for the Eq. 7 mixing.

        ``memory``: current storage bits (the paper's definition) —
        quantize big layers sooner to shrink the model fastest.
        ``macs``: compute cost weighted by current precision — quantize
        the layers that dominate MAC energy sooner.
        """
        sizes = []
        for _, members in self.experts:
            total = 0.0
            for m in members:
                name, layer = self.layers[m]
                bits = layer.w_bits if layer.w_bits is not None else 32
                if self._mac_counts is not None:
                    total += float(self._mac_counts[name] * bits)
                else:
                    total += float(layer.weight.size * bits)
            sizes.append(total)
        return sizes

    def _set_bits(self, index: int, bits: int) -> None:
        _, members = self.experts[index]
        for m in members:
            layer = self.layers[m][1]
            layer.w_bits = bits
            if self.config.quantize_activations:
                layer.a_bits = bits

    def _next_bits(self, index: int) -> int:
        current = self._current_bits(index)
        next_level = self.config.ladder.next_level(current)
        if next_level is None:
            raise RuntimeError("asked for the next level of a floor expert")
        return next_level

    # -- probes ----------------------------------------------------------------

    def _probe_loss(self, index: int) -> float:
        """Validation loss with only expert ``index`` at its next level.

        This is Eq. (4)/(5): a cheap feed-forward on a validation subset.
        The evaluation routes through the probe engine: the subset is
        the step's pinned batches (identical data for every candidate
        in the step) and a re-probed candidate is served from the
        per-step cache instead of re-running the forward pass — the
        model is frozen within a step, so the cached loss is exact.
        """
        next_bits = self._next_bits(index)

        def run_eval(pinned) -> float:
            _, members = self.experts[index]
            saved = [
                (self.layers[m][1].w_bits, self.layers[m][1].a_bits)
                for m in members
            ]
            self._set_bits(index, next_bits)
            try:
                with self.telemetry.span(
                    "probe", expert=self.experts[index][0],
                    to_bits=next_bits,
                ):
                    result = evaluate(
                        self.model, pinned, telemetry=self.telemetry
                    )
            finally:
                for m, (w_bits, a_bits) in zip(members, saved):
                    self.layers[m][1].w_bits = w_bits
                    self.layers[m][1].a_bits = a_bits
            self.probe_forward_passes += 1
            self.telemetry.histogram("ccq.probe_loss").observe(result.loss)
            return result.loss

        return self.probe_engine.evaluate((index, next_bits), run_eval)

    def _guarded_probe(self, index: int) -> float:
        """A probe that survives divergence.

        A candidate whose evaluation goes NaN/Inf is simply a terrible
        candidate: journal the event and return a large finite penalty
        loss so the competition demotes the expert instead of the whole
        search dying mid-probe.  The penalty is memoized like any other
        probe loss — a deterministic forward pass that diverged once
        would diverge again, so a re-probe within the step serves the
        penalty from the cache without re-running (or re-journaling)
        the doomed evaluation.
        """
        try:
            return self._probe_loss(index)
        except DivergenceError as err:
            self.telemetry.counter(
                "ccq.probe_divergence", expert=self.experts[index][0]
            ).inc()
            self.telemetry.logger.warning(
                "probe diverged; penalizing candidate",
                expert=self.experts[index][0], step=self._step,
            )
            if self.store is not None:
                self.store.journal.append(
                    "probe_divergence",
                    step=self._step,
                    expert=self.experts[index][0],
                    penalty=PROBE_DIVERGENCE_PENALTY,
                    **err.context(),
                )
            current = self._current_bits(index)
            next_bits = (
                self.config.ladder.next_level(current)
                if current is not None else None
            )
            if next_bits is not None:
                self.probe_engine.record(
                    (index, next_bits), PROBE_DIVERGENCE_PENALTY
                )
            return PROBE_DIVERGENCE_PENALTY

    # -- parallel fan-out --------------------------------------------------------

    def _ensure_pool(self) -> Optional[Any]:
        """The worker pool, started on first use; ``None`` means serial.

        One pool serves both workloads — probe fan-out and recovery
        shard rounds — sized for the larger of the two worker counts;
        each fan-out uses at most its own configured width.
        """
        if self._pool is not None:
            return self._pool
        pool_size = max(
            self.config.probe_workers, self.config.recover_workers
        )
        if self._pool_failed or pool_size <= 0:
            return None
        try:
            from ..parallel import create_probe_pool

            self._pool = create_probe_pool(
                self.model,
                pool_size,
                self.config.quantize_activations,
                telemetry=self.telemetry,
            )
        except Exception as err:
            # Graceful degradation (sandboxed CI, fork unavailable,
            # shm forbidden): the serial path computes identical
            # losses, so the run continues instead of dying.
            self._pool_failed = True
            self.telemetry.counter("ccq.probe_pool_fallbacks").inc()
            self.telemetry.logger.warning(
                "probe pool unavailable; falling back to serial probes",
                workers=pool_size, error=str(err),
            )
            return None
        self.telemetry.gauge("ccq.probe_pool_workers").set(
            self._pool.n_workers
        )
        # A pool from a substituted factory need not budget BLAS threads.
        self.telemetry.logger.info(
            "probe pool started", workers=self._pool.n_workers,
            blas_threads=getattr(self._pool, "blas_threads", None),
        )
        return self._pool

    def _ensure_supervisor(self) -> Any:
        """The run-scoped supervision layer, created on first use."""
        if self._supervisor is None:
            from ..parallel.supervisor import (
                PoolSupervisor,
                SupervisionConfig,
            )

            self._supervisor = PoolSupervisor(
                SupervisionConfig(
                    probe_timeout=self.config.probe_timeout,
                    respawn_budget=self.config.pool_respawn_budget,
                ),
                telemetry=self.telemetry,
            )
        return self._supervisor

    def _recover_trainer(self) -> Optional[Any]:
        """The recovery training strategy; ``None`` = serial train_epoch.

        Built once per run when ``recovery.trainer == "ddp"``.  The
        trainer itself is what the fingerprint captures (via the
        recovery config); the pool it may or may not reach through
        ``_train_pool`` only moves shards between processes.
        """
        if self.config.recovery.trainer != "ddp":
            return None
        if self._ddp_trainer is None:
            from ..parallel.ddp import DDPTrainer

            self._ddp_trainer = DDPTrainer(
                self.model,
                grad_shards=self.config.recovery.grad_shards,
                workers=self.config.recover_workers,
                pool_getter=self._train_pool,
                supervisor_getter=self._ensure_supervisor,
                telemetry=self.telemetry,
                on_fallback=self._on_recover_fallback,
            )
        return self._ddp_trainer

    def _train_pool(self) -> Optional[Any]:
        """The pool as seen by the DDP trainer (None = in-process)."""
        if self.config.recover_workers <= 0:
            return None
        return self._ensure_pool()

    def _on_recover_fallback(self, reason: str) -> None:
        self.telemetry.counter("ccq.recover_pool_fallbacks").inc()

    def _close_pool(self) -> None:
        if self._pool is None:
            return
        try:
            self._pool.close()
        finally:
            self._pool = None

    def _degrade_pool(self, step: int, reason: str) -> None:
        """Drop to serial probing (re-promotion may retry later)."""
        self._pool_failed = True
        self._pool_clean_steps = 0
        self._close_pool()
        self.telemetry.counter("ccq.probe_pool_fallbacks").inc()
        self.telemetry.logger.warning(
            "probe pool degraded; falling back to serial probes",
            step=step, reason=reason,
            repromote_after=self.config.pool_repromote_after,
        )

    def _fan_out_probes(self, step: int) -> None:
        """Evaluate the step's likely candidates on the pool, ahead of
        the draw.

        Within a step the model is frozen, so each of the distinct
        ``(expert, next_bits)`` candidates has one fixed loss no matter
        when (or whether) the Hedge loop draws it — they can be
        computed up front, in parallel.  A step's ``U`` rounds touch at
        most ``min(U, n_awake)`` distinct candidates, so speculation is
        capped there: when more experts are awake than rounds exist,
        only the ``U`` most probable ones (under the distribution round
        0 draws from — a deterministic choice that cannot perturb the
        trajectory) are fanned out, and a drawn candidate that was not
        speculated simply evaluates serially inside the loop.  The
        results are staged in the probe engine and consumed by the
        *unchanged* sequential competition, which keeps the observation
        order, the journal and the trajectory bit-identical to a serial
        run.  Candidates the loop never draws are speculative waste
        (counted in ``probe_forward_passes``, invisible everywhere
        else).

        When the previous step left a speculative round in flight
        (``probe_pipeline``), its results are collected here instead of
        starting a fresh round — the candidate set is a deterministic
        function of state that has not changed since the speculation
        was ranked, so the speculative round *is* this step's fan-out.
        """
        spec = self._spec
        self._spec = None
        if self.config.probe_workers <= 0:
            return
        if self._pool_failed:
            # Re-promotion: after enough clean serial steps the pool
            # deserves another chance (transient faults — an OOM kill,
            # a node hiccup — should not demote a long run forever).
            self._pool_clean_steps += 1
            if (
                self.config.pool_repromote_after <= 0
                or self._pool_clean_steps
                < self.config.pool_repromote_after
            ):
                return
            self._pool_failed = False
            self._pool_clean_steps = 0
            if self._supervisor is not None:
                self._supervisor.reset_budget()
            self.telemetry.counter("ccq.pool_repromotions").inc()
            self.telemetry.logger.info(
                "re-promoting probe pool after serial cooldown",
                step=step,
                cooldown_steps=self.config.pool_repromote_after,
            )
        candidates = self._probe_candidates()
        if len(candidates) < 2:
            return  # nothing to fan out
        if spec is not None and self._collect_spec(step, spec, candidates):
            return
        pool = self._ensure_pool()
        if pool is None:
            return
        telemetry = self.telemetry
        supervisor = self._ensure_supervisor()
        tasks = self._candidate_tasks(candidates)
        try:
            with telemetry.span(
                "probe_fanout", step=step, candidates=len(candidates)
            ) as fanout_span:
                # Cross-process trace context: workers attach their
                # eval spans to this fan-out span by id.  Timestamps
                # and ids only — nothing the trajectory can observe.
                trace = {
                    "trace_id": f"step{step}",
                    "parent_span": getattr(fanout_span, "span_id", None),
                    "step": step,
                }
                report = supervisor.run_round(
                    pool,
                    named_state_arrays(self.model),
                    get_bit_config(self.model),
                    self.probe_engine.pinned.batches,
                    tasks,
                    trace=trace,
                )
        except Exception as err:
            # Unhealable (broadcast kept failing, supervisor machinery
            # fault, or a non-conforming pool double): degrade.
            self._degrade_pool(step, str(err))
            return
        self._account_fanout_report(step, report, supervisor)
        self._prefetch_outcomes(report.outcomes)
        if report.degraded:
            self._degrade_pool(step, "respawn budget exhausted")

    def _probe_candidates(self) -> List[Tuple[int, int]]:
        """The step's distinct fan-out candidates, most probable first.

        Deterministic: ranked by the distribution round 0 draws from,
        ties broken by expert index.  Nothing between the end of one
        step's collaboration and the next step's fan-out touches the
        Hedge state or the bit widths, so a speculative ranking taken
        early is identical to the one taken at fan-out time.
        """
        candidates = [
            (i, self._next_bits(i))
            for i in range(len(self.experts))
            if self._is_awake(i)
        ]
        limit = min(self.config.probes_per_step, len(candidates))
        if len(candidates) > limit:
            awake = [self._is_awake(i) for i in range(len(self.experts))]
            p = self.competition.probabilities(awake)
            # Stable: probability descending, expert index ascending.
            candidates = sorted(
                candidates, key=lambda c: (-p[c[0]], c[0])
            )[:limit]
        return candidates

    def _candidate_tasks(
        self, candidates: List[Tuple[int, int]]
    ) -> List[Tuple[Any, List[str], int]]:
        return [
            (
                (index, bits),
                [self.layers[m][0]
                 for m in self.experts[index][1]],
                bits,
            )
            for index, bits in candidates
        ]

    def _start_speculative_probes(self, next_step: int) -> None:
        """Kick off the next step's probe fan-out before this step ends.

        Called right after a successful collaboration: the model is in
        its final state for this step, the Hedge state is already what
        the next step's round 0 will draw from, and the pinned probe
        subset is reusable — so the next step's candidate losses are
        fully determined and can compute on the workers while the
        parent spends wall-clock on accounting, the checkpoint and the
        next pre-step evaluation.  The handle is collected (or
        discarded, generation-tagged) by the next ``_fan_out_probes``.
        """
        cfg = self.config
        if (
            not cfg.probe_pipeline
            or cfg.probe_workers <= 0
            or self._pool_failed
            or self._stop_requested
            or (cfg.max_steps is not None and next_step >= cfg.max_steps)
        ):
            return
        engine = self.probe_engine
        if getattr(engine, "_pinned", None) is None or not getattr(
            engine, "_pin_reusable", False
        ):
            # The next begin_step would re-pin the probe subset, so a
            # speculative loss could score on different data: don't.
            return
        candidates = self._probe_candidates()
        if len(candidates) < 2:
            return
        pool = self._ensure_pool()
        if pool is None:
            return
        supervisor = self._ensure_supervisor()
        tasks = self._candidate_tasks(candidates)
        try:
            with self.telemetry.span(
                "probe_fanout_start", step=next_step,
                candidates=len(candidates), speculative=True,
            ) as span:
                trace = {
                    "trace_id": f"step{next_step}",
                    "parent_span": getattr(span, "span_id", None),
                    "step": next_step,
                }
                started = supervisor.start_round(
                    pool,
                    named_state_arrays(self.model),
                    get_bit_config(self.model),
                    engine.pinned.batches,
                    tasks,
                    trace=trace,
                )
        except Exception as err:
            self._degrade_pool(next_step, str(err))
            return
        if started is not None:
            self._spec = (next_step, started)

    def _collect_spec(
        self,
        step: int,
        spec: Tuple[int, Any],
        candidates: List[Tuple[int, int]],
    ) -> bool:
        """Collect a speculative round; True when it covered this step.

        Results for candidates the realized step does not rank are
        discarded (their forward passes are still counted — speculative
        waste, like an undrawn prefetch).  Candidates the speculation
        missed evaluate serially inside the Hedge loop, exactly like a
        salvaged fan-out.
        """
        spec_step, started = spec
        pool = self._pool
        if pool is None or spec_step != step:
            return False
        telemetry = self.telemetry
        supervisor = self._ensure_supervisor()
        try:
            with telemetry.span(
                "probe_fanout", step=step, speculative=True,
                candidates=len(candidates),
            ):
                report = supervisor.collect_round(pool, started)
        except Exception as err:
            self._degrade_pool(step, str(err))
            return True
        self._account_fanout_report(step, report, supervisor)
        self._prefetch_outcomes(
            report.outcomes,
            valid_keys={(index, bits) for index, bits in candidates},
        )
        if report.degraded:
            self._degrade_pool(step, "respawn budget exhausted")
        return True

    def _account_fanout_report(
        self, step: int, report: Any, supervisor: Any
    ) -> None:
        """Counters, totals, gauges and logs for one FanOutReport."""
        telemetry = self.telemetry
        if report.respawned:
            telemetry.counter("ccq.pool_respawns").inc(report.respawned)
        if report.salvaged:
            telemetry.counter("ccq.pool_salvaged_results").inc(
                report.salvaged
            )
        if report.requeued:
            telemetry.counter("ccq.pool_requeued").inc(report.requeued)
        if report.quarantined:
            telemetry.counter("ccq.quarantined_candidates").inc(
                len(report.quarantined)
            )
        totals = self._fanout_totals
        totals["rounds"] += 1
        totals["attempted"] += report.attempted
        totals["completed"] += report.completed
        totals["salvaged"] += report.salvaged
        totals["requeued"] += report.requeued
        totals["respawned"] += report.respawned
        totals["quarantined"] += len(report.quarantined)
        totals["missing"] += len(report.missing)
        totals["degraded_rounds"] += 1 if report.degraded else 0
        if telemetry.enabled:
            telemetry.gauge("ccq.pool_deadline_s").set(report.deadline_s)
            if supervisor.ema_batch_s is not None:
                telemetry.gauge("ccq.pool_ema_batch_s").set(
                    supervisor.ema_batch_s
                )
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
                ema_batch_s=supervisor.ema_batch_s,
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

    def _prefetch_outcomes(
        self,
        raw_outcomes: Dict[Any, Dict[str, Any]],
        valid_keys: Optional[Set[Any]] = None,
    ) -> None:
        """Convert raw worker outcomes and stage them in the engine.

        ``valid_keys`` (speculative collection) filters which results
        reach the engine; everything is still counted as a forward
        pass, since the workers did compute it.
        """
        telemetry = self.telemetry
        outcomes: Dict[Any, ProbeOutcome] = {}
        discarded = 0
        for key, raw in raw_outcomes.items():
            ok = raw["status"] == "ok"
            elapsed = float(raw.get("elapsed", 0.0))
            self.probe_forward_passes += 1
            if telemetry.enabled:
                telemetry.histogram(
                    "ccq.probe_worker_eval_s", worker=raw.get("worker")
                ).observe(elapsed)
                if ok:
                    telemetry.histogram("ccq.probe_loss").observe(
                        float(raw["loss"])
                    )
            if valid_keys is not None and key not in valid_keys:
                discarded += 1
                continue
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
        if valid_keys is not None:
            telemetry.counter("ccq.spec_probe_hits").inc(len(outcomes))
            if discarded:
                telemetry.counter("ccq.spec_probe_discarded").inc(
                    discarded
                )
        self.probe_engine.prefetch(outcomes)

    def _fanout_stats(self) -> Dict[str, Any]:
        """Fan-out totals for CCQResult / results JSON (empty if serial)."""
        if not self._fanout_totals["rounds"]:
            return {}
        stats: Dict[str, Any] = dict(self._fanout_totals)
        if (
            self._supervisor is not None
            and self._supervisor.ema_batch_s is not None
        ):
            stats["ema_batch_s"] = self._supervisor.ema_batch_s
        return stats

    # -- quantized-weight cache scoping -----------------------------------------

    def _qcache_reset(self) -> None:
        """(Re-)arm the frozen-weight cache for a pure-inference phase.

        Clears any entries quantized from weights that may since have
        moved; a no-op when the cache is configured off.
        """
        if self.config.qweight_cache:
            enable_weight_cache(self.model, True)

    def _qcache_off(self) -> None:
        """Disarm the cache before a phase that trains the weights.

        Collaboration interleaves weight updates with per-epoch
        evaluations, so serving any cached tensor there would be
        stale; the cache stays off until the next :meth:`_qcache_reset`.
        """
        if self.config.qweight_cache:
            enable_weight_cache(self.model, False)

    def _qweight_totals(self) -> Tuple[int, int]:
        stats = weight_cache_stats(self.model)
        return (
            self._qweight_restored[0] + stats["hits"],
            self._qweight_restored[1] + stats["misses"],
        )

    # -- snapshots / checkpoints ------------------------------------------------

    def _capture_snapshot(self) -> Dict[str, Any]:
        """In-memory pre-step snapshot for divergence rollback."""
        return {
            "model": self.model.state_dict(),
            "optim": self.optimizer.state_dict(),
            "bits": get_bit_config(self.model),
        }

    def _restore_snapshot(self, snapshot: Dict[str, Any]) -> None:
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optim"])
        set_bit_config(self.model, snapshot["bits"])

    def _fingerprint(self) -> Dict[str, Any]:
        """The trajectory-defining configuration, JSON-normalized.

        A resumed run must match this exactly; budget knobs
        (``max_steps``, ``target_compression``) are deliberately
        excluded so a finished run can be resumed with a larger budget.
        """
        cfg = self.config
        lam = cfg.lambda_schedule
        return {
            "layers": [name for name, _ in self.layers],
            "experts": [name for name, _ in self.experts],
            "target_config": (
                None if self.target_config is None
                else {k: self.target_config[k]
                      for k in sorted(self.target_config)}
            ),
            "ladder": list(cfg.ladder.levels),
            "gamma": cfg.gamma,
            "probes_per_step": cfg.probes_per_step,
            "probe_batches": cfg.probe_batches,
            "lambda_schedule": (
                None if lam is None
                else [lam.start, lam.end, lam.decay_steps]
            ),
            "recovery": asdict(cfg.recovery),
            "lr": cfg.lr,
            "momentum": cfg.momentum,
            "weight_decay": cfg.weight_decay,
            "initial_recovery_epochs": cfg.initial_recovery_epochs,
            "initial_recovery_adaptive": cfg.initial_recovery_adaptive,
            "quantize_activations": cfg.quantize_activations,
            "size_metric": cfg.size_metric,
            "seed": cfg.seed,
            "max_retries": cfg.max_retries,
            "retry_lr_decay": cfg.retry_lr_decay,
        }

    @staticmethod
    def _loader_rng_state(loader: Any) -> Optional[Dict[str, Any]]:
        rng = getattr(loader, "_rng", None)
        if isinstance(rng, np.random.Generator):
            return get_rng_state(rng)
        return None

    @staticmethod
    def _dataset_rng_state(loader: Any) -> Optional[Dict[str, Any]]:
        rng = getattr(getattr(loader, "dataset", None), "_rng", None)
        if isinstance(rng, np.random.Generator):
            return get_rng_state(rng)
        return None

    def _checkpoint(self) -> None:
        """Atomically persist the complete search state (if enabled).

        The ``checkpoint`` span is emitted even when checkpointing is
        disabled (zero duration, ``enabled=False``) so the per-stage
        breakdown always shows the stage.
        """
        with self.telemetry.span(
            "checkpoint", step=self._step, enabled=self.store is not None
        ):
            if self.store is None:
                return
            self._save_seq += 1
            self._checkpoint_inner()
        self.telemetry.counter("ccq.checkpoints").inc()

    def _checkpoint_inner(self) -> None:
        state = {
            "version": 1,
            "fingerprint": self._fingerprint(),
            "step": self._step,
            "best_accuracy": self._best_accuracy,
            "probe_forward_passes": self.probe_forward_passes,
            "probe_cache_hits": self.probe_engine.cache_hits,
            "probe_cache_misses": self.probe_engine.cache_misses,
            "qweight_cache_hits": self._qweight_totals()[0],
            "qweight_cache_misses": self._qweight_totals()[1],
            "fanout_totals": dict(self._fanout_totals),
            "forced_asleep": sorted(self._forced_asleep),
            "initial_eval": eval_to_json(self._initial_eval),
            "records": [record_to_json(r) for r in self._records],
            "hedge": self.competition.state_dict(),
            "train_loader_rng": self._loader_rng_state(self.train_loader),
            "train_dataset_rng": self._dataset_rng_state(self.train_loader),
            # Probes pin their data straight from the dataset, but the
            # full evals (and a shuffling val loader's batch *order*,
            # which shifts loss summation order by a few ulps) still
            # consume this RNG — rewind it too for bit-exact resumes.
            "val_loader_rng": self._loader_rng_state(self.val_loader),
            "val_dataset_rng": self._dataset_rng_state(self.val_loader),
        }
        self.store.save(self.model, self.optimizer, state, seq=self._save_seq)
        self.store.journal.append(
            "checkpoint", step=self._step, save_seq=self._save_seq
        )

    def _restore_from_store(self) -> EvalResult:
        """Load the latest checkpoint and rewind every RNG to match."""
        assert self.store is not None
        state = self.store.load(self.model, self.optimizer)
        for warning in self.store.load_warnings:
            # A snapshot failed integrity verification and the store
            # rolled back to its predecessor: re-running the lost step
            # is cheap, silently trusting corrupt bytes is not.
            self.telemetry.counter(
                "ccq.checkpoint_integrity_failures"
            ).inc()
            self.telemetry.logger.warning(
                "checkpoint failed integrity check; rolled back to "
                "predecessor",
                detail=warning,
            )
        saved_fp = state.get("fingerprint", {})
        current_fp = self._fingerprint()
        if saved_fp != current_fp:
            mismatched = sorted(
                key for key in set(saved_fp) | set(current_fp)
                if saved_fp.get(key) != current_fp.get(key)
            )
            raise CheckpointError(
                f"checkpoint in {self.store.directory} was written by a "
                f"run with a different configuration; mismatched keys: "
                f"{mismatched}"
            )
        self._step = int(state["step"])
        self._best_accuracy = float(state["best_accuracy"])
        self.probe_forward_passes = int(state["probe_forward_passes"])
        # Older checkpoints (pre probe engine) carry no cache counters.
        self.probe_engine.cache_hits = int(state.get("probe_cache_hits", 0))
        self.probe_engine.cache_misses = int(
            state.get("probe_cache_misses", 0)
        )
        # Quantized-weight cache counters resume as an offset: the live
        # per-layer counters restart from whatever this process already
        # accumulated, so zero them and carry the saved totals aside.
        for _, layer in self.layers:
            layer._wq_cache_hits = 0
            layer._wq_cache_misses = 0
        self._qweight_restored = (
            int(state.get("qweight_cache_hits", 0)),
            int(state.get("qweight_cache_misses", 0)),
        )
        # Pre-observability checkpoints carry no fan-out totals.
        saved_fanout = state.get("fanout_totals")
        if isinstance(saved_fanout, dict):
            for key in self._fanout_totals:
                self._fanout_totals[key] = int(saved_fanout.get(key, 0))
        self._qweight_prev = self._qweight_restored
        self._forced_asleep = set(
            int(i) for i in state.get("forced_asleep", [])
        )
        self._initial_eval = eval_from_json(state["initial_eval"])
        self._records = [record_from_json(r) for r in state["records"]]
        self.competition.load_state_dict(state["hedge"])
        loader_rng = state.get("train_loader_rng")
        if loader_rng is not None and hasattr(self.train_loader, "_rng"):
            set_rng_state(self.train_loader._rng, loader_rng)
        dataset_rng = state.get("train_dataset_rng")
        dataset = getattr(self.train_loader, "dataset", None)
        if dataset_rng is not None and hasattr(dataset, "_rng"):
            set_rng_state(dataset._rng, dataset_rng)
        # Absent in pre-engine checkpoints; those ran unshuffled val
        # loaders, for which the fresh seed state is already correct.
        val_rng = state.get("val_loader_rng")
        if val_rng is not None and hasattr(self.val_loader, "_rng"):
            set_rng_state(self.val_loader._rng, val_rng)
        val_dataset_rng = state.get("val_dataset_rng")
        val_dataset = getattr(self.val_loader, "dataset", None)
        if val_dataset_rng is not None and hasattr(val_dataset, "_rng"):
            set_rng_state(val_dataset._rng, val_dataset_rng)
        self._save_seq = int(state.get("save_seq", 0))
        self.store.journal.append(
            "resumed", step=self._step, save_seq=self._save_seq
        )
        return self._initial_eval

    # -- the main loop ------------------------------------------------------------

    def initialize(self) -> EvalResult:
        """Quantize every participating layer to ``N^(0)`` and recover.

        With ``initial_recovery_adaptive`` the post-quantization model is
        fine-tuned toward the *float* accuracy using the same recovery
        configuration as the per-step collaboration; otherwise a fixed
        ``initial_recovery_epochs`` epochs are run.
        """
        with self.telemetry.span("initialize"):
            float_eval = evaluate(
                self.model, self.val_loader, telemetry=self.telemetry
            )
            self.telemetry.gauge("ccq.float_accuracy").set(
                float_eval.accuracy
            )
            self.telemetry.logger.info(
                "float baseline evaluated",
                accuracy=float_eval.accuracy, loss=float_eval.loss,
            )
            start = self.config.ladder.start
            for i in range(len(self.experts)):
                if self._participates(i):
                    self._set_bits(i, start)
            # The initial recovery trains — same cache scoping as a
            # per-step collaboration.
            self._qcache_off()
            if self.config.initial_recovery_adaptive:
                self.optimizer.lr = self._base_lr
                recover(
                    self.model,
                    self.train_loader,
                    self.val_loader,
                    self.optimizer,
                    self.config.recovery,
                    reference_accuracy=float_eval.accuracy,
                    telemetry=self.telemetry,
                    trainer=self._recover_trainer(),
                )
            else:
                train_fn = self._recover_trainer() or train_epoch
                for _ in range(self.config.initial_recovery_epochs):
                    train_fn(
                        self.model, self.train_loader, self.optimizer,
                        max_batches=self.config.recovery.max_batches_per_epoch,
                        telemetry=self.telemetry,
                    )
            self._qcache_reset()
            return evaluate(
                self.model, self.val_loader, telemetry=self.telemetry
            )

    def _execute_step(self, step: int) -> Optional[StepRecord]:
        """One quantization step with rollback-on-divergence.

        Returns the completed :class:`StepRecord`, or ``None`` when every
        retry failed and the step degraded to a journaled skip (the
        winner's bit drop reverted, the expert put to sleep).
        """
        with self.telemetry.span("step", step=step):
            return self._execute_step_inner(step)

    def _execute_step_inner(self, step: int) -> Optional[StepRecord]:
        store = self.store
        telemetry = self.telemetry
        # The previous step's collaboration moved the weights; from
        # here until this step's collaboration the model is frozen, so
        # the whole stage (pre eval, every probe, post-quant eval)
        # shares one quantized-weight cache generation.
        self._qcache_reset()
        try:
            with telemetry.span("eval", stage="pre_step", step=step):
                pre = evaluate(
                    self.model, self.val_loader, telemetry=telemetry
                )
        except DivergenceError as err:
            # The *standing* model diverged before we touched anything —
            # there is no snapshot to roll back to; journal and surface.
            telemetry.counter("ccq.fatal_divergence").inc()
            telemetry.logger.error(
                "standing model diverged before step", step=step,
            )
            if store is not None:
                store.journal.append(
                    "fatal_divergence", step=step, **err.context()
                )
            raise
        # New stage: drop the previous step's memo (the collaboration
        # just changed the weights) and pin this step's probe subset.
        self.probe_engine.begin_step(step)
        # Whole-stage probe wall clock (fan-out + sequential Hedge
        # loop), in both serial and parallel modes — the number the
        # search-cost benchmark compares across worker counts.
        probe_t0 = time.perf_counter()
        self._fan_out_probes(step)
        result = self.competition.run_step(
            evaluate_candidate=self._guarded_probe,
            awake=self._awake_mask(),
            layer_sizes=self._layer_sizes(),
            step=step,
        )
        telemetry.histogram("ccq.probe_stage_s").observe(
            time.perf_counter() - probe_t0
        )
        if telemetry.enabled:
            # Per-expert Hedge weight + current bit gauges, labeled by
            # expert name, so the learned preference is inspectable.
            for (expert_name, _), weight in zip(
                self.experts, self.competition.weights
            ):
                telemetry.gauge(
                    "hedge.expert_weight", expert=expert_name
                ).set(float(weight))
            for layer_name, layer in self.layers:
                bits = layer.w_bits
                telemetry.gauge(
                    "ccq.layer_bits", layer=layer_name
                ).set(float(bits if bits is not None else 32))
        winner = result.winner
        name, _ = self.experts[winner]
        from_bits = self._current_bits(winner)
        to_bits = self._next_bits(winner)

        with telemetry.span("snapshot", step=step):
            snapshot = self._capture_snapshot()
        post: Optional[EvalResult] = None
        report: Optional[RecoveryReport] = None
        for attempt in self.retry_policy.attempts():
            self._set_bits(winner, to_bits)
            self.optimizer.lr = self.retry_policy.lr_for(
                attempt, self._base_lr
            )
            on_epoch = None
            if store is not None:
                on_epoch = (
                    lambda epoch, acc, loss, _attempt=attempt:
                    store.journal.append(
                        "recover_epoch", step=step, layer=name,
                        attempt=_attempt, epoch=epoch,
                        accuracy=acc, train_loss=loss,
                    )
                )
            try:
                with telemetry.span(
                    "eval", stage="post_quant", step=step, layer=name
                ):
                    post = evaluate(
                        self.model, self.val_loader, telemetry=telemetry
                    )
                # Collaboration trains: no cached quantized weight may
                # be served past this point (recover's own per-epoch
                # evals run on moving weights).
                self._qcache_off()
                with telemetry.span(
                    "recover", step=step, layer=name, attempt=attempt
                ):
                    report = recover(
                        self.model,
                        self.train_loader,
                        self.val_loader,
                        self.optimizer,
                        self.config.recovery,
                        reference_accuracy=max(
                            self._best_accuracy, pre.accuracy
                        ),
                        on_epoch=on_epoch,
                        telemetry=telemetry,
                        trainer=self._recover_trainer(),
                    )
                break
            except DivergenceError as err:
                self._restore_snapshot(snapshot)
                # Weights rolled back: re-arm the cache for the next
                # attempt's post-quant eval.
                self._qcache_reset()
                telemetry.counter("ccq.recovery_retry", layer=name).inc()
                telemetry.logger.warning(
                    "recovery diverged; rolled back and retrying",
                    step=step, layer=name, attempt=attempt,
                    retries_left=self.config.max_retries - attempt,
                )
                if store is not None:
                    store.journal.append(
                        "recovery_retry", step=step, layer=name,
                        attempt=attempt,
                        retries_left=self.config.max_retries - attempt,
                        lr=self.retry_policy.lr_for(
                            attempt + 1, self._base_lr
                        ),
                        **err.context(),
                    )
        else:
            # All attempts diverged: the snapshot restore above already
            # reverted the bit drop; retire the expert and move on.
            self._forced_asleep.add(winner)
            telemetry.counter("ccq.expert_skipped", layer=name).inc()
            telemetry.event(
                "expert_skipped", step=step, layer=name,
                from_bits=from_bits, to_bits=to_bits,
            )
            telemetry.logger.warning(
                "expert retired after repeated divergence",
                step=step, layer=name,
                attempts=self.retry_policy.max_attempts,
            )
            if store is not None:
                store.journal.append(
                    "expert_skipped", step=step, layer=name,
                    from_bits=from_bits, to_bits=to_bits,
                    attempts=self.retry_policy.max_attempts,
                )
            return None

        self._best_accuracy = max(self._best_accuracy, report.end_accuracy)
        # Collaboration is done, so the model (and the Hedge state the
        # next round 0 draws from) is final: overlap the step's tail —
        # accounting, checkpoint, next pre-eval — with the next step's
        # probe fan-out on the workers.
        self._start_speculative_probes(step + 1)
        # Post-step accounting (size report, power trace, journaling) is
        # real wall-clock; the ``account`` stage span keeps it out of
        # the report's uncovered remainder.
        with telemetry.span("account", step=step):
            compression = model_size_report(self.model).compression
            record = StepRecord(
                step=step,
                layer_index=winner,
                layer_name=name,
                from_bits=from_bits,
                to_bits=to_bits,
                lambda_used=result.lambda_used,
                pre_accuracy=pre.accuracy,
                post_quant_accuracy=post.accuracy,
                recovered_accuracy=report.end_accuracy,
                recovery=report,
                competition=result,
                compression=compression,
            )
            telemetry.counter("ccq.steps").inc()
            if telemetry.enabled and self.config.qweight_cache:
                hits, misses = self._qweight_totals()
                telemetry.counter("ccq.qweight_cache_hits").inc(
                    hits - self._qweight_prev[0]
                )
                telemetry.counter("ccq.qweight_cache_misses").inc(
                    misses - self._qweight_prev[1]
                )
                self._qweight_prev = (hits, misses)
            telemetry.gauge("ccq.accuracy").set(report.end_accuracy)
            telemetry.gauge("ccq.compression").set(compression)
            telemetry.event(
                "step_complete", step=step, layer=name,
                from_bits=from_bits, to_bits=to_bits,
                lambda_used=result.lambda_used,
                pre_accuracy=pre.accuracy,
                post_quant_accuracy=post.accuracy,
                recovered_accuracy=report.end_accuracy,
                recovery_epochs=report.epochs_used,
                compression=compression,
            )
            self._record_power(step)
            if store is not None:
                store.journal.append(
                    "step_complete", record=record_to_json(record)
                )
        telemetry.logger.info(
            f"step {step:3d}: {name} {from_bits}b->{to_bits}b",
            valley=post.accuracy, peak=report.end_accuracy,
            epochs=report.epochs_used, compression=compression,
        )
        return record

    def _record_power(self, step: int) -> None:
        """Per-step MAC-power gauge (needs ``config.input_shape``)."""
        if not self.telemetry.enabled or self.config.input_shape is None:
            return
        from ..hardware.power import network_power

        network_power(self.model, self.config.input_shape).record(
            self.telemetry, step=step
        )

    def request_stop(self) -> None:
        """Ask the run to wind down at the next step boundary.

        Safe to call from a signal handler: it only sets a flag.  The
        loop finishes the step in flight (checkpointing it as usual),
        journals an ``interrupted`` event, runs the final evaluation
        and returns a complete :class:`CCQResult` — so a SIGTERM'd run
        leaves exactly the same artifacts as a finished one.
        """
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def run(self, resume: bool = False) -> CCQResult:
        """Execute Algorithm 1 end to end and return the full trace.

        With ``resume=True`` (requires ``CCQConfig.checkpoint_dir``) the
        run restarts from the last atomic checkpoint if one exists, and
        continues the interrupted trajectory exactly; otherwise it starts
        fresh.
        """
        try:
            with self.telemetry.span("run", resume=resume):
                result = self._run_inner(resume)
        finally:
            # The probe pool (if any) must not outlive the run — also
            # on a kill mid-step, so the shared segment is unlinked and
            # the workers reaped before a resuming process starts.
            self._close_pool()
        self.telemetry.flush()
        return result

    def _run_inner(self, resume: bool) -> CCQResult:
        telemetry = self.telemetry
        resumed = False
        if resume:
            if self.store is None:
                raise ValueError(
                    "run(resume=True) requires CCQConfig.checkpoint_dir"
                )
            if self.store.has_checkpoint():
                self._restore_from_store()
                resumed = True
                telemetry.event("resumed", step=self._step)
                telemetry.logger.info(
                    "resumed from checkpoint", step=self._step,
                )
        if not resumed:
            if self.store is not None:
                self.store.journal.append(
                    "run_start", fingerprint=self._fingerprint()
                )
            self._records = []
            self._forced_asleep = set()
            self._step = 0
            initial = self.initialize()
            self._initial_eval = initial
            self._best_accuracy = initial.accuracy
            telemetry.logger.info(
                "initialized at ladder start",
                accuracy=initial.accuracy, loss=initial.loss,
            )
            if self.store is not None:
                self.store.journal.append(
                    "initialized",
                    accuracy=initial.accuracy, loss=initial.loss,
                )
            self._checkpoint()

        records = self._records
        while True:
            if self._stop_requested:
                telemetry.event("interrupted", step=self._step)
                telemetry.logger.warning(
                    "stop requested; winding down after checkpoint",
                    step=self._step,
                )
                if self.store is not None:
                    self.store.journal.append(
                        "interrupted", step=self._step
                    )
                break
            awake = self._awake_mask()
            if not any(awake):
                break
            if (
                self.config.max_steps is not None
                and self._step >= self.config.max_steps
            ):
                break
            if self.config.target_compression is not None:
                # The last completed step already measured the model
                # (a skipped step reverts its bit drop, so the figure
                # stays valid); only a recordless run needs a fresh
                # report.
                current = (
                    records[-1].compression if records
                    else model_size_report(self.model).compression
                )
                if current >= self.config.target_compression:
                    break

            record = self._execute_step(self._step)
            if record is not None:
                records.append(record)
                self._step += 1
                telemetry.progress.update(
                    step=self._step,
                    total=self.config.max_steps,
                    layer=f"{record.layer_name}->{record.to_bits}b",
                    acc=record.recovered_accuracy,
                    compr=f"{record.compression:.2f}x",
                )
            self._checkpoint()
            telemetry.flush()

        telemetry.progress.close()
        self._qcache_reset()
        with telemetry.span("eval", stage="final"):
            final = evaluate(
                self.model, self.val_loader, telemetry=telemetry
            )
        compression = model_size_report(self.model).compression
        telemetry.gauge("ccq.accuracy").set(final.accuracy)
        telemetry.gauge("ccq.compression").set(compression)
        telemetry.event(
            "run_complete", steps=self._step,
            accuracy=final.accuracy, compression=compression,
        )
        telemetry.logger.info(
            "run complete", steps=self._step,
            accuracy=final.accuracy, compression=compression,
        )
        if self.store is not None:
            self.store.journal.append(
                "run_complete",
                steps=self._step,
                accuracy=final.accuracy,
                compression=compression,
            )
        qweight_hits, qweight_misses = self._qweight_totals()
        return CCQResult(
            records=records,
            final_eval=final,
            initial_eval=self._initial_eval,
            bit_config=get_bit_config(self.model),
            compression=compression,
            probe_forward_passes=self.probe_forward_passes,
            probe_cache_hits=self.probe_engine.cache_hits,
            probe_cache_misses=self.probe_engine.cache_misses,
            qweight_cache_hits=qweight_hits,
            qweight_cache_misses=qweight_misses,
            fanout_stats=self._fanout_stats(),
        )
