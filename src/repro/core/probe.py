"""The probe-evaluation engine backing the CCQ competition stage.

Every quantization step runs ``U`` probe rounds, and each round evaluates
one candidate (a single expert dropped to its next bit level) on a
validation subset.  Two properties of that loop make a dedicated engine
worthwhile:

**Per-step exact memoization.**  Within one competition stage the model's
weights are frozen — only the probed expert's bit width changes, and it
is restored right after the probe.  A candidate is therefore fully
identified by ``(expert index, next bits)``, and re-probing it returns a
bit-identical loss.  The engine caches the first evaluation of each
candidate and serves repeats from the cache, cutting the forward passes
per step from ``U`` to at most ``min(U, n_awake)`` with a provably
unchanged Hedge trajectory (the *losses* the competition observes are
the same numbers either way).

**Pinned probe subsets.**  The probe data is materialized once per step
directly from the validation *dataset* in deterministic index order —
deliberately bypassing the loader's shuffle RNG.  This fixes a latent
correctness bug: with a shuffling validation loader, consecutive probes
used to score *different layers on different batches*, making the Hedge
losses incomparable across experts.  Pinning also means cache hits
cannot perturb the loader's RNG stream, so memoization on/off (and
kill-and-resume) stay bit-for-bit deterministic.

**Suffix probes.**  A candidate changes only its own expert's layers,
so every stage of the network in front of the first one owning such a
layer computes exactly what it computes for the clean model.  For models
that expose ``stages()`` (the ResNets), the first serial probe miss of a
step records every stage's input on the pinned batches from the clean
model, and each candidate then runs only the stages from its first
changed one (:meth:`ProbeEngine.suffix`) — bit-identical logits, a
fraction of the forward work.

The engine is observable through the shared telemetry layer
(``ccq.probe_cache_hits`` / ``ccq.probe_cache_misses`` counters and the
``ccq.probe_eval_s`` fast-path timer histogram) and deliberately holds
no trajectory-relevant state across steps: :meth:`ProbeEngine.begin_step`
drops the memo table and the recorded stage inputs, so a run resumed at
a step boundary needs no engine state in the checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..models.resnet import run_stages
from ..nn import no_grad
from ..nn.data import DataLoader
from ..nn.modules import Module
from ..nn.tensor import Tensor
from ..telemetry import NULL_TELEMETRY, Telemetry
from .resilience import DivergenceError

__all__ = [
    "PinnedProbeSet",
    "ProbeEngine",
    "ProbeOutcome",
    "StageSuffix",
    "pin_probe_batches",
]

Batch = Tuple[np.ndarray, np.ndarray]


def _is_transform_free(dataset: object) -> bool:
    """Whether ``dataset`` declares itself free of stochastic transforms.

    True for array-backed datasets (``.images`` / ``.labels`` ndarrays)
    with no transform attached: indexing such a dataset is a pure array
    read, so a pinned subset taken once is valid forever.
    """
    return (
        getattr(dataset, "transform", object()) is None
        and isinstance(getattr(dataset, "images", None), np.ndarray)
        and isinstance(getattr(dataset, "labels", None), np.ndarray)
    )


class PinnedProbeSet:
    """A materialized validation subset, iterable like a loader.

    Holds concrete ``(images, labels)`` ndarray batches so every
    candidate probed within a step is scored on *identical* data, no
    matter what the originating loader's shuffle RNG does in between.
    Satisfies the loader protocol :func:`repro.core.training.evaluate`
    expects (iteration + ``len``).
    """

    def __init__(self, batches: List[Batch]) -> None:
        if not batches:
            raise ValueError("a pinned probe set needs at least one batch")
        self.batches = batches

    def __iter__(self) -> Iterator[Batch]:
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def n_samples(self) -> int:
        return sum(len(labels) for _, labels in self.batches)


def pin_probe_batches(
    loader: DataLoader, max_batches: Optional[int] = None
) -> PinnedProbeSet:
    """Materialize the probe subset from ``loader``'s dataset.

    Samples are taken in deterministic dataset order (the order an
    unshuffled loader would yield), sliced into ``loader.batch_size``
    batches, at most ``max_batches`` of them.  The loader's own RNG is
    never consulted, so pinning is invisible to any later iteration of
    the loader.

    Falls back to iterating the loader itself for duck-typed loaders
    that expose no ``dataset``/``batch_size`` (test doubles); those
    lose the RNG decoupling but keep the per-step pinning.
    """
    dataset = getattr(loader, "dataset", None)
    batch_size = getattr(loader, "batch_size", None)
    batches: List[Batch] = []
    if dataset is not None and batch_size is not None:
        n = len(dataset)
        if max_batches is not None:
            n = min(n, max_batches * batch_size)
        if _is_transform_free(dataset):
            # Pure array reads: slice the backing arrays directly
            # instead of the per-sample loop + np.stack — identical
            # values (no transform runs either way), far fewer Python
            # round-trips.
            for start in range(0, n, batch_size):
                end = min(start + batch_size, n)
                batches.append((
                    dataset.images[start:end],
                    dataset.labels[start:end].astype(np.int64),
                ))
        else:
            for start in range(0, n, batch_size):
                pairs = [
                    dataset[i]
                    for i in range(start, min(start + batch_size, n))
                ]
                images = np.stack([img for img, _ in pairs])
                labels = np.asarray(
                    [label for _, label in pairs], dtype=np.int64
                )
                batches.append((images, labels))
    else:
        for batch_index, (images, labels) in enumerate(loader):
            if max_batches is not None and batch_index >= max_batches:
                break
            batches.append((np.asarray(images), np.asarray(labels)))
    return PinnedProbeSet(batches)


class StageSuffix:
    """The stages ``start:`` of a staged model, runnable by ``evaluate``.

    Satisfies the model protocol :func:`repro.core.training.evaluate`
    expects (``training``, ``eval()``, ``train()``, call); train/eval
    switches act on the whole model.
    """

    def __init__(self, model: Module, start: int) -> None:
        self.model = model
        self.start = start

    @property
    def training(self) -> bool:
        return self.model.training

    def train(self, mode: bool = True) -> "StageSuffix":
        self.model.train(mode)
        return self

    def eval(self) -> "StageSuffix":
        return self.train(False)

    def __call__(self, x: Tensor) -> Tensor:
        return run_stages(self.model.stages()[self.start:], x)


@dataclass(frozen=True)
class ProbeOutcome:
    """One candidate's result as computed by the parallel backend.

    ``loss`` is set for clean evaluations; a diverged evaluation
    carries the :class:`~repro.core.resilience.DivergenceError` context
    fields instead, so consumption can re-raise a faithful
    reconstruction.  ``elapsed`` is the worker-side wall clock of the
    forward pass (what the serial path would have timed).
    """

    loss: Optional[float] = None
    elapsed: float = 0.0
    diverged: bool = False
    worker: Optional[int] = None
    message: str = ""
    stage: str = ""
    batch_index: Optional[int] = None
    value: Optional[float] = None

    def make_error(self) -> DivergenceError:
        return DivergenceError(
            self.message,
            stage=self.stage,
            batch_index=self.batch_index,
            value=self.value,
        )


class ProbeEngine:
    """Memoizing evaluator for competition probes.

    Parameters
    ----------
    loader:
        The validation loader whose dataset backs the pinned subsets.
    probe_batches:
        How many batches each probe scores (``None`` = the full set) —
        the same knob as ``CCQConfig.probe_batches``.
    memoize:
        Enables the per-step cache.  Off, every probe runs the forward
        pass (the pre-engine behavior); the observed losses — and hence
        the whole CCQ trajectory — are identical either way.
    telemetry:
        Optional live :class:`repro.telemetry.Telemetry`; hits/misses
        land in ``ccq.probe_cache_hits`` / ``ccq.probe_cache_misses``
        and each actual evaluation is timed into ``ccq.probe_eval_s``.
    model:
        The probed model.  When it exposes ``stages()``, the first
        serial miss of each step records every stage's input on the
        pinned batches, and :meth:`suffix` runs candidates from their
        first changed stage; otherwise probes run full forwards.
    """

    def __init__(
        self,
        loader: DataLoader,
        probe_batches: Optional[int] = None,
        memoize: bool = True,
        telemetry: Optional[Telemetry] = None,
        model: Optional[Module] = None,
    ) -> None:
        self.loader = loader
        self.probe_batches = probe_batches
        self.memoize = memoize
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.model = model
        self._memo: Dict[Hashable, float] = {}
        self._prefetched: Dict[Hashable, ProbeOutcome] = {}
        self._pinned: Optional[PinnedProbeSet] = None
        # Per stage, the clean model's input to it on each pinned batch
        # (recorded on the step's first serial miss, dropped at
        # begin_step), and which stage owns each module.
        self._stage_inputs: Optional[List[List[np.ndarray]]] = None
        self._stage_of: Dict[int, int] = {}
        # Bumps every time the pinned subset is actually re-materialized
        # — the parallel backend uses it to tell "same data as last
        # broadcast" from "fresh draw".
        self.pin_version = 0
        self._pin_reusable = False
        self.cache_hits = 0
        self.cache_misses = 0

    # -- step lifecycle ------------------------------------------------------

    def begin_step(self, step: Optional[int] = None) -> None:
        """Start a new competition stage: fresh memo table, fresh pin.

        The memo (and any prefetched results) MUST be dropped between
        steps — the model's weights change during collaboration, so a
        candidate's loss from an earlier step is stale.  The probe
        subset is re-pinned only when it could differ from the previous
        step's: a transform-free dataset read in dataset order yields
        identical batches every time, so its pin is taken once and
        reused; datasets with stochastic transforms re-pin each step so
        they draw identically whether or not the previous step's cache
        was hit.
        """
        self._memo.clear()
        self._prefetched.clear()
        self._stage_inputs = None
        if self._pinned is not None and self._pin_reusable:
            return
        self._pin()

    def _pin(self) -> None:
        self._pinned = pin_probe_batches(self.loader, self.probe_batches)
        self.pin_version += 1
        self._pin_reusable = _is_transform_free(
            getattr(self.loader, "dataset", None)
        )

    @property
    def pinned(self) -> PinnedProbeSet:
        """The current step's probe subset (pinned on first use)."""
        if self._pinned is None:
            self._pin()
        return self._pinned

    # -- suffix probes -------------------------------------------------------

    def _record_stage_inputs(self) -> None:
        """Record every stage's input on the pinned batches.

        Runs the clean model once, the way ``evaluate`` does (eval
        mode, no grad).  The stem's input is the pinned batch itself,
        so stage 0 records nothing.  Every other input is copied with
        its memory layout kept, so a recorded array is one no later op
        can write into.
        """
        model = self.model
        stages = model.stages()
        inputs: List[List[np.ndarray]] = [[] for _ in stages]
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                for images, _ in self.pinned:
                    x = Tensor(images)
                    for k, (run, _) in enumerate(stages[:-1], start=1):
                        x = run(x)
                        inputs[k].append(x.data.copy(order="K"))
        finally:
            if was_training:
                model.train()
        self._stage_of = {}
        for k, (_, owned) in enumerate(stages):
            for module in owned:
                for inner in module.modules():
                    self._stage_of.setdefault(id(inner), k)
        self._stage_inputs = inputs

    def suffix(self, layers: Sequence[Module]) -> Tuple[Any, PinnedProbeSet]:
        """What a candidate changing ``layers`` runs, and on which data.

        With this step's stage inputs recorded: the model's stages from
        the first one owning any of ``layers``, fed that stage's
        recorded inputs.  Otherwise the whole model on the pinned
        batches.  Both give bit-identical logits.
        """
        if self._stage_inputs is None:
            return self.model, self.pinned
        start = min(self._stage_of.get(id(layer), 0) for layer in layers)
        if start == 0:
            return self.model, self.pinned
        batches = [
            (x, labels)
            for x, (_, labels) in zip(
                self._stage_inputs[start], self.pinned.batches
            )
        ]
        return StageSuffix(self.model, start), PinnedProbeSet(batches)

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self,
        key: Hashable,
        run_eval: Callable[[PinnedProbeSet], float],
    ) -> float:
        """Return the loss for candidate ``key``, memoized within the step.

        ``run_eval`` receives the pinned probe subset and must return
        the scalar validation loss.  It is only invoked on a cache
        miss with no prefetched result pending; a raised exception
        (e.g. ``DivergenceError``) propagates without populating the
        cache — use :meth:`record` to memoize a substitute loss for
        such candidates.

        Lookup order: memo, then prefetched parallel results (a
        diverged prefetch re-raises its reconstructed
        ``DivergenceError`` here, at consumption time, so journaling
        order matches a serial run exactly), then the serial
        ``run_eval``.  The first serial miss of a step records the
        stage inputs :meth:`suffix` serves from, so ``run_eval`` must
        find the model clean and apply (and undo) its candidate itself.
        """
        if self.memoize and key in self._memo:
            self.cache_hits += 1
            self.telemetry.counter("ccq.probe_cache_hits").inc()
            return self._memo[key]
        outcome = self._prefetched.get(key)
        if outcome is not None:
            if outcome.diverged:
                self.telemetry.histogram(
                    "ccq.probe_eval_failed_s"
                ).observe(outcome.elapsed)
                raise outcome.make_error()
            self.telemetry.histogram("ccq.probe_eval_s").observe(
                outcome.elapsed
            )
            self.cache_misses += 1
            self.telemetry.counter("ccq.probe_cache_misses").inc()
            loss = float(outcome.loss)
            if self.memoize:
                self._memo[key] = loss
            return loss
        t0 = time.perf_counter()
        try:
            if self._stage_inputs is None and hasattr(self.model, "stages"):
                self._record_stage_inputs()
            loss = float(run_eval(self.pinned))
        except Exception:
            # The elapsed time of a failed (typically diverged)
            # evaluation is real wall-clock; timing it into its own
            # histogram keeps report-run coverage honest without
            # polluting the fast-path timings.
            self.telemetry.histogram("ccq.probe_eval_failed_s").observe(
                time.perf_counter() - t0
            )
            raise
        self.telemetry.histogram("ccq.probe_eval_s").observe(
            time.perf_counter() - t0
        )
        self.cache_misses += 1
        self.telemetry.counter("ccq.probe_cache_misses").inc()
        if self.memoize:
            self._memo[key] = loss
        return loss

    def prefetch(self, outcomes: Mapping[Hashable, ProbeOutcome]) -> None:
        """Stage parallel-backend results for consumption by ``evaluate``.

        Prefetched losses are *not* observations yet: counters,
        telemetry and journals only move when the competition actually
        asks for a candidate, so a speculative evaluation the Hedge
        loop never draws leaves no trace in the trajectory-adjacent
        accounting.  Prefetched entries survive ``memoize=False`` (they
        are served repeatedly), and are dropped at ``begin_step``.
        """
        self._prefetched.update(outcomes)

    def record(self, key: Hashable, loss: float) -> None:
        """Memoize ``loss`` for ``key`` without running an evaluation.

        Used for divergence penalties: a candidate whose evaluation
        deterministically diverges would diverge again on a re-probe,
        so its penalty loss is served from the cache like any other.
        """
        if self.memoize:
            self._memo[key] = float(loss)

    def stats(self) -> Dict[str, int]:
        """Lifetime cache counters (hits + misses = probe rounds issued)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "rounds": self.cache_hits + self.cache_misses,
        }
