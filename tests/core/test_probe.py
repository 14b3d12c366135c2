"""Unit tests for the probe-evaluation engine."""

import numpy as np
import pytest

from repro.core.probe import (
    PinnedProbeSet,
    ProbeEngine,
    ProbeOutcome,
    StageSuffix,
    pin_probe_batches,
)
from repro.datasets.synthetic import SyntheticImageConfig, _make_splits
from repro.nn.data import DataLoader


@pytest.fixture(scope="module")
def val_dataset():
    config = SyntheticImageConfig(
        n_classes=4, image_size=8, channels=3, seed=3
    )
    return _make_splits(
        config, n_train=16, n_val=40, n_test=8, augment=False
    ).val


class TestPinnedProbeSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PinnedProbeSet([])

    def test_iteration_and_counts(self, val_dataset):
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=16), max_batches=2
        )
        assert len(pinned) == 2
        assert pinned.n_samples == 32
        for images, labels in pinned:
            assert images.shape == (16, 3, 8, 8)
            assert labels.dtype == np.int64

    def test_last_partial_batch(self, val_dataset):
        # 40 samples at batch 16 -> 16 + 16 + 8.
        pinned = pin_probe_batches(DataLoader(val_dataset, batch_size=16))
        assert [len(lbl) for _, lbl in pinned.batches] == [16, 16, 8]
        assert pinned.n_samples == len(val_dataset)


class TestPinning:
    def test_dataset_order_matches_unshuffled_loader(self, val_dataset):
        loader = DataLoader(val_dataset, batch_size=16)
        pinned = pin_probe_batches(loader, max_batches=2)
        direct = list(loader)[:2]
        for (pi, pl), (di, dl) in zip(pinned, direct):
            np.testing.assert_array_equal(pi, di)
            np.testing.assert_array_equal(pl, dl)

    def test_pinning_never_consumes_loader_rng(self, val_dataset):
        loader = DataLoader(val_dataset, batch_size=16, shuffle=True, seed=9)
        state_before = loader._rng.bit_generator.state
        pin_probe_batches(loader, max_batches=2)
        assert loader._rng.bit_generator.state == state_before
        # ... so a later iteration of the loader is unaffected.
        reference = DataLoader(val_dataset, batch_size=16, shuffle=True,
                               seed=9)
        for (li, _), (ri, _) in zip(loader, reference):
            np.testing.assert_array_equal(li, ri)

    def test_pinned_batches_ignore_loader_shuffle(self, val_dataset):
        shuffled = DataLoader(val_dataset, batch_size=16, shuffle=True,
                              seed=9)
        plain = DataLoader(val_dataset, batch_size=16)
        a = pin_probe_batches(shuffled, max_batches=1)
        b = pin_probe_batches(plain, max_batches=1)
        np.testing.assert_array_equal(a.batches[0][0], b.batches[0][0])

    def test_duck_typed_loader_fallback(self, val_dataset):
        batches = list(DataLoader(val_dataset, batch_size=16))

        class MinimalLoader:
            def __iter__(self):
                return iter(batches)

        pinned = pin_probe_batches(MinimalLoader(), max_batches=2)
        assert len(pinned) == 2
        np.testing.assert_array_equal(pinned.batches[0][0], batches[0][0])


class TestProbeEngine:
    def _engine(self, val_dataset, **kwargs):
        loader = DataLoader(val_dataset, batch_size=16)
        return ProbeEngine(loader, probe_batches=1, **kwargs)

    def test_memoizes_within_step(self, val_dataset):
        engine = self._engine(val_dataset)
        calls = []

        def run_eval(pinned):
            calls.append(pinned.n_samples)
            return 0.5

        engine.begin_step(0)
        assert engine.evaluate(("a", 4), run_eval) == 0.5
        assert engine.evaluate(("a", 4), run_eval) == 0.5
        assert calls == [16]
        assert engine.stats() == {
            "cache_hits": 1, "cache_misses": 1, "rounds": 2,
        }

    def test_distinct_keys_each_evaluate(self, val_dataset):
        engine = self._engine(val_dataset)
        engine.begin_step(0)
        engine.evaluate(("a", 4), lambda p: 0.1)
        engine.evaluate(("b", 4), lambda p: 0.2)
        engine.evaluate(("a", 2), lambda p: 0.3)
        assert engine.cache_misses == 3
        assert engine.cache_hits == 0

    def test_begin_step_clears_memo(self, val_dataset):
        engine = self._engine(val_dataset)
        engine.begin_step(0)
        engine.evaluate(("a", 4), lambda p: 0.1)
        engine.begin_step(1)
        assert engine.evaluate(("a", 4), lambda p: 0.9) == 0.9
        assert engine.cache_misses == 2
        # Lifetime counters survive the step boundary.
        assert engine.stats()["rounds"] == 2

    def test_memoize_off_always_evaluates(self, val_dataset):
        engine = self._engine(val_dataset, memoize=False)
        engine.begin_step(0)
        losses = [engine.evaluate(("a", 4), lambda p: 0.25)
                  for _ in range(3)]
        assert losses == [0.25] * 3
        assert engine.cache_misses == 3
        assert engine.cache_hits == 0

    def test_record_serves_penalty_from_cache(self, val_dataset):
        engine = self._engine(val_dataset)
        engine.begin_step(0)
        engine.record(("a", 4), 1e3)

        def must_not_run(pinned):
            raise AssertionError("cached penalty should skip evaluation")

        assert engine.evaluate(("a", 4), must_not_run) == 1e3
        assert engine.cache_hits == 1

    def test_failed_eval_not_cached(self, val_dataset):
        engine = self._engine(val_dataset)
        engine.begin_step(0)
        with pytest.raises(RuntimeError):
            engine.evaluate(("a", 4), lambda p: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert ("a", 4) not in engine._memo
        # A retry can still populate the cache.
        assert engine.evaluate(("a", 4), lambda p: 0.7) == 0.7

    def test_lazy_pin_without_begin_step(self, val_dataset):
        engine = self._engine(val_dataset)
        assert engine.pinned.n_samples == 16


class TestVectorizedPinning:
    def test_sliced_pin_matches_per_sample_fallback(self, val_dataset):
        """The array-slicing fast path and the per-sample loop must pin
        identical batches (no transform runs either way)."""
        from repro.nn.data import ArrayDataset

        # Same arrays, but an identity transform forces the slow path.
        slow_ds = ArrayDataset(
            val_dataset.images, val_dataset.labels,
            transform=lambda img, rng: img,
        )
        fast = pin_probe_batches(DataLoader(val_dataset, batch_size=16))
        slow = pin_probe_batches(DataLoader(slow_ds, batch_size=16))
        assert len(fast) == len(slow)
        for (fi, fl), (si, sl) in zip(fast, slow):
            np.testing.assert_array_equal(fi, si)
            np.testing.assert_array_equal(fl, sl)
            assert fl.dtype == sl.dtype == np.int64

    def test_max_batches_respected_on_fast_path(self, val_dataset):
        pinned = pin_probe_batches(
            DataLoader(val_dataset, batch_size=16), max_batches=1
        )
        assert len(pinned) == 1
        np.testing.assert_array_equal(
            pinned.batches[0][0], val_dataset.images[:16]
        )


class TestPinReuse:
    def test_transform_free_pin_survives_steps(self, val_dataset):
        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             probe_batches=1)
        engine.begin_step(0)
        first = engine.pinned
        assert engine.pin_version == 1
        engine.begin_step(1)
        assert engine.pinned is first
        assert engine.pin_version == 1

    def test_transformed_dataset_repins_each_step(self, val_dataset):
        from repro.nn.data import ArrayDataset

        ds = ArrayDataset(val_dataset.images, val_dataset.labels,
                          transform=lambda img, rng: img)
        engine = ProbeEngine(DataLoader(ds, batch_size=16),
                             probe_batches=1)
        engine.begin_step(0)
        engine.begin_step(1)
        assert engine.pin_version == 2

    def test_lazy_pin_is_reused_by_first_begin_step(self, val_dataset):
        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             probe_batches=1)
        pinned = engine.pinned  # lazy pin before any step
        engine.begin_step(0)
        assert engine.pinned is pinned
        assert engine.pin_version == 1


class TestFailedEvalTiming:
    def test_failed_eval_lands_in_failed_histogram(self, val_dataset):
        from repro.telemetry import Telemetry

        telemetry = Telemetry.in_memory()
        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             probe_batches=1, telemetry=telemetry)
        engine.begin_step(0)

        def explode(pinned):
            raise RuntimeError("diverged")

        with pytest.raises(RuntimeError):
            engine.evaluate(("a", 4), explode)
        assert telemetry.histogram("ccq.probe_eval_failed_s").count == 1
        assert telemetry.histogram("ccq.probe_eval_s").count == 0

        engine.evaluate(("a", 4), lambda p: 0.5)
        assert telemetry.histogram("ccq.probe_eval_s").count == 1


class TestPrefetchedOutcomes:
    def test_prefetched_loss_served_without_eval(self, val_dataset):
        from repro.core.probe import ProbeOutcome

        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             probe_batches=1)
        engine.begin_step(0)
        engine.prefetch({("a", 4): ProbeOutcome(loss=0.25, elapsed=0.01,
                                                worker=1)})

        def must_not_run(pinned):
            raise AssertionError("prefetched candidate re-evaluated")

        assert engine.evaluate(("a", 4), must_not_run) == 0.25
        assert engine.cache_misses == 1
        # Consumed once, it is memoized like a serial evaluation.
        assert engine.evaluate(("a", 4), must_not_run) == 0.25
        assert engine.cache_hits == 1

    def test_prefetched_divergence_reraises_at_consumption(
        self, val_dataset
    ):
        from repro.core.probe import ProbeOutcome
        from repro.core.resilience import DivergenceError

        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             probe_batches=1)
        engine.begin_step(0)
        engine.prefetch({("a", 4): ProbeOutcome(
            diverged=True, message="loss is nan", stage="probe",
            batch_index=0, value=float("nan"), elapsed=0.01,
        )})
        with pytest.raises(DivergenceError) as excinfo:
            engine.evaluate(("a", 4), lambda p: 0.5)
        assert excinfo.value.stage == "probe"
        assert excinfo.value.batch_index == 0

    def test_prefetched_survive_memoize_off(self, val_dataset):
        from repro.core.probe import ProbeOutcome

        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             probe_batches=1, memoize=False)
        engine.begin_step(0)
        engine.prefetch({("a", 4): ProbeOutcome(loss=0.25)})
        for _ in range(3):
            assert engine.evaluate(
                ("a", 4),
                lambda p: (_ for _ in ()).throw(AssertionError()),
            ) == 0.25
        assert engine.cache_misses == 3

    def test_begin_step_drops_prefetched(self, val_dataset):
        from repro.core.probe import ProbeOutcome

        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             probe_batches=1)
        engine.begin_step(0)
        engine.prefetch({("a", 4): ProbeOutcome(loss=0.25)})
        engine.begin_step(1)
        assert engine.evaluate(("a", 4), lambda p: 0.75) == 0.75


class TestSuffixProbes:
    @pytest.fixture()
    def staged(self, resnet_factory):
        from repro.quantization import set_uniform_bits

        net, _, val = resnet_factory("pact")
        set_uniform_bits(net, 8, 8)
        return net, ProbeEngine(val, probe_batches=2, model=net)

    def test_suffix_scores_equal_full_forwards(self, staged):
        """Every layer at 4 bits: running from its first stage on the
        recorded input scores exactly what the full forward scores."""
        from repro.core.training import evaluate
        from repro.quantization import quantized_layers

        net, engine = staged
        engine.begin_step(0)
        engine.evaluate("clean", lambda pinned: evaluate(net, pinned).loss)
        starts = []
        for _, layer in quantized_layers(net):
            model, batches = engine.suffix([layer])
            starts.append(getattr(model, "start", 0))
            layer.w_bits = layer.a_bits = 4
            full = evaluate(net, engine.pinned)
            suffix = evaluate(model, batches)
            layer.w_bits = layer.a_bits = 8
            assert (suffix.loss, suffix.accuracy) == (
                full.loss, full.accuracy
            )
        # The stem's layer runs the whole model; later ones start later.
        assert starts[0] == 0 and starts == sorted(starts)
        assert starts[-1] == len(net.stages()) - 1

    def test_recorded_on_first_serial_miss_and_dropped_per_step(
        self, staged
    ):
        net, engine = staged
        engine.begin_step(0)
        layer = net.fc
        assert engine.suffix([layer])[0] is net
        engine.prefetch({"served": ProbeOutcome(loss=1.0)})
        engine.evaluate("served", lambda pinned: 0.0)
        assert engine.suffix([layer])[0] is net
        engine.evaluate("miss", lambda pinned: 0.0)
        assert isinstance(engine.suffix([layer])[0], StageSuffix)
        engine.begin_step(1)
        assert engine.suffix([layer])[0] is net

    def test_unstaged_model_runs_full_forwards(self, val_dataset):
        from repro import models

        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        engine = ProbeEngine(DataLoader(val_dataset, batch_size=16),
                             model=net)
        engine.begin_step(0)
        engine.evaluate("miss", lambda pinned: 0.0)
        model, batches = engine.suffix([net])
        assert model is net and batches is engine.pinned
