"""Checkpoint save/load round trips."""

import json
import os

import numpy as np
import pytest

from repro import models
from repro.nn.serialization import (
    _BITS_KEY,
    CheckpointError,
    atomic_savez,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.tensor import Tensor
from repro.quantization import (
    get_bit_config,
    quantize_model,
    quantized_layers,
    set_uniform_bits,
)
from repro.quantization.qmodules import state_digest


class TestFloatCheckpoint:
    def test_roundtrip_outputs_identical(self, tmp_path, rng):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 3, 12, 12)))
        before = net(x).data.copy()
        save_checkpoint(net, tmp_path / "ckpt.npz")
        other = models.SmallConvNet(width=4, rng=np.random.default_rng(7))
        load_checkpoint(other, tmp_path / "ckpt.npz")
        np.testing.assert_allclose(other(x).data, before)

    def test_extra_metadata_roundtrip(self, tmp_path):
        net = models.MLP(4, [4], 2, rng=np.random.default_rng(0))
        save_checkpoint(net, tmp_path / "c.npz", extra={"baseline": 0.91})
        extra = load_checkpoint(
            models.MLP(4, [4], 2, rng=np.random.default_rng(1)),
            tmp_path / "c.npz",
        )
        assert extra == {"baseline": 0.91}


class TestQuantizedCheckpoint:
    def test_bit_config_restored(self, tmp_path):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, "pact")
        set_uniform_bits(net, 4, 4)
        layers = quantized_layers(net)
        layers[0][1].w_bits = 2
        config = get_bit_config(net)
        save_checkpoint(net, tmp_path / "q.npz")

        other = models.SmallConvNet(width=4, rng=np.random.default_rng(3))
        quantize_model(other, "pact")
        load_checkpoint(other, tmp_path / "q.npz")
        assert get_bit_config(other) == config

    def test_quantized_outputs_identical(self, tmp_path, rng):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, "pact")
        set_uniform_bits(net, 3, 3)
        x = Tensor(rng.normal(size=(2, 3, 12, 12)))
        net.eval()
        before = net(x).data.copy()
        save_checkpoint(net, tmp_path / "q.npz")

        other = models.SmallConvNet(width=4, rng=np.random.default_rng(9))
        quantize_model(other, "pact")
        load_checkpoint(other, tmp_path / "q.npz")
        other.eval()
        np.testing.assert_allclose(other(x).data, before)

    def test_lsq_step_survives_roundtrip(self, tmp_path, rng):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, "lsq")
        set_uniform_bits(net, 4, 4)
        net(Tensor(rng.normal(size=(2, 3, 12, 12))))  # initialize steps
        _, layer = quantized_layers(net)[0]
        layer.weight_quantizer.step.data[...] = 0.1234
        save_checkpoint(net, tmp_path / "lsq.npz")

        other = models.SmallConvNet(width=4, rng=np.random.default_rng(2))
        quantize_model(other, "lsq")
        load_checkpoint(other, tmp_path / "lsq.npz")
        _, other_layer = quantized_layers(other)[0]
        assert float(other_layer.weight_quantizer.step.data) == pytest.approx(
            0.1234
        )
        # A forward pass must NOT re-derive the step from statistics.
        other(Tensor(rng.normal(size=(1, 3, 12, 12))))
        assert float(other_layer.weight_quantizer.step.data) == pytest.approx(
            0.1234
        )

    @pytest.mark.parametrize("policy", ["pact", "lsq", "qil", "lqnets"])
    def test_quantizer_state_roundtrip(self, tmp_path, rng, policy):
        """Fitted LQ-Nets levels, refresh counters and initialization
        flags come back too: the digest covers every quantizer's state."""
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, policy)
        set_uniform_bits(net, 4, 4)
        for _ in range(3):
            net(Tensor(rng.normal(size=(2, 3, 12, 12))))
        save_checkpoint(net, tmp_path / "q.npz")

        other = models.SmallConvNet(width=4, rng=np.random.default_rng(5))
        quantize_model(other, policy)
        load_checkpoint(other, tmp_path / "q.npz")
        assert state_digest(other) == state_digest(net)

    def test_archive_without_quantizer_state_still_loads(self, tmp_path, rng):
        """An archive written before quantizer state was saved marks the
        quantizers initialized, so a forward keeps the loaded LSQ step."""
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, "lsq")
        set_uniform_bits(net, 4, 4)
        net(Tensor(rng.normal(size=(2, 3, 12, 12))))
        _, layer = quantized_layers(net)[0]
        layer.weight_quantizer.step.data[...] = 0.1234
        state = net.state_dict()
        meta = {"bits": {n: list(p) for n, p in get_bit_config(net).items()},
                "extra": {}}
        state[_BITS_KEY] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        atomic_savez(tmp_path / "old.npz", **state)

        other = models.SmallConvNet(width=4, rng=np.random.default_rng(2))
        quantize_model(other, "lsq")
        load_checkpoint(other, tmp_path / "old.npz")
        other(Tensor(rng.normal(size=(1, 3, 12, 12))))
        _, other_layer = quantized_layers(other)[0]
        assert other_layer.weight_quantizer._initialized
        assert float(other_layer.weight_quantizer.step.data) == 0.1234

    def test_fp_pinned_layers_roundtrip(self, tmp_path):
        net = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        quantize_model(net, "pact")
        set_uniform_bits(net, 3, 3, first_last_w_bits=None,
                         first_last_a_bits=None)
        save_checkpoint(net, tmp_path / "fp.npz")
        other = models.SmallConvNet(width=4, rng=np.random.default_rng(1))
        quantize_model(other, "pact")
        load_checkpoint(other, tmp_path / "fp.npz")
        layers = quantized_layers(other)
        assert layers[0][1].w_bits is None
        assert layers[1][1].w_bits == 3


class TestCrashSafety:
    def test_atomic_savez_leaves_no_temp_files(self, tmp_path):
        atomic_savez(tmp_path / "a.npz", x=np.arange(3))
        # Archive plus its integrity sidecar — and nothing else (no
        # lingering *.tmp from the atomic-rename dance).
        assert sorted(os.listdir(tmp_path)) == ["a.npz", "a.npz.sha256"]
        with np.load(tmp_path / "a.npz") as archive:
            np.testing.assert_array_equal(archive["x"], np.arange(3))

    def test_atomic_savez_replaces_existing_file(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.zeros(2))
        atomic_savez(path, x=np.ones(2))
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["x"], np.ones(2))

    def test_failed_save_preserves_previous_checkpoint(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.arange(4))

        class Unsavable:
            def __reduce__(self):
                raise RuntimeError("cannot pickle")

        with pytest.raises(Exception):
            atomic_savez(path, x=np.array(Unsavable(), dtype=object))
        # The old file (and its sidecar) is intact; no temp files linger.
        assert sorted(os.listdir(tmp_path)) == ["a.npz", "a.npz.sha256"]
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["x"], np.arange(4))

    def test_save_checkpoint_is_atomic(self, tmp_path):
        net = models.MLP(4, [4], 2, rng=np.random.default_rng(0))
        save_checkpoint(net, tmp_path / "m.npz")
        save_checkpoint(net, tmp_path / "m.npz")  # overwrite in place
        assert sorted(os.listdir(tmp_path)) == ["m.npz", "m.npz.sha256"]


class TestCheckpointErrors:
    def _quantized(self, seed, width=4):
        net = models.SmallConvNet(width=width, rng=np.random.default_rng(seed))
        quantize_model(net, "pact")
        set_uniform_bits(net, 4, 4)
        return net

    def test_unquantized_target_lists_missing_layers(self, tmp_path):
        net = self._quantized(0)
        save_checkpoint(net, tmp_path / "q.npz")
        plain = models.SmallConvNet(width=4, rng=np.random.default_rng(1))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(plain, tmp_path / "q.npz")
        message = str(excinfo.value)
        assert "layers in checkpoint but not in model" in message
        # The offending layers are named, with their bit widths.
        assert "conv1" in message
        assert "w=4b" in message

    def test_quantized_target_plain_checkpoint_lists_extras(self, tmp_path):
        plain = models.SmallConvNet(width=4, rng=np.random.default_rng(0))
        save_checkpoint(plain, tmp_path / "p.npz")
        net = self._quantized(1)
        with pytest.raises(
            CheckpointError,
            match="quantized layers in model but not in checkpoint",
        ):
            load_checkpoint(net, tmp_path / "p.npz")

    def test_architecture_mismatch_is_a_checkpoint_error(self, tmp_path):
        net = models.MLP(4, [4], 2, rng=np.random.default_rng(0))
        save_checkpoint(net, tmp_path / "m.npz")
        bigger = models.MLP(4, [4, 4], 2, rng=np.random.default_rng(1))
        with pytest.raises(CheckpointError):
            load_checkpoint(bigger, tmp_path / "m.npz")

    def test_mismatch_leaves_model_bits_untouched(self, tmp_path):
        net = self._quantized(0)
        save_checkpoint(net, tmp_path / "q.npz")
        plain = models.SmallConvNet(width=4, rng=np.random.default_rng(2))
        before = {k: v.copy() for k, v in plain.state_dict().items()}
        with pytest.raises(CheckpointError):
            load_checkpoint(plain, tmp_path / "q.npz")
        after = plain.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)
