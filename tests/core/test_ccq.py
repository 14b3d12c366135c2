"""CCQ driver: Algorithm 1 end-to-end semantics."""

import numpy as np
import pytest

from repro.core import (
    BitLadder,
    CCQConfig,
    CCQQuantizer,
    LambdaSchedule,
    RecoveryConfig,
)
from repro.core.training import evaluate
from repro.nn.tensor import Tensor
from repro.quantization import get_bit_config, quantize_model, quantized_layers


# Every registered policy whose quantizers honour a bit-width ladder
# (bnn / xnor binarize regardless of bits).
MULTI_BIT_POLICIES = [
    "pact", "dorefa", "wrpn", "pact_sawb", "lsq", "qil", "lqnets",
]


def _value_bytes(value):
    if isinstance(value, Tensor):
        value = value.data
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return repr(value)


def model_state(net):
    """Bytes of every parameter and buffer, and every attribute of
    every quantizer, in a comparable form."""
    arrays = [
        (name, _value_bytes(value))
        for name, value in sorted(net.state_dict().items())
    ]
    quantizers = [
        (name, kind, key, _value_bytes(value))
        for name, layer in quantized_layers(net)
        for kind, quantizer in (
            ("weight", layer.weight_quantizer),
            ("act", layer.act_quantizer),
        )
        for key, value in sorted(vars(quantizer).items())
    ]
    return arrays, quantizers


def fast_config(**overrides):
    defaults = dict(
        ladder=BitLadder((8, 4, 2)),
        probes_per_step=3,
        probe_batches=1,
        recovery=RecoveryConfig(mode="manual", epochs=1, use_hybrid_lr=False),
        lr=0.02,
        initial_recovery_epochs=1,
        seed=0,
    )
    defaults.update(overrides)
    return CCQConfig(**defaults)


@pytest.fixture()
def quantized_pretrained(pretrained_net):
    net, baseline = pretrained_net
    quantize_model(net, "pact")
    return net, baseline


class TestConstruction:
    def test_rejects_unquantized_model_without_policy(
        self, pretrained_net, tiny_loaders
    ):
        net, _ = pretrained_net
        train, val = tiny_loaders
        with pytest.raises(ValueError, match="no quantized layers"):
            CCQQuantizer(net, train, val, config=fast_config())

    def test_policy_argument_converts(self, pretrained_net, tiny_loaders):
        net, _ = pretrained_net
        train, val = tiny_loaders
        ccq = CCQQuantizer(net, train, val, config=fast_config(), policy="pact")
        assert len(ccq.layers) == 4

    def test_unknown_target_layer_rejected(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        with pytest.raises(KeyError):
            CCQQuantizer(
                net, train, val, config=fast_config(),
                target_config={"bogus": 2},
            )


class TestRun:
    def test_all_layers_reach_floor(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(net, train, val, config=fast_config())
        result = ccq.run()
        for name, (w_bits, a_bits) in result.bit_config.items():
            assert w_bits == 2, name
        # 4 layers x 2 level drops each
        assert len(result.records) == 8

    def test_each_step_drops_exactly_one_level(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(net, train, val, config=fast_config())
        result = ccq.run()
        ladder = BitLadder((8, 4, 2))
        for rec in result.records:
            assert ladder.next_level(rec.from_bits) == rec.to_bits

    def test_max_steps_budget(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(net, train, val, config=fast_config(max_steps=3))
        result = ccq.run()
        assert len(result.records) == 3

    def test_target_compression_stops_early(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(
            net, train, val, config=fast_config(target_compression=5.0)
        )
        result = ccq.run()
        assert result.compression >= 5.0
        # Stopped before quantizing everything to the floor.
        assert len(result.records) < 8

    @pytest.mark.parametrize("policy", MULTI_BIT_POLICIES)
    def test_probe_restores_bits(self, policy, pretrained_net, tiny_loaders):
        """A probe leaves the model exactly as it found it: weights,
        buffers, every quantizer attribute (bits, learned scalars,
        initialization flags, fitted levels) and hence the val score."""
        net, _ = pretrained_net
        train, val = tiny_loaders
        ccq = CCQQuantizer(net, train, val, config=fast_config(),
                           policy=policy)
        ccq.initialize()
        before_eval = evaluate(net, val)
        before = model_state(net)
        bits = get_bit_config(net)
        for index in range(len(ccq.experts)):
            ccq._probe_loss(index)
        assert get_bit_config(net) == bits
        assert model_state(net) == before
        after_eval = evaluate(net, val)
        assert (after_eval.loss, after_eval.accuracy) == (
            before_eval.loss, before_eval.accuracy
        )

    def test_probe_counter(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(
            net, train, val, config=fast_config(max_steps=2, probes_per_step=3)
        )
        result = ccq.run()
        # Every probe round is either a forward pass or an exact
        # cache hit; with memoization on (the default) repeated draws
        # within a step are served from the cache.
        assert result.probe_rounds == 2 * 3
        assert result.probe_forward_passes <= 2 * 3
        assert (
            result.probe_forward_passes + result.probe_cache_hits
            == result.probe_rounds
        )

    def test_probe_counter_without_cache(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(
            net, train, val,
            config=fast_config(
                max_steps=2, probes_per_step=3, probe_cache=False
            ),
        )
        result = ccq.run()
        assert result.probe_forward_passes == 2 * 3
        assert result.probe_cache_hits == 0

    def test_trace_has_valleys_and_recoveries(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        config = fast_config(
            recovery=RecoveryConfig(mode="manual", epochs=2,
                                    use_hybrid_lr=False),
            max_steps=3,
        )
        ccq = CCQQuantizer(net, train, val, config=config)
        result = ccq.run()
        trace = result.accuracy_trace
        events = [e for _, _, e in trace]
        assert events[0] == "initial"
        assert any(e.startswith("quantize:") for e in events)
        assert events.count("recover") == 3 * 2

    def test_compression_monotone_over_steps(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(net, train, val, config=fast_config())
        result = ccq.run()
        ratios = [rec.compression for rec in result.records]
        assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:]))


class TestTargetConfig:
    def test_fp_pinned_layers_never_quantized(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        layer_names = [n for n, _ in quantized_layers(net)]
        target = {layer_names[0]: None, layer_names[-1]: None}
        for middle in layer_names[1:-1]:
            target[middle] = 4
        ccq = CCQQuantizer(
            net, train, val, config=fast_config(), target_config=target
        )
        result = ccq.run()
        assert result.bit_config[layer_names[0]][0] is None
        assert result.bit_config[layer_names[-1]][0] is None
        for middle in layer_names[1:-1]:
            assert result.bit_config[middle][0] == 4

    def test_reaches_exact_forced_configuration(
        self, quantized_pretrained, tiny_loaders
    ):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        layer_names = [n for n, _ in quantized_layers(net)]
        target = {name: 2 for name in layer_names}
        target[layer_names[1]] = 4
        ccq = CCQQuantizer(
            net, train, val, config=fast_config(), target_config=target
        )
        result = ccq.run()
        for name, (w_bits, _) in result.bit_config.items():
            assert w_bits == target[name]

    def test_weights_only_mode(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        train, val = tiny_loaders
        ccq = CCQQuantizer(
            net, train, val,
            config=fast_config(quantize_activations=False, max_steps=2),
        )
        result = ccq.run()
        for name, (w_bits, a_bits) in result.bit_config.items():
            assert a_bits is None
