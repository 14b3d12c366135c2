"""Layer-sensitivity scanning."""

import copy

import numpy as np
import pytest

from repro.core import BitLadder
from repro.core.analysis import scan_layer_sensitivity
from repro.core.training import evaluate, train_epoch
from repro.nn.optim import SGD
from repro.quantization import (
    get_bit_config, quantize_model, quantized_layers, set_uniform_bits,
    state_digest,
)

POLICIES = ["pact", "lsq", "qil", "lqnets"]


@pytest.fixture()
def quantized_pretrained(pretrained_net):
    net, baseline = pretrained_net
    quantize_model(net, "pact")
    return net, baseline


class TestScan:
    def test_probe_grid_complete(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        _, val = tiny_loaders
        ladder = BitLadder((8, 2))
        report = scan_layer_sensitivity(net, val, ladder=ladder, max_batches=1)
        layers = [n for n, _ in quantized_layers(net)]
        assert len(report.probes) == len(layers) * 2
        by_layer = report.by_layer()
        assert set(by_layer) == set(layers)

    def test_configuration_restored(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        _, val = tiny_loaders
        before = get_bit_config(net)
        scan_layer_sensitivity(net, val, ladder=BitLadder((4, 2)),
                               max_batches=1)
        assert get_bit_config(net) == before

    def test_subset_of_layers(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        _, val = tiny_loaders
        names = [n for n, _ in quantized_layers(net)][:2]
        report = scan_layer_sensitivity(
            net, val, ladder=BitLadder((4, 2)), layers=names, max_batches=1
        )
        assert set(report.by_layer()) == set(names)

    def test_unknown_layer_rejected(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        _, val = tiny_loaders
        with pytest.raises(KeyError):
            scan_layer_sensitivity(net, val, layers=["nope"])

    def test_unquantized_model_rejected(self, pretrained_net, tiny_loaders):
        from repro import models

        _, val = tiny_loaders
        net = models.SmallConvNet(width=4)
        with pytest.raises(ValueError):
            scan_layer_sensitivity(net, val)

    def test_low_bits_hurt_more(self, quantized_pretrained, tiny_loaders):
        net, _ = quantized_pretrained
        _, val = tiny_loaders
        report = scan_layer_sensitivity(net, val, ladder=BitLadder((8, 2)))
        by_layer = report.by_layer()
        # Across the whole net, 2-bit probes must hurt at least as much
        # as 8-bit probes on average.
        loss8 = np.mean([p.loss for ps in by_layer.values()
                         for p in ps if p.bits == 8])
        loss2 = np.mean([p.loss for ps in by_layer.values()
                         for p in ps if p.bits == 2])
        assert loss2 >= loss8 - 1e-6

    def test_ranking_orders_by_sensitivity(self, quantized_pretrained,
                                           tiny_loaders):
        net, _ = quantized_pretrained
        _, val = tiny_loaders
        report = scan_layer_sensitivity(net, val, ladder=BitLadder((8, 2)),
                                        max_batches=1)
        ranking = report.ranking(2)
        deltas = [delta for _, delta in ranking]
        assert deltas == sorted(deltas, reverse=True)
        robust = report.most_robust(2, k=2)
        assert len(robust) == 2
        assert robust[0] == ranking[-1][0]

    @pytest.mark.parametrize("policy, trained", [
        *(pytest.param(p, True, id=p) for p in POLICIES),
        *(pytest.param(p, False, id=f"{p}-fresh") for p in POLICIES),
    ])
    def test_scan_leaves_quantizer_state_as_found(
        self, policy, trained, pretrained_net, tiny_loaders
    ):
        """A scan must neither re-arm learned quantizer state that
        training moved away from its initialization, nor keep the
        state its own reference evaluation initializes on a freshly
        quantized model: the digest of every parameter, buffer and
        quantizer attribute, and the val score, are bitwise unchanged."""
        net, _ = pretrained_net
        train, val = tiny_loaders
        quantize_model(net, policy)
        set_uniform_bits(net, 4, 4)
        if trained:
            train_epoch(net, train, SGD(net.parameters(), lr=0.02),
                        max_batches=2)
        before = state_digest(net)
        before_eval = evaluate(copy.deepcopy(net), val)
        scan_layer_sensitivity(net, val, max_batches=1)
        assert state_digest(net) == before
        after_eval = evaluate(net, val)
        assert (after_eval.loss, after_eval.accuracy) == (
            before_eval.loss, before_eval.accuracy
        )
