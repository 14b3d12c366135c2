"""Deployment pipeline: CCQ -> packed integer checkpoint -> int inference.

After CCQ produces a mixed-precision network, shipping it to an edge
target means (1) storing the weights as packed integer codes and (2)
executing with integer MACs.  This example validates both halves:

* ``pack_model`` converts every quantized layer to a codebook + bit-packed
  indices and reports the *realized* (bytes-on-disk) compression next to
  the accounting number;
* ``compile_model`` lowers the whole network to the integer-only
  serving plan (int64 codes between layers, one float rescale at the
  end), whose logits are checked against the fake-quant float path the
  model trained with (``compiled.reference_model``).

Run:
    python examples/deploy_quantized.py
"""

import numpy as np

from repro import models
from repro.baselines import PretrainConfig, pretrain
from repro.core import (
    BitLadder,
    CCQConfig,
    CCQQuantizer,
    RecoveryConfig,
    model_size_report,
)
from repro.datasets import make_synthetic_cifar10
from repro.nn import no_grad
from repro.nn.data import DataLoader
from repro.nn.tensor import Tensor
from repro.quantization import pack_model, quantized_layers
from repro.serving import compile_model


def main() -> None:
    splits = make_synthetic_cifar10(
        n_train=600, n_val=200, n_test=200, image_size=12, augment=False
    )
    train = DataLoader(splits.train, batch_size=64, shuffle=True, seed=0)
    val = DataLoader(splits.val, batch_size=128)

    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    print("pretraining + CCQ (PACT, ladder 8->4->3)...")
    pretrain(net, train, val, PretrainConfig(epochs=8, lr=0.05))
    ccq = CCQQuantizer(
        net, train, val,
        config=CCQConfig(
            ladder=BitLadder((8, 4, 3)),
            probes_per_step=3, probe_batches=1,
            recovery=RecoveryConfig(mode="adaptive", max_epochs=3, slack=0.02),
            lr=0.02, target_compression=8.0, seed=0,
        ),
        policy="pact",
    )
    result = ccq.run()
    print(f"quantized accuracy {result.final_eval.accuracy:.3f}, "
          f"accounting compression {result.compression:.2f}x")

    print("\n== packing to integer storage ==")
    packed = pack_model(net)
    report = model_size_report(net)
    print(f"{'layer':<8} {'bits':>5} {'codebook':>9} {'payload':>10}")
    for name, layer in packed.layers.items():
        print(f"{name:<8} {dict(quantized_layers(net))[name].w_bits:>4}b "
              f"{len(layer.codebook):>9} {layer.payload_bytes:>9}B")
    print(f"fp32 size      {packed.fp32_bytes:>8} B")
    print(f"packed size    {packed.payload_bytes:>8} B")
    print(f"realized compression {packed.realized_compression:.2f}x "
          f"(accounting said {report.compression:.2f}x)")

    print("\n== integer-only execution check ==")
    images, _ = next(iter(val))
    calibration, x = images[:64], images[64:]
    compiled = compile_model(net, calibration)
    with no_grad():
        reference = compiled.reference_model(Tensor(x)).data
    max_err = np.abs(compiled.forward(x) - reference).max()
    print(f"{compiled.n_layers} integer stages; max |float fake-quant − "
          f"int64 plan| = {max_err:.2e}")
    assert max_err < 1e-8
    print("integer plan matches the QAT simulation.")


if __name__ == "__main__":
    main()
