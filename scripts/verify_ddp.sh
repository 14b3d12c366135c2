#!/usr/bin/env bash
# Prove data-parallel recovery training is worker-count-invariant end
# to end (docs/ddp.md):
#
#   1. CLI: a micro-scale CCQ run with --recover-trainer ddp must
#      report the identical bit configuration, accuracy, compression
#      and probe rounds for --recover-workers 0 and 2.
#   2. DDPTrainer: updated weight BYTES identical for worker counts
#      {0, 1, 2, 4}, grad_shards=1 bit-equal to the serial loop, and a
#      worker killed mid-round salvaged without perturbing a byte.
#
# Finishes in a few minutes on one CPU.  A stray resource_tracker
# KeyError traceback on stderr is expected from the killed worker.
#
#   bash scripts/verify_ddp.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "workdir: $WORK"

# Smoke scale, 12 steps: the first bit drops that actually cost
# accuracy land around step 8, so the adaptive recovery really trains
# (micro never recovers — its accuracy is flat-random).
COMMON=(run-ccq --task resnet20_cifar10 --scale smoke --probes 6
        --max-steps 12 --seed 0 --recover-trainer ddp
        --recover-grad-shards 4)

echo "== 1/3 DDP recovery in-process (--recover-workers 0) =="
python3 -m repro.cli "${COMMON[@]}" --output "$WORK/w0.json"

echo "== 2/3 DDP recovery fanned out (--recover-workers 2) =="
python3 -m repro.cli "${COMMON[@]}" --recover-workers 2 \
    --telemetry-dir "$WORK/telemetry" --output "$WORK/w2.json"

python3 - "$WORK/w0.json" "$WORK/w2.json" "$WORK/telemetry" <<'EOF'
import json
import sys
from pathlib import Path

w0, w2 = (json.load(open(path)) for path in sys.argv[1:3])

mismatches = [
    key for key in ("bit_config", "final_accuracy", "compression",
                    "probe_rounds")
    if w0[key] != w2[key]
]
if mismatches:
    for key in mismatches:
        print(f"MISMATCH {key}: workers=0 {w0[key]!r} "
              f"workers=2 {w2[key]!r}")
    sys.exit(1)

assert w0["recover_trainer"] == w2["recover_trainer"] == "ddp"
assert w2["recover_workers"] == 2

# The comparison must not be vacuous: the pooled run really sharded
# recovery batches (all-reduce rounds recorded) without falling back.
metrics = json.loads(
    (Path(sys.argv[3]) / "metrics.json").read_text()
)
hist = {h["name"]: h["count"] for h in metrics["histograms"]
        if not h.get("labels")}
batches = hist.get("ccq.recover_batch_s", 0)
assert batches > 0, "no recovery batches were DDP-sharded"
assert hist.get("ccq.recover_allreduce_s", 0) == batches, \
    "all-reduce count != sharded batch count"
fallbacks = sum(
    c["value"] for c in metrics["counters"]
    if c["name"] == "ccq.recover_pool_fallbacks"
)
assert fallbacks == 0, "pooled run fell back to in-process shards"
print(f"OK: identical CLI trajectory for --recover-workers 0 and 2 "
      f"({batches} recovery batches sharded across the pool)")
EOF

echo "== 3/3 weight-byte invariance + mid-round worker kill =="
python3 - "$WORK" <<'EOF'
import sys
from pathlib import Path

import numpy as np

import repro.parallel.worker as worker_mod
from repro import models
from repro.core import CCQConfig, RecoveryConfig
from repro.core.training import make_sgd, train_epoch
from repro.datasets.synthetic import SyntheticImageConfig, _make_splits
from repro.nn.data import DataLoader
from repro.nn.serialization import named_state_arrays
from repro.parallel import DDPTrainer, PoolExecutor
from repro.quantization import quantize_model

sys.path.insert(0, ".")
from tests.core.fault_injection import WorkerFaultInjector

work = Path(sys.argv[1])
splits = _make_splits(
    SyntheticImageConfig(n_classes=10, image_size=12, channels=3, seed=0),
    n_train=600, n_val=200, n_test=200, augment=False,
)


def build():
    net = models.SmallConvNet(width=8, rng=np.random.default_rng(0))
    quantize_model(net, "pact")
    train = DataLoader(splits.train, batch_size=64, shuffle=True, seed=0)
    return net, train, make_sgd(net, lr=0.02)


def weight_bytes(net):
    return {name: a.tobytes()
            for name, a in named_state_arrays(net).items()}


def ddp_executor(net, workers):
    """A pool executor whose trainer shards 4 ways over ``workers``."""
    return PoolExecutor(net, CCQConfig(
        recover_workers=workers,
        recovery=RecoveryConfig(trainer="ddp", grad_shards=4),
    ))


# grad_shards=1 must reproduce the serial reference loop bit for bit.
net, train, opt = build()
serial_loss = train_epoch(net, train, opt, max_batches=5)
serial_bytes = weight_bytes(net)
net, train, opt = build()
one_loss = DDPTrainer(net, grad_shards=1, workers=0)(
    net, train, opt, max_batches=5
)
assert one_loss == serial_loss and weight_bytes(net) == serial_bytes, \
    "grad_shards=1 diverged from the serial training loop"
print("OK: grad_shards=1 bit-equal to the serial loop")

# Worker-count invariance at weight-byte granularity, shards fixed.
reference = None
for workers in (0, 1, 2, 4):
    net, train, opt = build()
    if workers == 0:
        trainer = DDPTrainer(net, grad_shards=4, workers=0)
        loss = trainer(net, train, opt, max_batches=5)
    else:
        executor = ddp_executor(net, workers)
        trainer = executor.trainer
        try:
            loss = trainer(net, train, opt, max_batches=5)
        finally:
            executor.close()
        assert not executor.pool_failed, \
            f"{workers}-worker pool failed to start"
        assert not trainer.degraded, \
            f"{workers}-worker pool silently degraded"
    observed = (loss, weight_bytes(net))
    if reference is None:
        reference = observed
    else:
        assert observed == reference, \
            f"workers={workers} changed the weight bytes"
print("OK: weight bytes identical for recover_workers in {0, 1, 2, 4}")

# A worker killed on its shard is respawned/salvaged bit-identically.
worker_mod.FAULT_HOOK = WorkerFaultInjector(
    work / "faults", kill_on={(0, 1)},
)
net, train, opt = build()
executor = ddp_executor(net, 2)
try:
    loss = executor.trainer(net, train, opt, max_batches=5)
finally:
    executor.close()
worker_mod.FAULT_HOOK = None
assert (loss, weight_bytes(net)) == reference, \
    "mid-round worker kill perturbed the trajectory"
print("OK: mid-round worker kill salvaged without perturbing a byte")
EOF
