#!/usr/bin/env bash
# Prove the probe cache is trajectory-invariant end to end through the
# CLI, on a stateless and on a stateful quantizer:
#
#   1. cached:      a micro-scale CCQ run with probe memoization (default)
#   2. uncached:    the identical run with --no-probe-cache
#   3. lsq:         the run under LSQ, whose quantizers keep per-bit state
#   4. lsq-nocache: the LSQ run with --no-probe-cache
#
# Each pair (1 and 2, 3 and 4) must report the identical bit
# configuration, final accuracy, compression and probe rounds, while
# the cached run executes strictly fewer probe forward passes and the
# uncached one evaluates every round.  Finishes in about a minute on
# one CPU.
#
#   bash scripts/verify_probe_cache.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "workdir: $WORK"

# --probes above the expert count forces within-step repeats, so the
# cache has hits to serve (6 rounds over fewer distinct candidates).
COMMON=(run-ccq --task resnet20_cifar10 --scale micro --probes 6
        --max-steps 4 --seed 0)

echo "== 1/4 cached run (probe memoization on, the default) =="
python3 -m repro.cli "${COMMON[@]}" --output "$WORK/cached.json"

echo "== 2/4 uncached run (--no-probe-cache) =="
python3 -m repro.cli "${COMMON[@]}" --no-probe-cache \
    --output "$WORK/uncached.json"

echo "== 3/4 LSQ run (probe memoization on) =="
python3 -m repro.cli "${COMMON[@]}" --policy lsq --output "$WORK/lsq.json"

echo "== 4/4 LSQ run (--no-probe-cache) =="
python3 -m repro.cli "${COMMON[@]}" --policy lsq --no-probe-cache \
    --output "$WORK/lsq_uncached.json"

python3 - "$WORK" <<'EOF'
import json
import sys

work = sys.argv[1]


def load(name):
    with open(f"{work}/{name}.json") as f:
        return json.load(f)


def check(label, cached, uncached):
    mismatches = [
        key for key in ("bit_config", "final_accuracy", "compression",
                        "probe_rounds")
        if cached[key] != uncached[key]
    ]
    for key in mismatches:
        print(f"MISMATCH {label} {key}: cached={cached[key]!r} "
              f"uncached={uncached[key]!r}")
    if mismatches:
        sys.exit(1)
    rounds = cached["probe_rounds"]
    if uncached["probe_forward_passes"] != rounds:
        print(f"{label}: uncached run should evaluate every round: "
              f"{uncached['probe_forward_passes']} passes != {rounds} "
              f"rounds")
        sys.exit(1)
    if cached["probe_forward_passes"] >= rounds:
        print(f"{label}: no forward-pass reduction: cached ran "
              f"{cached['probe_forward_passes']} passes over {rounds} "
              f"rounds")
        sys.exit(1)
    saved = rounds - cached["probe_forward_passes"]
    print(f"OK: {label} identical trajectory; cache saved "
          f"{saved}/{rounds} probe forward passes "
          f"({cached['probe_cache_hits']} hits)")


check("pact", load("cached"), load("uncached"))
check("lsq", load("lsq"), load("lsq_uncached"))
EOF
