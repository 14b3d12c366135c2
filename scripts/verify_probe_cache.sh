#!/usr/bin/env bash
# Prove the probe caches are trajectory-invariant end to end through
# the CLI:
#
#   1. cached:   a micro-scale CCQ run with probe memoization (default)
#   2. uncached: the identical run with --no-probe-cache
#   3. lsq:      the run under LSQ, whose quantizers keep per-bit state
#   4. lsq-nowq: the LSQ run with --no-qweight-cache
#
# Runs 1 and 2 must report the identical bit configuration, final
# accuracy and compression, while the cached run executes strictly
# fewer probe forward passes over the same number of probe rounds.
# Runs 3 and 4 must report the identical bit configuration, final
# accuracy and compression; only their cache counters may differ.
# Finishes in about a minute on one CPU.
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

echo "== 3/4 LSQ run (quantized-weight cache on, the default) =="
python3 -m repro.cli "${COMMON[@]}" --policy lsq --output "$WORK/lsq.json"

echo "== 4/4 LSQ run (--no-qweight-cache) =="
python3 -m repro.cli "${COMMON[@]}" --policy lsq --no-qweight-cache \
    --output "$WORK/lsq_nowq.json"

python3 - "$WORK/cached.json" "$WORK/uncached.json" \
    "$WORK/lsq.json" "$WORK/lsq_nowq.json" <<'EOF'
import json
import sys

cached, uncached, lsq, lsq_nowq = (
    json.load(open(path)) for path in sys.argv[1:5]
)

lsq_mismatches = [
    key for key in ("bit_config", "final_accuracy", "compression")
    if lsq[key] != lsq_nowq[key]
]
if lsq_mismatches:
    for key in lsq_mismatches:
        print(f"MISMATCH lsq {key}: qweight cache on={lsq[key]!r} "
              f"off={lsq_nowq[key]!r}")
    sys.exit(1)

mismatches = [
    key for key in ("bit_config", "final_accuracy", "compression")
    if cached[key] != uncached[key]
]
if mismatches:
    for key in mismatches:
        print(f"MISMATCH {key}: cached={cached[key]!r} "
              f"uncached={uncached[key]!r}")
    sys.exit(1)

rounds = cached["probe_rounds"]
if rounds != uncached["probe_rounds"]:
    print(f"MISMATCH probe_rounds: cached={rounds} "
          f"uncached={uncached['probe_rounds']}")
    sys.exit(1)
if uncached["probe_forward_passes"] != rounds:
    print(f"uncached run should evaluate every round: "
          f"{uncached['probe_forward_passes']} passes != {rounds} rounds")
    sys.exit(1)
if cached["probe_forward_passes"] >= uncached["probe_forward_passes"]:
    print(f"no forward-pass reduction: cached ran "
          f"{cached['probe_forward_passes']} passes, uncached "
          f"{uncached['probe_forward_passes']}")
    sys.exit(1)

saved = uncached["probe_forward_passes"] - cached["probe_forward_passes"]
print(f"OK: identical trajectory; cache saved {saved}/{rounds} probe "
      f"forward passes ({cached['probe_cache_hits']} hits)")
print(f"OK: LSQ identical with the quantized-weight cache on and off "
      f"({lsq['qweight_cache_hits']} vs {lsq_nowq['qweight_cache_hits']} "
      f"hits)")
EOF
