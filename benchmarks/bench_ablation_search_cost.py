"""Ablation: CCQ's online competition vs HAQ-style RL search, iso-cost.

The paper's related-work section argues that RL-based mixed-precision
search (HAQ/ReLeQ) pays a vast exploration cost — every episode is a full
quantize + fine-tune rollout — while CCQ's competition only needs cheap
validation feed-forwards, spending its training budget exclusively on
recovery that directly improves the final network.

Protocol: run CCQ to a target compression and count every fine-tuning
epoch it consumed; give the HAQ searcher (REINFORCE over per-layer bit
menus with budget repair, ``repro.baselines.haq``) the *same* number of
fine-tuning epochs; compare the best accuracy each method delivers at
comparable compression.

Shape claims checked:
  * both reach the compression target;
  * at iso training cost, CCQ's accuracy >= HAQ's best (small slack);
  * CCQ's extra search overhead is feed-forward probes only;
  * the parallel probe backend (``probe_workers=2``) lands on the
    bit-identical trajectory, and its probe-stage wall-clock ratio is
    *recorded* (on a single-CPU container the fan-out cannot beat
    serial, so no speedup is asserted);
  * the serial path's quantized-weight cache sees real traffic.
"""

import time

from repro.baselines import HAQConfig, haq_search
from repro.core import (
    CCQConfig,
    CCQQuantizer,
    DEFAULT_LADDER,
    LambdaSchedule,
    RecoveryConfig,
)
from repro.core.training import make_sgd, train_epoch
from repro.parallel import PoolExecutor
from repro.quantization import quantize_model
from repro.telemetry import Telemetry

TARGET_COMPRESSION = 9.0


def run_ccq(task, telemetry=None, probe_workers=0) -> dict:
    model, baseline = task.pretrained_model()
    train, val = task.loaders()
    config = CCQConfig(
        ladder=DEFAULT_LADDER,
        probes_per_step=4,
        probe_batches=1,
        lambda_schedule=LambdaSchedule(start=0.7, end=0.2, decay_steps=15),
        recovery=RecoveryConfig(
            mode="adaptive", max_epochs=task.scale.finetune_epochs + 1,
            slack=0.01,
        ),
        lr=0.02,
        initial_recovery_epochs=1,
        target_compression=TARGET_COMPRESSION,
        max_steps=30,
        seed=0,
        probe_workers=probe_workers,
    )
    ccq = CCQQuantizer(model, train, val, config=config, policy="pact",
                       telemetry=telemetry)
    result = ccq.run()
    epochs = config.initial_recovery_epochs + sum(
        r.recovery.epochs_used for r in result.records
    )
    probe_stage_s = None
    if telemetry is not None and getattr(telemetry, "enabled", False):
        probe_stage_s = sum(
            telemetry.histogram("ccq.probe_stage_s").values
        )
    qweight_total = (
        result.qweight_cache_hits + result.qweight_cache_misses
    )
    return {
        "baseline": baseline,
        "accuracy": result.final_eval.accuracy,
        "compression": result.compression,
        "training_epochs": epochs,
        "probe_rounds": result.probe_rounds,
        "probe_forward_passes": result.probe_forward_passes,
        "probe_cache_hits": result.probe_cache_hits,
        # Measured probe-stage speedup from per-step memoization: the
        # rounds the competition issued over the forward passes that
        # actually ran (cache hits are effectively free).
        "probe_cache_speedup": (
            result.probe_rounds / result.probe_forward_passes
            if result.probe_forward_passes else 1.0
        ),
        "probe_workers": probe_workers,
        # Summed wall-clock of every step's probe stage (None when the
        # run had no live telemetry to time it).
        "probe_stage_s": probe_stage_s,
        "qweight_cache_hits": result.qweight_cache_hits,
        "qweight_cache_misses": result.qweight_cache_misses,
        "qweight_hit_rate": (
            result.qweight_cache_hits / qweight_total
            if qweight_total else 0.0
        ),
        "bit_config": {
            k: list(v) for k, v in result.bit_config.items()
        },
    }


def run_haq(task, epoch_budget: int) -> dict:
    state_factory_model, baseline = task.pretrained_model()
    train, val = task.loaders()

    def make_pretrained():
        model, _ = task.pretrained_model()
        quantize_model(model, "pact")
        return model

    finetune_epochs = max(task.scale.finetune_epochs, 1)
    episodes = max(epoch_budget // finetune_epochs, 2)
    result = haq_search(
        make_pretrained, train, val,
        HAQConfig(
            episodes=episodes,
            finetune_epochs=finetune_epochs,
            bit_menu=(2, 3, 4, 8),
            target_compression=TARGET_COMPRESSION,
            seed=0,
        ),
    )
    return {
        "baseline": baseline,
        "accuracy": result.best.accuracy,
        "compression": result.best.compression,
        "training_epochs": result.search_cost_epochs,
        "episodes": episodes,
    }


def measure_recovery_wallclock(task, n_batches: int = 8) -> dict:
    """Recovery-stage wall-clock: serial loop vs 2-worker DDP sharding.

    Both trainers start from the same freshly quantized state and
    consume the identical batch sequence; the DDP pass also reports its
    measured all-reduce overhead (gradient fold + BN replay) from the
    ``ccq.recover_allreduce_s`` histogram.  Pool startup happens before
    the timer — a run amortises the fork over many epochs.
    """

    def fresh():
        model, _ = task.pretrained_model()
        quantize_model(model, "pact")
        train, _ = task.loaders()
        return model, train, make_sgd(model, lr=0.02)

    model, train_loader, optimizer = fresh()
    t0 = time.perf_counter()
    train_epoch(model, train_loader, optimizer, max_batches=n_batches)
    serial_s = time.perf_counter() - t0

    model, train_loader, optimizer = fresh()
    telemetry = Telemetry.in_memory()
    executor = PoolExecutor(
        model,
        CCQConfig(
            recover_workers=2,
            recovery=RecoveryConfig(trainer="ddp", grad_shards=4),
        ),
        telemetry=telemetry,
    )
    executor.ensure_pool()
    try:
        t0 = time.perf_counter()
        executor.trainer(
            model, train_loader, optimizer, max_batches=n_batches
        )
        ddp_s = time.perf_counter() - t0
        degraded = executor.pool_failed or executor.trainer.degraded
    finally:
        executor.close()
    allreduce_s = sum(
        telemetry.histogram("ccq.recover_allreduce_s").values
    )
    telemetry.close()
    return {
        "n_batches": n_batches,
        "recover_serial_s": serial_s,
        "recover_ddp2_s": ddp_s,
        # Recorded, never asserted: on a single-CPU container the two
        # shard workers time-slice one core, so a ratio below 1.0 is
        # expected there and >= 1.4x on real multi-core.
        "recover_speedup": serial_s / ddp_s if ddp_s else None,
        "allreduce_overhead_s": allreduce_s,
        "pool_degraded": degraded,
    }


def bench_ablation_search_cost(benchmark, get_task, record_result):
    task = get_task("resnet20_cifar10")
    telemetry = record_result.telemetry("ablation_search_cost")

    def run():
        ccq = run_ccq(task, telemetry=telemetry)
        # Same search again through the multiprocess probe backend, with
        # its own in-memory telemetry so the probe-stage timings of the
        # two modes never mix.
        par_telemetry = Telemetry.in_memory()
        try:
            ccq_par = run_ccq(task, telemetry=par_telemetry,
                              probe_workers=2)
        finally:
            par_telemetry.close()
        haq = run_haq(task, epoch_budget=ccq["training_epochs"])
        recovery = measure_recovery_wallclock(task)
        return {"ccq": ccq, "ccq_parallel": ccq_par, "haq": haq,
                "recovery_wallclock": recovery}

    data = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nAblation — search cost: CCQ vs HAQ-style RL at iso training budget")
    for method in ("ccq", "haq"):
        d = data[method]
        extra = (
            f"{d['probe_forward_passes']}/{d['probe_rounds']} feed-forward "
            f"probes ({d['probe_cache_hits']} cached, "
            f"{d['probe_cache_speedup']:.2f}x probe speedup)"
            if method == "ccq"
            else f"{d['episodes']} episodes"
        )
        print(
            f"{method.upper():<4} acc {d['accuracy']*100:6.2f}%  "
            f"compr {d['compression']:5.2f}x  "
            f"training epochs {d['training_epochs']:3d}  ({extra})"
        )

    ccq, ccq_par, haq = data["ccq"], data["ccq_parallel"], data["haq"]
    serial_s = ccq["probe_stage_s"]
    parallel_s = ccq_par["probe_stage_s"]
    # Recorded, never asserted: on a single-CPU container the fan-out
    # pays process overhead with no cores to amortise it, so a ratio
    # below 1.0 is expected there and above 1.0 on real multi-core.
    ratio = (
        serial_s / parallel_s
        if serial_s and parallel_s else None
    )
    data["probe_wallclock"] = {
        "serial_probe_stage_s": serial_s,
        "parallel_probe_stage_s": parallel_s,
        "parallel_over_serial_speedup": ratio,
    }
    print(
        f"probe stage wall-clock: serial {serial_s:.2f}s, "
        f"--probe-workers 2 {parallel_s:.2f}s "
        f"(speedup {ratio:.2f}x, recorded not asserted); "
        f"serial qweight cache {ccq['qweight_cache_hits']} hits / "
        f"{ccq['qweight_cache_misses']} misses "
        f"({ccq['qweight_hit_rate']*100:.0f}% hit rate)"
    )
    recovery = data["recovery_wallclock"]
    print(
        f"recovery stage wall-clock ({recovery['n_batches']} batches): "
        f"serial {recovery['recover_serial_s']:.2f}s, "
        f"--recover-workers 2 {recovery['recover_ddp2_s']:.2f}s "
        f"(speedup {recovery['recover_speedup']:.2f}x, recorded not "
        f"asserted); all-reduce overhead "
        f"{recovery['allreduce_overhead_s']:.3f}s"
    )
    record_result("ablation_search_cost", data)

    # CCQ may stop on the step budget slightly short of the 9x target;
    # both must land in the same compression regime for a fair read.
    assert ccq["compression"] >= 6.0
    assert haq["compression"] >= 6.0
    # Iso-cost: CCQ's gradual path ends at least as high as the RL search.
    assert ccq["accuracy"] >= haq["accuracy"] - 0.02
    # The parallel backend must land on the bit-identical trajectory,
    # only ever evaluating extra speculative candidates.
    assert ccq_par["bit_config"] == ccq["bit_config"]
    assert ccq_par["accuracy"] == ccq["accuracy"]
    assert ccq_par["probe_rounds"] == ccq["probe_rounds"]
    assert ccq_par["probe_forward_passes"] >= ccq["probe_forward_passes"]
    # The frozen-layer quantized-weight cache must see real traffic on
    # the serial path.
    assert ccq["qweight_cache_hits"] > 0
