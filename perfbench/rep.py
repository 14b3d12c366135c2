"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, in its own process
group, and reads back the JSON it writes to ``--out``.  Modes:

- ``full``: set up, run the measured work and check its outputs;
- ``setup``: set up only, for one more ``setup_s`` sample;
- ``pretrain``: build the cached float baseline the search restores.

With ``--trace 1`` the repetition also records spans around the public
calls into each layer (see ``tracing.py``) plus the op profiler's
kernel table, and reports the per-layer metrics.  The program is only
ever driven through its public entry points: ``build_task`` /
``Task.pretrained_model``, ``CCQQuantizer``, ``compile_model`` and
``ServingEngine``.
"""

import time

_STARTED_AT = time.monotonic()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from tracing import NULL_TRACER, Tracer, self_times, span_totals  # noqa: E402

# -- workload settings ---------------------------------------------------------

# search / search_pool: Algorithm 1 on the smoke-scale ResNet-20 task, with
# run-ccq's lambda schedule and lr, paper-default competition and manual
# recovery, so every step does the same amount of work.
TASK, SCALE, POLICY = "resnet20_cifar10", "smoke", "pact"
SEARCH_STEPS = 3
POOL_WORKERS = 2
GRAD_SHARDS = 4

# serve: the `repro serve` batching defaults over a larger demo network.
# The kernels are `fast`, not the CLI's `threaded`: threaded splits every
# integer GEMM across both cores, so its figures follow the neighbours'
# load, and its closed-loop throughput was bimodal (see README.md).
SERVE_WIDTH, SERVE_IMAGE, SERVE_CLASSES, SERVE_BITS = 16, 32, 10, 4
SERVE_CALIB_BATCH = 8
MAX_BATCH, MAX_WAIT_MS, SERVE_BACKEND = 8, 2.0, "fast"
OFFERED_RATE = 60.0       # requests/s in the open loop, ~1/4 of capacity
OPEN_SHARE = 0.06         # share of --seconds the open loop lasts
CAPACITY = 200.0          # requests/s the closed loop is sized by
IN_FLIGHT = 8             # closed loop: requests kept outstanding
INPUT_POOL = 64           # distinct inputs the requests draw from
WARMUP_REQUESTS = 16
REQUEST_TIMEOUT_S = 30.0

KERNELS = ("conv2d_forward", "fused_quant_conv2d", "im2col",
           "conv2d_backward", "col2im", "gemm", "int_gemm", "int_im2col")


def serve_sizes(seconds: float) -> "tuple[int, int]":
    """(open-loop, closed-loop) requests for a run of ``seconds``."""
    n_open = max(50, round(OFFERED_RATE * OPEN_SHARE * seconds))
    n_closed = max(2 * IN_FLIGHT, round(CAPACITY * seconds))
    return n_open, n_closed


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas_info() -> Dict[str, Any]:
    """numpy/BLAS build and the BLAS thread count this process runs with."""
    import numpy as np

    info: Dict[str, Any] = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and line.split()[-1].startswith("/")})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                return info
    return info


def _kernel_metrics(profiler: Any) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name in KERNELS:
        stats = [s for (_, kernel), s in profiler.kernels.items() if kernel == name]
        metrics[f"kernel.{name}.calls"] = sum(s.calls for s in stats)
        metrics[f"kernel.{name}.busy_s"] = sum(s.total_s for s in stats)
    return metrics


def _reconcile(tracer: Tracer, start: float, end: float,
               result: Dict[str, Any]) -> Dict[str, float]:
    owned, unaccounted = self_times(tracer.spans, start, end)
    wall = end - start
    result["self_s"] = owned
    return {
        "trace.wall_s": wall,
        "trace.unaccounted_s": unaccounted,
        "trace.unaccounted_ratio": _ratio(unaccounted, wall),
    }


# -- search / search_pool ------------------------------------------------------

def _note_recover(tracer, span, args, kwargs, report) -> None:
    tracer.add("recover.epochs", report.epochs_used)


def _note_train(tracer, span, args, kwargs, loss) -> None:
    # Both trainers take (model, loader, optimizer, max_batches=...); the
    # DDP one is a method, so look the loader up instead of indexing.
    loader = next(a for a in args if hasattr(a, "dataset"))
    max_batches = kwargs.get("max_batches")
    samples = len(loader.dataset)
    if max_batches is not None:
        samples = min(samples, max_batches * loader.batch_size)
    tracer.add("train.samples", samples)


def _note_checkpoint(tracer, span, args, kwargs, _) -> None:
    store = args[0]
    seq = kwargs.get("seq", args[4] if len(args) > 4 else None)
    names = [store.STATE_FILE]
    for stem in (f"model-{seq:06d}.npz", f"optim-{seq:06d}.npz"):
        names += [stem, stem + ".sha256"]
    paths = [store.directory / n for n in names]
    tracer.add("checkpoint.bytes", sum(p.stat().st_size for p in paths if p.exists()))


def _note_collect(tracer, span, args, kwargs, report) -> None:
    tracer.lists["spec.pending"].append(len(report.outcomes))


def _note_prefetch(tracer, span, args, kwargs, _) -> None:
    # A speculative round's results reach the probe engine filtered to
    # the candidates the realized step ranks; the rest were discarded.
    pending = tracer.lists["spec.pending"]
    if pending:
        tracer.add("spec.results", pending.pop())
        tracer.add("spec.hits", len(args[1]))


def _trace_search(tracer: Tracer) -> None:
    """Wrap the public calls into every layer a CCQ search crosses."""
    import repro.core.ccq as ccq
    import repro.core.collaboration as collaboration
    from repro.core.competition import HedgeCompetition
    from repro.core.probe import ProbeEngine
    from repro.core.runstate import RunStateStore
    from repro.parallel.ddp import DDPTrainer
    from repro.parallel.pool import ProbeWorkerPool
    from repro.parallel.supervisor import PoolSupervisor

    tracer.wrap(ccq.CCQQuantizer, "run", "ccq.run")
    tracer.wrap(HedgeCompetition, "run_step", "competition")
    tracer.wrap(ProbeEngine, "evaluate", "probe")
    tracer.wrap(ProbeEngine, "prefetch", "probe.prefetch", _note_prefetch)
    for module in (ccq, collaboration):
        tracer.wrap(module, "evaluate", "evaluate")
        tracer.wrap(module, "train_epoch", "train_epoch", _note_train)
    tracer.wrap(ccq, "recover", "recover", _note_recover)
    tracer.wrap(RunStateStore, "save", "checkpoint", _note_checkpoint)
    tracer.wrap(DDPTrainer, "train_epoch", "ddp.train_epoch", _note_train)
    tracer.wrap(PoolSupervisor, "run_round", "fanout.round")
    tracer.wrap(PoolSupervisor, "start_round", "fanout.start")
    tracer.wrap(PoolSupervisor, "collect_round", "fanout.collect", _note_collect)
    tracer.wrap(PoolSupervisor, "run_train_round", "ddp.round")
    tracer.wrap(ProbeWorkerPool, "broadcast", "pool.broadcast")
    tracer.wrap(ProbeWorkerPool, "train_broadcast", "pool.broadcast")


def _search_layer_metrics(tracer: Tracer, run: Any) -> Dict[str, float]:
    totals = span_totals(tracer.spans)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def busy(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    c = tracer.counters
    fan = run.fanout_stats or {}
    qweight = run.qweight_cache_hits + run.qweight_cache_misses
    return {
        "probe.rounds": run.probe_rounds,
        "probe.forward_passes": run.probe_forward_passes,
        "probe.cache_hit_ratio": _ratio(run.probe_cache_hits, run.probe_rounds),
        "probe.busy_s": busy("probe"),
        "qweight.hit_ratio": _ratio(run.qweight_cache_hits, qweight),
        "recover.calls": calls("recover"),
        "recover.busy_s": busy("recover"),
        "recover.epochs": c["recover.epochs"],
        "train_epoch.busy_s": busy("train_epoch"),
        "train.samples_per_s": _ratio(
            c["train.samples"], busy("train_epoch") + busy("ddp.train_epoch")),
        "evaluate.calls": calls("evaluate"),
        "evaluate.busy_s": busy("evaluate"),
        "checkpoint.saves": calls("checkpoint"),
        "checkpoint.busy_s": busy("checkpoint"),
        "checkpoint.bytes": _ratio(c["checkpoint.bytes"], calls("checkpoint")),
        "fanout.rounds": fan.get("rounds", 0),
        # run_round collects through collect_round, so this is every wait.
        "fanout.wait_s": busy("fanout.collect"),
        "fanout.completed_ratio": _ratio(fan.get("completed", 0),
                                         fan.get("attempted", 0)),
        "fanout.degraded_rounds": fan.get("degraded_rounds", 0),
        "pool.respawns": fan.get("respawned", 0),
        "pool.broadcast_s": busy("pool.broadcast"),
        "ddp.busy_s": busy("ddp.train_epoch"),
        "probe.wasted_passes": run.probe_forward_passes - run.probe_cache_misses,
        "spec.useful_ratio": _ratio(c["spec.hits"], c["spec.results"]),
    }


def _search(args: argparse.Namespace, tracer: Any, result: Dict[str, Any]) -> None:
    t0 = time.monotonic()
    with tracer.span("import"):
        import repro  # noqa: F401  (the package import is part of set-up)
        from repro.core import (
            DEFAULT_LADDER,
            CCQConfig,
            CCQQuantizer,
            LambdaSchedule,
            RecoveryConfig,
        )
        from repro.core.runstate import RunStateStore
        from repro.experiments import build_task
    result["import_s"] = time.monotonic() - t0

    pooled = args.workload == "search_pool"
    cache_dir = Path(args.cache_dir)
    if not (cache_dir / "READY").exists():
        raise RuntimeError(f"no pretrained baseline in {cache_dir}")
    ckpt_dir = Path(args.work_dir) / "ckpt"
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    with tracer.span("setup.task"):
        task = build_task(TASK, SCALE)
    config = CCQConfig(
        ladder=DEFAULT_LADDER,
        probes_per_step=8,
        probe_batches=2,
        lambda_schedule=LambdaSchedule(start=0.7, end=0.2, decay_steps=15),
        recovery=RecoveryConfig(
            mode="manual", epochs=1,
            trainer="ddp" if pooled else "serial", grad_shards=GRAD_SHARDS,
        ),
        lr=0.02,
        max_steps=SEARCH_STEPS,
        seed=args.seed,
        probe_workers=POOL_WORKERS if pooled else 0,
        recover_workers=POOL_WORKERS if pooled else 0,
        checkpoint_dir=str(ckpt_dir),
        input_shape=task.input_shape,
    )
    with tracer.span("setup.restore"):
        model, _ = task.pretrained_model(cache_dir=str(cache_dir))
        train, val = task.loaders(seed=args.seed)
    with tracer.span("setup.quantize"):
        quantizer = CCQQuantizer(model, train, val, config=config, policy=POLICY)
    result["setup_s"] = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        return

    trainers: List[Any] = []
    if pooled:
        # Keep every DDP trainer the run builds, to check afterwards that
        # recovery really ran sharded on the pool.
        from repro.parallel.ddp import DDPTrainer

        build_trainer = DDPTrainer.__init__

        def keep(self, *a: Any, **kw: Any) -> None:
            build_trainer(self, *a, **kw)
            trainers.append(self)

        DDPTrainer.__init__ = keep
    profiler = None
    if tracer.enabled:
        from repro.telemetry.profiler import OpProfiler

        _trace_search(tracer)
        profiler = OpProfiler()
    start = time.monotonic()
    if profiler is not None:
        with profiler:
            run = quantizer.run()
    else:
        run = quantizer.run()
    end = time.monotonic()

    marks = [e["mono"] for e in RunStateStore(ckpt_dir).journal.events("checkpoint")]
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    result["measured_s"] = end - start
    result["step_s"] = [b - a for a, b in zip(marks, marks[1:])]
    result["steps"] = len(run.records)
    result["accuracy"] = run.final_eval.accuracy
    result["peak_rss_mb"] = _peak_rss_mb()
    result["digest"] = hashlib.sha256(json.dumps({
        "winners": [[r.layer_name, r.from_bits, r.to_bits] for r in run.records],
        "bits": {k: list(v) for k, v in run.bit_config.items()},
        "accuracy": repr(run.final_eval.accuracy),
    }, sort_keys=True).encode()).hexdigest()

    problems = result["problems"]
    if len(run.records) != SEARCH_STEPS:
        problems.append(f"ran {len(run.records)} of {SEARCH_STEPS} steps")
    if len(result["step_s"]) != SEARCH_STEPS:
        problems.append(f"journal holds {len(result['step_s'])} step checkpoints")
    if pooled:
        fan = run.fanout_stats or {}
        if not fan.get("rounds"):
            problems.append("the probe pool never fanned out")
        if fan.get("degraded_rounds"):
            problems.append(f"{fan['degraded_rounds']} fan-out rounds degraded")
        if not trainers:
            problems.append("no DDP trainer was built")
        if any(t.degraded for t in trainers):
            problems.append("DDP recovery degraded to in-process shards")
    result["attempted"] = SEARCH_STEPS
    result["failed"] = SEARCH_STEPS if problems else 0

    if tracer.enabled:
        layers = _search_layer_metrics(tracer, run)
        layers.update(_kernel_metrics(profiler))
        layers.update(_reconcile(tracer, args.spawned_at, end, result))
        layers["competition.self_s"] = result["self_s"].get("competition", 0.0)
        layers["ccq.self_s"] = result["self_s"].get("ccq.run", 0.0)
        layers["import_s"] = result["import_s"]
        result["per_layer"] = layers


# -- serve ---------------------------------------------------------------------

class _Generator:
    """The load generator: one thread (the main one) submits every request.

    Submission order is queue order, and the engine serves its queue
    first in, first out, so the traced run can map each request to the
    batch that served it.
    """

    def __init__(self, engine: Any, inputs: List[Any], tracer: Any) -> None:
        self.engine = engine
        self.inputs = inputs
        self.tracer = tracer
        self.submitted: List[float] = []
        self.open_requests: List[int] = []  # positions in ``submitted``

    def _submit(self, index: int) -> Any:
        self.submitted.append(time.monotonic())
        return self.engine.submit(self.inputs[index])

    def _result(self, future: Any) -> "tuple[Any, Optional[str]]":
        try:
            return future.result(timeout=REQUEST_TIMEOUT_S), None
        except Exception as exc:  # a failed or timed-out request is counted
            return None, f"{type(exc).__name__}: {exc}"

    def open_loop(self, indices: List[int], gaps: List[float]) -> Dict[str, Any]:
        """Send request i at its due time; time it from that due time."""
        done: List[Optional[float]] = [None] * len(indices)

        def stamp(i: int, _future: Any) -> None:
            done[i] = time.monotonic()

        futures, due, late = [], [], []
        next_due = time.monotonic()
        for i, index in enumerate(indices):
            next_due += gaps[i]
            delay = next_due - time.monotonic()
            if delay > 0:
                with self.tracer.span("generator.wait", rank=-1):
                    time.sleep(delay)
            late.append((time.monotonic() - next_due) * 1e3)
            self.open_requests.append(len(self.submitted))
            future = self._submit(index)
            future.add_done_callback(functools.partial(stamp, i))
            futures.append(future)
            due.append(next_due)
        with self.tracer.span("generator.wait", rank=-1):
            answers = [self._result(f) for f in futures]
        latencies = [
            (done[i] - due[i]) * 1e3 if err is None and done[i] is not None
            else REQUEST_TIMEOUT_S * 1e3
            for i, (_, err) in enumerate(answers)
        ]
        return {"indices": indices, "answers": answers,
                "latency_ms": latencies, "late_ms": late}

    def closed_loop(self, indices: List[int], in_flight: int) -> Dict[str, Any]:
        """Keep ``in_flight`` requests outstanding until all are answered."""
        answers: List[Any] = [None] * len(indices)
        sent_at: List[float] = [0.0] * len(indices)
        done: List[Optional[float]] = [None] * len(indices)

        def stamp(i: int, _future: Any) -> None:
            done[i] = time.monotonic()

        pending: "collections.deque" = collections.deque()

        def send(i: int) -> None:
            sent_at[i] = time.monotonic()
            future = self._submit(indices[i])
            future.add_done_callback(functools.partial(stamp, i))
            pending.append((i, future))

        start = time.monotonic()
        for i in range(min(in_flight, len(indices))):
            send(i)
        sent = len(pending)
        while pending:
            i, future = pending.popleft()
            with self.tracer.span("generator.wait", rank=-1):
                answers[i] = self._result(future)
            if sent < len(indices):
                send(sent)
                sent += 1
        latencies = [
            (done[i] - sent_at[i]) * 1e3 if err is None and done[i] is not None
            else REQUEST_TIMEOUT_S * 1e3
            for i, (_, err) in enumerate(answers)
        ]
        finished = sorted(t - start for t in done if t is not None)
        return {"indices": indices, "answers": answers, "latency_ms": latencies,
                "finished_s": finished, "duration_s": time.monotonic() - start}


def _note_forward(tracer, span, args, kwargs, out) -> None:
    tracer.lists["forward"].append((span.name, span.start, span.end, len(args[1])))


def _forward_name() -> str:
    on_engine = threading.current_thread().name == "serving-worker"
    return "engine.forward" if on_engine else "check.forward"


def _serve_layer_metrics(tracer: Tracer, gen: _Generator, start: float,
                         end: float) -> Dict[str, float]:
    """Engine metrics over the measured phases, ``start`` to ``end``."""
    batches = sorted((f for f in tracer.lists["forward"] if f[0] == "engine.forward"),
                     key=lambda f: f[1])
    # Map requests to batches in queue order to get each one's queue wait.
    served_at: List[float] = []
    for _, began, _, size in batches:
        served_at.extend([began] * size)
    waits = [(served_at[i] - gen.submitted[i]) * 1e3
             for i in gen.open_requests if i < len(served_at)]
    measured = [b for b in batches if b[1] >= start]  # the warm-up ended before
    forward_ms = [(stop - began) * 1e3 for _, began, stop, _ in measured]
    return {
        "engine.batches": len(measured),
        "engine.batch_size_mean": _ratio(sum(b[3] for b in measured), len(measured)),
        "engine.queue_wait_ms_p50": percentile(waits, 50) if waits else 0.0,
        "engine.queue_wait_ms_p99": percentile(waits, 99) if waits else 0.0,
        "engine.forward_ms_p50": percentile(forward_ms, 50) if forward_ms else 0.0,
        "engine.busy_ratio": _ratio(sum(forward_ms) / 1e3, end - start),
    }


def _serve(args: argparse.Namespace, tracer: Any, result: Dict[str, Any]) -> None:
    t0 = time.monotonic()
    with tracer.span("import"):
        import numpy as np

        import repro  # noqa: F401  (the package import is part of set-up)
        from repro import models
        from repro.nn import Tensor, no_grad
        from repro.quantization import quantize_model, set_uniform_bits
        from repro.serving import ServingEngine, batch_invariance_errors, compile_model
        from repro.serving.loadgen import ClientTrace
    result["import_s"] = time.monotonic() - t0

    # The model and its calibration are fixed; --seed draws the traffic.
    with tracer.span("setup.model"):
        rng = np.random.default_rng(0)
        shape = (SERVE_CALIB_BATCH, 3, SERVE_IMAGE, SERVE_IMAGE)
        net = models.SmallConvNet(in_channels=3, num_classes=SERVE_CLASSES,
                                  width=SERVE_WIDTH, rng=rng)
        net.train()
        with no_grad():
            for _ in range(3):  # nontrivial BatchNorm statistics to fold
                net(Tensor(rng.normal(size=shape)))
        net.eval()
        quantize_model(net, POLICY)
        set_uniform_bits(net, SERVE_BITS, SERVE_BITS)
        calibration = rng.normal(size=shape)
        with no_grad():
            net(Tensor(calibration))
    with tracer.span("compile"):
        compiled = compile_model(net, calibration)
    with tracer.span("engine.start"):
        engine = ServingEngine(compiled, max_batch_size=MAX_BATCH,
                               max_wait_ms=MAX_WAIT_MS, backend=SERVE_BACKEND)
    result["setup_s"] = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        engine.close()
        return

    traffic = np.random.default_rng(args.seed)
    inputs = [traffic.normal(size=compiled.input_shape) for _ in range(INPUT_POOL)]
    n_open, n_closed = serve_sizes(args.seconds)
    open_indices = traffic.integers(0, INPUT_POOL, size=n_open).tolist()
    gaps = traffic.exponential(1.0 / OFFERED_RATE, size=n_open).tolist()
    closed_indices = traffic.integers(0, INPUT_POOL, size=n_closed).tolist()

    profiler = None
    if tracer.enabled:
        from repro.serving.compile import CompiledModel
        from repro.telemetry.profiler import OpProfiler

        tracer.wrap(CompiledModel, "forward", _forward_name, _note_forward)
        tracer.wrap(ServingEngine, "submit", "engine.submit")
        profiler = OpProfiler()
    gen = _Generator(engine, inputs, tracer)
    try:
        with tracer.span("generator.warmup", root=True):
            gen.closed_loop([i % INPUT_POOL for i in range(WARMUP_REQUESTS)], IN_FLIGHT)
        start = time.monotonic()
        with profiler if profiler is not None else contextlib.nullcontext():
            with tracer.span("generator.open", root=True):
                opened = gen.open_loop(open_indices, gaps)
            with tracer.span("generator.closed", root=True):
                closed = gen.closed_loop(closed_indices, IN_FLIGHT)
        end = time.monotonic()
    finally:
        engine.close()

    result["latency_ms"] = closed["latency_ms"]
    result["finished_s"] = closed["finished_s"]
    result["open_latency_ms"] = opened["latency_ms"]
    result["measured_s"] = closed["duration_s"]
    result["peak_rss_mb"] = _peak_rss_mb()

    # Every response must equal the solo forward of its input, bit for bit.
    clients = []
    for phase in (opened, closed):
        trace = ClientTrace()
        for index, (out, err) in zip(phase["indices"], phase["answers"]):
            trace.input_indices.append(index)
            trace.outputs.append(out)
            trace.errors.append(err)
        clients.append(trace)
    bad = batch_invariance_errors(compiled, inputs,
                                  argparse.Namespace(clients=clients))
    errors = [e for t in clients for e in t.errors if e is not None]
    if errors:
        result["problems"].append(f"{len(errors)} requests failed, e.g. {errors[0]}")
    if len(bad) > len(errors):
        result["problems"].append(
            f"{len(bad) - len(errors)} responses differ from the solo forward")
    result["attempted"] = n_open + n_closed
    result["failed"] = len(bad)

    if tracer.enabled:
        layers = _serve_layer_metrics(tracer, gen, start, end)
        layers.update(_kernel_metrics(profiler))
        layers.update(_reconcile(tracer, args.spawned_at, end, result))
        totals = span_totals(tracer.spans)
        layers["compile.busy_s"] = totals["compile"][1]
        layers["import_s"] = result["import_s"]
        layers["generator.late_ms_p99"] = percentile(opened["late_ms"], 99)
        result["per_layer"] = layers


# -- entry point ---------------------------------------------------------------

def _pretrain(args: argparse.Namespace) -> None:
    from repro.experiments import build_task

    build_task(TASK, SCALE).pretrained_model(cache_dir=args.cache_dir)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "search_pool", "serve"))
    parser.add_argument("--mode", default="full",
                        choices=("full", "setup", "pretrain"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=_STARTED_AT,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    result: Dict[str, Any] = {"workload": args.workload, "mode": args.mode,
                              "seed": args.seed, "problems": []}
    tracer = Tracer(trace_id=f"{args.workload}-seed{args.seed}") if args.trace else NULL_TRACER
    code = 0
    try:
        if args.mode == "pretrain":
            _pretrain(args)
        elif args.workload == "serve":
            _serve(args, tracer, result)
        else:
            _search(args, tracer, result)
        result["host"] = _blas_info()
    except Exception:  # reported to run.py, which counts the repetition failed
        result["problems"].append(traceback.format_exc())
        code = 1
    if tracer.enabled and tracer.spans:
        spans_path = Path(args.out).with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    out = Path(args.out)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
