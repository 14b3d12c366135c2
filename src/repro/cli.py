"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run-ccq``
    Pretrain one of the paper's network/dataset combinations and run the
    full CCQ pipeline on it, logging the step trace, the learned bit
    configuration, compression and a power summary.  With
    ``--telemetry-dir`` the run also emits structured telemetry
    (``events.jsonl`` + ``metrics.json``) for ``report-run``.

``report-run``
    Render a finished run's telemetry directory into a per-stage
    wall-clock breakdown and an accuracy/compression trajectory table
    (optionally an SVG chart).

``profile``
    Run the deterministic op-level profiler over forward (optionally
    forward+backward) passes of a task model and print per-op
    wall-clock, call counts, FLOPs and bytes-moved estimates plus the
    per-kernel table.

``watch``
    Live-monitor an in-progress ``run-ccq --telemetry-dir`` run by
    tailing its ``events.jsonl``/``metrics.json``: current step, stage,
    accuracy/compression, bit map, expert weights and pool-health
    counters, refreshed in place.  ``--serve PORT`` additionally
    exposes the snapshot over HTTP in Prometheus text format.

``serve``
    Compile a quantized demo model into the integer-only serving
    engine (``repro.serving``) and expose it over HTTP: ``POST
    /predict``, ``GET /metrics`` (Prometheus text), ``GET /healthz``.
    The micro-batcher coalesces concurrent requests; batching is
    bitwise invisible.

``bench-serve``
    Closed-loop load test of the serving engine: N concurrent clients,
    p50/p90/p99 latency, throughput, and a batch-invariance audit
    (every response replayed solo and compared bitwise).  Non-zero
    exit if any response diverges or any request fails.

``policies``
    List the registered quantization policies (plain stdout, one per
    line, for scripting).

``power``
    Print the MAC-energy table of the hardware model.

Diagnostics go through the structured logger (``--log-level`` filters
them); machine-consumable output (``policies``, the ``power`` table,
``report-run`` tables, ``--output`` JSON) stays plain stdout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Optional

from . import __version__
from .core import (
    CCQConfig,
    CCQQuantizer,
    DEFAULT_LADDER,
    LambdaSchedule,
    RecoveryConfig,
)
from .experiments import SCALES, TASK_NAMES, build_task
from .hardware import NODE_32NM, NODE_32NM_SYNTH, mac_energy_pj, network_power
from .quantization import available_policies
from .telemetry import (
    LEVELS,
    Telemetry,
    format_report,
    load_run,
    write_trajectory_svg,
)


def _cmd_policies(_: argparse.Namespace) -> int:
    # Deliberately plain stdout (no log formatting): scripts pipe this.
    for name in available_policies():
        print(name)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    # Data output, not diagnostics — stays plain like ``policies``.
    node = NODE_32NM_SYNTH if args.synth else NODE_32NM
    print(f"MAC energy per op at {node.name}:")
    for bits in (1, 2, 3, 4, 6, 8, 16, None):
        label = "fp32" if bits is None else f"int{bits}"
        print(f"  {label:>5}: {mac_energy_pj(bits, bits, node):8.4f} pJ")
    return 0


def _make_telemetry(args: argparse.Namespace) -> Telemetry:
    """One live telemetry handle for a CLI run.

    Logs go to stdout (errors to stderr); the progress line only
    engages on an interactive stderr so piped/captured output stays
    line-oriented.
    """
    return Telemetry.create(
        directory=getattr(args, "telemetry_dir", None),
        log_level=args.log_level,
        log_stream=sys.stdout,
        error_stream=sys.stderr,
        progress=(
            not getattr(args, "no_progress", False)
            and sys.stderr.isatty()
        ),
        progress_stream=sys.stderr,
    )


class _SignalGuard:
    """Graceful SIGTERM/SIGINT handling around a CCQ run.

    The first signal requests a cooperative stop: the quantizer
    finishes the step in flight, checkpoints it, journals an
    ``interrupted`` event and returns — the journal is flushed and the
    probe pool torn down by the normal ``run()`` exit path, so an
    interrupted run leaves exactly the artifacts a finished one does.
    A second signal stops waiting and raises ``KeyboardInterrupt``
    (``run()``'s ``finally`` still reaps the pool; every journal append
    is already fsynced).
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, quantizer, log) -> None:
        self._quantizer = quantizer
        self._log = log
        self._previous: dict = {}
        self.signum: Optional[int] = None

    def handle(self, signum, frame) -> None:
        if self.signum is not None:
            raise KeyboardInterrupt
        self.signum = signum
        self._quantizer.request_stop()
        self._log.warning(
            "signal received; finishing the current step, writing a "
            "final checkpoint, then exiting (repeat to abort now)",
            signal=signal.Signals(signum).name,
        )

    def __enter__(self) -> "_SignalGuard":
        for signum in self.SIGNALS:
            try:
                self._previous[signum] = signal.signal(
                    signum, self.handle
                )
            except (ValueError, OSError):
                # Not the main thread / unsupported platform: run
                # unguarded rather than refuse to run.
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass


def _cmd_run_ccq(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    telemetry = _make_telemetry(args)
    log = telemetry.logger
    try:
        task = build_task(args.task, scale=args.scale)
        log.info(f"task: {task.name} (scale {args.scale})")
        model, baseline = task.pretrained_model(
            cache_dir=args.checkpoint_dir, log=log
        )
        log.info(f"baseline accuracy: {baseline:.3f}")

        train, val = task.loaders()
        config = CCQConfig(
            ladder=DEFAULT_LADDER,
            probes_per_step=args.probes,
            probe_batches=1,
            lambda_schedule=LambdaSchedule(start=0.7, end=0.2,
                                           decay_steps=15),
            recovery=RecoveryConfig(
                mode="adaptive",
                max_epochs=task.scale.finetune_epochs + 1,
                slack=0.01,
                trainer=args.recover_trainer,
                grad_shards=args.recover_grad_shards,
            ),
            lr=args.lr,
            target_compression=args.target_compression,
            max_steps=args.max_steps,
            seed=args.seed,
            probe_cache=not args.no_probe_cache,
            probe_workers=args.probe_workers,
            probe_timeout=args.probe_timeout,
            recover_workers=args.recover_workers,
            checkpoint_dir=args.checkpoint_dir,
            max_retries=args.max_retries,
            input_shape=task.input_shape,
        )
        groups = None
        if args.block_granularity:
            from .core import residual_block_groups
            from .quantization import quantize_model

            quantize_model(model, args.policy)
            groups = residual_block_groups(model)
            log.info(f"block granularity: {len(groups)} experts")
        ccq = CCQQuantizer(
            model, train, val, config=config, policy=args.policy,
            groups=groups, telemetry=telemetry,
        )
        if (
            args.resume and ccq.store is not None
            and ccq.store.has_checkpoint()
        ):
            log.info(f"resuming from checkpoint in {args.checkpoint_dir}")
        # Per-step progress is logged live by the quantizer itself
        # (through the same logger), so no post-run replay is needed.
        with _SignalGuard(ccq, log) as guard:
            try:
                result = ccq.run(resume=args.resume)
            except KeyboardInterrupt:
                log.error(
                    "aborted by repeated signal; resume with --resume"
                )
                return 130

        log.info(f"final accuracy: {result.final_eval.accuracy:.3f} "
                 f"(degradation {baseline - result.final_eval.accuracy:+.3f})")
        log.info(f"compression:    {result.compression:.2f}x")
        log.info(
            f"probe rounds:   {result.probe_rounds} "
            f"({result.probe_forward_passes} forward passes, "
            f"{result.probe_cache_hits} cache hits)"
        )
        power = network_power(model, task.input_shape, node=NODE_32NM_SYNTH)
        power.record(telemetry)
        log.info(f"MAC power:      {power.total_watts*1e3:.3f} mW @30fps")

        if args.output:
            payload = {
                "task": task.name,
                "scale": args.scale,
                "policy": args.policy,
                "baseline": baseline,
                "final_accuracy": result.final_eval.accuracy,
                "compression": result.compression,
                "bit_config": {
                    k: list(v) for k, v in result.bit_config.items()
                },
                "probe_rounds": result.probe_rounds,
                "probe_forward_passes": result.probe_forward_passes,
                "probe_cache_hits": result.probe_cache_hits,
                "probe_workers": args.probe_workers,
                "recover_workers": args.recover_workers,
                "recover_trainer": args.recover_trainer,
            }
            if result.fanout_stats:
                payload["fanout"] = result.fanout_stats
            if telemetry.directory is not None:
                payload["telemetry_dir"] = str(telemetry.directory)
            with open(args.output, "w") as f:
                json.dump(payload, f, indent=2)
            log.info(f"wrote {args.output}")
        if telemetry.directory is not None:
            log.info(
                f"telemetry written to {telemetry.directory} "
                f"(inspect with: repro report-run {telemetry.directory})"
            )
        if guard.signum is not None:
            log.warning(
                "run interrupted by signal; checkpointed state is "
                "complete — continue with --resume"
            )
            return 128 + guard.signum
        return 0
    finally:
        telemetry.close()


def _cmd_report_run(args: argparse.Namespace) -> int:
    try:
        run = load_run(args.directory)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # The rendered report is the data output — plain stdout.
    print(format_report(run))
    if args.svg:
        written = write_trajectory_svg(run, args.svg)
        if written is not None:
            print(f"wrote {written}")
        else:
            print("no completed steps to plot; skipped SVG",
                  file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import numpy as np

    from .telemetry.profiler import profile_model

    task = build_task(args.task, scale=args.scale)
    model = task.make_model()
    if args.policy:
        from .quantization import quantize_model

        quantize_model(model, args.policy)
    _, val = task.loaders()
    images, labels = next(iter(val))
    if args.batch_size:
        images = images[: args.batch_size]
        labels = labels[: args.batch_size]
    profiler = profile_model(
        model,
        np.asarray(images),
        labels=np.asarray(labels),
        train=args.train,
        repeats=args.repeats,
        warmup=args.warmup,
    )
    if args.json:
        payload = profiler.summary()
        payload["task"] = task.name
        payload["scale"] = args.scale
        payload["batch"] = int(images.shape[0])
        payload["train"] = bool(args.train)
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
    # The table is the data output — plain stdout, like report-run.
    mode = "train (fwd+bwd)" if args.train else "inference"
    print(
        f"profile: {task.name} scale={args.scale} "
        f"batch={images.shape[0]} mode={mode} repeats={args.repeats}"
    )
    print(profiler.format_table())
    if args.json:
        print(f"wrote {args.json}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .telemetry.monitor import serve_metrics, watch

    server = None
    if args.serve is not None:
        import threading

        try:
            server = serve_metrics(
                args.directory, port=args.serve, host=args.host
            )
        except OSError as err:
            print(f"error: cannot bind {args.host}:{args.serve}: {err}",
                  file=sys.stderr)
            return 2
        host, port = server.server_address[:2]
        print(f"serving metrics on http://{host}:{port}/metrics "
              f"(state: /state)", file=sys.stderr)
        threading.Thread(
            target=server.serve_forever, daemon=True
        ).start()
    try:
        watch(
            args.directory,
            interval_s=args.interval,
            once=args.once,
            follow_until_complete=args.until_complete,
            max_seconds=args.max_seconds,
        )
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
    return 0


def _build_demo_compiled(args: argparse.Namespace):
    """Compile a self-contained quantized demo model for serving.

    The paper's headline tasks are residual ResNets, which the chain
    compiler rejects by design; the demo SmallConvNet exercises the
    full deployment path (BN folding, quantized conv/GAP chain,
    integer requantization) at CLI speed with no dataset dependency.
    Returns ``(compiled, rng)``.
    """
    import numpy as np

    from . import models
    from .nn import Tensor, no_grad
    from .quantization import quantize_model, set_uniform_bits
    from .serving import compile_model

    rng = np.random.default_rng(args.seed)
    shape = (args.calib_batch, 3, args.image_size, args.image_size)
    net = models.SmallConvNet(
        in_channels=3, num_classes=args.classes, width=args.width, rng=rng
    )
    net.train()
    with no_grad():
        for _ in range(3):  # give BN folding nontrivial running stats
            net(Tensor(rng.normal(size=shape)))
    net.eval()
    quantize_model(net, args.policy)
    set_uniform_bits(net, args.w_bits, args.a_bits)
    calibration = rng.normal(size=shape)
    with no_grad():
        net(Tensor(calibration))  # initialize lazy quantizer state (LSQ)
    return compile_model(net, calibration), rng


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import ServingEngine
    from .serving.http import make_server

    telemetry = _make_telemetry(args)
    compiled, _ = _build_demo_compiled(args)
    engine = ServingEngine(
        compiled,
        max_batch_size=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        telemetry=telemetry,
    )
    try:
        server = make_server(
            engine, telemetry.registry, host=args.host, port=args.port
        )
    except OSError as err:
        print(f"error: cannot bind {args.host}:{args.port}: {err}",
              file=sys.stderr)
        engine.close()
        return 2
    host, port = server.server_address[:2]
    print(
        f"serving {args.policy} w{args.w_bits}a{args.a_bits} SmallConvNet "
        f"(input {'x'.join(map(str, compiled.input_shape))}) on "
        f"http://{host}:{port} — POST /predict, GET /metrics, GET /healthz",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        engine.close()
        telemetry.close()
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import math

    import numpy as np

    from .serving import ServingEngine, batch_invariance_errors, run_load

    telemetry = _make_telemetry(args)
    compiled, rng = _build_demo_compiled(args)
    engine = ServingEngine(
        compiled,
        max_batch_size=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        telemetry=telemetry,
    )
    inputs = [rng.normal(size=compiled.input_shape) for _ in range(args.pool)]
    try:
        result = run_load(
            engine, inputs,
            n_clients=args.clients,
            requests_per_client=args.requests,
        )
    finally:
        engine.close()
        telemetry.close()
    mismatches = batch_invariance_errors(compiled, inputs, result)
    summary = result.summary()
    summary["batch_invariant"] = not mismatches
    summary["n_mismatches"] = len(mismatches)
    # Data output (parseable), like ``policies``/``power``.
    print(f"clients:          {result.n_clients}")
    print(f"requests:         {result.n_requests}")
    print(f"failures:         {result.n_failures}")
    print(f"throughput_rps:   {result.throughput_rps:.1f}")
    print(f"latency_p50_ms:   {result.latency_p50_ms:.3f}")
    print(f"latency_p90_ms:   {result.latency_p90_ms:.3f}")
    print(f"latency_p99_ms:   {result.latency_p99_ms:.3f}")
    print(f"batch_invariant:  {not mismatches}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    ok = (
        not mismatches
        and result.n_failures == 0
        and math.isfinite(result.latency_p99_ms)
    )
    return 0 if ok else 1


def _add_serving_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", default="pact", choices=available_policies(),
                   help="quantization policy for the demo model")
    p.add_argument("--w-bits", type=int, default=4)
    p.add_argument("--a-bits", type=int, default=4)
    p.add_argument("--width", type=int, default=8,
                   help="SmallConvNet base width")
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--calib-batch", type=int, default=8,
                   help="calibration batch size (fixes the served shape)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="micro-batch flush size")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="micro-batch flush deadline")
    p.add_argument("--telemetry-dir", default=None,
                   help="also persist metrics/events for report-run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CCQ (DAC 2020) reproduction CLI"
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--log-level", default="info",
        choices=[name for name in LEVELS if name != "silent"],
        help="minimum level for diagnostic log lines (default: info)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-ccq", help="run the full CCQ pipeline")
    p_run.add_argument("--task", choices=TASK_NAMES,
                       default="resnet20_cifar10")
    p_run.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    p_run.add_argument("--policy", default="pact")
    p_run.add_argument("--target-compression", type=float, default=9.0)
    p_run.add_argument("--max-steps", type=int, default=40)
    p_run.add_argument("--probes", type=int, default=4)
    p_run.add_argument("--lr", type=float, default=0.02)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--block-granularity", action="store_true",
        help="compete at residual-block granularity instead of per layer",
    )
    p_run.add_argument(
        "--checkpoint-dir",
        help="journal the run and write atomic checkpoints here "
             "(enables crash-safe resume; also caches the pretrained "
             "float baseline)",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint in --checkpoint-dir "
             "(starts fresh if none exists)",
    )
    p_run.add_argument(
        "--no-probe-cache", action="store_true",
        help="disable per-step probe memoization (every probe round "
             "runs a forward pass; the trajectory is identical either "
             "way — this exists for verification and benchmarking)",
    )
    p_run.add_argument(
        "--probe-workers", type=int, default=0,
        help="fan competition probes out across this many persistent "
             "worker processes (0 = serial, the default; losses are "
             "bit-identical to serial for any worker count, and the "
             "run falls back to serial if the pool cannot start)",
    )
    p_run.add_argument(
        "--probe-timeout", type=float, default=None,
        help="fixed per-candidate deadline (seconds) for pool probe "
             "evaluations; default derives it adaptively from the "
             "pinned-batch count times a measured per-batch EMA.  "
             "Trajectory-invariant (fingerprint-excluded): a timed-out "
             "candidate is re-evaluated serially with identical loss",
    )
    p_run.add_argument(
        "--recover-workers", type=int, default=0,
        help="shard recovery training batches across this many pool "
             "workers when --recover-trainer=ddp (0 = compute shards "
             "in-process, the default).  Trajectory-invariant "
             "(fingerprint-excluded): the fixed-order all-reduce makes "
             "the SGD trajectory bit-identical for any worker count",
    )
    p_run.add_argument(
        "--recover-trainer", choices=("serial", "ddp"), default="serial",
        help="recovery training strategy.  'ddp' shards every batch "
             "into --recover-grad-shards slices with a deterministic "
             "all-reduce; the shard plan changes the gradient rounding, "
             "so this IS part of the resume fingerprint (see "
             "docs/ddp.md)",
    )
    p_run.add_argument(
        "--recover-grad-shards", type=int, default=4,
        help="gradient shards per recovery batch under "
             "--recover-trainer=ddp (trajectory-DEFINING, default: 4)",
    )
    p_run.add_argument(
        "--max-retries", type=int, default=2,
        help="rollback retries for a diverged recovery stage before the "
             "step is skipped (default: 2)",
    )
    p_run.add_argument(
        "--telemetry-dir",
        help="write structured telemetry here (events.jsonl + "
             "metrics.json/csv); render later with 'repro report-run'",
    )
    p_run.add_argument(
        "--no-progress", action="store_true",
        help="disable the live progress line (it is auto-disabled when "
             "stderr is not a terminal)",
    )
    p_run.add_argument("--output", help="write a JSON summary here")
    p_run.set_defaults(func=_cmd_run_ccq)

    p_rep = sub.add_parser(
        "report-run",
        help="render a finished run's telemetry directory",
    )
    p_rep.add_argument(
        "directory",
        help="the --telemetry-dir of a finished run-ccq run",
    )
    p_rep.add_argument(
        "--svg",
        help="also write the accuracy/compression trajectory chart here",
    )
    p_rep.set_defaults(func=_cmd_report_run)

    p_prof = sub.add_parser(
        "profile",
        help="op-level profile of a task model's forward passes",
    )
    p_prof.add_argument("--task", choices=TASK_NAMES,
                        default="resnet20_cifar10")
    p_prof.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    p_prof.add_argument(
        "--policy", default=None,
        help="quantize the model with this policy before profiling "
             "(default: profile the float model)",
    )
    p_prof.add_argument(
        "--batch-size", type=int, default=None,
        help="truncate the profiled batch to this many samples "
             "(default: one full validation batch)",
    )
    p_prof.add_argument(
        "--train", action="store_true",
        help="profile grad-mode forward + cross-entropy backward "
             "instead of the no-grad inference path",
    )
    p_prof.add_argument("--repeats", type=int, default=3,
                        help="measured passes (default: 3)")
    p_prof.add_argument(
        "--warmup", type=int, default=1,
        help="un-measured warmup passes so one-time set-up (gather "
             "indices) does not skew the numbers (default: 1)",
    )
    p_prof.add_argument("--json", help="also write the summary JSON here")
    p_prof.set_defaults(func=_cmd_profile)

    p_watch = sub.add_parser(
        "watch",
        help="live-monitor an in-progress run's telemetry directory",
    )
    p_watch.add_argument(
        "directory",
        help="the --telemetry-dir of a running (or finished) run-ccq",
    )
    p_watch.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh interval in seconds (default: 1.0)",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (for scripts)",
    )
    p_watch.add_argument(
        "--until-complete", action="store_true",
        help="exit automatically when the run completes or is "
             "interrupted",
    )
    p_watch.add_argument(
        "--max-seconds", type=float, default=None,
        help="stop watching after this many seconds regardless",
    )
    p_watch.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="also serve the snapshot over HTTP: /metrics in "
             "Prometheus text format, /state as JSON (0 picks a free "
             "port)",
    )
    p_watch.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --serve (default: loopback only)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_srv = sub.add_parser(
        "serve",
        help="serve a quantized demo model over HTTP "
             "(integer-only engine)",
    )
    _add_serving_args(p_srv)
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    p_srv.add_argument("--port", type=int, default=8551,
                       help="bind port (0 picks a free port)")
    p_srv.set_defaults(func=_cmd_serve)

    p_bsrv = sub.add_parser(
        "bench-serve",
        help="closed-loop load test of the serving engine "
             "(latency percentiles + batch-invariance audit)",
    )
    _add_serving_args(p_bsrv)
    p_bsrv.add_argument("--clients", type=int, default=8,
                        help="concurrent closed-loop clients")
    p_bsrv.add_argument("--requests", type=int, default=16,
                        help="requests per client")
    p_bsrv.add_argument("--pool", type=int, default=32,
                        help="distinct inputs cycled across clients")
    p_bsrv.add_argument("--output", default=None,
                        help="also write the summary as JSON")
    p_bsrv.set_defaults(func=_cmd_bench_serve)

    p_pol = sub.add_parser("policies", help="list quantization policies")
    p_pol.set_defaults(func=_cmd_policies)

    p_pow = sub.add_parser("power", help="print the MAC energy table")
    p_pow.add_argument("--synth", action="store_true",
                       help="use the synthesis-calibrated node")
    p_pow.set_defaults(func=_cmd_power)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print; silence the
        # interpreter's own complaint on shutdown and exit cleanly.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
