"""The probe-worker child process loop.

Each worker owns a private replica of the model (inherited through the
``fork`` at pool start) and serves two commands from its queue:

``sync``
    Re-attach (if the segment changed) the shared-memory broadcast,
    copy the frozen state into the replica, load the shipped quantizer
    states, and rebuild the pinned probe batches.  After a sync the
    replica is byte-identical to the parent's model.

``rtrain``
    One recovery shard: reload the train-broadcast state and the
    shipped quantizer states (once per batch, keyed on the batch
    sequence number), run the canonical scaled forward/backward of
    :func:`repro.parallel.ddp.compute_shard_grad` on this shard's
    slice, and ship the gradient list plus captured BatchNorm batch
    statistics.  The parent folds shards in canonical order, so which
    worker ran which shard is invisible to the trajectory.

``eval``
    Set one candidate's layers to its probed bit width, run the exact
    serial evaluation (:func:`repro.core.training.evaluate` over the
    pinned batches — same reduction order, same ``no_grad`` fast path)
    with the layers' quantizers kept, and ship ``(loss, elapsed)``
    back.  A
    :class:`~repro.core.resilience.DivergenceError` is not an error
    here: its context fields are shipped so the parent can re-raise a
    faithful reconstruction at the moment the competition actually
    consumes the candidate (keeping journals identical to a serial
    run).  Any other exception is shipped as ``status="error"`` and
    makes the parent fall back to the serial path.

Workers never touch journals or checkpoints — persistence stays
single-writer in the parent.  Telemetry, by contrast, is captured
*in-process* when the parent passes a ``telemetry_dir``: each worker
runs its own registry + span tracer writing ``events-w<id>.jsonl`` and
``metrics-w<id>.json`` (single-writer per file, so there is still no
shared mutable observer state).  Eval commands carry a trace context
(``trace_id``/parent span id stamped by the parent, plus the submit
wall-clock), so a fan-out round reassembles into one coherent
cross-process trace and the queue-wait vs. compute split is measurable
— see :mod:`repro.telemetry.aggregate`.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from typing import Dict, List, Optional

import numpy as np

__all__ = ["worker_main", "PINNED_PREFIX", "DDP_PREFIX", "FAULT_HOOK"]

# Broadcast keys carrying pinned probe batches instead of model state.
PINNED_PREFIX = "pinned."

# Train-broadcast keys carrying one recovery shard's batch slice
# (``ddp.<shard>.images`` / ``ddp.<shard>.labels``) instead of model
# state.  Recovery rounds use a segment separate from the probe
# broadcast so the two layouts never thrash each other's signature.
DDP_PREFIX = "ddp."

# How long a worker blocks on its command queue before re-checking that
# the parent is still alive (so an orphaned worker exits on its own).
_POLL_S = 1.0

# Test seam for chaos/fault-injection suites.  Set (in the parent,
# before the pool forks — the child inherits it) to an object with:
#
# ``__call__(worker_id, task_id, layer_names, bits) -> Optional[str]``
#     Consulted before every evaluation; may return ``"kill"`` (the
#     worker dies with ``os._exit``), ``"hang"`` (sleeps
#     ``hang_seconds`` — the supervisor's deadline must reap it) or
#     ``"corrupt"`` (ships a schema-violating result).
# ``on_start(worker_id) -> Optional[str]`` (optional)
#     Consulted before the ready handshake; ``"kill"`` makes the
#     spawn itself fail — the mid-respawn fault.
# ``hang_seconds`` (optional, default 300)
#
# Production code never sets this; it stays None.
FAULT_HOOK = None

# Distinctive exit codes so injected deaths are recognisable in the
# drained exit statuses.
_EXIT_INJECTED_KILL = 170
_EXIT_INJECTED_START_KILL = 171


def split_broadcast(
    views: Dict[str, np.ndarray]
) -> "tuple[Dict[str, np.ndarray], List[tuple]]":
    """Split broadcast views into (model state, pinned batches).

    Pinned batches are keyed ``pinned.<i>.images`` / ``pinned.<i>.labels``
    and returned *copied* (the state is copied into the model anyway),
    so no view outlives the shared segment.
    """
    state: Dict[str, np.ndarray] = {}
    images: Dict[int, np.ndarray] = {}
    labels: Dict[int, np.ndarray] = {}
    for key, view in views.items():
        if not key.startswith(PINNED_PREFIX):
            state[key] = view
            continue
        _, index, kind = key.split(".")
        if kind == "images":
            images[int(index)] = np.array(view)
        else:
            labels[int(index)] = np.array(view)
    batches = [(images[i], labels[i]) for i in sorted(images)]
    return state, batches


def _parent_alive() -> bool:
    try:
        import multiprocessing

        parent = multiprocessing.parent_process()
        return parent is None or parent.is_alive()
    except Exception:
        # Fallback: a reparented orphan's ppid is init's.
        return os.getppid() != 1


def worker_main(
    worker_id: int,
    model,
    quantize_activations: bool,
    command_queue,
    result_pipe,
    telemetry_dir: Optional[str] = None,
    blas_threads: Optional[int] = None,
) -> None:
    """Entry point of one forked probe worker (runs until ``stop``).

    ``result_pipe`` is the write end of this worker's own result pipe.
    Messages are sent from this thread, not a queue's feeder thread,
    so an injected ``os._exit`` never lands mid-send.

    ``blas_threads`` is this worker's share of the cores; it is applied
    before the ready handshake, which reports the BLAS thread count the
    worker then runs with (``None`` when no settable BLAS is loaded).
    """
    from ..core.probe import PinnedProbeSet
    from ..core.resilience import DivergenceError
    from ..core.training import evaluate
    from ..quantization.qmodules import (
        load_quantizer_states, quantized_layers, quantizers_kept,
    )
    from ..telemetry import NULL_TELEMETRY, Telemetry
    from .cores import get_blas_threads, set_blas_threads
    from .sharedmem import attach_arrays, views_from

    telemetry = NULL_TELEMETRY
    if telemetry_dir is not None:
        try:
            telemetry = Telemetry.for_worker(telemetry_dir, worker_id)
        except OSError:
            # A worker that cannot observe must still evaluate.
            telemetry = NULL_TELEMETRY

    named_layers = quantized_layers(model)
    layers = dict(named_layers)
    shm = None
    shm_name: Optional[str] = None
    pinned: Optional[PinnedProbeSet] = None
    # Recovery-training state: a second shared segment (the train
    # broadcast), the batch sequence whose weights are currently
    # loaded, and the lazily built parameter/BN enumerations.
    train_shm = None
    train_shm_name: Optional[str] = None
    train_views: Optional[Dict[str, np.ndarray]] = None
    train_seq: Optional[int] = None
    train_params = None
    train_bn_names: Optional[Dict[int, str]] = None
    if FAULT_HOOK is not None:
        on_start = getattr(FAULT_HOOK, "on_start", None)
        if on_start is not None and on_start(worker_id) == "kill":
            os._exit(_EXIT_INJECTED_START_KILL)
    if blas_threads is not None:
        set_blas_threads(blas_threads)
    result_pipe.send(("ready", worker_id, get_blas_threads()))
    try:
        while True:
            try:
                message = command_queue.get(timeout=_POLL_S)
            except queue_module.Empty:
                if not _parent_alive():
                    break
                continue
            kind = message[0]
            if kind == "stop":
                break
            if kind == "sync":
                _, name, manifest, states, sync_seq = message
                sync_span = telemetry.span("worker_sync", sync_seq=sync_seq)
                sync_span.__enter__()
                if shm is not None and name != shm_name:
                    shm.close()
                    shm = None
                if shm is None:
                    shm, views = attach_arrays(name, manifest)
                    shm_name = name
                else:
                    # Same segment, refreshed contents: rebuild the
                    # views over the existing mapping (no re-map).
                    views = views_from(shm, manifest)
                state, batches = split_broadcast(views)
                model.load_state_dict(state)
                del state, views
                load_quantizer_states(named_layers, states)
                pinned = PinnedProbeSet(batches)
                sync_span.__exit__(None, None, None)
                telemetry.counter("worker.syncs").inc()
                # A fresh consistent snapshot after every barrier: a
                # worker killed mid-round still leaves its last synced
                # metrics behind for the aggregator.
                telemetry.write_worker_metrics()
                result_pipe.send(("synced", worker_id, sync_seq))
                continue
            if kind == "rtrain":
                (
                    _, gen, batch_seq, name, manifest,
                    states, shard_id, batch_total,
                ) = message[:8]
                trace = message[8] if len(message) > 8 else None
                outcome = {
                    "kind": "train", "task_id": shard_id,
                    "worker": worker_id, "gen": gen,
                }
                span_attrs = {
                    "task_id": shard_id, "batch_seq": batch_seq,
                    "gen": gen,
                }
                if isinstance(trace, dict):
                    for field in ("trace_id", "parent_span", "step"):
                        if trace.get(field) is not None:
                            span_attrs[field] = trace[field]
                    submitted = trace.get("submitted_ts")
                    if submitted is not None:
                        wait_s = max(0.0, time.time() - float(submitted))
                        span_attrs["queue_wait_s"] = wait_s
                        telemetry.histogram(
                            "worker.queue_wait_s"
                        ).observe(wait_s)
                if FAULT_HOOK is not None:
                    action = FAULT_HOOK(
                        worker_id, shard_id, ["__recover__"], 0
                    )
                    if action == "kill":
                        os._exit(_EXIT_INJECTED_KILL)
                    if action == "hang":
                        time.sleep(
                            getattr(FAULT_HOOK, "hang_seconds", 300.0)
                        )
                    elif action == "corrupt":
                        outcome["status"] = "ok"
                        outcome["loss"] = None  # schema violation
                        outcome["elapsed"] = 0.0
                        result_pipe.send(("result", outcome))
                        continue
                train_span = telemetry.span("worker_train", **span_attrs)
                train_span.__enter__()
                t0 = time.perf_counter()
                try:
                    from .ddp import bn_module_names, compute_shard_grad

                    if train_shm is not None and name != train_shm_name:
                        train_shm.close()
                        train_shm = None
                    if (
                        train_shm is None
                        or batch_seq != train_seq
                    ):
                        if train_shm is None:
                            train_shm, train_views = attach_arrays(
                                name, manifest
                            )
                            train_shm_name = name
                        else:
                            train_views = views_from(train_shm, manifest)
                        # One state reload per batch, however many of
                        # its shards land on this worker.
                        state = {
                            key: view
                            for key, view in train_views.items()
                            if not key.startswith(DDP_PREFIX)
                        }
                        model.load_state_dict(state)
                        del state
                        load_quantizer_states(named_layers, states)
                        train_seq = batch_seq
                    if train_params is None:
                        from ..core.training import trainable_parameters

                        train_params = trainable_parameters(model)
                        train_bn_names = bn_module_names(model)
                    images = np.array(
                        train_views[f"{DDP_PREFIX}{shard_id}.images"]
                    )
                    labels = np.array(
                        train_views[f"{DDP_PREFIX}{shard_id}.labels"]
                    )
                    outcome.update(
                        compute_shard_grad(
                            model, train_params, train_bn_names,
                            images, labels, shard_id, batch_total,
                        )
                    )
                    outcome["worker"] = worker_id
                    outcome["gen"] = gen
                except Exception as err:
                    outcome["status"] = "error"
                    outcome["message"] = repr(err)
                    outcome["elapsed"] = time.perf_counter() - t0
                status = str(outcome.get("status"))
                if getattr(train_span, "attrs", None) is not None:
                    train_span.attrs["status"] = status
                train_span.__exit__(None, None, None)
                telemetry.counter(
                    "worker.train_shards", status=status
                ).inc()
                telemetry.histogram("worker.train_s").observe(
                    float(outcome["elapsed"])
                )
                result_pipe.send(("result", outcome))
                continue
            if kind == "eval":
                _, gen, task_id, layer_names, bits = message[:5]
                trace = message[5] if len(message) > 5 else None
                outcome: Dict[str, object] = {
                    "task_id": task_id, "worker": worker_id, "gen": gen,
                }
                span_attrs: Dict[str, object] = {
                    "task_id": task_id, "bits": bits, "gen": gen,
                }
                if isinstance(trace, dict):
                    # Cross-process parenting: the parent's fan-out span
                    # id rides along so the aggregator can reattach this
                    # span under it; submitted_ts (wall clock — the only
                    # clock shared across processes) gives queue wait.
                    for field in ("trace_id", "parent_span", "step"):
                        if trace.get(field) is not None:
                            span_attrs[field] = trace[field]
                    submitted = trace.get("submitted_ts")
                    if submitted is not None:
                        wait_s = max(0.0, time.time() - float(submitted))
                        span_attrs["queue_wait_s"] = wait_s
                        telemetry.histogram(
                            "worker.queue_wait_s"
                        ).observe(wait_s)
                if FAULT_HOOK is not None:
                    action = FAULT_HOOK(
                        worker_id, task_id, layer_names, bits
                    )
                    if action == "kill":
                        os._exit(_EXIT_INJECTED_KILL)
                    if action == "hang":
                        time.sleep(
                            getattr(FAULT_HOOK, "hang_seconds", 300.0)
                        )
                    elif action == "corrupt":
                        outcome["status"] = "ok"
                        outcome["loss"] = None  # schema violation
                        outcome["elapsed"] = 0.0
                        result_pipe.send(("result", outcome))
                        continue
                eval_span = telemetry.span("worker_eval", **span_attrs)
                eval_span.__enter__()
                t0 = time.perf_counter()
                try:
                    if pinned is None:
                        raise RuntimeError("eval before first sync")
                    # Keep whole quantizer states, as the serial probe
                    # does: a bits setter would discard per-bit state
                    # (LSQ steps, LQ-Nets levels).
                    with quantizers_kept(
                        [(n, layers[n]) for n in layer_names]
                    ):
                        for n in layer_names:
                            layers[n].w_bits = bits
                            if quantize_activations:
                                layers[n].a_bits = bits
                        result = evaluate(model, pinned)
                    outcome["status"] = "ok"
                    outcome["loss"] = float(result.loss)
                except DivergenceError as err:
                    outcome["status"] = "diverged"
                    outcome["message"] = str(err)
                    outcome["stage"] = err.stage
                    outcome["batch_index"] = err.batch_index
                    outcome["value"] = err.value
                except Exception as err:
                    # Ship it instead of dying: the parent treats any
                    # non-divergence failure as "fall back to serial",
                    # and a live worker still drains its stop command.
                    outcome["status"] = "error"
                    outcome["message"] = repr(err)
                outcome["elapsed"] = time.perf_counter() - t0
                status = str(outcome.get("status"))
                if getattr(eval_span, "attrs", None) is not None:
                    eval_span.attrs["status"] = status
                eval_span.__exit__(None, None, None)
                telemetry.counter("worker.evals", status=status).inc()
                telemetry.histogram("worker.eval_s").observe(
                    float(outcome["elapsed"])
                )
                result_pipe.send(("result", outcome))
    finally:
        try:
            telemetry.write_worker_metrics()
            telemetry.close()
        except OSError:
            pass
        if shm is not None:
            pinned = None
            try:
                shm.close()
            except (OSError, BufferError):
                pass
        if train_shm is not None:
            train_views = None
            try:
                train_shm.close()
            except (OSError, BufferError):
                pass
