"""The persistent probe worker pool.

Parent-side orchestration of the parallel probe backend: ``fork`` the
workers once (each inherits a private replica of the model), then per
step broadcast the frozen state through shared memory and fan the
step's distinct candidates out across the workers.

Determinism contract: a worker evaluates a candidate with exactly the
serial code path (:func:`repro.core.training.evaluate` over the same
pinned batches, same reduction order, IEEE-deterministic numpy kernels),
so the loss it returns is bit-identical to what the parent would have
computed — for any worker count, including 1.  The pool never reorders
anything the competition observes: results are collected into a dict
keyed by candidate and handed to the probe engine, which serves them in
the exact order the sequential Hedge loop asks.

Failure policy: anything that goes wrong *starting* the pool (no fork
on the platform, sandbox forbids shared memory or processes) raises
:class:`PoolError` at construction.  Mid-run faults are survivable:
the pool exposes the primitives a supervisor needs to heal them —
:meth:`respawn_worker` (terminate, re-fork, re-handshake, re-sync from
the cached broadcast), :meth:`submit`/:meth:`next_message` for
salvage-aware collection, and generation-tagged results so a stale
answer from an aborted round can never be mistaken for a fresh one.
Rounds themselves are run by :mod:`repro.parallel.supervisor`.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing import connection as mp_connection
from multiprocessing import resource_tracker
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..telemetry import NULL_TELEMETRY, Telemetry
from .cores import blas_share
from .sharedmem import SharedArrayStore
from .worker import PINNED_PREFIX, worker_main

__all__ = ["PoolError", "ProbeWorkerPool", "ProbeTask"]

# (candidate key, member layer names, probed bit width)
ProbeTask = Tuple[Hashable, Sequence[str], int]

_START_TIMEOUT_S = 20.0
_RESULT_TIMEOUT_S = 120.0


class PoolError(RuntimeError):
    """The pool cannot start or cannot deliver results.

    Recoverable by design: the serial probe path computes identical
    losses, so the caller falls back instead of failing the run.
    """


class ProbeWorkerPool:
    """A persistent set of forked probe evaluators.

    Parameters
    ----------
    model:
        The live model; each worker inherits a copy-on-write replica at
        fork time and re-syncs its state from shared memory on every
        broadcast, so the fork-time snapshot's staleness never matters.
    n_workers:
        Number of worker processes (>= 1).
    quantize_activations:
        Mirror of ``CCQConfig.quantize_activations`` — whether a probe
        steps ``a_bits`` together with ``w_bits``.
    result_timeout:
        How long a broadcast waits for every worker's sync ack (the
        supervisor computes the evaluation deadlines itself).
    telemetry:
        Structured-log sink for worker lifecycle events (exit codes at
        close, respawn handshakes).  Defaults to the no-op singleton.

    Each worker runs :attr:`blas_threads` BLAS threads, its share of
    the usable cores (:func:`~repro.parallel.cores.blas_share`),
    fixed once here so a respawned worker gets the same; the count
    each worker reported in its ready handshake is kept in
    :attr:`worker_blas_threads`.
    """

    def __init__(
        self,
        model,
        n_workers: int,
        quantize_activations: bool = True,
        start_timeout: float = _START_TIMEOUT_S,
        result_timeout: float = _RESULT_TIMEOUT_S,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.result_timeout = result_timeout
        self._model = model
        self._quantize_activations = quantize_activations
        self._start_timeout = start_timeout
        self.blas_threads: Optional[int] = blas_share(n_workers)
        self.worker_blas_threads: Dict[int, Optional[int]] = {}
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Workers capture their own telemetry (events-w<id>.jsonl +
        # metrics-w<id>.json) in the parent's run directory when it has
        # one; with directory-less or disabled telemetry they stay dark.
        self._worker_telemetry_dir: Optional[str] = (
            str(self._telemetry.directory)
            if self._telemetry.enabled
            and self._telemetry.directory is not None
            else None
        )
        self._store = SharedArrayStore()
        # Recovery train rounds broadcast per-batch (state + shard
        # slices) through their own store: the probe layout and the
        # train layout differ, and sharing one segment would make each
        # broadcast a layout change (unlink + re-create) instead of an
        # in-place refresh.
        self._train_store = SharedArrayStore()
        self._workers: List[Any] = []
        self._command_queues: List[Any] = []
        # Read ends of the workers' own result pipes: a worker killed
        # mid-send tears only its pipe, never a lock the others need.
        self._result_readers: List[Any] = []
        self._closed = False
        # Messages popped while waiting for something else (e.g. a
        # healthy worker's result arriving during a respawn handshake)
        # are stashed, not dropped — that is what makes salvage work.
        self._stash: Deque[Any] = deque()
        # The last broadcast, kept so a respawned worker can be
        # re-synced without the caller re-packing the shared segment.
        self._last_sync: Optional[Tuple[str, Any, Any]] = None
        self._sync_seq = 0
        self._eval_gen = 0
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as err:
            raise PoolError(f"fork start method unavailable: {err}") from err
        try:
            # Before the first fork, so every worker shares the parent's
            # resource tracker (see sharedmem.attach_arrays).
            resource_tracker.ensure_running()
            for worker_id in range(n_workers):
                self._command_queues.append(None)
                self._result_readers.append(None)
                self._workers.append(None)
                self._spawn(worker_id)
            self._await_ready(range(n_workers), start_timeout)
        except PoolError:
            self.close()
            raise
        except Exception as err:
            self.close()
            raise PoolError(f"probe pool failed to start: {err}") from err

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        command_queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self._model, self._quantize_activations,
                  command_queue, writer,
                  self._worker_telemetry_dir, self.blas_threads),
            daemon=True,
            name=f"probe-worker-{worker_id}",
        )
        try:
            process.start()
        finally:
            # The worker holds the only write end, so its death reads
            # as end-of-file here.
            writer.close()
        self._command_queues[worker_id] = command_queue
        self._result_readers[worker_id] = reader
        self._workers[worker_id] = process

    def _retire_reader(self, worker_id: int) -> None:
        """Close a dead worker's result pipe, stashing the results it
        finished sending (a torn last message reads as end-of-file)."""
        reader = self._result_readers[worker_id]
        self._result_readers[worker_id] = None
        if reader is None:
            return
        try:
            while not self._workers[worker_id].is_alive() and reader.poll(0):
                message = reader.recv()
                if message[0] == "result":
                    self._stash.append(message)
        except (EOFError, OSError):
            pass
        reader.close()

    def _await_ready(self, worker_ids: Iterable[int], timeout: float) -> None:
        wanted = set(worker_ids)
        ready: set = set()
        deadline = time.monotonic() + timeout
        while ready < wanted:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PoolError(
                    f"probe workers failed to start within {timeout:.0f}s "
                    f"({len(ready)}/{len(wanted)} ready)"
                )
            # Read the pipes directly (NOT next_message): anything in
            # the stash was already triaged, and re-triaging it here
            # would spin on it forever without draining the pipes.
            message = self._receive(timeout=min(0.5, remaining))
            if message is None:
                # Pipes are quiet — only now is a missing worker's death
                # conclusive (its "ready" could still have been unread).
                dead = sorted(set(self.dead_workers()) & (wanted - ready))
                if dead:
                    raise PoolError(
                        f"worker(s) {dead} died before handshake"
                    )
                continue
            kind = message[0]
            if kind == "ready" and message[1] in wanted:
                ready.add(message[1])
                self.worker_blas_threads[message[1]] = message[2]
            elif kind == "result":
                # A healthy worker's result landing mid-handshake: keep
                # it for the collector.
                self._stash.append(message)
            # Stale "synced" acks (pre-respawn) are dropped.

    def respawn_worker(self, worker_id: int) -> None:
        """Terminate, re-fork, re-handshake and re-sync one worker.

        The new process inherits the *current* model replica at fork
        time and is immediately re-synced from the cached broadcast, so
        from the supervisor's point of view it is indistinguishable
        from a worker that never died.
        """
        if self._closed:
            raise PoolError("probe pool is closed")
        if not 0 <= worker_id < self.n_workers:
            raise PoolError(f"no such worker: {worker_id}")
        old = self._workers[worker_id]
        if old is not None:
            if old.is_alive():
                old.terminate()
                old.join(timeout=5.0)
                if old.is_alive() and hasattr(old, "kill"):
                    old.kill()
                    old.join(timeout=5.0)
            else:
                old.join(timeout=1.0)
            self._log_exit(worker_id, old, during="respawn")
        self._retire_reader(worker_id)
        old_queue = self._command_queues[worker_id]
        if old_queue is not None:
            try:
                old_queue.close()
            except (OSError, ValueError):
                pass
        try:
            self._spawn(worker_id)
        except Exception as err:
            raise PoolError(
                f"failed to re-fork worker {worker_id}: {err}"
            ) from err
        self._await_ready({worker_id}, self._start_timeout)
        if self._last_sync is not None:
            self.sync_worker(worker_id)

    def alive_workers(self) -> List[int]:
        return [
            worker_id
            for worker_id, process in enumerate(self._workers)
            if process is not None and process.is_alive()
        ]

    def dead_workers(self) -> List[int]:
        return [
            worker_id
            for worker_id, process in enumerate(self._workers)
            if process is not None and not process.is_alive()
        ]

    # -- broadcast -----------------------------------------------------------

    def broadcast(
        self,
        state_arrays: Dict[str, np.ndarray],
        quantizer_states: Dict[str, Dict[str, Any]],
        pinned_batches: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Ship the frozen state (parameter and buffer arrays plus
        :func:`~repro.quantization.qmodules.quantizer_states`) and the
        pinned probe batches to every worker.

        Blocks until every worker acknowledges the sync, so a
        subsequent broadcast can safely overwrite the shared block.
        """
        self._check_alive()
        # A new broadcast starts a new step: anything still stashed or
        # queued from the previous round is stale by construction.
        self._stash.clear()
        arrays: Dict[str, np.ndarray] = dict(state_arrays)
        for i, (images, labels) in enumerate(pinned_batches):
            arrays[f"{PINNED_PREFIX}{i}.images"] = images
            arrays[f"{PINNED_PREFIX}{i}.labels"] = labels
        name, manifest, _ = self._store.ensure(arrays)
        self._sync_seq += 1
        self._last_sync = (name, manifest, quantizer_states)
        for command_queue in self._command_queues:
            command_queue.put(
                ("sync", name, manifest, quantizer_states, self._sync_seq)
            )
        self._await_synced(set(range(self.n_workers)))

    def sync_worker(self, worker_id: int) -> None:
        """Re-send the cached broadcast to one (respawned) worker."""
        if self._last_sync is None:
            raise PoolError("no broadcast to re-sync from")
        name, manifest, quantizer_states = self._last_sync
        self._command_queues[worker_id].put(
            ("sync", name, manifest, quantizer_states, self._sync_seq)
        )
        self._await_synced({worker_id})

    def _await_synced(self, wanted: set) -> None:
        acked: set = set()
        deadline = time.monotonic() + self.result_timeout
        while acked < wanted:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PoolError(
                    "timed out waiting for probe worker sync ack "
                    f"({sorted(wanted - acked)} missing)"
                )
            message = self._receive(timeout=min(0.5, remaining))
            if message is None:
                dead = sorted(set(self.dead_workers()) & (wanted - acked))
                if dead:
                    raise PoolError(
                        f"worker(s) {dead} died before acking sync"
                    )
                continue
            kind = message[0]
            if kind == "synced":
                if len(message) > 2 and message[2] != self._sync_seq:
                    continue  # ack of a superseded broadcast
                if message[1] in wanted:
                    acked.add(message[1])
            elif kind == "result":
                # A straggler's result from the current round arriving
                # while a respawned worker re-syncs: keep it.
                self._stash.append(message)

    def train_broadcast(
        self, arrays: Dict[str, np.ndarray]
    ) -> Tuple[str, Any]:
        """Stage one recovery batch (state + shard slices) in shared
        memory; returns ``(segment name, manifest)`` for ``rtrain``
        submissions.

        Unlike :meth:`broadcast` there is no sync ack: workers read the
        segment lazily when their shard command arrives, and the parent
        collects every shard result (or writes the shard off) before
        the next train broadcast can overwrite the block — so no live
        reader ever races the refresh.
        """
        if self._closed:
            raise PoolError("probe pool is closed")
        name, manifest, _ = self._train_store.ensure(arrays)
        return name, manifest

    def submit_train(
        self,
        worker_id: int,
        shard_id: int,
        name: str,
        manifest: Any,
        quantizer_states: Dict[str, Dict[str, Any]],
        batch_seq: int,
        batch_total: int,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Queue one recovery shard on a specific worker.

        ``batch_seq`` keys the worker-side state reload: a worker
        running several shards of the same batch loads the broadcast
        weights once.
        """
        if self._closed:
            raise PoolError("probe pool is closed")
        message: Tuple[Any, ...] = (
            "rtrain", self._eval_gen, batch_seq, name, manifest,
            quantizer_states, shard_id, batch_total,
        )
        if trace is not None:
            stamped = dict(trace)
            stamped["submitted_ts"] = time.time()
            message = message + (stamped,)
        self._command_queues[worker_id].put(message)

    # -- evaluation ----------------------------------------------------------

    def begin_round(self) -> int:
        """Start a new evaluation round; returns its generation tag.

        Results carry the generation they were submitted under, so a
        late answer from an aborted round is recognisably stale.
        """
        self._eval_gen += 1
        return self._eval_gen

    def submit(
        self,
        worker_id: int,
        task_id: int,
        layer_names: Sequence[str],
        bits: int,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Queue one candidate evaluation on a specific worker.

        ``trace`` is an optional cross-process trace context (the
        parent's fan-out span id and step).  The submit wall clock is
        stamped here — ``time.time()`` is the only clock both sides of
        the fork share — so the worker can report how long the command
        sat in the queue before compute started.
        """
        if self._closed:
            raise PoolError("probe pool is closed")
        message: Tuple[Any, ...] = (
            "eval", self._eval_gen, task_id, list(layer_names), bits,
        )
        if trace is not None:
            stamped = dict(trace)
            stamped["submitted_ts"] = time.time()
            message = message + (stamped,)
        self._command_queues[worker_id].put(message)

    def _receive(self, timeout: float) -> Optional[Any]:
        """Take one message off the result pipes, or None on timeout.

        A pipe at end-of-file belongs to a dead worker: it is closed
        here and reads as quiet, leaving the death to the caller's
        liveness check.
        """
        readers = [r for r in self._result_readers if r is not None]
        if not readers:
            time.sleep(timeout)
            return None
        for reader in mp_connection.wait(readers, timeout):
            try:
                return reader.recv()
            except (EOFError, OSError):
                reader.close()
                self._result_readers[self._result_readers.index(reader)] = None
        return None

    def next_message(self, timeout: float) -> Optional[Any]:
        """Pop the next worker message (stash first), or None on timeout."""
        if self._stash:
            return self._stash.popleft()
        return self._receive(timeout=timeout)

    # -- plumbing ------------------------------------------------------------

    def _check_alive(self) -> None:
        if self._closed:
            raise PoolError("probe pool is closed")
        dead = [
            self._workers[w].name for w in self.dead_workers()
        ]
        if dead:
            raise PoolError(f"probe workers died: {dead}")

    def _log_exit(self, worker_id: int, process: Any, during: str) -> None:
        code = process.exitcode
        if code in (0, None):
            return
        self._telemetry.logger.warning(
            "probe worker exited abnormally",
            worker=worker_id, exitcode=code, during=during,
        )

    def close(self) -> None:
        """Stop the workers and release the shared segment (idempotent).

        Worker exit statuses are drained and nonzero codes logged
        through the structured logger — a worker that died of a signal
        or a crash should leave a trace, not vanish silently.
        """
        if self._closed:
            return
        self._closed = True
        for command_queue in self._command_queues:
            if command_queue is None:
                continue
            try:
                command_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._workers:
            if process is not None:
                process.join(timeout=5.0)
        for process in self._workers:
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for worker_id, process in enumerate(self._workers):
            if process is not None:
                self._log_exit(worker_id, process, during="close")
        for command_queue in self._command_queues:
            if command_queue is None:
                continue
            try:
                command_queue.close()
            except (OSError, ValueError):
                pass
        for reader in self._result_readers:
            if reader is not None:
                reader.close()
        self._store.unlink()
        self._train_store.unlink()

    def __del__(self) -> None:
        # Interpreter-teardown cleanup only.  Narrow catches: a
        # PoolError (or any real bug) surfacing here must not be
        # swallowed into silence the way a bare ``except Exception``
        # used to.
        try:
            self.close()
        except (OSError, ValueError, AttributeError):
            pass
