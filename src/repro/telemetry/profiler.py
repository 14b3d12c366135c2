"""Op-level deterministic profiler for the numpy compute substrate.

Every differentiable op dispatches through ``Function.apply``
(:mod:`repro.nn.autograd`), which makes that one choke point the place
to measure: while a profiler is installed, each forward dispatch is
timed and fed here together with its raw inputs/output, from which the
profiler derives

* per-op **wall-clock** totals and call counts,
* **FLOPs estimates** from analytic per-op cost models (conv and GEMM
  get exact expressions; everything else falls back to one op per
  output element),
* **bytes moved** (sum of input + output array sizes — a proxy for
  memory-bandwidth pressure), and
* a per-kernel **timing table** fed by the ``@kernel`` wrapper in
  :mod:`repro.nn.kernels`.  Composite kernels
  (``conv2d_forward``) call leaf kernels (``im2col``, ``gemm``), so
  kernel times overlap — read the table as a flattened call tree, not
  as disjoint buckets.

Determinism: call counts, FLOPs and bytes are pure functions of the
model and batch shape — identical on every run — so benchmarks can
assert on them; only the wall-clock columns vary.  Installing a
profiler never changes what an op computes, so it is trajectory-neutral
by construction.  Only *forward* dispatches are profiled (the backward
tape runs through ``Function.backward`` directly, not ``apply``); for
the inference-heavy CCQ probe path that is the whole story.

Usage::

    profiler = OpProfiler()
    with profiler:
        model(x)
    print(profiler.format_table())

or, end to end on a task model, :func:`profile_model` (the engine of
the ``repro profile`` CLI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KERNEL_MODULE",
    "OpStats",
    "KernelStats",
    "OpProfiler",
    "profile_model",
    "estimate_flops",
]

#: The first element of every :attr:`OpProfiler.kernels` key.
KERNEL_MODULE = "repro.nn.kernels"


@dataclass
class OpStats:
    """Accumulated totals for one op name."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    flops: int = 0
    bytes: int = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    @property
    def gflops_per_s(self) -> float:
        return (
            self.flops / self.total_s / 1e9 if self.total_s > 0 else 0.0
        )


@dataclass
class KernelStats:
    """Accumulated totals for one kernel entry point."""

    kernel: str
    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


def _op_name(fn: type) -> str:
    return fn.__name__.lstrip("_").lower()


def _nbytes(value: Any) -> int:
    return int(value.nbytes) if isinstance(value, np.ndarray) else 0


def _conv_flops(raw_args: Sequence[Any], out: np.ndarray) -> int:
    # args: x, weight[, bias]; weight is (F, C, KH, KW); out (N, F, OH, OW)
    weight = raw_args[1]
    n, _, oh, ow = out.shape
    f, c, kh, kw = weight.shape
    flops = 2 * n * oh * ow * f * c * kh * kw
    if len(raw_args) > 2 and isinstance(raw_args[2], np.ndarray):
        flops += out.size  # bias add
    return int(flops)


def _matmul_flops(raw_args: Sequence[Any], out: np.ndarray) -> int:
    # a @ b with numpy broadcasting; k is a's last axis.
    a = raw_args[0]
    k = int(a.shape[-1]) if getattr(a, "ndim", 0) >= 1 else 1
    return int(2 * out.size * k)


def _pool_flops(raw_args: Sequence[Any], out: np.ndarray) -> int:
    # One comparison/add per kernel element per output element.  The
    # kernel rides in kwargs, which the estimator does not see — charge
    # the conservative elementwise cost instead.
    return int(out.size)


# Analytic cost models by op name; anything absent falls back to one
# FLOP per output element (the right order for elementwise kernels).
_FLOPS_ESTIMATORS: Dict[
    str, Callable[[Sequence[Any], np.ndarray], int]
] = {
    "conv2d": _conv_flops,
    "conv2dnobias": _conv_flops,
    "matmul": _matmul_flops,
    "maxpool2d": _pool_flops,
    "avgpool2d": _pool_flops,
}


def estimate_flops(
    name: str, raw_args: Sequence[Any], out: np.ndarray
) -> int:
    """FLOPs estimate for one dispatch (analytic model or elementwise)."""
    estimator = _FLOPS_ESTIMATORS.get(name)
    if estimator is not None:
        try:
            return estimator(raw_args, out)
        except (AttributeError, IndexError, TypeError, ValueError):
            pass  # malformed shapes: fall through to the generic cost
    return int(out.size)


class OpProfiler:
    """Collects per-op statistics while installed as the active profiler.

    Context-manager install/uninstall nests correctly (the previous
    profiler is restored on exit).
    """

    def __init__(self) -> None:
        self.ops: Dict[str, OpStats] = {}
        # Keyed (KERNEL_MODULE, kernel name): perfbench unpacks the
        # 2-tuple and reads the kernel name from its second element.
        self.kernels: Dict[Tuple[str, str], KernelStats] = {}
        self._previous: Optional["OpProfiler"] = None

    # -- hook API (called from Function.apply) --------------------------

    def record(
        self,
        fn: type,
        raw_args: Sequence[Any],
        out: Any,
        elapsed_s: float,
    ) -> None:
        name = _op_name(fn)
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = OpStats(name)
        stats.calls += 1
        stats.total_s += elapsed_s
        stats.max_s = max(stats.max_s, elapsed_s)
        if isinstance(out, np.ndarray):
            stats.flops += estimate_flops(name, raw_args, out)
            stats.bytes += _nbytes(out) + sum(
                _nbytes(a) for a in raw_args
            )

    def record_kernel(self, kernel: str, elapsed_s: float) -> None:
        """One kernel call — fed by the ``@kernel`` wrapper."""
        key = (KERNEL_MODULE, kernel)
        stats = self.kernels.get(key)
        if stats is None:
            stats = self.kernels[key] = KernelStats(kernel)
        stats.calls += 1
        stats.total_s += elapsed_s
        stats.max_s = max(stats.max_s, elapsed_s)

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "OpProfiler":
        from ..nn import autograd

        self._previous = autograd.set_active_profiler(self)
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        from ..nn import autograd

        autograd.set_active_profiler(self._previous)
        self._previous = None
        return False

    # -- reporting ------------------------------------------------------

    @property
    def total_s(self) -> float:
        return sum(s.total_s for s in self.ops.values())

    @property
    def total_flops(self) -> int:
        return sum(s.flops for s in self.ops.values())

    def sorted_ops(self) -> List[OpStats]:
        """Ops by total wall-clock, descending (name breaks ties)."""
        return sorted(
            self.ops.values(), key=lambda s: (-s.total_s, s.name)
        )

    def sorted_kernels(self) -> List[KernelStats]:
        """Kernel entries by total wall-clock, descending."""
        return sorted(
            self.kernels.values(),
            key=lambda s: (-s.total_s, s.kernel),
        )

    def summary(self) -> Dict[str, Any]:
        """JSON-ready dump (stable op ordering by time)."""
        return {
            "total_s": self.total_s,
            "total_flops": self.total_flops,
            "kernels": [
                {
                    "kernel": s.kernel,
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "mean_s": s.mean_s,
                    "max_s": s.max_s,
                }
                for s in self.sorted_kernels()
            ],
            "ops": [
                {
                    "name": s.name,
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "mean_s": s.mean_s,
                    "max_s": s.max_s,
                    "flops": s.flops,
                    "bytes": s.bytes,
                    "gflops_per_s": s.gflops_per_s,
                }
                for s in self.sorted_ops()
            ],
        }

    def format_table(self) -> str:
        """Plain-text per-op table for the ``repro profile`` CLI."""
        lines = [
            f"{'op':<16} {'calls':>7} {'total s':>9} {'mean ms':>9} "
            f"{'GFLOP':>9} {'GFLOP/s':>9} {'MB moved':>9} {'share':>7}"
        ]
        total = self.total_s
        for s in self.sorted_ops():
            share = s.total_s / total if total > 0 else 0.0
            lines.append(
                f"{s.name:<16} {s.calls:>7d} {s.total_s:>9.4f} "
                f"{s.mean_s * 1e3:>9.4f} {s.flops / 1e9:>9.3f} "
                f"{s.gflops_per_s:>9.2f} {s.bytes / 1e6:>9.1f} "
                f"{share:>6.1%}"
            )
        lines.append(
            f"{'total':<16} "
            f"{sum(s.calls for s in self.ops.values()):>7d} "
            f"{total:>9.4f} {'':>9} {self.total_flops / 1e9:>9.3f} "
            f"{(self.total_flops / total / 1e9) if total > 0 else 0.0:>9.2f}"
        )
        if self.kernels:
            lines.append("")
            lines.append(
                f"{'kernel':<28} {'calls':>7} {'total s':>9} "
                f"{'mean ms':>9}"
            )
            # Kernel times overlap (composite kernels call leaf
            # kernels), so there is deliberately no total row here.
            for k in self.sorted_kernels():
                lines.append(
                    f"{k.kernel:<28} {k.calls:>7d} {k.total_s:>9.4f} "
                    f"{k.mean_s * 1e3:>9.4f}"
                )
        return "\n".join(lines)


def profile_model(
    model: Any,
    images: np.ndarray,
    labels: Optional[np.ndarray] = None,
    train: bool = False,
    repeats: int = 1,
    warmup: int = 1,
) -> OpProfiler:
    """Profile forward passes of ``model`` on one batch.

    ``train=True`` (requires ``labels``) runs grad-mode forwards
    through a cross-entropy loss plus backward, so the grad-path
    dispatch cost is visible too (backward kernels themselves are not
    per-op attributed; see module docstring).  Warmup iterations run
    outside the profiler so one-time set-up (the im2col gather indices)
    does not skew small measurements.
    """
    from ..nn.autograd import backward, no_grad
    from ..nn.functional import cross_entropy
    from ..nn.tensor import Tensor

    images = np.asarray(images)

    def one_pass() -> None:
        x = Tensor(images)
        if train:
            if labels is None:
                raise ValueError("train=True requires labels")
            loss = cross_entropy(model(x), np.asarray(labels))
            backward(loss)
        else:
            with no_grad():
                model(x)

    for _ in range(max(0, warmup)):
        one_pass()
    profiler = OpProfiler()
    with profiler:
        for _ in range(max(1, repeats)):
            one_pass()
    return profiler
