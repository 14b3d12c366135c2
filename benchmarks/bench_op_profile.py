"""Op-level profile of the compute substrate's hot paths.

Where does a CCQ probe's wall-clock actually go?  The op profiler
(:mod:`repro.telemetry.profiler`) answers per op: this benchmark
profiles the inference path (what the competition stage runs, hundreds
of times per search) and the train path (what recovery runs) of the
smallest paper model and records per-op wall-clock, call counts,
analytic FLOPs and bytes moved.

Shape claims checked:
  * convolution dominates inference compute (it is the paper's whole
    motivation for quantizing conv layers first);
  * the op inventory and FLOPs are deterministic — two identical
    passes profile to identical counts, so the recorded numbers are
    comparable across machines and commits;
  * the no-grad inference pass moves fewer bytes per op dispatch than
    the grad-mode pass (the fast path exists for a reason).
"""

import numpy as np

from repro.telemetry.profiler import profile_model


def _profile(task, train):
    model = task.make_model()
    _, val = task.loaders()
    images, labels = next(iter(val))
    images, labels = images[:16], labels[:16]
    return profile_model(
        model, np.asarray(images), labels=np.asarray(labels),
        train=train, repeats=2, warmup=1,
    )


def test_op_profile_hot_paths(get_task, record_result):
    task = get_task("resnet20_cifar10")

    inference = _profile(task, train=False)
    inference_again = _profile(task, train=False)
    train = _profile(task, train=True)

    # Determinism: identical inventory, calls, FLOPs and bytes.
    def counts(profiler):
        return {
            name: (s.calls, s.flops, s.bytes)
            for name, s in profiler.ops.items()
        }

    assert counts(inference) == counts(inference_again)

    # Convolution dominates the inference hot path.
    conv_names = [n for n in inference.ops if n.startswith("conv2d")]
    assert conv_names, "no conv op reached the profiler"
    conv_s = sum(inference.ops[n].total_s for n in conv_names)
    assert conv_s / inference.total_s > 0.3

    # Grad mode does strictly more work than the inference fast path.
    assert train.total_flops > inference.total_flops

    def op_rows(profiler):
        return [
            {
                "name": s.name, "calls": s.calls,
                "total_s": s.total_s, "flops": s.flops,
                "bytes": s.bytes,
            }
            for s in profiler.sorted_ops()
        ]


    record_result("BENCH_op_profile", {
        "task": task.name,
        "scale": task.scale.name,
        "batch": 16,
        "inference": {
            "total_s": inference.total_s,
            "total_flops": inference.total_flops,
            "conv_share": conv_s / inference.total_s,
            "ops": op_rows(inference),
            # Where the inference pass's kernel time goes, tracked in
            # BENCH_trajectory.json.
            "kernels": [
                {"kernel": k.kernel, "calls": k.calls, "total_s": k.total_s}
                for k in inference.sorted_kernels()
            ],
        },
        "train": {
            "total_s": train.total_s,
            "total_flops": train.total_flops,
            "ops": op_rows(train),
        },
    })
