"""Benchmark command: CCQ search, serial and pooled, and integer serving.

Run from the repository root::

    python3 perfbench/run.py --workload {search,search_pool,serve} \\
        --seed N --seconds S --trace {0,1}

Every repetition runs ``rep.py`` in a fresh interpreter, in its own
process group, under a timeout that kills the group.  After it exits
the group must drain: a process still alive, or a ``/dev/shm`` segment
it left, fails the repetition.  With ``--trace 0`` the command prints
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it
makes one untraced and one traced repetition of the same seed and
prints every per-layer metric plus the self-time reconciliation.  The
last line of standard output is the JSON result.  See README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SHM = Path("/dev/shm")

sys.path.insert(0, str(HERE))
from rep import OFFERED_RATE, SEARCH_STEPS, percentile, serve_sizes  # noqa: E402

RUN_BUDGET_S = 145.0        # all timed repetitions of one run end by then
PRETRAIN_TIMEOUT_S = 800.0  # the first run in a checkout builds the baseline
SETUP_TIMEOUT_S = 60.0
DRAIN_GRACE_S = 5.0         # time a finished group gets to wind down
SETUP_SAMPLES = 3           # set-ups per run; setup_s is their median
REP_TIMEOUT_S = {"search": 100.0, "search_pool": 140.0, "serve": 100.0}
# A run makes one full repetition per this many seconds of --seconds
# (at least one): a search repeats its fixed step budget, serve sizes
# its traffic from --seconds.
REP_SECONDS = {"search": 20.0, "search_pool": 40.0, "serve": 40.0}
# serve's closed loop is cut into this many consecutive segments (333
# requests, about 1.3 s, each at --seconds 40), and each of its figures
# is the median over the segments: a host stall or a burst of neighbour
# load that covers fewer than half of the segments does not move it.
SEGMENTS = 24
WORKLOADS = tuple(REP_TIMEOUT_S)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# -- host ----------------------------------------------------------------------

def _become_subreaper() -> None:
    """Adopt orphaned descendants so none can outlive its repetition unseen."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _cpu_times() -> "tuple[int, int]":
    """(total, steal) jiffies from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def _steal_pct(before: "tuple[int, int]", after: "tuple[int, int]") -> float:
    total = after[0] - before[0]
    return 100.0 * (after[1] - before[1]) / total if total else 0.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> Optional[str]:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]) == ROOT else None


def _shm() -> set:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def _processes() -> List["tuple[int, int, int, str]"]:
    """(pid, ppid, process group, state) of every process."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        rest = stat[stat.rindex(")") + 2:].split()
        found.append((int(entry), int(rest[1]), int(rest[2]), rest[0]))
    return found


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _drain(group: int) -> List[int]:
    """Wait for a finished repetition's group to empty; kill and return
    whatever is still running after the grace period."""
    me = os.getpid()
    deadline = time.monotonic() + DRAIN_GRACE_S
    while True:
        _reap()
        alive = [pid for pid, ppid, pgrp, state in _processes()
                 if state != "Z" and (pgrp == group or ppid == me)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if alive:
        time.sleep(0.1)
        _reap()
    return alive


# -- repetitions ---------------------------------------------------------------

@dataclass
class Outcome:
    """What one repetition produced, and whether it counts as failed."""

    label: str
    mode: str
    result: Dict[str, Any]
    problems: List[str]
    wall_s: float
    log: Path

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(label: str, mode: str, argv: List[str], timeout: float) -> Outcome:
    """Run ``rep.py --mode mode argv`` in a fresh interpreter and process group."""
    work = BUILD / "reps" / label
    work.mkdir(parents=True, exist_ok=True)
    out, log = work / "result.json", work / "log.txt"
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    shm_before = _shm()
    problems: List[str] = []
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), "--mode", mode, *argv,
           "--work-dir", str(work), "--out", str(out),
           "--spawned-at", repr(spawned)]
    with open(log, "w", encoding="utf-8") as log_fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log_fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            problems.append(f"timed out after {timeout:.0f} s")
        finally:
            if proc.returncode is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
    wall = time.monotonic() - spawned
    left = _drain(proc.pid)
    if left:
        problems.append(f"processes left running: {left}")
    leaked = sorted(_shm() - shm_before)
    for name in leaked:
        (SHM / name).unlink(missing_ok=True)
    if leaked:
        problems.append(f"/dev/shm segments left behind: {leaked}")
    result: Dict[str, Any] = {}
    if out.exists():
        result = json.loads(out.read_text())
        problems.extend(result.get("problems", []))
    elif not problems:
        problems.append(f"exited with code {proc.returncode} and no result")
    if proc.returncode not in (0, None) and not problems:
        problems.append(f"exited with code {proc.returncode}")
    for problem in problems:
        print(f"perfbench: {label}: {problem.strip()} (log: {log})", file=sys.stderr)
    return Outcome(label, mode, result, problems, wall, log)


def ensure_baseline(digest: str) -> Path:
    """Pretrain the ResNet-20 baseline once per checkout, outside any timing."""
    cache = BUILD / "pretrain" / digest[:16]
    if (cache / "READY").exists():
        return cache
    cache.mkdir(parents=True, exist_ok=True)
    outcome = run_child("pretrain", "pretrain", ["--workload", "search",
                                                 "--cache-dir", str(cache)],
                        PRETRAIN_TIMEOUT_S)
    if not outcome.ok:
        raise BenchError(f"pretraining the baseline failed (log: {outcome.log})")
    (cache / "READY").write_text(digest + "\n")
    return cache


class Run:
    """One invocation: the repetitions of one workload and seed."""

    def __init__(self, args: argparse.Namespace, cache: Path) -> None:
        self.args = args
        self.cache = cache
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.outcomes: List[Outcome] = []

    def rep(self, mode: str, trace: int = 0) -> Outcome:
        a = self.args
        label = f"{a.workload}-s{a.seed}-{len(self.outcomes)}-{mode}{'-traced' if trace else ''}"
        cap = SETUP_TIMEOUT_S if mode == "setup" else REP_TIMEOUT_S[a.workload]
        left = self.deadline - time.monotonic()
        if left < 5.0:
            outcome = Outcome(label, mode, {}, ["no time left in the run budget"],
                              0.0, BUILD)
        else:
            outcome = run_child(label, mode, [
                "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(trace),
                "--cache-dir", str(self.cache),
            ], min(cap, left))
        self.outcomes.append(outcome)
        return outcome


def _check_digests(reps: List[Outcome], args: argparse.Namespace) -> None:
    """Every repetition of a seed, in this run and earlier ones on the same
    source and workload settings, must reach the same search trajectory."""
    settings = hashlib.sha256((HERE / "rep.py").read_bytes()).hexdigest()
    digest_key = f"{args.workload}:{args.seed}:{args.source_digest}:{settings}"
    seen = {o.result["digest"] for o in reps if o.ok}
    ledger_path = BUILD / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if digest_key in ledger:
        seen.add(ledger[digest_key])
    if len(seen) > 1:
        problem = f"trajectory digests differ across repetitions: {sorted(seen)}"
        print(f"perfbench: {problem}", file=sys.stderr)
        for o in reps:
            o.problems.append(problem)
        return
    if seen:
        ledger[digest_key] = seen.pop()
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, ledger_path)


def _cuts(n: int) -> List[int]:
    return [n * i // SEGMENTS for i in range(SEGMENTS + 1)]


def _closed_loop(results: List[Dict[str, Any]]) -> "tuple[float, float, float]":
    """(p50, p99, throughput) of serve's closed loop, each the median over
    the segments of every repetition."""
    p50, p99, rate = [], [], []
    for r in results:
        lat, done = r["latency_ms"], [0.0] + r["finished_s"]
        cuts = _cuts(len(lat))
        for lo, hi in zip(cuts, cuts[1:]):
            if hi > lo:
                p50.append(percentile(lat[lo:hi], 50))
                p99.append(percentile(lat[lo:hi], 99))
        cuts = _cuts(len(done) - 1)
        rate += [(hi - lo) / (done[hi] - done[lo])
                 for lo, hi in zip(cuts, cuts[1:]) if done[hi] > done[lo]]
    return statistics.median(p50), statistics.median(p99), statistics.median(rate)


def _full_reps(args: argparse.Namespace) -> int:
    return max(1, int(args.seconds // REP_SECONDS[args.workload]))


def _counts(run: Run) -> "tuple[int, int]":
    """(attempted, failed) operations: search steps or served requests.

    A failed repetition fails every operation it attempted; a failed
    set-up-only repetition counts as one failed operation.
    """
    a = run.args
    per_rep = sum(serve_sizes(a.seconds)) if a.workload == "serve" else SEARCH_STEPS
    attempted = failed = 0
    for o in run.outcomes:
        n = 1 if o.mode == "setup" else o.result.get("attempted", per_rep)
        if o.mode == "setup" and o.ok:
            continue
        attempted += n
        failed += n if not o.ok else o.result.get("failed", 0)
    return attempted, failed


# -- timed run (--trace 0) -----------------------------------------------------

def timed_run(run: Run) -> "tuple[Dict[str, float], Dict[str, int], int, int]":
    """A search's figures are medians over the run's repetitions, serve's
    over the segments of its closed loop."""
    a = run.args
    reps = [run.rep("full") for _ in range(_full_reps(a))]
    for _ in range(SETUP_SAMPLES - sum(o.ok for o in run.outcomes)):
        run.rep("setup")
    setups = [o.result["setup_s"] for o in run.outcomes if o.ok]
    if a.workload != "serve":
        _check_digests(reps, a)
    good = [o.result for o in reps if o.ok]
    if not good or not setups:
        raise BenchError("no repetition completed")
    values: Dict[str, float] = {"setup_s": statistics.median(setups)}
    counts: Dict[str, int] = {"setup_s": len(setups)}
    if a.workload == "serve":
        p50, p99, throughput = _closed_loop(good)
        samples = sum(len(r["latency_ms"]) for r in good)
        opened = [x for r in good for x in r["open_latency_ms"]]
        print("open loop at %g req/s (diagnostic): latency p50 %.3f ms, "
              "p99 %.3f ms, n=%d" % (OFFERED_RATE, percentile(opened, 50),
                                     percentile(opened, 99), len(opened)))
    else:
        steps = [[x * 1e3 for x in r["step_s"]] for r in good]
        samples = sum(len(s) for s in steps)
        p50 = statistics.median(percentile(s, 50) for s in steps)
        p99 = statistics.median(percentile(s, 99) for s in steps)
        throughput = statistics.median(r["steps"] / r["measured_s"] for r in good)
    attempted, failed = _counts(run)
    values["latency_p50_ms"] = p50
    values["latency_p99_ms"] = p99
    values["throughput"] = throughput
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in good)
    values["error_rate"] = (failed + 1) / (attempted + 2)
    if a.workload == "serve":
        # Share of requests answered bit-identically to the solo forward.
        values["accuracy"] = (attempted - failed) / attempted
        counts["accuracy"] = attempted
    else:
        values["accuracy"] = good[0]["accuracy"]
        counts["accuracy"] = len(good)
    counts.update(latency_p50_ms=samples, latency_p99_ms=samples,
                  throughput=samples if a.workload == "serve" else len(good),
                  peak_rss_mb=len(good),
                  error_rate=attempted)
    return values, counts, attempted, failed


# -- traced run (--trace 1) ----------------------------------------------------

def traced_run(run: Run, names: List[str]) -> "tuple[Dict[str, float], int, int]":
    a = run.args
    plain = run.rep("full")
    before = _cpu_times()
    traced = run.rep("full", trace=1)
    steal = _steal_pct(before, _cpu_times())
    reps = [plain, traced]
    if a.workload != "serve":
        _check_digests(reps, a)
    if not traced.ok or "per_layer" not in traced.result:
        raise BenchError("the traced repetition did not complete")
    layers = traced.result["per_layer"]
    unknown = sorted(set(layers) - set(names))
    if unknown:
        raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    values = dict.fromkeys(names, 0.0)  # a layer the workload never enters reads 0
    values.update(layers)
    if plain.ok:
        values["tracing.overhead_ratio"] = (
            traced.result["measured_s"] / plain.result["measured_s"] - 1.0)
    values["host.steal_pct"] = steal
    _print_reconciliation(traced.result, values)
    attempted, failed = _counts(run)
    return values, attempted, failed


def _print_reconciliation(result: Dict[str, Any], values: Dict[str, float]) -> None:
    wall = values["trace.wall_s"]
    owned = sorted(result["self_s"].items(), key=lambda kv: -kv[1])
    print(f"self time of the traced repetition ({result['workload']}, "
          f"wall {wall:.3f} s; spans in {result.get('spans_file')}):")
    for name, seconds in owned:
        print(f"  {name:<22} {seconds:10.4f} s  {100 * seconds / wall:6.2f}%")
    unaccounted = values["trace.unaccounted_s"]
    print(f"  {'unaccounted':<22} {unaccounted:10.4f} s  {100 * unaccounted / wall:6.2f}%")
    total = sum(s for _, s in owned) + unaccounted
    print(f"  {'sum':<22} {total:10.4f} s  (covered {100 * (1 - unaccounted / wall):.2f}%"
          f", tracing overhead {100 * values['tracing.overhead_ratio']:+.1f}%)")


# -- entry point ---------------------------------------------------------------

def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stamp(args: argparse.Namespace, host: Dict[str, Any], steal: float) -> Dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "source_digest": args.source_digest,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **host,
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
        "seed": args.seed,
        "steal_pct": steal,
    }


def _on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)  # unwinds through run_child's cleanup


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a repository checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    _become_subreaper()
    spec = json.loads(spec_path.read_text())
    args.source_digest = _source_digest()
    try:
        cache = ensure_baseline(args.source_digest) if args.workload != "serve" else BUILD
        start = _cpu_times()
        run = Run(args, cache)
        if args.trace:
            metrics = spec["per_layer"]
            values, attempted, failed = traced_run(run, [m["name"] for m in metrics])
            counts: Dict[str, int] = {}
        else:
            metrics = spec["end_to_end"]
            values, counts, attempted, failed = timed_run(run)
        steal = _steal_pct(start, _cpu_times())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    host = next((o.result["host"] for o in run.outcomes if "host" in o.result), {})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(run.outcomes)} repetitions, "
          f"{sum(not o.ok for o in run.outcomes)} failed")
    print("stamp " + json.dumps(_stamp(args, host, steal), sort_keys=True))
    out: Dict[str, Dict[str, Any]] = {}
    for m in metrics:
        value = float(values[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        n = f"n={counts[m['name']]}" if m["name"] in counts else ""
        print(f"  {m['name']:<30} {value:>16.6f} {m['unit']:<6} {n}")
    correct = failed == 0 and all(o.ok for o in run.outcomes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
