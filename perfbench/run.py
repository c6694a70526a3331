"""vrusim benchmark: run one workload for a fixed time and check its outputs.

    python3 perfbench/run.py --workload sweep-replay --seed 1 --seconds 40 --trace 0

Run from anywhere; vrusim is imported from ``src/`` of the checkout this
file sits in, and every file the run writes goes under ``perfbench/work/``.
The seed picks the generated inputs (see ``gen.py``).  Each iteration's
reports are checked against ``golden/<workload>.json``; every report write
and every digest comparison is one operation, and a mismatch is a failed
one, named by file.

``--trace 0`` repeats the workload until the next iteration would end after
``--seconds``; before each iteration it sets up ``SETUP_ROUND`` times, so
the set-ups are spread over the run like the iterations, and the iteration
uses the last of them.  It reports medians of the end-to-end metrics, each
timing scaled to a host of fixed speed by the reference samples taken in
its own stretch of the run (see ``host.py``).
``--trace 1`` runs the workload at one worker, alternating ``TRACED_RUNS``
untraced and as many traced iterations, checks that every per-layer count
repeats exactly between the traced ones, writes the spans to
``perfbench/work/trace-<workload>.jsonl`` and reports the per-layer metrics
with the tracing overhead (median traced minus median untraced ``run_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from host import HostSampler, scale
from layers import layer_metrics, repeatable_counts
from spans import Tracer
from workloads import HERE, ROOT, WORKLOADS, Ledger, check, iterate, setup, tree_size

SETUP_ROUND = 10
TRACED_RUNS = 2
WORK_ROOT = HERE / "work"

_COUNT_SUFFIXES = ("_calls", "_runs", ".cells", ".detections", ".replays",
                   ".observe_passes", ".files_written", ".spans", ".operations")


def unit_of(name: str) -> str:
    if name == "scored_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", "_s_p50", "_s_max")):
        return "s"
    if name.endswith("bytes_written") or name.endswith("task_bytes"):
        return "B"
    if name.endswith(_COUNT_SUFFIXES):
        return "count"
    return "ratio"


def metadata() -> dict:
    """Run facts printed beside the numbers; informational, never gated."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        head = "none"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "vrusim").glob("*.py"))
    )
    return {
        "head": head,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process plus, with workers, that of its
    largest child.

    An approximation of the process and its workers: with two workers only
    the larger counts, and a forked worker's peak includes pages it shares
    with this process.  At one worker no child counts: the children's peak
    also covers those of a launcher that ran before ``exec`` (a version
    manager's ``python3`` shim does), which are no part of the program.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + child) / 1024.0


def setup_round(wl, inputs, times: list[dict], sampler: HostSampler | None = None) -> tuple:
    """``SETUP_ROUND`` set-ups; returns the modules and state of the last.

    An iteration must use the last set-up: each one imports vrusim afresh,
    and a worker pool pickles objects by their current module.  The modules
    of the set-up before are collected untimed, so that the memory peak does
    not depend on when the garbage collector would have run.  A sampler
    takes a host sample after each set-up, untimed too.
    """
    for _ in range(SETUP_ROUND):
        mods, state, t = setup(wl, inputs)
        times.append(t)
        gc.collect()
        if sampler:
            sampler.sample()
    return mods, state


def measure(wl, inputs, golden, work: Path, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Untraced run at the workload's worker count: the end-to-end metrics.

    Each set-up is scaled by the host samples of its round, each iteration
    by those taken after its simulation calls (or, if it made none, by its
    round's).
    """
    sampler = HostSampler(work / "host-samples.txt")
    setups, runs, host = [], [], []  # (wall, scaled) pairs; all samples
    start = time.perf_counter()
    while True:
        times = []
        mods, state = setup_round(wl, inputs, times, sampler)
        round_host = sampler.take()
        setups += [(t["setup_s"], scale(t["setup_s"], round_host)) for t in times]
        sampler.after_calls(mods, wl.pieces)
        run_s, outputs, out = iterate(wl, mods, state, work, wl.workers)
        iteration_host = sampler.take() or round_host
        check(wl, state, out, outputs, golden, ledger)
        if not runs:
            # what one ``vrusim`` command would reach; later iterations add
            # allocator fragmentation, and their number varies with host speed
            rss_mb = peak_rss_mb(wl.workers)
        runs.append((run_s, scale(run_s, iteration_host)))
        host += round_host + iteration_host
        del outputs
        if time.perf_counter() - start + run_s > seconds:
            break
    scored = wl.scored(state)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "run_s": statistics.median(scaled for _, scaled in runs),
        "scored_per_s": statistics.median(scored / scaled for _, scaled in runs),
        "peak_rss_mb": rss_mb,
    }
    return metrics, {"iterations": len(runs), "setups": len(setups),
                     "scored_per_iteration": scored, "workers": wl.workers,
                     "run_s": [wall for wall, _ in runs],
                     "wall": {"setup_s": statistics.median(wall for wall, _ in setups),
                              "run_s": statistics.median(wall for wall, _ in runs)},
                     "host_samples": host}


def traced(wl, inputs, golden, work: Path, ledger: Ledger) -> tuple[dict, dict]:
    """Untraced and traced iterations in turn at one worker: per-layer metrics."""
    setups, untraced, reps = [], [], []
    for _ in range(TRACED_RUNS):
        mods, state = setup_round(wl, inputs, setups)
        run_s, outputs, out = iterate(wl, mods, state, work, 1)
        check(wl, state, out, outputs, golden, ledger)
        untraced.append(run_s)

        tracer = Tracer()
        try:
            mods, state, _ = setup(wl, inputs, tracer)
            run_s, outputs, out = iterate(wl, mods, state, work, 1, tracer.span)
        finally:
            tracer.unpatch()
        check(wl, state, out, outputs, golden, ledger)
        files, size = tree_size(out)
        task_bytes = wl.task_bytes(state, outputs)
        reps.append((tracer, run_s, repeatable_counts(tracer, files, size, task_bytes),
                     layer_metrics(tracer, run_s, files, size, task_bytes)))

    first, last = reps[0][2], reps[-1][2]
    differ = sorted(name for name in first.keys() | last.keys() if first.get(name) != last.get(name))
    ledger.op(not differ, f"per-layer counts differ between traced runs: {', '.join(differ)}")

    metrics = {
        name: statistics.median(rep[3][name] for rep in reps) for name in reps[-1][3]
    }
    traced_s = statistics.median(rep[1] for rep in reps)
    untraced_s = statistics.median(untraced)
    metrics["config.load_s"] = statistics.median(t["load_s"] for t in setups)
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(reps[-1][0].spans)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    reps[-1][0].write(WORK_ROOT / f"trace-{wl.name}.jsonl")
    return metrics, {"iterations": 2 * TRACED_RUNS, "setups": len(setups),
                     "scored_per_iteration": wl.scored(state), "workers": 1,
                     "run_s": [s for pair in zip(untraced, (rep[1] for rep in reps)) for s in pair]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        mods = workloads.fresh_import()
    except ImportError as exc:
        print(f"perfbench: cannot import vrusim from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = wl.make_inputs(args.seed, work, mods.sensing, mods.geometry)
        try:
            golden = workloads.load_golden(wl.name)[inputs["variant"]]
        except (OSError, KeyError, ValueError) as exc:
            print(f"perfbench: no golden digests for {wl.name} variant "
                  f"{inputs['variant']}: {exc!r}", file=sys.stderr)
            return 2
        ledger = Ledger()
        if args.trace:
            metrics, info = traced(wl, inputs, golden, work, ledger)
        else:
            metrics, info = measure(wl, inputs, golden, work, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = ledger.failed / ledger.attempted
    if args.trace:
        metrics["bench.failed_frac"] = failed_frac
        metrics["bench.operations"] = ledger.attempted
    meta = metadata()
    print(f"# workload {wl.name} seed {args.seed} variant {inputs['variant']} "
          f"trace {args.trace} workers {info['workers']} iterations {info['iterations']} "
          f"setups {info['setups']} scored per iteration {info['scored_per_iteration']}")
    print("# wall run_s of each iteration " + " ".join(f"{s:.3f}" for s in info["run_s"]))
    if "wall" in info:
        samples = info["host_samples"]
        print(f"# unscaled medians: setup_s {info['wall']['setup_s']:.6g} s, "
              f"run_s {info['wall']['run_s']:.6g} s; host reference mean "
              f"{statistics.mean(samples) * 1e3:.4g} ms over {len(samples)} samples")
    print("# meta " + " ".join(f"{key}={value}" for key, value in meta.items()))
    for problem in ledger.problems:
        print(f"# FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"failed_frac {failed_frac:.6g} ({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
