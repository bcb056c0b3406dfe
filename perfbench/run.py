"""Desk-scale benchmark of demorgan_lab: one workload per run.

    python3 perfbench/run.py --workload alpha-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory.  Each workload is a closed loop with one caller: the operations
of one pass run one after another, and passes repeat until `--seconds` have
passed.  Inputs come from `--seed` and are built before timing, several
times, the median being `setup_s`.  Every result is checked against an
oracle after the timed phase; a raised exception, a wrong result, or a
result that differs between passes counts as a failed operation.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it runs half the time untraced and half traced and reports the per-layer
metrics (see tracing.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full
record, with machine and input facts, is written to .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
SETUP_REPEATS = 5
# Timings are scaled to a reference speed: the shared VM the benchmark was
# defined on changed speed by up to 60% within seconds, and unscaled runs
# of the same code differed by 20-35%.  A reference kernel runs at least
# every SEGMENT_S and around every set-up.  In-process workloads use a
# kernel of small numpy operations and dictionary work (REF_RUNS runs,
# fastest kept), typically REF_S long on that machine; workloads run in
# child processes use the start of a child that imports numpy, typically
# REF_CHILD_S long, since their cost is process start-up and imports,
# which the in-process kernel does not track.
REF_S = 0.0033
REF_RUNS = 3
REF_CHILD_S = 0.12
SEGMENT_S = 0.25
COLD_IMPORTS = 3
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def import_package() -> None:
    """Put the checkout's src first on the path; refuse to run without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "demorgan_lab", "__init__.py")):
        sys.exit(f"error: {src}/demorgan_lab not found; run from a checkout of the repository")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import demorgan_lab
    if not os.path.abspath(demorgan_lab.__file__).startswith(src + os.sep):
        sys.exit(f"error: demorgan_lab was imported from {demorgan_lab.__file__}, not {src}")


@dataclass
class Phase:
    pass_s: list[float]       # scaled pass times
    op_s: list[list[float]]   # per operation, its scaled execution times
    scales: list[float]       # reference speed factor, per segment

    def op_times(self, fastest: bool) -> list[float]:
        """Per operation, the median of its scaled executions, or the
        fastest when `fastest`."""
        return [min(t) if fastest else statistics.median(t) for t in self.op_s]


class Outcomes:
    """First result of each operation, and the executions that failed."""

    def __init__(self) -> None:
        self.first: dict[int, object] = {}
        self.failed_at: dict[int, int] = {}  # op index -> failed executions
        self.executions: dict[int, int] = {}
        self.attempted = 0

    def record(self, i: int, result: object, raised: bool) -> None:
        self.attempted += 1
        self.executions[i] = self.executions.get(i, 0) + 1
        if raised:
            if i not in self.failed_at:
                traceback.print_exception(result, file=sys.stderr)
            self.failed_at[i] = self.failed_at.get(i, 0) + 1
        elif i not in self.first:
            self.first[i] = result
        elif result != self.first[i]:
            print(f"operation {i} gave a different result than before", file=sys.stderr)
            self.failed_at[i] = self.failed_at.get(i, 0) + 1

    def check(self, check) -> int:
        """Run the oracle on each first result; return the failed executions."""
        for i, result in self.first.items():
            problem = check(i, result)
            if problem is not None:
                print(f"operation {i}: {problem}", file=sys.stderr)
                self.failed_at[i] = self.executions[i]
        return sum(self.failed_at.values())


def speed_factor() -> float:
    """REF_S over the time of the in-process reference kernel: the fastest
    of REF_RUNS runs of small numpy operations and dictionary work, which
    share no code with demorgan_lab."""
    import numpy as np
    a = np.arange(4096, dtype=np.uint16)
    best = math.inf
    for _ in range(REF_RUNS):
        t0 = time.perf_counter()
        for _ in range(40):
            (a & (a >> 1)) | a
            a[a % 97]
        d: dict[int, int] = {}
        x = 0
        for i in range(15000):
            d[i & 255] = i
            x += d.get(i & 127, 0)
        best = min(best, time.perf_counter() - t0)
    return REF_S / best


def child_speed_factor() -> float:
    """REF_CHILD_S over the time to start a child interpreter that imports
    numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return REF_CHILD_S / (time.perf_counter() - t0)


def run_phase(ops, seconds: float, outcomes: Outcomes, reference) -> Phase:
    """Whole passes over `ops` until `seconds` have passed (at least one).

    `reference` (which returns a speed factor) runs before the first
    operation and whenever SEGMENT_S have passed since it last ran; the
    operations in between are scaled by the geometric mean of the two
    factors."""
    clock = time.perf_counter
    phase = Phase([], [[] for _ in ops], [])
    ref = reference()
    segment: list[tuple[int, float]] = []
    segment_start = clock()

    def close_segment() -> float:
        nonlocal ref, segment_start
        ref_after = reference()
        scale = math.sqrt(ref * ref_after)
        phase.scales.append(scale)
        for i, t in segment:
            phase.op_s[i].append(t * scale)
        took = sum(t for _, t in segment) * scale
        segment.clear()
        ref, segment_start = ref_after, clock()
        return took

    start = clock()
    while True:
        took = 0.0
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                result, raised = op(), False
            except Exception as e:  # counted as a failed operation
                result, raised = e, True
            segment.append((i, clock() - t0))
            outcomes.record(i, result, raised)
            if clock() - segment_start >= SEGMENT_S:
                took += close_segment()
        took += close_segment()
        phase.pass_s.append(took)
        if clock() - start >= seconds:
            return phase


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples
    beyond it: the 11th largest sample (the largest if there are fewer)."""
    n = len(samples)
    rank = max(n - 10, 1)
    return 100 * rank / n, sorted(samples)[rank - 1]


def machine_facts() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def cold_import_s(env: dict[str, str]) -> float:
    """Median time to import demorgan_lab.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import demorgan_lab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(COLD_IMPORTS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        times.append(float(out))
    return statistics.median(times)


def main(argv: list[str] | None = None, tiny: bool = False) -> dict:
    import_package()
    import tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # set-up runs in this process for every workload
    setup_s = []
    ref = speed_factor()
    for repeat in range(SETUP_REPEATS):
        if repeat:
            job.cleanup()
        t0 = time.perf_counter()
        job = workloads.build(args.workload, args.seed, tiny)
        took = time.perf_counter() - t0
        ref_after = speed_factor()
        setup_s.append(took * math.sqrt(ref * ref_after))
        ref = ref_after
    reference = child_speed_factor if job.in_children else speed_factor
    outcomes = Outcomes()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": machine_facts(),
                    "why": workloads.WHY[args.workload],
                    "layers_to_metrics": [
                        {"layer": layer, "moves": moves} for layer, moves, wls in tracing.MOVES
                        if args.workload in wls],
                    "waiting_time": "none: single-threaded, no queues",
                    "operations_per_pass": len(job.ops), "inputs": job.facts}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                # one more build, traced; it leaves the same files as `job`
                tracer.span("setup", workloads.build)(args.workload, args.seed, tiny)
            # the CLI's traced operations run in-process
            ops = job.trace_ops or job.ops
            plain = run_phase(ops, args.seconds / 2, outcomes, speed_factor)
            with tracer:
                traced_ops = [tracer.span("op", op) for op in ops]
                traced = run_phase(traced_ops, args.seconds / 2, outcomes, speed_factor)
                failed = outcomes.check(tracer.span("oracle", job.check))
            metrics = tracing.layer_metrics(
                tracer.spans, statistics.median(traced.scales), len(traced.pass_s),
                sum(traced.op_times(job.in_children)), sum(plain.op_times(job.in_children)))
            if args.workload == "cli-oneshot":
                metrics["cli.import_s"] = cold_import_s(workloads.child_env())
            units = dict(tracing.PER_LAYER)
            record["passes"] = {"untraced": len(plain.pass_s), "traced": len(traced.pass_s)}
        else:
            timed = run_phase(job.ops, args.seconds, outcomes, reference)
            who = resource.RUSAGE_CHILDREN if job.in_children else resource.RUSAGE_SELF
            op_s = timed.op_times(job.in_children)
            percentile, tail_s = tail(op_s)
            metrics = {
                "setup_s": statistics.median(setup_s),
                "wall_s": sum(op_s),
                "ops_per_s": len(op_s) / sum(op_s),
                "op_p50_ms": statistics.median(op_s) * 1e3,
                "op_tail_ms": tail_s * 1e3,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            record["pass_s"] = timed.pass_s
            record["scales"] = timed.scales
            record["op_tail"] = {"percentile": percentile, "samples": len(op_s)}
            record["setup_s_each"] = setup_s
            failed = outcomes.check(job.check)
    finally:
        job.cleanup()
    record["failed_ratio"] = failed / outcomes.attempted
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": outcomes.attempted, "failed": failed,
              "metrics": record["metrics"]}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {outcomes.attempted} operations, "
          f"{failed} failed (failed_ratio {record['failed_ratio']:g}); record in {out}")
    print("machine:", json.dumps(record["machine"]))
    print("inputs:", json.dumps(record["inputs"]))
    if "op_tail" in record:
        t = record["op_tail"]
        print(f"op_tail_ms is p{t['percentile']:.4g} of {t['samples']} samples "
              "(one per operation)")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
