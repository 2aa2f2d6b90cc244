"""liekernel benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: betti-sparse, betti-dense, corpus, cli (see perfbench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced rounds and reports the
per-layer metrics.  The next-to-last stdout line is a detail record
(environment, input digest, sample counts); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_SAMPLES = 5
CLI_MIN_SAMPLES = 100  # ten samples beyond the nearest-rank p90
STARTUP_SAMPLES = 5
SUBCOMMANDS = ("parse", "betti", "check23", "kernel", "structure",
               "derivations", "tables", "extend", "mmmap", "orbit",
               "g2-verify", "g2-flow", "corpus")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads_before) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "LIEKERNEL_THREADS": threads_before or "unset",
    }


def time_process(cmd, env, until_line=False) -> tuple[float, str]:
    """Wall time of a fresh process, to its first stdout line or its exit."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline() if until_line else ""
        dt = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"{cmd!r} exited {code}")
    return (dt if until_line else perf_counter() - t0), (line + rest).strip()


def measure_setup(workload, seed, env) -> tuple[list[float], set[str]]:
    """Set-up time of fresh workload processes, and the digests they built."""
    times, digests = [], set()
    for _ in range(SETUP_SAMPLES):
        if workload == "cli":
            dt, _ = time_process([sys.executable, "-c", "import liekernel.cli"],
                                 env)
        else:
            dt, line = time_process([sys.executable, str(BENCH / "probe.py"),
                                     workload, str(seed)], env, until_line=True)
            digests.add(line.split()[0])
        times.append(dt)
    return times, digests


def startup_costs(env) -> dict:
    """Bare interpreter start and in-process ``import liekernel.cli``."""
    bare = [time_process([sys.executable, "-c", "pass"], env)[0]
            for _ in range(STARTUP_SAMPLES)]
    code = ("import time; t = time.perf_counter(); import liekernel.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(time_process([sys.executable, "-c", code], env)[1])
               for _ in range(STARTUP_SAMPLES)]
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imports)}


class Runner:
    """Runs rounds of one workload, plain or traced, and keeps every op."""

    def __init__(self, workload, inputs, env):
        self.workload, self.inputs, self.env = workload, inputs, env
        self.index = 0
        self.snaps: list[dict] = []
        self.tracer = None

    def round(self, traced: bool):
        if self.workload == "cli":
            plan = self.inputs[self.index % len(self.inputs)]
            t0 = perf_counter()
            ops, snaps = wl.cli_round(plan, self.env, traced)
            wall = perf_counter() - t0
            self.snaps.extend(snaps)
        else:
            run = wl.corpus_round if self.workload == "corpus" else wl.betti_round
            tracer = None
            if traced:
                if self.tracer is None:
                    from tracing import Tracer
                    self.tracer = Tracer()
                tracer = self.tracer.install()
                tracer.new_round()
            t0 = perf_counter()
            try:
                ops = run(self.inputs, tracer)
            finally:
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
        self.index += 1
        return wall, ops


def run_untraced(runner, seconds, min_ops):
    """Whole rounds until the next would overrun, with min_ops ops at least."""
    walls, ops = [], []
    start = perf_counter()
    while True:
        wall, round_ops = runner.round(traced=False)
        walls.append(wall)
        ops.extend(round_ops)
        elapsed = perf_counter() - start
        if len(ops) >= min_ops and elapsed + statistics.median(walls) > seconds:
            return walls, ops


def run_traced(runner, seconds):
    """Alternate plain and traced rounds, at least one of each."""
    plain, traced, ops, traced_ops = [], [], [], []
    start = perf_counter()
    while True:
        is_traced = len(traced) < len(plain)
        wall, round_ops = runner.round(traced=is_traced)
        (traced if is_traced else plain).append(wall)
        ops.extend(round_ops)
        if is_traced:
            traced_ops.extend(round_ops)
        elapsed = perf_counter() - start
        if traced and len(traced) == len(plain) and elapsed + statistics.median(
                plain) + statistics.median(traced) > seconds:
            return plain, traced, ops, traced_ops


def nearest_rank(values, q):
    """Smallest sample with at least q percent of the samples at or below it."""
    return sorted(values)[math.ceil(q / 100 * len(values)) - 1]


def end_to_end(setup, walls, ops, workload) -> dict:
    lat_ms = [op.seconds * 1000 for op in ops]
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else \
        resource.RUSAGE_SELF
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "p90_ms": {"value": nearest_rank(lat_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(runner, plain, traced, ops, traced_ops, startup) -> tuple:
    import tracing

    if runner.tracer is not None:
        snaps = [runner.tracer.snapshot()]
    else:
        snaps = runner.snaps
    merged = tracing.merge(snaps)
    rounds = len(traced)
    metrics = {}
    for name, (calls, _total, self_s) in merged["spans"].items():
        metrics[f"{name}.calls"] = {"value": calls / rounds, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s / rounds, "unit": "s"}
    for name, value in merged["counters"].items():
        metrics[name] = {"value": value / rounds, "unit": "count"}
    for name, value in startup.items():
        metrics[name] = {"value": value, "unit": "s"}
    traced_ids = {id(op) for op in traced_ops}
    for sub in SUBCOMMANDS:
        lat = [op.seconds * 1000 for op in ops if runner.workload == "cli"
               and op.label == sub and id(op) not in traced_ids]
        metrics[f"cli.{sub}.p50_ms"] = {
            "value": statistics.median(lat) if lat else 0.0, "unit": "ms"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1,
        "unit": "fraction"}
    covered = [op.coverage for op in traced_ops if op.coverage is not None]
    metrics["trace.coverage_min"] = {
        "value": min(covered) if covered else 0.0, "unit": "fraction"}
    return metrics, merged["missing"]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "liekernel" / "__init__.py").is_file():
        print(f"perfbench: no liekernel sources under {src}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    # The corpus must run serially, and numpy's BLAS must not start threads.
    threads_before = os.environ.pop("LIEKERNEL_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    env = wl.child_env()
    try:
        wl.prepare_cli_files()
        setup, probe_digests = [], set()
        if not args.trace:
            setup, probe_digests = measure_setup(args.workload, args.seed, env)
        inputs = wl.build_inputs(args.workload, args.seed)
        inputs_digest = wl.digest(inputs)
        if probe_digests - {inputs_digest}:
            print("perfbench: set-up probes built different inputs",
                  file=sys.stderr)
            return 3
        runner = Runner(args.workload, inputs, env)
        detail = {"workload": args.workload, "seed": args.seed,
                  "inputs_sha256": inputs_digest,
                  "environment": environment(threads_before),
                  "setup_samples_s": setup}
        if args.trace:
            startup = startup_costs(env)
            plain, traced, ops, traced_ops = run_traced(runner, args.seconds)
            metrics, missing = per_layer(runner, plain, traced, ops,
                                         traced_ops, startup)
            detail.update(plain_round_s=plain, traced_round_s=traced,
                          missing_spans=missing)
        else:
            min_ops = CLI_MIN_SAMPLES if args.workload == "cli" else 0
            walls, ops = run_untraced(runner, args.seconds, min_ops)
            metrics = end_to_end(setup, walls, ops, args.workload)
            detail.update(round_s=walls)
    finally:
        shutil.rmtree(wl.TMP, ignore_errors=True)
    failed = sum(op.failed for op in ops)
    by_label = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(op.seconds * 1000)
    detail.update(samples=len(ops), failed_frac=failed / len(ops),
                  op_ms={k: [round(x, 1) for x in sorted(v)]
                         for k, v in sorted(by_label.items())},
                  failed_ops=sorted({op.label for op in ops if op.failed}))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
