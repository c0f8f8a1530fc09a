"""Benchmark of the jjwafer CLI, run the way users run it.

    python3 bench/run.py --workload wafer56 --seed 3 --seconds 40 --trace 0

Run from the root of a source checkout.  Set-up generates the workload's
input wafers from --seed and writes them; then, for --seconds, this
process starts one `python3 -m jjwafer.cli` child per operation, one at a
time, waits for it with os.wait4 and checks everything it wrote against the
generated ground truth.  An operation whose child exits non-zero or whose
output fails a check counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs each
operation in process: it calls each layer in pipeline order on the
workload's inputs under timing wrappers, then the CLI's main() for the
operation, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3

if not os.path.isfile(os.path.join(SRC, "jjwafer", "cli.py")):
    sys.exit(f"bench: no jjwafer sources under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

from jjwafer import cli, dataset, report, synthetic  # noqa: E402

from tracing import LAYER_FUNCTIONS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MB = 1024.0 * 1024.0


@dataclasses.dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(args: list[str], log_path: str) -> ChildRun:
    """Start one Python child in the source tree and wait for it to end."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=SRC,
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def report_failure(op: int, problems: list[str], log_path: str | None = None) -> None:
    print(f"bench: operation {op} failed:", file=sys.stderr)
    for problem in problems[:10]:
        print(f"  {problem}", file=sys.stderr)
    if log_path and os.path.exists(log_path):
        with open(log_path, "rb") as log:
            sys.stderr.write(log.read()[-2000:].decode("utf-8", "replace"))


def checked(wl) -> list[str]:
    try:
        return wl.check()
    except Exception as exc:  # a missing or unparsable output fails the operation
        return [f"{type(exc).__name__}: {exc}"]


def run_operation(wl, log_path: str) -> tuple[ChildRun, list[str]]:
    """One CLI child for the workload's operation, and the problems found."""
    wl.clear_output()
    child = run_child(["-m", "jjwafer.cli", *wl.argv], log_path)
    return child, [f"exit code {child.code}"] if child.code else checked(wl)


def timed_run(wl, seconds: float) -> tuple[int, int, dict]:
    runs, ok = [], []
    log_path = os.path.join(os.path.dirname(wl.out), "cli.log")
    start = time.perf_counter()
    while True:
        child, problems = run_operation(wl, log_path)
        if problems:
            report_failure(len(runs), problems, log_path)
        runs.append(child)
        ok.append(not problems)
        if time.perf_counter() - start >= seconds:
            break
    total_wall = sum(r.wall_s for r in runs)
    metrics = {
        "op_s_p50": (statistics.median(r.wall_s for r in runs), "s"),
        "cpu_s_p50": (statistics.median(r.cpu_s for r in runs), "s"),
        "dies_per_s": (wl.dies_per_op * sum(ok) / total_wall, "dies/s"),
        "peak_rss_mb": (max(r.maxrss_mb for r in runs), "MB"),
    }
    return len(runs), ok.count(False), metrics


def run_main(argv: list[str]) -> tuple[float, list[str]]:
    """Wall time of the CLI's main() in this process, and its problems."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error fails the operation
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    return wall, [f"exit code {code}: {stderr.getvalue()[-500:]}"] if code else []


def layer_counts(spans) -> dict[str, float]:
    def calls(name):
        return [s for s in spans if s.name == name]

    ramps = calls("breakdown.detect_breakdown")
    sweeps = calls("iv_analysis.fit_k_from_dt")
    n_breakdowns = sum(s.error is None for s in ramps)
    n_fit = sum(s.error is None for s in sweeps)
    return {
        "breakdown.ramps": len(ramps),
        "breakdown.breakdowns": n_breakdowns,
        "breakdown.censored": sum(s.error == "NoBreakdownError" for s in ramps),
        "breakdown.detect_ratio": n_breakdowns / len(ramps) if ramps else 0.0,
        "iv_analysis.sweeps": len(sweeps),
        "iv_analysis.sweeps_fit": n_fit,
        "iv_analysis.fit_ratio": n_fit / len(sweeps) if sweeps else 0.0,
    }


# per-layer metric -> unit; the two tracemalloc peaks are added separately
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.serial_s": "s",
    **{f"{name}_s": "s" for name in LAYER_FUNCTIONS},
    "dataset.bytes_in": "bytes",
    "dataset.records_cap": "count",
    "dataset.records_ramp": "count",
    "dataset.records_iv": "count",
    "dataset.records_res": "count",
    "breakdown.ramps": "count",
    "breakdown.breakdowns": "count",
    "breakdown.censored": "count",
    "breakdown.detect_ratio": "ratio",
    "iv_analysis.sweeps": "count",
    "iv_analysis.sweeps_fit": "count",
    "iv_analysis.fit_ratio": "ratio",
}


def layer_pass(wl, grid_dir: str) -> Counter:
    """Call each layer once, in pipeline order, on every input of the workload.

    Calls go through the module attributes, so the tracer's wrappers see
    them.  Each codec runs once per input: the input's own format through
    save_dataset and load_dataset, the other format directly.
    """
    counts: Counter = Counter()
    for inp in wl.inputs:
        ds = synthetic.generate_wafer(inp.spec).dataset
        dataset.save_dataset(ds, inp.path, inp.fmt)
        if inp.fmt == "text":
            encoded, decode = dataset.dumps_json(ds), dataset.loads_json
        else:
            encoded, decode = dataset.dumps_text(ds), dataset.loads_text
        counts["dataset.bytes_in"] += os.path.getsize(inp.path)
        ds = dataset.load_dataset(inp.path)
        decode(encoded)
        for kind in ("cap", "ramp", "iv", "res"):
            counts[f"dataset.records_{kind}"] += len(getattr(ds, kind))
        rep = report.analyze(ds)
        report.render_text(rep)
        report.render_json(rep)
        for area in dataset.cap_areas(ds):
            report.export_wafer_grid(dataset.cap_wafer_map(ds, area),
                                     os.path.join(grid_dir, f"{inp.stem}.cap{area:g}.csv"))
    return counts


def peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def traced_run(wl, seconds: float, trace_path: str) -> tuple[int, int, dict]:
    grid_dir = os.path.join(os.path.dirname(wl.out), "trace-grids")
    os.makedirs(grid_dir, exist_ok=True)
    log_path = os.path.join(os.path.dirname(wl.out), "import.log")
    tracer = Tracer()
    tracer.install()
    per_op: list[dict[str, float]] = []
    failed = 0
    start = time.perf_counter()
    try:
        while True:
            op = tracer.op = len(per_op)
            tracer.phase = "layers"
            counts = layer_pass(wl, grid_dir)
            values = dict(counts)
            spans = tracer.op_spans(op, "layers")
            for name, t in Tracer.self_times(spans).items():
                values[f"{name}_s"] = t
            values.update(layer_counts(spans))

            tracer.phase = "cli"
            wl.clear_output()
            values["cli.main_s"], problems = run_main(wl.argv)
            problems = problems or checked(wl)
            values["cli.serial_s"] = 0.0
            for argv in wl.serial_argvs:
                wall, serial_problems = run_main(argv)
                values["cli.serial_s"] += wall
                problems += serial_problems
            child = run_child(["-c", "import jjwafer.cli"], log_path)
            values["cli.import_s"] = child.wall_s
            if child.code:
                problems.append(f"import exit code {child.code}")
            if problems:
                failed += 1
                report_failure(op, problems, log_path)
            per_op.append(values)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump([dataclasses.asdict(s) for s in tracer.spans], handle)

    metrics = {}
    for name in PER_LAYER:
        value = statistics.median(v.get(name, 0.0) for v in per_op)
        metrics[name] = (value, PER_LAYER[name])
    metrics["synthetic.generate_peak_mb"] = (
        max(peak_mb(synthetic.generate_wafer, inp.spec) for inp in wl.inputs), "MB")
    metrics["dataset.load_peak_mb"] = (
        max(peak_mb(dataset.load_dataset, inp.path) for inp in wl.inputs), "MB")
    return len(per_op), failed, metrics


def set_up(wl, repeats: int) -> float:
    """Median wall time of generating and writing the inputs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        wl.set_up()
        times.append(time.perf_counter() - start)
    wl.check_setup()
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setup_s = set_up(wl, 1 if args.trace else SETUP_REPEATS)
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            attempted, failed, metrics = traced_run(wl, args.seconds, trace_path)
        else:
            attempted, failed, metrics = timed_run(wl, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
