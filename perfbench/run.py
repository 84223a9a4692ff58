"""Benchmark of the ``mlmc-sdde`` command line, end to end and per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|smoke]

Workloads are defined in ``workloads.py``.  For ``--seconds`` seconds the
benchmark starts the workload again and again, each time as a fresh
process (``child.py``) that imports the package from ``src/`` of this
checkout and calls ``mlmc_sdde.cli.main(argv)`` with ``--seed N`` and an
output path no earlier run used (the CLI renames over existing outputs,
which would time the disk).  Every run's CSV and summary are checked;
a run that exits non-zero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics over the runs: ``wall_s``,
the lower quartile of the durations of ``cli.main`` (see ``wall_of``);
``setup_s``, the median time from process launch until ``numpy``,
``scipy`` and ``mlmc_sdde.cli`` are imported; ``path_steps_per_s``, path
steps simulated over ``wall_s``; and ``peak_rss_mib``, the median
``ru_maxrss``.  ``--trace 1`` first repeats untraced runs, then traced
ones (``tracer.py``), and reports the median per-layer counts and self
times plus ``trace.overhead_s``, the traced minus the untraced
``wall_s``.  A traced run fails unless its counts equal the closed forms
computed from its CSV, and, on a single-threaded workload, unless its
layer self times add up to its wall time within 5%.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric with its unit, ``failed_ratio``, and a run record
(machine, versions, CSV sha256).  Without ``src/mlmc_sdde`` next to this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from workloads import CHECKED_COUNTS, END_TO_END, PER_LAYER, Output, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# A run takes a few seconds; together these end the benchmark in 180 s.
CHILD_TIMEOUT_S = 60
LAUNCH_DEADLINE_S = 100
MIN_RUNS = 3
MIN_TRACED = 2
# Share of --seconds spent on untraced runs in a traced benchmark.
UNTRACED_SHARE = 0.4
SELF_TIME_TOLERANCE = 0.05


def run_once(wl, seed: int, run_dir: Path, index: int, trace: bool) -> dict:
    """One CLI process; returns its record with ``problems`` filled in."""
    out = run_dir / f"run{index}.csv"
    summary = Path(f"{out}.summary.txt")
    argv = wl.argv(seed, str(out), str(run_dir / "workload.cfg"))
    launch = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), str(launch),
             "1" if trace else "0", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"run {index} timed out after "
                             f"{CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"run {index} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}"]}
    rec = json.loads(lines[-1])
    rec["problems"] = []
    if rec["exit_code"] != 0:
        rec["problems"].append(f"run {index}: CLI exited {rec['exit_code']}: "
                               f"{proc.stderr.strip()[-500:]}")
        return rec
    try:
        csv_bytes = out.read_bytes()
        output = Output.parse(csv_bytes.decode(), summary.read_text())
        rec["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
        rec["path_steps"] = wl.path_steps(output)
        rec["problems"] += wl.check(output)
        if trace:
            rec["problems"] += check_trace(wl, output, rec)
    except (OSError, KeyError, ValueError) as exc:
        rec["problems"].append(f"run {index}: unreadable output: {exc!r}")
    finally:
        out.unlink(missing_ok=True)
        summary.unlink(missing_ok=True)
    return rec


def check_trace(wl, output: Output, rec: dict) -> list[str]:
    """Traced counts against closed forms; self times against the wall."""
    layers = rec["layers"]
    expected = wl.counts(output)
    problems = [f"traced {key} = {layers[key]} but the CSV implies "
                f"{expected[key]}" for key in CHECKED_COUNTS
                if layers[key] != expected[key]]
    if wl.jobs == 1:
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s")
                       and k.count(".") == 1)
        if abs(self_sum - rec["wall_s"]) > SELF_TIME_TOLERANCE * rec["wall_s"]:
            problems.append(f"layer self times sum to {self_sum:.4f} s, "
                            f"traced wall is {rec['wall_s']:.4f} s")
    return problems


def run_for(seconds: float, wl, seed: int, run_dir: Path, trace: bool,
            min_runs: int, started: float, first: int) -> list[dict]:
    records = []
    t0 = time.monotonic()
    while len(records) < min_runs or time.monotonic() - t0 < seconds:
        if time.monotonic() - started > LAUNCH_DEADLINE_S:
            break
        records.append(run_once(wl, seed, run_dir, first + len(records),
                                trace))
    return records


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def wall_of(records: list[dict]) -> float:
    """Lower quartile of the runs' ``wall_s``.

    With ``--jobs 2`` the duration of a run is bimodal: in about a third
    of the processes the two pool threads contend for the interpreter
    lock and the run takes about 1.4 times as long.  The share of slow
    runs drifts over time, so the median jumps between the two modes
    from one benchmark run to the next; the lower quartile stays in the
    fast mode.  On single-threaded workloads it is within 1% of the median.
    """
    walls = [r["wall_s"] for r in records]
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=4, method="inclusive")[0]


def end_to_end(records: list[dict]) -> dict[str, float]:
    wall = wall_of(records)
    return {
        "wall_s": wall,
        "setup_s": median_of(records, "setup_s"),
        "path_steps_per_s": median_of(records, "path_steps") / wall,
        "peak_rss_mib": median_of(records, "peak_rss_mib"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Median per-layer metrics and the traced runs whose counts differ."""
    values = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        series = [r["layers"].get(name, 0.0) for r in traced]
        values[name] = statistics.median(series)
    values["trace.overhead_s"] = wall_of(traced) - wall_of(untraced)
    counts = [n for n, u in PER_LAYER.items() if u in ("count", "B")]
    first = traced[0]["layers"]
    differing = [r for r in traced[1:]
                 if any(r["layers"].get(n, 0) != first.get(n, 0)
                        for n in counts)]
    return values, differing


def machine_record(records: list[dict]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    first = records[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "csv_sha256": sorted({r["csv_sha256"] for r in records
                              if "csv_sha256" in r}),
    }


def measure(args, wl) -> list[dict]:
    """Warm up, then run the workload for ``args.seconds``."""
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        (run_dir / "workload.cfg").write_text(wl.config, encoding="utf-8")
        # Import once untimed, so the first timed run does not pay for
        # compiling the package's bytecode.
        warm = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC),
             str(time.monotonic_ns()), "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if warm.returncode != 0:
            raise RuntimeError(
                f"cannot import the package: {warm.stderr.strip()}")
        if not args.trace:
            return run_for(args.seconds, wl, args.seed, run_dir, False,
                           MIN_RUNS, started, 0)
        untraced = run_for(args.seconds * UNTRACED_SHARE, wl, args.seed,
                           run_dir, False, MIN_RUNS, started, 0)
        return untraced + run_for(args.seconds * (1 - UNTRACED_SHARE), wl,
                                  args.seed, run_dir, True, MIN_TRACED,
                                  started, len(untraced))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "mlmc_sdde" / "cli.py").is_file():
        print(f"error: no mlmc_sdde package under {SRC}", file=sys.stderr)
        return 2
    try:
        records = measure(args, workloads(args.size)[args.workload])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # A run that failed its check still timed the program; one that did
    # not finish did not.
    timed = [r for r in records if "path_steps" in r]
    traced = [r for r in timed if "layers" in r]
    untraced = [r for r in timed if "layers" not in r]
    if not untraced or (args.trace and not traced):
        values = None
    elif args.trace:
        values, differing = per_layer(untraced, traced)
        for r in differing:
            r["problems"].append(
                "traced counts differ from the first traced run")
    else:
        values = end_to_end(untraced)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for r in records if r["problems"])

    problems = Counter(p for r in records for p in r["problems"])
    for problem, n in problems.items():
        print(f"{args.workload}: {problem} ({n} of {len(records)} runs)",
              file=sys.stderr)
    if values is None:
        print(f"error: no run of {args.workload} completed", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}: {len(records)} runs, {failed} failed")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.10g} {unit}")
    print(f"failed_ratio = {failed / len(records):.6g} fraction")
    print("record: " + json.dumps(machine_record(timed)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
