"""Smoke test of the benchmark at tiny sizes; no timing is checked.

Usage, from the root of a source checkout::

    python3 perfbench/smoke_test.py

Runs every workload of ``BENCHMARK.json`` through ``run.py --size smoke``,
untraced and traced, each in its own process, and checks that

* every declared metric is printed by name with its unit and appears in
  the final JSON line with that unit;
* no run failed (``failed_ratio`` is 0), which includes each workload's
  output check and, when traced, the counts against their closed forms;
* ``BENCHMARK.json`` declares the workloads and metrics ``workloads.py``
  defines;
* the benchmark's own skeleton oracle equals
  ``analysis.deterministic_skeleton``;
* without ``src/`` the benchmark exits non-zero and prints no result.

Exits 0 when all checks pass and 1 otherwise, listing every failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import END_TO_END, MAX_LEVEL, PER_LAYER, linear_skeleton

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"),
         "--workload", workload, "--size", "smoke", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run_bench(workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exited {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    declared = PER_LAYER if trace else END_TO_END
    if set(result["metrics"]) != set(declared):
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for name, unit in declared.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            problems.append(f"{where}: {name} reported as {got}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines):
            problems.append(f"{where}: no printed line for {name} in {unit}")
    if not any(line == "failed_ratio = 0 fraction" for line in lines):
        problems.append(f"{where}: failed_ratio is not 0")
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} runs failed: "
                        f"{proc.stderr.strip()}")
    return problems


def check_declarations(names: list[str]) -> list[str]:
    from workloads import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if names != list(workloads()):
        problems.append(f"BENCHMARK.json workloads {names} differ from "
                        f"workloads.py {list(workloads())}")
    for key, declared in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != declared:
            problems.append(f"BENCHMARK.json {key} differs from workloads.py")
    return problems


def check_oracle() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from mlmc_sdde import GridSpec, builtin_problem, deterministic_skeleton

    problem = builtin_problem("linear_scalar")
    grid = GridSpec.for_problem(problem, theta=0.0, level=MAX_LEVEL)
    package = float(deterministic_skeleton(problem, grid).terminal[0])
    ours = linear_skeleton(MAX_LEVEL)
    if abs(package - ours) > 1e-12 * abs(package):
        return [f"skeleton oracle {ours!r} != deterministic_skeleton "
                f"{package!r}"]
    return []


def check_bare(workload: str) -> list[str]:
    """The benchmark alone, without the program, must refuse to run."""
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(workload, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ the benchmark exited {proc.returncode} and "
                f"printed {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    problems = (check_declarations(names) + check_oracle()
                + check_bare(names[0]))
    for name in names:
        for trace in (0, 1):
            found = check_run(name, trace)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test passed" if not problems else
          f"smoke test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
