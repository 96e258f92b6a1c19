"""Fast self-test of the benchmark at TINY scale (about a minute).

Usage::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` untraced and traced and
checks that each prints exactly the declared metric names with their
units, that every correctness check passes, and that end-to-end values
are positive.  Then it corrupts one pinned digest and checks that the
benchmark reports the mismatch as a failure and exits non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, pins=None) -> tuple:
    """(exit code, parsed result line or None) of one TINY run."""
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    if pins is not None:
        argv += ["--pins", str(pins)]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr[-2000:])
        return done.returncode, None


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    kind = "per_layer" if trace else "end_to_end"
    where = f"{workload} --trace {trace}"
    code, result = run(workload, trace)
    if result is None:
        return [f"{where}: no result line (exit {code})"]
    problems = []
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(
            f"{where}: exit {code}, correct={result['correct']}, "
            f"failed={result['failed']}"
        )
    declared = {entry["name"]: entry["unit"] for entry in spec[kind]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{where}: metrics/units differ from {kind}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or (not trace and value <= 0):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def check_corrupt_pin() -> list[str]:
    pins = json.loads((HERE / "pins.json").read_text())
    cell = sorted(pins["tiny"]["cell"])[0]
    pins["tiny"]["cell"][cell] = "0" * 64
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    path = scratch / f"corrupt-pins-{os.getpid()}.json"
    path.write_text(json.dumps(pins))
    try:
        code, result = run("cold_sweep", 0, pins=path)
    finally:
        path.unlink()
        try:
            scratch.rmdir()
        except OSError:
            pass
    if code == 0 or result is None or result["correct"]:
        return [f"corrupted pin for {cell} was not reported (exit {code})"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    problems += check_corrupt_pin()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"{len(problems)} failure(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
