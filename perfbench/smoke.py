"""Smoke test of the benchmark: every workload, both modes, at small size.

Usage, from the repository root:

    python3 perfbench/smoke.py

Each run uses six frames, one set-up and one second of measurement.  The
test fails unless the last line of every run is the result object, the
run is correct, and every metric that BENCHMARK.json names for the mode
(end-to-end without tracing, per-layer with it) is printed exactly once,
with its unit and a finite value.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, expected: dict, command: list) -> None:
    argv = [
        *command, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--small",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: incorrect run\n{proc.stdout}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise SystemExit(
            f"{workload} trace={trace}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics[name]
        if entry["unit"] != unit or not math.isfinite(entry["value"]):
            raise SystemExit(f"{workload} trace={trace}: {name} = {entry}, want unit {unit}")
        if f" {name} " not in proc.stdout:
            raise SystemExit(f"{workload} trace={trace}: {name} missing from the report lines")
    print(f"smoke: {workload} trace={trace}: {len(metrics)} metrics, {result['attempted']} ops")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            check(workload, trace, expected, command)
    print("smoke: ok")


if __name__ == "__main__":
    main()
