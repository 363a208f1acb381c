"""Self-test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/selftest.py

Checks that timed and traced runs print every metric BENCHMARK.json names
with its unit, that every workload passes its correctness gate, and that a
seeded fault (one item's intercepts put out of order) is caught by the gate
and counted in failed_ratio.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# printed on every timed run besides BENCHMARK.json's end-to-end list
REPORTED = {"op_s_p50", "ops_per_min", "cpu_s_per_op", "ref_s", "failed_ratio",
            "objective_per_cell"}
QUALITY = {"fnr_mean", "msr_mean", "rmse_a_mean"}


def fail(message: str):
    raise SystemExit(f"selftest FAILED: {message}")


def run_tiny(workload: str, trace: int, fault=None):
    """Run one tiny workload; return (last-line JSON, printed metric names)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "0.5", "--trace", str(trace)], scale="tiny",
                        fault=fault)
    lines = buf.getvalue().splitlines()
    if code != 0:
        fail(f"{workload} trace={trace} exited {code}")
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest
    return json.loads(lines[-1]), printed, lines


def swap_first_intercepts(outcome):
    """Seeded fault: reverse the intercept vector of the first item."""
    outcome.state.intercepts[0] = np.ascontiguousarray(
        outcome.state.intercepts[0][::-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lists = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, wanted in lists.items():
            result, printed, lines = run_tiny(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{name} trace={trace}: ops failed\n" + "\n".join(lines))
            got = result["metrics"]
            if set(got) != {m["name"] for m in wanted}:
                fail(f"{name} trace={trace}: metrics {sorted(got)}")
            for m in wanted:
                if got[m["name"]]["unit"] != m["unit"]:
                    fail(f"{name}: {m['name']} unit {got[m['name']]['unit']}")
                if not isinstance(got[m["name"]]["value"], (int, float)):
                    fail(f"{name}: {m['name']} is not a number")
                if m["name"] not in printed or "(n=" not in printed[m["name"]]:
                    fail(f"{name}: {m['name']} not printed with its count")
            if trace == 0:
                extra = REPORTED | (QUALITY if name == "replicate_n500" else set())
                missing = extra - set(printed)
                if missing:
                    fail(f"{name}: not printed: {sorted(missing)}")
            print(f"ok {name} trace={trace} attempted={result['attempted']}")

        result, printed, _ = run_tiny(name, 0, fault=swap_first_intercepts)
        ratio = float(printed["failed_ratio"].split()[0])
        if result["correct"] or result["failed"] != result["attempted"] \
                or ratio != 1.0:
            fail(f"{name}: seeded fault not counted (failed "
                 f"{result['failed']}/{result['attempted']}, ratio {ratio})")
        print(f"ok {name} seeded fault counted in failed_ratio")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
