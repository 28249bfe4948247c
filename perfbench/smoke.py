#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny world.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that
  * an untraced run prints every end-to-end metric and a traced run every
    per-layer metric, each finite and with the unit BENCHMARK.json gives;
  * the detail line reports attempted and failed counts for every phase;
  * --force-mismatch makes every correctness check fire and the run fail;
  * the deterministic count metrics repeat exactly in a second traced run.
Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer counts that must not depend on timing.
DETERMINISTIC_COUNTS = (
    "autograd.tensor_allocs_per_fit",
    "core.actions_per_call",
    "core.allocs_per_recommend",
    "infer.score_rows_per_call",
    "infer.shards_remapped_per_reload",
)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace=%d %s printed no result" %
                             (workload, trace, extra))
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, specs, where):
    metrics = result["metrics"]
    expected = {s["name"]: s["unit"] for s in specs}
    assert set(metrics) == set(expected), (
        where, sorted(set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            where, name, value)
        assert metrics[name]["unit"] == unit, (where, name, metrics[name])


def check_phases(detail, where):
    phases = detail["phases"]
    assert {"setup", "timed"} <= set(phases), (where, phases)
    for name, p in phases.items():
        assert isinstance(p["attempted"], int) and p["attempted"] >= 1, (
            where, name, p)
        assert isinstance(p["failed"], int) and p["failed"] >= 0, (
            where, name, p)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        code, detail, result = run(name, 0)
        assert code == 0 and result["correct"] is True, (name, code, result)
        assert result["attempted"] >= 1 and result["failed"] == 0, result
        check_metrics(result, spec["end_to_end"], name + " trace 0")
        check_phases(detail, name)
        assert detail["checks"], (name, "no correctness checks")

        code, detail, traced = run(name, 1)
        assert code == 0 and traced["correct"] is True, (name, code)
        check_metrics(traced, spec["per_layer"], name + " trace 1")
        check_phases(detail, name + " traced")
        for count, pair in detail["repeat_counts"].items():
            assert pair[0] == pair[1], (name, count, pair)

        code, detail, forced = run(name, 0, "--force-mismatch")
        assert code != 0 and forced["correct"] is False, (name, code)
        for check, c in detail["checks"].items():
            assert c["checked"] > 0 and c["mismatches"] > 0, (name, check, c)

        code, _, again = run(name, 1)
        assert code == 0, (name, code)
        for count in DETERMINISTIC_COUNTS:
            a = traced["metrics"][count]["value"]
            b = again["metrics"][count]["value"]
            assert a == b, (name, count, a, b)
        print("smoke %-8s ok: %d e2e, %d per-layer metrics, checks %s" %
              (name, len(result["metrics"]), len(traced["metrics"]),
               ", ".join(sorted(detail["checks"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
