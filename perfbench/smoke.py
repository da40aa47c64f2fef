#!/usr/bin/env python3
"""Smoke check of the benchmark at quick sizes (tiny populations, 1 s).

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it runs perfbench/run.py untraced
and traced, and asserts that the result line names exactly the
end-to-end (resp. per-layer) metrics of BENCHMARK.json with their units
and passes its checks. Then it pins a wrong fingerprint and asserts that
the run fails. Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run(workload, trace, *extra):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "2015", "--seconds", "1",
               "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check(condition, message, output=""):
    if not condition:
        sys.exit(f"smoke: FAIL {message}\n{output}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, output = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None and result["correct"],
                  f"{label} did not pass its checks", output)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  f"{label} metrics differ from BENCHMARK.json: "
                  f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            print(f"smoke: ok {label}")

    with open(os.path.join(ROOT, "perfbench", "pins.json")) as f:
        pins = json.load(f)
    pinned = pins["batch_month"]["2015-quick"]
    pinned["output_fingerprint"] = "%08x" % (
        int(pinned["output_fingerprint"], 16) ^ 1)
    wrong = os.path.join(ROOT, ".bench_work", "smoke-wrong-pins.json")
    os.makedirs(os.path.dirname(wrong), exist_ok=True)
    with open(wrong, "w") as f:
        json.dump(pins, f)
    code, result, output = run("batch_month", 0, "--pins", wrong)
    os.remove(wrong)
    check(code != 0 and result is not None and not result["correct"],
          "a wrong pinned fingerprint did not fail the run", output)
    print("smoke: ok wrong pin fails the run")


if __name__ == "__main__":
    main()
