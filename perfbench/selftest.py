#!/usr/bin/env python3
"""Self-tests of the study benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, timed and traced, and checks that each
metric BENCHMARK.json names is emitted, finite and tagged with its unit.
Then checks the failure paths: a replay corpus with one truncated bundle
must fail the run with the bundle counted as failed, and bad command lines
must exit non-zero with a usage line and no result. Exits non-zero on the
first failed check.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
TINY = ["--apps", "4", "--seconds", "1"]


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def check(condition, what, done=None):
    if condition:
        return
    if done is not None:
        sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
    sys.exit(f"selftest: FAIL: {what}")


def result_of(done):
    lines = done.stdout.strip().splitlines()
    check(lines and lines[-1].startswith("{"), "no result line", done)
    return json.loads(lines[-1])


def check_metrics(result, expected, where, done):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}", done)
    check(result["attempted"] >= 1, f"{where}: nothing attempted", done)
    for metric in expected:
        name = metric["name"]
        check(name in result["metrics"], f"{where}: {name} missing", done)
        value = result["metrics"][name]
        check(isinstance(value["value"], (int, float))
              and math.isfinite(value["value"]),
              f"{where}: {name} = {value['value']!r} is not finite", done)
        check(value["unit"] == metric["unit"],
              f"{where}: {name} unit {value['unit']!r}, "
              f"expected {metric['unit']!r}", done)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            where = f"{workload} --trace {trace}"
            done = run("--workload", workload, "--trace", trace, *TINY)
            check(done.returncode == 0, f"{where}: exit {done.returncode}",
                  done)
            result = result_of(done)
            check(result["correct"] and result["failed"] == 0,
                  f"{where}: not correct", done)
            check_metrics(result, expected, where, done)
            print(f"selftest: ok {where}", flush=True)

    done = run("--workload", "replay", "--truncate-spab", *TINY)
    result = result_of(done)
    check(done.returncode != 0, "truncated bundle: run exited 0", done)
    check(not result["correct"] and result["failed"] >= 1,
          "truncated bundle: not counted as failed", done)
    check("quarantined" in done.stderr,
          "truncated bundle: not quarantined", done)
    print("selftest: ok truncated .spab fails the run", flush=True)

    for bad in (["--help"], ["--workload", "nosuch"], ["--apps", "0"],
                ["--apps", "x"], ["--seconds", "-1"], ["--trace", "2"],
                ["--seed"], ["--seed", str(2 ** 64)], ["--frobnicate", "1"],
                ["--workload", "campaign", "--truncate-spab"]):
        done = run(*bad)
        check(done.returncode != 0, f"{bad}: exit 0", done)
        check("usage:" in done.stderr, f"{bad}: no usage line", done)
        check(not done.stdout.strip(), f"{bad}: printed a result", done)
    print("selftest: ok bad command lines are refused", flush=True)


if __name__ == "__main__":
    main()
