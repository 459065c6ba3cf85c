#!/usr/bin/env python3
"""Study benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py [--workload SUBSTRING] [--seed N] [--apps N]
                             [--seconds N] [--trace 0|1]

Builds perfbench_driver from the checkout's sources on first use, runs every
workload whose name contains SUBSTRING (all of them by default), and prints
each workload's metrics by name with units, a provenance line, and, last,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With several
workloads the metric names are prefixed with "<workload>.". Exits non-zero
when the command line is bad, the build fails, or any correctness check
fails. This is the one checker of the command line; the driver trusts it.

--seconds defaults to BENCHMARK.json's run_seconds, the length every
comparison runs at; smaller values are for the self-tests.
"""

import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign", "replay", "collector")
DEFAULT_SEED = 20200629
USAGE = ("usage: python3 perfbench/run.py [--workload SUBSTRING] [--seed N] "
         "[--apps N>0] [--seconds N>0] [--trace 0|1]")

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def usage_error(why):
    print(f"run.py: {why}\n{USAGE}", file=sys.stderr)
    sys.exit(2)


def whole_number(flag, text, minimum):
    if not (text.isascii() and text.isdigit()) or int(text) < minimum:
        usage_error(f"{flag} needs a whole number >= {minimum}, got {text!r}")
    return int(text)


def parse_args(argv):
    options = {"workload": "", "seed": DEFAULT_SEED, "apps": None,
               "seconds": None, "trace": 0, "truncate_spab": False}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("-h", "--help"):
            usage_error("prints no results when asked for help")
        if flag == "--truncate-spab":
            # Fault injection for the negative self-test: corrupt one bundle
            # of the replay corpus, which must make the run fail.
            options["truncate_spab"] = True
            i += 1
            continue
        if flag not in ("--workload", "--seed", "--apps", "--seconds",
                        "--trace"):
            usage_error(f"unknown argument {flag!r}")
        if i + 1 >= len(argv):
            usage_error(f"missing value after {flag}")
        value = argv[i + 1]
        i += 2
        if flag == "--workload":
            options["workload"] = value
        elif flag == "--seed":
            options["seed"] = whole_number(flag, value, 0)
            if options["seed"] >= 2 ** 64:
                usage_error("--seed must fit in 64 bits")
        elif flag == "--apps":
            options["apps"] = whole_number(flag, value, 1)
        elif flag == "--seconds":
            options["seconds"] = whole_number(flag, value, 1)
        else:
            trace = whole_number(flag, value, 0)
            if trace > 1:
                usage_error("--trace takes 0 or 1")
            options["trace"] = trace
    selected = [w for w in WORKLOADS if options["workload"] in w]
    if not selected:
        usage_error(f"no workload matches {options['workload']!r} "
                    f"(workloads: {', '.join(WORKLOADS)})")
    if options["truncate_spab"] and selected != ["replay"]:
        usage_error("--truncate-spab applies to the replay workload only")
    if options["seconds"] is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        options["seconds"] = bench["run_seconds"]
    return options, selected


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"libspector sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(build_dir / "perfbench.lock", "w") as lock:
        # Concurrent runs in one checkout share the build tree.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench_driver", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                die(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench_driver"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def filesystem(path):
    done = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(driver, name, options):
    """Runs one workload; returns (exit code, result dict or None)."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    command = [str(driver), "--workload", name,
               "--seed", str(options["seed"]),
               "--seconds", str(options["seconds"]),
               "--trace", str(options["trace"]), "--work", str(work)]
    if options["apps"] is not None:
        command += ["--apps", str(options["apps"])]
    if options["truncate_spab"]:
        command.append("--truncate-spab")
    try:
        work.mkdir(parents=True, exist_ok=True)
        scratch_fs = filesystem(work)
        # Set-up, plus up to one cycle past --seconds, fits well inside.
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=100 + 3 * options["seconds"])
    except subprocess.TimeoutExpired:
        print(f"run.py: {name} timed out", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    lines = done.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            provenance["git_commit"] = git_commit()
            provenance["scratch_fs"] = scratch_fs
            line = "provenance " + json.dumps(provenance)
        print(line)
    return done.returncode, result


def main():
    options, selected = parse_args(sys.argv[1:])
    driver = build()
    results = {}
    exit_code = 0
    for name in selected:
        code, result = run_workload(driver, name, options)
        if code != 0 or result is None or not result.get("correct"):
            exit_code = 1
        if result is not None:
            results[name] = result
    if len(selected) == 1 and results:
        print(json.dumps(results[selected[0]]), flush=True)
    elif results:
        combined = {"correct": exit_code == 0,
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{name}.{metric}": value
                                for name, result in results.items()
                                for metric, value in result["metrics"].items()}}
        print(json.dumps(combined), flush=True)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
