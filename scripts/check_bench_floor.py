#!/usr/bin/env python3
"""Perf-floor gate over the BENCH_*.json headline files.

The bench binaries write their headline comparisons as machine-readable
JSON next to the cwd:

  bench/attribution_throughput -> BENCH_attribution.json
  bench/wire_and_memory        -> BENCH_wire.json
  bench/ingest_throughput      -> BENCH_ingest.json
  bench/spectord_throughput    -> BENCH_spectord.json
  bench/scenario_throughput    -> BENCH_scenarios.json
  bench/store_generation       -> BENCH_store.json

This script fails when any gated metric regresses below its recorded
floor, or above its recorded ceiling for a cost, so an accidental
slow-down on a hot path turns a green lane red instead of silently
eroding a ROADMAP target.

Every gate is an absolute number of the code as it stands; none is a
ratio over a retired code path kept alive only to divide by. Rate floors
are set far below a healthy run (about a quarter of the 1-core CI box
measurement) because wall-clock rates vary with the machine; they exist
to catch order-of-magnitude regressions such as an accidental O(n^2) in
the router or a stalled daemon event loop. Ceilings on deterministic
costs (wire bytes, heap allocations of a seeded workload) sit well above
the measured value and well below what the replaced design cost, so
they catch a return to it. The N-shard/N-client scaling ratios are
deliberately not gated: on a 1-core CI box the parallel variants cannot
beat serial, so a ratio floor would gate the machine, not the code.

Usage: scripts/check_bench_floor.py [BENCH_file.json ...]
       With no arguments, every known BENCH file found in the current
       directory is checked (at least one must exist). Explicitly named
       files must exist.

Exit status: 0 when every gated metric meets its floor or ceiling, 1
otherwise.
"""

import json
import os
import sys

# path -> {key: (floor, unit)}; unit "x" = fraction, "/s" or "MB/s" =
# absolute rate.
FLOORS = {
    "BENCH_attribution.json": {
        # The production path over a 200-app study: attributeColumns
        # alone, then attributeColumns + addAppColumns (the headline
        # ROADMAP metric), serialized and parallel. Measured ~1,500,
        # ~1,350 and ~1,500 apps/s on a 4-thread box (parallel cannot beat
        # serialized on a 1-core box, so its floor matches the fold's).
        "attribute_serialized_apps_per_sec": (350.0, "/s"),
        "fold_serialized_apps_per_sec": (325.0, "/s"),
        "fold_parallel_apps_per_sec": (325.0, "/s"),
    },
    "BENCH_wire.json": {
        # util::crc32 over an 8 MiB random buffer, one thread, median of
        # 5. Measured 1,850-1,960 MB/s for the slicing-by-8 kernel and
        # 360-370 MB/s for the one-table byte loop it replaced, on one
        # 4-core box: the floor sits between them, so it catches a revert.
        "crc32_mb_per_sec": (500.0, "MB/s"),
    },
    "BENCH_ingest.json": {
        # Sharded router, single shard, multi-producer: absolute floor
        # (not the shard_scaling ratio -- see module docstring).
        "one_shard_datagrams_per_sec": (50000.0, "/s"),
    },
    "BENCH_spectord.json": {
        # Framed datagrams through the daemon's duplex-channel protocol
        # and event loop, client fleet, single collector.
        "frames_per_sec": (20000.0, "/s"),
    },
    "BENCH_scenarios.json": {
        # Scenario-diversity corpus (keep-alive reuse + adversarial
        # laundering + background sync). The fraction floors gate that
        # the scenarios actually fire -- a generator or wiring regression
        # that silently drops pooled requests, multi-library sockets, or
        # the RTT axis shows up as a fraction collapse long before it
        # shows up in wall clock. Measured: pooled 0.13, multi-library
        # 0.037, rtt 1.0.
        "pooled_flow_fraction": (0.02, "x"),
        "multi_library_socket_fraction": (0.005, "x"),
        "rtt_measured_fraction": (0.5, "x"),
        # Absolute rate: scenario emulation must stay the same order of
        # magnitude as the legacy corpus (measured ~73/s vs ~62/s on the
        # 1-core CI box).
        "scenario_apps_per_sec": (15.0, "/s"),
    },
    "BENCH_store.json": {
        # makeJob + sha256 over a 96-app corpus, median of 5,
        # the threads claiming indices from one cursor as dispatcher
        # workers do. Measured ~960-1,340 apps/s on 1 thread and
        # ~3,700-5,260 on 4 threads of a 4-core box (~670-770 and
        # ~2,000-2,300 while each program method stored its own signature
        # and frame name strings). The all-threads floor matches the
        # one-thread floor: on a 1-core box it cannot beat one thread.
        "one_thread_apps_per_sec": (40.0, "/s"),
        "all_threads_apps_per_sec": (40.0, "/s"),
        # ApkFile::sha256() alone over 16 apks, serialized MB/s on one
        # thread, median of 5, on whichever kernel the process selected
        # (sha256_kernel). Measured 103-151 MB/s on the portable kernel and
        # 1,230-1,440 MB/s on the SHA-extension kernel of one 4-core box:
        # the floor is one both kernels clear, so it gates the code on any
        # CPU.
        "sha256_mb_per_sec": (60.0, "MB/s"),
    },
}


# path -> {key: (ceiling, unit)}: costs, where higher is worse.
CEILINGS = {
    "BENCH_wire.json": {
        # Report-frame bytes per reported socket over a seeded 4,000-socket
        # run with 8-16 deep stacks of 60-90 character signatures.
        # Measured 174.07 with the signature dictionary; frames that carried
        # every signature's text read 1,376.9.
        "v3_bytes_per_socket": (400.0, " B"),
        # Heap allocations per 10k flows of the record + fold stage over a
        # seeded 60-app study. Measured 172.0 for u32-id columns folded
        # densely; one string per flow field and string-keyed maps read
        # 56,500.
        "symbol_allocations_per_10k_flows": (2000.0, " allocs"),
    },
    "BENCH_store.json": {
        # Heap allocations per makeJob over the bench's 96-app corpus, one
        # thread. Measured 34,810 when each apk stored its signatures as
        # separate strings in nested class vectors, 4,134 with the dex
        # written once into one image but a signature and a frame name
        # string per program method, and 755 with the program's
        # signatures in one arena and the class map in one block: the
        # ceiling catches a return to a string per method.
        "make_job_allocs_per_app": (2500.0, " allocs"),
    },
}


def fmt(value, unit):
    if unit.endswith("/s"):
        return f"{value:,.0f}{unit}"
    return f"{value:g}{unit}"


def check_file(path, floors, ceilings, failures):
    try:
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
    except OSError as err:
        print(f"check_bench_floor: cannot read {path}: {err}", file=sys.stderr)
        failures.append(f"{path}: unreadable")
        return
    except json.JSONDecodeError as err:
        print(f"check_bench_floor: {path} is not valid JSON: {err}",
              file=sys.stderr)
        failures.append(f"{path}: invalid JSON")
        return

    gates = [(key, bound, unit, "floor") for key, (bound, unit)
             in floors.items()]
    gates += [(key, bound, unit, "ceiling") for key, (bound, unit)
              in ceilings.items()]
    for key, bound, unit, kind in sorted(gates):
        value = bench.get(key)
        if not isinstance(value, (int, float)):
            failures.append(
                f"{path}: {key} missing ({kind} {fmt(bound, unit)})")
            continue
        passed = value >= bound if kind == "floor" else value <= bound
        status = "ok" if passed else "REGRESSION"
        print(f"{path}: {key}: {fmt(value, unit)}"
              f" ({kind} {fmt(bound, unit)}) {status}")
        if not passed:
            relation = "<" if kind == "floor" else ">"
            failures.append(
                f"{path}: {key}: {fmt(value, unit)}"
                f" {relation} {kind} {fmt(bound, unit)}")


def main(argv):
    failures = []
    known = sorted(set(FLOORS) | set(CEILINGS))
    if len(argv) > 1:
        for path in argv[1:]:
            name = os.path.basename(path)
            if name not in known:
                print(f"check_bench_floor: no floors defined for {path}",
                      file=sys.stderr)
                return 1
            check_file(path, FLOORS.get(name, {}), CEILINGS.get(name, {}),
                       failures)
    else:
        present = [path for path in known if os.path.exists(path)]
        if not present:
            print("check_bench_floor: no BENCH_*.json files found in the "
                  "current directory (run the bench binaries first)",
                  file=sys.stderr)
            return 1
        for path in present:
            check_file(path, FLOORS.get(path, {}), CEILINGS.get(path, {}),
                       failures)

    if failures:
        print("check_bench_floor: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("check_bench_floor: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
