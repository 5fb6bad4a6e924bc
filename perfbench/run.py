"""The repository benchmark: one command per workload and trace mode.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and fails when any of them fails.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``campaign``      the Section 4 validation campaign, serial, postgres
                    variant (formal semantics vs engine per trial);
* ``live-sqlite``   the live-SQLite differential campaign over the library
                    scenario at 3·10⁴ rows;
* ``service-zipf``  ``repro serve`` in its own process, two closed-loop
                    keep-alive connections executing five prepared FK
                    lookups with Zipf(1.1)-drawn keys.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` is a separate run that wraps each layer's entry points
(:mod:`spans`), reports the per-layer metrics and writes the spans under
``.bench_build/perfbench/``.  Every run checks the program's outputs; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when any check fails.  Human-readable lines before it give each
metric with its unit, the sample counts, the checks and the provenance
(``nproc``, Python version, load average at start and end).

``setup_s`` is the median of ``SETUP_PROBES`` fresh set-ups: a new
interpreter importing the program and building the workload's state (the
3·10⁴-row scenario and its SQLite copy for ``live-sqlite``); for
``service-zipf``, a server boot plus ``/load`` and ``/prepare``.

All times, ``setup_s`` too, are reported at a fixed reference machine
speed: the benchmark times a fixed arithmetic loop between the segments
of each timed window and between set-ups, and scales each segment's wall
time by how much slower than the reference the loop ran around it
(:mod:`speed`).  The host's neighbours move raw times by 20-30% from
minute to minute; over ten seeds of 30 s on a 2-vCPU 2.1 GHz Xeon, the
interquartile spread of the scaled end-to-end times was 3-13% of their
median, where raw times spread up to 39%.  Raw figures are printed on a
``speed:`` line.  The run and every process it starts are pinned to one
CPU (``pinned_cpu`` in the provenance; ``nproc`` is counted before), so
that the loop times the core that does the work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import common
import speed

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7


def median_setup_s(workload: str, seed: int) -> float:
    """Median of SETUP_PROBES set-ups, each at the reference speed."""
    track = speed.SpeedTrack()
    track.sample()
    elapsed = []
    for _ in range(SETUP_PROBES):
        elapsed.append(probe_setup(workload, seed))
        track.sample()
    return statistics.median(
        seconds / track.slowness(i) for i, seconds in enumerate(elapsed)
    )


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has built the
    workload's state (it prints ``ready`` then exits)."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    finally:
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise common.BenchError(f"set-up probe failed: {line!r}")
    return elapsed


def run_all(args) -> int:
    """Each workload in its own process (so peak memory stays per
    workload); the last line sums the checks and prefixes each metric
    with its workload's name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in common.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        common.require_program()
        prov = common.provenance()
        # One CPU for this process and every process it starts (children
        # inherit it): the calibration then times the core that does the
        # work, and the service's client and server hand requests over
        # without waking a second vCPU through the host.
        prov["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {prov["pinned_cpu"]})
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            import trials

            trials.build(args.workload)
            print("ready", flush=True)
            return 0
        if args.workload == "service-zipf":
            import service

            return service.run(args.seed, args.seconds, bool(args.trace), prov)
        import trials

        setup_s = None if args.trace else median_setup_s(args.workload, args.seed)
        return trials.run(
            args.workload, args.seed, args.seconds, bool(args.trace), setup_s, prov
        )
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
