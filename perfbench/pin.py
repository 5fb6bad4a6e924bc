"""Recompute the outcome digests pinned in ``pins.json``.

Usage (from the repository root)::

    python3 perfbench/pin.py 0 100        # seeds [0, 100) plus the held-out seed

For ``campaign`` and ``live-sqlite`` and each seed, runs the first
``trials.CHECK_TRIALS`` trials of the seed through the program's own
backend and :class:`~repro.campaigns.Aggregator` and records the
aggregate's ``outcome_digest``.  Run it only when the benchmark's inputs
change (trial seeds, sizes, backends); a digest that changes because the
program changed is exactly what the pin exists to catch.
"""

from __future__ import annotations

import json
import sys

import common
import trials

#: A seed never used while the benchmark or a change to the program was
#: tuned: later claims are re-checked on it.
HELD_OUT_SEED = 7919


def digest(backend, workload: str, seed: int) -> str:
    from repro.campaigns import Aggregator

    base = trials.trial_base(seed)
    count = trials.CHECK_TRIALS[workload]
    aggregator = Aggregator(backend.label, base, count)
    for trial_seed in range(base, base + count):
        aggregator.add(backend.run_trial(trial_seed))
    return aggregator.finalize().outcome_digest


def main(argv) -> int:
    first, stop = int(argv[0]), int(argv[1])
    common.require_program()
    seeds = sorted(set(range(first, stop)) | {HELD_OUT_SEED})
    path = common.HERE / "pins.json"
    pins = {
        "held_out_seed": HELD_OUT_SEED,
        "check_trials": trials.CHECK_TRIALS,
        "outcome_digest": {},
    }
    for workload in ("campaign", "live-sqlite"):
        backend = trials.build(workload)
        pins["outcome_digest"][workload] = {
            str(seed): digest(backend, workload, seed) for seed in seeds
        }
        print(f"{workload}: {len(seeds)} seeds pinned", flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
