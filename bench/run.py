#!/usr/bin/env python3
"""geovar benchmark: refinement ladders and rigid-body flow.

Run from the repository root:

    python3 bench/run.py --workload vehicle_refine --seed 0 --seconds 40 --trace 0

Prints a provenance line, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of untraced passes; ``--trace 1`` reports per-layer
metrics from traced passes (alternated with untraced ones for the overhead).
"""

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("vehicle_refine", "ball_refine", "rigid_body_flow")
ROOT = Path(__file__).resolve().parent.parent
NEEDED = ("src/geovar/cli.py", "configs/se2_vehicle.json", "configs/ball_plate.json",
          "configs/free_rigid_body.json")


def cap_blas_threads():
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return int(threads)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a geovar checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    import harness

    workload = harness.WORKLOADS[args.workload]
    reference = harness.load_reference(workload)
    variant = harness.variant_for_seed(reference, args.seed)
    runner = harness.Runner(workload, variant, reference, f"seed{args.seed}")
    info = harness.provenance(runner, args.seed, blas_threads, reference)
    runner.warm_up()
    run = harness.run_traced if args.trace else harness.run_untraced
    metrics, extra = run(runner, args.seconds)
    info.update(extra, failures=runner.failures)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
