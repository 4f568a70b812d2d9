#!/usr/bin/env python3
"""Long-run conservation study for the free rigid body.

Integrates the discrete Euler-Poincare flow for many steps, then writes
per-step kinetic energy and the spatial momentum components to a CSV and
prints summary drift figures.  Energy should oscillate with no secular
trend; the spatial momentum should be constant to solver accuracy.

Exits with 1, writing nothing, when a flag is out of range (``--steps``
below 2, a zero, negative or non-finite ``--h`` or ``--inertia`` entry, a
non-finite ``--xi0`` entry), and with 2 when any step hit its Newton
iteration cap (the CSV is still written).  Example:
``python scripts/energy_drift.py --steps 1000``.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from geovar import groups
from geovar.discrete import (capped_steps, dep_solve_path, reconstruct,
                             spatial_momentum)
from geovar.models import free_rigid_body_model
from geovar.retraction import CayleyRetraction


def bad_argument(args):
    """What is wrong with the flags, naming the first bad one, or None.

    Two steps are the fewest a flow has (the rigid-body minimum of
    ``geovar solve``).  A bad ``--h``, ``--inertia`` or ``--xi0`` would be
    integrated into NaNs, reported as steps at the Newton cap, or run
    backwards and look like a result.
    """
    if args.steps < 2:
        return f"--steps must be at least 2, got {args.steps}"
    if not (np.isfinite(args.h) and args.h > 0):
        return f"--h must be finite and positive, got {args.h}"
    if not all(np.isfinite(v) and v > 0 for v in args.inertia):
        return f"--inertia must be finite and positive, got {args.inertia}"
    if not np.all(np.isfinite(args.xi0)):
        return f"--xi0 must be finite, got {args.xi0}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=10_000)
    parser.add_argument("--h", type=float, default=0.01)
    parser.add_argument(
        "--inertia", type=float, nargs=3, default=[1.0, 2.0, 3.0]
    )
    parser.add_argument(
        "--xi0", type=float, nargs=3, default=[0.3, 0.2, 0.5]
    )
    parser.add_argument("--out-dir", default="out/energy_drift")
    args = parser.parse_args(argv)
    bad = bad_argument(args)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 1

    body = free_rigid_body_model(args.inertia)
    retr = CayleyRetraction(groups.SO3)
    h = args.h
    xi, iters = dep_solve_path(body.lhat_grad(h), np.asarray(args.xi0),
                               args.steps, h, retr, return_iterations=True)
    capped = len(capped_steps(iters))
    g = reconstruct(xi, np.eye(3), h, retr)
    energy = body.energy(xi)
    pi = spatial_momentum(body.lhat_grad(h), xi, g[:-1], h, retr)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["t,energy,pi1,pi2,pi3"]
    for k in range(args.steps):
        lines.append(
            ",".join(
                "%.17g" % v
                for v in (k * h, energy[k], pi[k, 0], pi[k, 1], pi[k, 2])
            )
        )
    (out / "conservation.csv").write_text("\n".join(lines) + "\n")

    rel_drift = np.abs(energy - energy[0]).max() / energy[0]
    print(f"steps: {args.steps}  h: {h}")
    print(f"relative energy drift (max): {rel_drift:.3e}")
    print(f"momentum drift (max abs): {np.abs(pi - pi[0]).max():.3e}")
    print(f"steps at the Newton cap: {capped}")
    print(f"wrote {out / 'conservation.csv'}")
    return 2 if capped else 0


if __name__ == "__main__":
    sys.exit(main())
