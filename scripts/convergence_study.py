#!/usr/bin/env python3
"""Step-size refinement studies for the shipped models.

Runs the rigid-body and planar-vehicle refinement studies over a shared
geometric h sequence and prints the fitted slopes.  Each study writes its
``convergence.csv`` into a subdirectory of ``--out-dir``.

Exits with 1 on a malformed flag, and otherwise with the exit code of the
first study that fails (2 for a failed inner solve), or 0.
"""

import argparse
import sys
from pathlib import Path

from geovar import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

STUDIES = {
    "free_rigid_body": CONFIG_DIR / "free_rigid_body.json",
    "se2_vehicle": CONFIG_DIR / "se2_vehicle_convergence.json",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/convergence")
    parser.add_argument(
        "--h-list", type=float, nargs="+",
        default=[0.1, 0.05, 0.025, 0.0125],
    )
    parser.add_argument(
        "--study", choices=sorted(STUDIES) + ["all"], default="all",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed flag
        if exc.code == 2:
            return 1
        raise
    names = sorted(STUDIES) if args.study == "all" else [args.study]
    for name in names:
        out = Path(args.out_dir) / name
        print(f"== {name} -> {out}")
        code = cli.main(
            ["convergence", str(STUDIES[name]), "--out-dir", str(out),
             "--h-list"] + [str(h) for h in args.h_list]
        )
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
