#!/usr/bin/env python3
"""Record the reference outputs of every input variant of one workload.

    python3 bench/record_reference.py --workload ball_refine

Solves variants 0..harness.VARIANTS-1 once each and writes
``bench/reference/<workload>.json``: per variant whether it converged (and
why not), the per-rung Newton iterations and final residuals, and the
outputs that the benchmark's output checks compare against (the ladders'
``convergence.csv`` rows and slope; the rigid body's initial energy and
trajectory rows).  Run it on the commit whose outputs are the reference;
variants that fail are kept in the file and reported by every run, but are
not timed.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    run.cap_blas_threads()
    import harness
    from tracer import capture_solves

    workload = harness.WORKLOADS[args.workload]
    records = []
    original = harness.cli.solve
    for variant in range(harness.VARIANTS):
        runner = harness.Runner(workload, variant, None, f"record{variant}")
        captured = []
        harness.cli.solve = capture_solves(original, captured)
        try:
            seconds, code = runner.op()
        finally:
            harness.cli.solve = original
        rec = {"variant": variant, "exit_code": code, "seconds": round(seconds, 3)}
        rec["rungs"] = [
            {"unknowns": r.x.size, "iterations": r.iterations, "converged": r.converged,
             "final_resid": r.residual_history[-1], "message": r.message}
            for r, _ in captured
        ]
        if workload.h_list:
            rec["ok"] = code == 0
            stalled = next((r for r in rec["rungs"] if not r["converged"]), None)
            if code == 0:
                with open(runner.out / "convergence.csv") as fh:
                    rows = [line.split(",") for line in fh.read().splitlines()[1:]]
                rec["rows"] = [[float(h), float(err)] for h, err, _ in rows]
                rec["slope"] = float(rows[-1][2])
            elif stalled:
                rec["message"] = (f"{stalled['unknowns']} unknowns: {stalled['message']}"
                                  f" (|r|inf {stalled['final_resid']:.3g})")
        else:
            why = runner.check_flow(code)
            rec["ok"] = not why
            if code == 0:
                diag = json.loads((runner.out / "diagnostics.json").read_text())
                rec.update({k: diag[k] for k in ("energy_drift_max", "energy_initial",
                                                 "momentum_drift", "max_newton_iterations")})
                lines = (runner.out / "trajectory.csv").read_text().splitlines()
                rec["trajectory_rows"] = harness.trajectory_rows(workload, lines)
            rec["message"] = why
        if "message" not in rec:
            rec["message"] = "" if rec["ok"] else f"exit code {code}"
        records.append(rec)
        print(json.dumps(rec), flush=True)
    out = harness.REFERENCE / f"{workload.name}.json"
    out.parent.mkdir(exist_ok=True)
    head = {"workload": workload.name, "sigma": harness.SIGMA,
            "recorded_at_commit": harness._git_commit()}
    out.write_text(json.dumps(head)[:-1] + ', "variants": [\n'
                   + ",\n".join(json.dumps(r) for r in records) + "\n]}\n")
    ok = sum(r["ok"] for r in records)
    print(f"{workload.name}: {ok}/{len(records)} variants converge; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
