"""Command-line front end.

Subcommands
-----------
``geovar solve <config.json>``
    Solve the configured problem, write ``trajectory.csv`` and
    ``diagnostics.json`` into the output directory.  Exit 0 on
    convergence, 1 on configuration errors, 2 on no-convergence (the best
    iterate is still written).
``geovar convergence <config.json> --h-list h1 h2 h3 ...``
    Solve at each step size (warm-starting finer runs from coarser ones),
    compare against the finest run, write ``convergence.csv`` with a
    least-squares slope.
``geovar oracle <config.json> --seed S``
    Evaluate the assembled stationarity residual at a seeded random
    interior point and compare it against an independent finite-difference
    gradient of the discrete augmented action; at the same point, check that
    the column-grouped Jacobian equals the dense one exactly.

Common flags: ``--tol``, ``--max-iters``, ``--retraction``, ``--out-dir``.
Each flag can also be set through an environment variable with the
``GEOVAR_`` prefix (``GEOVAR_TOL``, ``GEOVAR_MAX_ITERS``,
``GEOVAR_RETRACTION``, ``GEOVAR_OUT_DIR``); explicit flags win over the
environment, which wins over the config file.

The config file is JSON; see the repository README for the schema.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import discrete, groups, models, ocp, oracle
from .errors import ConfigError, GeovarError
from .retraction import make_retraction
from .solver import SolverConfig, fd_jacobian, solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2

_MODELS = ("se2_vehicle", "ball_plate", "free_rigid_body")


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def _require(table, field, typ=None, where=""):
    if field not in table:
        raise ConfigError(where + field, "missing required field")
    value = table[field]
    # bool is a subclass of int, but true/false is never a count or a size
    if typ is not None and (isinstance(value, bool) or not isinstance(value, typ)):
        names = " or ".join(t.__name__ for t in (typ if isinstance(typ, tuple) else (typ,)))
        raise ConfigError(where + field, f"expected {names}, got {type(value).__name__}")
    return value


def _has_bool(raw):
    return isinstance(raw, bool) or (
        isinstance(raw, list) and any(_has_bool(v) for v in raw)
    )


def _float_array(table, field, what, where):
    raw = _require(table, field, list, where)
    # as in _require: true/false is never a coordinate or a matrix entry
    if _has_bool(raw):
        raise ConfigError(where + field, f"expected {what}, got true/false")
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(where + field, f"expected {what}")


def _vector(table, field, length, where=""):
    arr = _float_array(table, field, "a list of numbers", where)
    if arr.shape != (length,):
        raise ConfigError(
            where + field, f"expected {length} numbers, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigError(where + field, "entries must be finite")
    return arr


def _matrix(table, field, group_tag, where=""):
    arr = _float_array(table, field, "a 3x3 matrix", where)
    if arr.shape == (9,):
        arr = arr.reshape(3, 3)  # row-major
    if arr.shape != (3, 3):
        raise ConfigError(
            where + field, f"expected a 3x3 matrix (or 9 row-major numbers), got shape {arr.shape}"
        )
    try:
        groups.check_matrix(arr, group_tag)
    except GeovarError as exc:
        raise ConfigError(where + field, f"not a valid {group_tag} element: {exc}")
    return arr


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a table")
    model = _require(cfg, "model", str)
    if model not in _MODELS:
        raise ConfigError("model", f"expected one of {_MODELS}, got {model!r}")
    N = _require(cfg, "N", int)
    h = _require(cfg, "h", (int, float))
    if not (np.isfinite(h) and h > 0):
        raise ConfigError("h", f"must be finite and positive, got {h}")
    _check_steps(model, N, "N")
    if not isinstance(cfg.get("out_dir", ""), str):
        raise ConfigError("out_dir", f"expected a string, got {cfg['out_dir']!r}")
    return cfg


def _load(args):
    """The config file and the solver settings, both checked before any run.

    Every command and model checks the solver settings; the rigid body and
    the oracle do not use them.
    """
    cfg = load_config(args.config)
    return cfg, solver_config(cfg, args)


def _check_steps(model, N, field):
    """The step count ``N`` of a run of ``model`` is at least the minimum:
    6 for the optimal-control stencils, 2 for the rigid-body flow."""
    low = 2 if model == "free_rigid_body" else 6
    if N < low:
        raise ConfigError(field, f"need N >= {low} for {model}, got N = {N}")


def _build_params(cfg):
    model = cfg["model"]
    table = cfg.get("params", {})
    if not isinstance(table, dict):
        raise ConfigError("params", "must be a table")
    try:
        if model == "se2_vehicle":
            return models.Se2VehicleParams(**table)
        if model == "ball_plate":
            return models.BallPlateParams(**table)
        unknown = sorted(set(table) - {"inertia"})
        if unknown:
            raise ConfigError("params", f"{unknown[0]!r} is not a rigid-body parameter")
        inertia = _vector(table, "inertia", 3, "params.") if "inertia" in table \
            else np.array([1.0, 2.0, 3.0])
        return models.free_rigid_body_model(inertia)
    except TypeError as exc:
        raise ConfigError("params", str(exc))


def _build_boundary(cfg, n, group_tag):
    table = _require(cfg, "boundary", dict)
    w = "boundary."
    return ocp.BoundaryData(
        q0=_vector(table, "q0", n, w),
        dq0=_vector(table, "dq0", n, w),
        qT=_vector(table, "qT", n, w),
        dqT=_vector(table, "dqT", n, w),
        xi0=_vector(table, "xi0", 3, w),
        xiT=_vector(table, "xiT", 3, w),
        g0=_matrix(table, "g0", group_tag, w),
        gT=_matrix(table, "gT", group_tag, w),
        dxi0=_vector(table, "dxi0", 3, w) if "dxi0" in table else None,
        dxiT=_vector(table, "dxiT", 3, w) if "dxiT" in table else None,
    )


def build_problem(cfg, N=None, h=None):
    """Config table -> (SecondOrderProblem, params).  OCP models only."""
    model = cfg["model"]
    params = _build_params(cfg)
    N = cfg["N"] if N is None else N
    h = cfg["h"] if h is None else h
    if model == "se2_vehicle":
        boundary = _build_boundary(cfg, 1, groups.SE2)
        return models.se2_vehicle_problem(params, boundary, N, h), params
    if model == "ball_plate":
        boundary = _build_boundary(cfg, 2, groups.SO3)
        return models.ball_plate_problem(params, boundary, N, h), params
    raise ConfigError("model", f"{model!r} is not an optimal-control model")


def solver_config(cfg, args):
    table = cfg.get("solver", {})
    if not isinstance(table, dict):
        raise ConfigError("solver", "must be a table")
    keys = {f.name for f in dataclasses.fields(SolverConfig)}
    for key in table:
        if key not in keys:
            raise ConfigError("solver", f"{key!r} is not a config key")
    kwargs = dict(table)
    tol = _override(args, "tol", "GEOVAR_TOL", float)
    if tol is not None:
        kwargs["tol_residual"] = tol
    max_iters = _override(args, "max_iters", "GEOVAR_MAX_ITERS", int)
    if max_iters is not None:
        kwargs["max_iters"] = max_iters
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("solver", str(exc))


def _override(args, attr, env, typ):
    val = getattr(args, attr, None)
    if val is not None:
        return val
    raw = os.environ.get(env)
    if raw is None:
        return None
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(env, f"cannot parse {raw!r} as {typ.__name__}")


def retraction_kind(cfg, args):
    kind = getattr(args, "retraction", None) or os.environ.get("GEOVAR_RETRACTION") \
        or cfg.get("retraction", "cayley")
    if not isinstance(kind, str):
        raise ConfigError("retraction", f"expected a string, got {kind!r}")
    return kind


def out_dir(cfg, args):
    out = getattr(args, "out_dir", None) or os.environ.get("GEOVAR_OUT_DIR") \
        or cfg.get("out_dir", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(x):
    return "%.17g" % float(x)


_CHUNK_ROWS = 256  # trajectory rows formatted and written per batch


def write_trajectory(path, t_nodes, q_nodes, xi_nodes, lam_nodes, g_nodes):
    """CSV with one row per node; see README for the column layout.

    q/g columns are filled at every node; xi at nodes 0..N-1; the window
    multipliers on their center node (rows 1..N-1).  Cells outside a
    series' range are empty.  Each cell is ``"%.17g"`` of its float.  Rows
    that fill the same cells share one row format, applied with one ``%``
    per row; rows are formatted and written a bounded chunk at a time.
    """
    N = len(t_nodes) - 1
    n = 0 if q_nodes is None else q_nodes.shape[1]
    m = 0 if lam_nodes is None else lam_nodes.shape[1]
    header = ["t"]
    header += [f"q{c + 1}" for c in range(n)]
    header += [f"xi{c + 1}" for c in range(3)]
    header += [f"lam{c + 1}" for c in range(m)]
    header += [f"g{i + 1}{j + 1}" for i in range(3) for j in range(3)]
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        # rows 0, 1..N-1 and N each fill the same cells
        bounds = sorted({0, min(1, N), N, N + 1})
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            has_xi, has_lam = lo < N, m > 0 and 1 <= lo <= N - 1
            fmt = ",".join(["%.17g"] * (1 + n) + ["%.17g" if has_xi else ""] * 3
                           + ["%.17g" if has_lam else ""] * m + ["%.17g"] * 9)
            for a in range(lo, hi, _CHUNK_ROWS):
                b = min(a + _CHUNK_ROWS, hi)
                cells = [t_nodes[a:b, None]]
                cells += [q_nodes[a:b]] if n else []
                cells += [xi_nodes[a:b]] if has_xi else []
                cells += [lam_nodes[a - 1 : b - 1]] if has_lam else []
                cells.append(g_nodes[a:b].reshape(b - a, 9))
                rows = np.hstack(cells).tolist()
                out.write("".join([fmt % tuple(row) + "\n" for row in rows]))


def _finite_or_null(value):
    """``value`` with each non-finite float, nested ones too, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return value


def write_diagnostics(path, payload):
    """Strict JSON: non-finite numbers are written as ``null``, and any
    that the conversion misses makes the dump fail."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    Path(path).write_text(text + "\n")


# ---------------------------------------------------------------------------
# Runs: one rung of the optimal-control path, one rigid-body flow
# ---------------------------------------------------------------------------


def _solve_rung(prob, retr, scfg, x0):
    """Newton solve of one discretization from ``x0``; returns the
    ``SolveResult`` and the path of its last iterate with group nodes."""
    result = solve(ocp.make_residual_fn(prob, retr), x0, scfg)
    return result, ocp.solution_path(prob, result.x, retr)


def _rigid_body(cfg, args):
    """The configured body, its retraction and ``flow(N, h) -> (xi_nodes,
    iterations per step, capped steps)`` from ``boundary.xi0``."""
    body = _build_params(cfg)
    retr = make_retraction(retraction_kind(cfg, args), groups.SO3)
    xi0 = _vector(_require(cfg, "boundary", dict), "xi0", 3, "boundary.")

    def flow(N, h):
        xi_nodes, iters = discrete.dep_solve_path(
            body.lhat_grad(h), xi0, N, h, retr, return_iterations=True
        )
        return xi_nodes, iters, discrete.capped_steps(iters)

    return body, retr, flow


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_ocp(cfg, args, scfg):
    prob, _ = build_problem(cfg)
    retr = make_retraction(retraction_kind(cfg, args), prob.group_tag)
    counts = {
        "unknowns": ocp.unknown_count(prob.N, prob.n, prob.m),
        "equations": ocp.equation_count(prob.N, prob.n, prob.m),
    }
    result, path = _solve_rung(prob, retr, scfg, ocp.initial_guess(prob, retr))
    lay, r = ocp.layout(prob), result.residual
    diag = {
        "model": cfg["model"],
        "N": prob.N,
        "h": prob.h,
        "counts": counts,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "message": result.message,
        "residual_history": result.residual_history,
        "residual_inf_norm": result.residual_history[-1],
        "constraint_max_violation": float(np.abs(r[lay.constraint_rows]).max()),
        "closure_inf_norm": float(np.abs(r[lay.closure_rows]).max()),
        "terminal_group_error": float(
            np.abs(path.g_nodes[-1] - prob.boundary.gT).max()
        ),
    }
    return _write_run(
        cfg, args, diag, path.q_nodes, path.xi_nodes, path.lambda_nodes, path.g_nodes
    )


# A flow that overflows is reported by its capped steps, exit code and
# null diagnostics; numpy's floating-point warnings would only repeat it.
@np.errstate(invalid="ignore", over="ignore")
def _solve_frb(cfg, args):
    body, retr, flow = _rigid_body(cfg, args)
    table = cfg["boundary"]
    g0 = _matrix(table, "g0", groups.SO3, "boundary.") if "g0" in table else np.eye(3)
    N, h = cfg["N"], cfg["h"]
    xi_nodes, iters, stuck = flow(N, h)
    g_nodes = discrete.reconstruct(xi_nodes, g0, h, retr)
    # nodes k < N-1: one row per adjacent pair (g_k, g_k+1)
    momenta = discrete.spatial_momentum(
        body.lhat_grad(h), xi_nodes[:-1], g_nodes[:-2], h, retr
    )
    energy = body.energy(xi_nodes)
    diag = {
        "model": "free_rigid_body",
        "N": N,
        "h": h,
        "converged": not stuck,
        "nonconverged_steps": len(stuck),
        "first_nonconverged_step": stuck[0] if stuck else None,
        "newton_iterations_per_step": iters,
        "max_newton_iterations": max(iters) if iters else 0,
        "momentum_per_step": momenta.tolist(),
        "momentum_drift": float(np.abs(momenta - momenta[0]).max()),
        "energy_initial": float(energy[0]),
        "energy_drift_max": float(np.abs(energy - energy[0]).max()),
    }
    return _write_run(cfg, args, diag, None, xi_nodes, None, g_nodes)


def _write_run(cfg, args, diag, q_nodes, xi_nodes, lam_nodes, g_nodes):
    """Write ``trajectory.csv`` and ``diagnostics.json``; the exit code
    follows ``diag["converged"]``."""
    directory = out_dir(cfg, args)
    t_nodes = np.arange(diag["N"] + 1) * diag["h"]
    write_trajectory(
        directory / "trajectory.csv", t_nodes, q_nodes, xi_nodes, lam_nodes, g_nodes
    )
    write_diagnostics(directory / "diagnostics.json", diag)
    return EXIT_OK if diag["converged"] else EXIT_NO_CONVERGENCE


def cmd_solve(args):
    cfg, scfg = _load(args)
    if cfg["model"] == "free_rigid_body":
        return _solve_frb(cfg, args)
    return _solve_ocp(cfg, args, scfg)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def _max_gap(t, table, t_ref, table_ref):
    """Largest entry of ``|table - table_ref|``, the reference node table
    interpolated linearly, column by column, to the node times ``t``."""
    return float(np.abs(table - ocp.interp_columns(t, t_ref, table_ref)).max())


def cmd_convergence(args):
    cfg, scfg = _load(args)
    h_list = sorted(args.h_list, reverse=True)
    if len(h_list) < 3:
        raise ConfigError("h-list", "need at least three step sizes")
    got = " ".join(f"{hh:g}" for hh in args.h_list)
    if not all(hh > 0 for hh in h_list):
        raise ConfigError("h-list", f"step sizes must be positive, got {got}")
    if any(a <= b for a, b in zip(h_list, h_list[1:])):
        raise ConfigError("h-list", f"step sizes must strictly decrease, got {got}")
    ratios = [h_list[i] / h_list[i + 1] for i in range(len(h_list) - 1)]
    if max(ratios) - min(ratios) > 1e-9:
        raise ConfigError("h-list", "step sizes must form a geometric sequence")
    T = cfg["N"] * cfg["h"]
    rungs = [(_int_steps(cfg["model"], T, hh), hh) for hh in h_list]
    directory = out_dir(cfg, args)
    if cfg["model"] == "free_rigid_body":
        runs = _ladder_frb(cfg, args, rungs)
    else:
        runs = _ladder_ocp(cfg, args, scfg, rungs)
    h_f, t_f, table_f = runs[-1]
    rows = [(hh, _max_gap(t, table, t_f, table_f)) for hh, t, table in runs[:-1]]
    slope = fit_slope([r[0] for r in rows], [r[1] for r in rows])
    lines = ["h,error,slope"]
    for hh, err in rows + [(h_f, 0.0)]:
        lines.append(f"{_fmt(hh)},{_fmt(err)},{_fmt(slope)}")
    (directory / "convergence.csv").write_text("\n".join(lines) + "\n")
    print(f"fitted slope: {slope:.3f}")
    return EXIT_OK


def _int_steps(model, T, hh):
    """Steps of size ``hh`` spanning the horizon ``T``; a rung must have an
    integer number of them and no fewer than a run of ``model`` needs."""
    N = int(round(T / hh))
    if abs(N * hh - T) > 1e-9 * T:
        raise ConfigError("h-list", f"T = {T} is not an integer multiple of h = {hh}")
    _check_steps(model, N, "h-list")
    return N


def fit_slope(hs, errs):
    logs = np.log(np.asarray(hs))
    loge = np.log(np.asarray(errs))
    A = np.stack([logs, np.ones_like(logs)], axis=1)
    sol, *_ = np.linalg.lstsq(A, loge, rcond=None)
    return float(sol[0])


def _ladder_ocp(cfg, args, scfg, rungs):
    """Solve every ``(N, h)`` rung, each finer one warm-started from the one
    before; returns ``(h, node times, [q | g entries] node table)`` per rung."""
    probs = [build_problem(cfg, N=N, h=hh)[0] for N, hh in rungs]
    retr = make_retraction(retraction_kind(cfg, args), probs[0].group_tag)
    # Refinement studies compare trajectories at discretization-error
    # scale; avoid grinding on the finite-difference Jacobian floor
    # unless a tolerance was requested explicitly.
    explicit_tol = _override(args, "tol", "GEOVAR_TOL", float) is not None
    if not explicit_tol and scfg.tol_residual < 1e-8:
        scfg = dataclasses.replace(scfg, tol_residual=1e-8)
    runs = []
    for i, prob in enumerate(probs):
        if i == 0:
            x0 = ocp.initial_guess(prob, retr)
        else:  # warm start from the previous rung's converged result
            x0 = ocp.refine_guess(probs[i - 1], result.x, prob)
        result, path = _solve_rung(prob, retr, scfg, x0)
        if not result.converged:
            raise GeovarError(f"inner solve failed at h = {prob.h}: {result.message}")
        t = np.arange(prob.N + 1) * prob.h
        runs.append((prob.h, t, np.column_stack([path.q_nodes, path.g_nodes.reshape(-1, 9)])))
    return runs


@np.errstate(invalid="ignore", over="ignore")  # as for _solve_frb
def _ladder_frb(cfg, args, rungs):
    """The rigid-body flow at every ``(N, h)`` rung; returns ``(h, node
    times, xi node table)`` per rung."""
    _, _, flow = _rigid_body(cfg, args)
    runs = []
    for N, hh in rungs:
        xi_nodes, _, stuck = flow(N, hh)
        if stuck:
            raise GeovarError(
                f"inner solve failed at h = {hh}: step {stuck[0]} hit the Newton cap"
            )
        runs.append((hh, np.arange(len(xi_nodes)) * hh, xi_nodes))
    return runs


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args):
    cfg, _ = _load(args)
    if cfg["model"] == "free_rigid_body":
        raise ConfigError("model", "the oracle command needs an optimal-control model")
    N = min(cfg["N"], 9)
    prob, _ = build_problem(cfg, N=N)
    retr = make_retraction(retraction_kind(cfg, args), prob.group_tag)
    worst, block = oracle_discrepancy(prob, retr, seed=args.seed)
    ok = worst <= 1e-6
    verdict = "pass" if ok else f"FAIL (worst block: {block})"
    print(f"oracle max discrepancy {worst:.3e} -> {verdict}")
    gap, (row, col) = jacobian_discrepancy(prob, retr, oracle_point(prob, retr, args.seed))
    same = gap == 0.0
    verdict = "pass" if same else "FAIL"
    print(
        f"grouped vs dense Jacobian max |dJ| {gap:.3e} at (row {row}, col {col})"
        f" -> {verdict}"
    )
    return EXIT_OK if ok and same else EXIT_NO_CONVERGENCE


def oracle_point(prob, retr, seed):
    """Seeded random interior point: the standard guess plus 0.05 noise."""
    rng = np.random.default_rng(seed)
    x0 = ocp.initial_guess(prob, retr)
    return x0 + 0.05 * rng.standard_normal(x0.size)


def jacobian_discrepancy(prob, retr, x):
    """Largest |grouped - dense| Jacobian entry at ``x`` and its (row, col)."""
    fn = ocp.make_residual_fn(prob, retr)
    gap = np.abs(fd_jacobian(fn, x, pattern=fn.pattern) - fd_jacobian(fn, x))
    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[worst]), tuple(int(i) for i in worst)


def oracle_discrepancy(prob, retr, seed=0):
    """Compare assembled stationarity rows with the independent action
    gradient at a seeded random interior point."""
    path = ocp.solution_path(prob, oracle_point(prob, retr, seed), retr)
    Ld, Phi = ocp.discretize(prob)
    res_q, res_g, _ = discrete.dlp_k_residual(
        Ld, Phi, path, retr, prob.trivialization
    )
    grad_q, grad_g = oracle.action_gradient_fd(
        Ld, Phi, path, retr, prob.trivialization
    )
    err_q = float(np.abs(res_q - grad_q).max())
    err_g = float(np.abs(res_g - grad_g).max())
    if err_q >= err_g:
        return err_q, "base-stationarity"
    return err_g, "group-stationarity"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _common_flags(p):
    p.add_argument("config", help="path to a JSON run configuration")
    p.add_argument("--tol", type=float, default=None, help="residual tolerance")
    p.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    p.add_argument("--retraction", default=None, help="cayley or expN")
    p.add_argument("--out-dir", default=None, dest="out_dir")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="geovar",
        description="Variational integrators for second-order problems on trivial bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve a configured problem")
    _common_flags(p_solve)
    p_conv = sub.add_parser("convergence", help="refinement study")
    _common_flags(p_conv)
    p_conv.add_argument(
        "--h-list", type=float, nargs="+", required=True, dest="h_list"
    )
    p_orac = sub.add_parser("oracle", help="action-gradient cross check")
    _common_flags(p_orac)
    p_orac.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeovarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
