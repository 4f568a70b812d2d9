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
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import discrete, groups, models, ocp, oracle
from .errors import ConfigError, GeovarError, SizeError
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
    if typ is not None and not isinstance(value, typ):
        raise ConfigError(
            where + field, f"expected {typ.__name__}, got {type(value).__name__}"
        )
    return value


def _vector(table, field, length, where=""):
    raw = _require(table, field, list, where)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(where + field, "expected a list of numbers")
    if arr.shape != (length,):
        raise ConfigError(
            where + field, f"expected {length} numbers, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigError(where + field, "entries must be finite")
    return arr


def _matrix(table, field, group_tag, where=""):
    raw = _require(table, field, list, where)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(where + field, "expected a 3x3 matrix")
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
    if model != "free_rigid_body" and N < 6:
        raise ConfigError("N", f"must be >= 6 for optimal-control models, got {N}")
    if model == "free_rigid_body" and N < 2:
        raise ConfigError("N", f"must be >= 2, got {N}")
    return cfg


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


def write_trajectory(path, t_nodes, q_nodes, xi_nodes, lam_nodes, g_nodes):
    """CSV with one row per node; see README for the column layout.

    q/g columns are filled at every node; xi at nodes 0..N-1; the window
    multipliers on their center node (rows 1..N-1).  Cells outside a
    series' range are empty.
    """
    N = len(t_nodes) - 1
    n = 0 if q_nodes is None else q_nodes.shape[1]
    m = 0 if lam_nodes is None else lam_nodes.shape[1]
    header = ["t"]
    header += [f"q{c + 1}" for c in range(n)]
    header += [f"xi{c + 1}" for c in range(3)]
    header += [f"lam{c + 1}" for c in range(m)]
    header += [f"g{i + 1}{j + 1}" for i in range(3) for j in range(3)]
    lines = [",".join(header)]
    for i in range(N + 1):
        row = [_fmt(t_nodes[i])]
        for c in range(n):
            row.append(_fmt(q_nodes[i, c]))
        if i < N:
            row += [_fmt(v) for v in xi_nodes[i]]
        else:
            row += [""] * 3
        if m:
            if 1 <= i <= N - 1:
                row += [_fmt(v) for v in lam_nodes[i - 1]]
            else:
                row += [""] * m
        row += [_fmt(v) for v in g_nodes[i].ravel()]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_diagnostics(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_ocp(cfg, args):
    prob, params = build_problem(cfg)
    retr = make_retraction(retraction_kind(cfg, args), prob.group_tag)
    scfg = solver_config(cfg, args)
    counts = {
        "unknowns": ocp.unknown_count(prob.N, prob.n, prob.m),
        "equations": ocp.equation_count(prob.N, prob.n, prob.m),
    }
    if counts["unknowns"] != counts["equations"]:
        raise SizeError(
            f"{counts['unknowns']} unknowns but {counts['equations']} equations; "
            "the system must be square before solving"
        )
    scfg.jacobian = ocp.make_jacobian_fn(prob, retr)
    fn = ocp.make_residual_fn(prob, retr)
    x0 = ocp.initial_guess(prob, retr)
    result = solve(fn, x0, scfg)
    path = ocp.solution_path(prob, result.x, retr)
    Ld, Phi = ocp.discretize(prob)
    qs, xis, _ = discrete._window_views(path.q_nodes, path.xi_nodes, 2)
    phi_vals = Phi.eval(tuple(qs), tuple(xis))
    closure, _ = ocp.closure_residual(prob, path.xi_nodes, retr)
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
        "constraint_max_violation": float(np.abs(phi_vals).max()),
        "closure_inf_norm": float(np.abs(closure).max()),
        "terminal_group_error": float(
            np.abs(path.g_nodes[-1] - prob.boundary.gT).max()
        ),
        "momentum_per_step": None,
    }
    if cfg["model"] == "se2_vehicle":
        diag["controlled_rows_mismatch_vs_lagrangian"] = (
            models.se2_equation_mismatch(params)
        )
    directory = out_dir(cfg, args)
    t_nodes = np.arange(prob.N + 1) * prob.h
    write_trajectory(
        directory / "trajectory.csv",
        t_nodes, path.q_nodes, path.xi_nodes, path.lambda_nodes, path.g_nodes,
    )
    write_diagnostics(directory / "diagnostics.json", diag)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _capped_steps(iters):
    """Indices of the dep_step calls that hit the Newton cap: dep_step
    reports its iteration cap exactly when it did not converge."""
    return [k for k, it in enumerate(iters) if it >= discrete.DEP_MAX_ITER]


def _solve_frb(cfg, args):
    body = _build_params(cfg)
    retr = make_retraction(retraction_kind(cfg, args), groups.SO3)
    table = _require(cfg, "boundary", dict)
    xi0 = _vector(table, "xi0", 3, "boundary.")
    g0 = _matrix(table, "g0", groups.SO3, "boundary.") if "g0" in table else np.eye(3)
    N, h = cfg["N"], cfg["h"]
    grad = body.lhat_grad(h)
    xi_nodes, iters = discrete.dep_solve_path(
        grad, xi0, N, h, retr, return_iterations=True
    )
    stuck = _capped_steps(iters)
    g_nodes = discrete.reconstruct(xi_nodes, g0, h, retr)
    pair_eval = body.pair_eval(h, retr)
    # all N-1 adjacent pairs (g_k, g_k+1), k < N-1, at once per generator
    pairs = ((None, g_nodes[:-2]), (None, g_nodes[1:-1]))
    momenta = np.stack(
        [
            discrete.discrete_momentum(pair_eval, pairs, e, "plus", retr)
            for e in np.eye(3)
        ],
        axis=1,
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
    directory = out_dir(cfg, args)
    t_nodes = np.arange(N + 1) * h
    write_trajectory(
        directory / "trajectory.csv", t_nodes, None, xi_nodes, None, g_nodes
    )
    write_diagnostics(directory / "diagnostics.json", diag)
    return EXIT_NO_CONVERGENCE if stuck else EXIT_OK


def cmd_solve(args):
    cfg = load_config(args.config)
    if cfg["model"] == "free_rigid_body":
        return _solve_frb(cfg, args)
    return _solve_ocp(cfg, args)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def _traj_error(prob_c, path_c, prob_f, path_f):
    """Max trajectory discrepancy over base coordinates and reconstructed
    group entries, finest run interpolated to the coarse nodes."""
    tc = np.arange(prob_c.N + 1) * prob_c.h
    tf = np.arange(prob_f.N + 1) * prob_f.h
    err = 0.0
    for c in range(prob_c.n):
        ref = np.interp(tc, tf, path_f.q_nodes[:, c])
        err = max(err, float(np.abs(path_c.q_nodes[:, c] - ref).max()))
    gc = path_c.g_nodes.reshape(len(tc), 9)
    gf = path_f.g_nodes.reshape(len(tf), 9)
    for c in range(9):
        ref = np.interp(tc, tf, gf[:, c])
        err = max(err, float(np.abs(gc[:, c] - ref).max()))
    return err


def cmd_convergence(args):
    cfg = load_config(args.config)
    h_list = sorted(args.h_list, reverse=True)
    if len(h_list) < 3:
        raise ConfigError("h-list", "need at least three step sizes")
    if not all(hh > 0 for hh in h_list):
        got = " ".join(f"{hh:g}" for hh in args.h_list)
        raise ConfigError("h-list", f"step sizes must be positive, got {got}")
    ratios = [h_list[i] / h_list[i + 1] for i in range(len(h_list) - 1)]
    if max(ratios) - min(ratios) > 1e-9:
        raise ConfigError("h-list", "step sizes must form a geometric sequence")
    T = cfg["N"] * cfg["h"]
    directory = out_dir(cfg, args)
    if cfg["model"] == "free_rigid_body":
        rows, slope = _convergence_frb(cfg, args, h_list, T)
    else:
        rows, slope = _convergence_ocp(cfg, args, h_list, T)
    lines = ["h,error,slope"]
    for hh, err in rows:
        lines.append(f"{_fmt(hh)},{_fmt(err)},{_fmt(slope)}")
    (directory / "convergence.csv").write_text("\n".join(lines) + "\n")
    print(f"fitted slope: {slope:.3f}")
    return EXIT_OK


def _int_steps(T, hh):
    N = int(round(T / hh))
    if abs(N * hh - T) > 1e-9 * T:
        raise ConfigError("h-list", f"T = {T} is not an integer multiple of h = {hh}")
    return N


def fit_slope(hs, errs):
    logs = np.log(np.asarray(hs))
    loge = np.log(np.asarray(errs))
    A = np.stack([logs, np.ones_like(logs)], axis=1)
    sol, *_ = np.linalg.lstsq(A, loge, rcond=None)
    return float(sol[0])


def _convergence_ocp(cfg, args, h_list, T):
    probs = [build_problem(cfg, N=_int_steps(T, hh), h=hh)[0] for hh in h_list]
    retr = make_retraction(retraction_kind(cfg, args), probs[0].group_tag)
    # Refinement studies compare trajectories at discretization-error
    # scale; avoid grinding on the finite-difference Jacobian floor
    # unless a tolerance was requested explicitly.
    explicit_tol = _override(args, "tol", "GEOVAR_TOL", float) is not None
    solves = []
    prev = None
    for prob in probs:
        scfg = solver_config(cfg, args)
        if not explicit_tol and scfg.tol_residual < 1e-8:
            scfg.tol_residual = 1e-8
        scfg.jacobian = ocp.make_jacobian_fn(prob, retr)
        fn = ocp.make_residual_fn(prob, retr)
        if prev is None:
            x0 = ocp.initial_guess(prob, retr)
        else:
            x0 = ocp.refine_guess(prev[0], prev[1], prob)
        result = solve(fn, x0, scfg)
        if not result.converged:
            raise GeovarError(f"inner solve failed at h = {prob.h}: {result.message}")
        solves.append((prob, ocp.solution_path(prob, result.x, retr)))
        prev = (prob, result.x)
    prob_f, path_f = solves[-1]
    rows = []
    for prob_c, path_c in solves[:-1]:
        rows.append((prob_c.h, _traj_error(prob_c, path_c, prob_f, path_f)))
    slope = fit_slope([r[0] for r in rows], [r[1] for r in rows])
    return rows + [(prob_f.h, 0.0)], slope


def _convergence_frb(cfg, args, h_list, T):
    body = _build_params(cfg)
    retr = make_retraction(retraction_kind(cfg, args), groups.SO3)
    table = _require(cfg, "boundary", dict)
    xi0 = _vector(table, "xi0", 3, "boundary.")
    paths = []
    for hh in h_list:
        N = _int_steps(T, hh)
        xi_nodes, iters = discrete.dep_solve_path(
            body.lhat_grad(hh), xi0, N, hh, retr, return_iterations=True
        )
        stuck = _capped_steps(iters)
        if stuck:
            raise GeovarError(
                f"inner solve failed at h = {hh}: step {stuck[0]} hit the Newton cap"
            )
        paths.append((hh, xi_nodes))
    hf, xf = paths[-1]
    tf = np.arange(len(xf)) * hf
    rows = []
    for hh, xn in paths[:-1]:
        tc = np.arange(len(xn)) * hh
        err = 0.0
        for c in range(3):
            ref = np.interp(tc, tf, xf[:, c])
            err = max(err, float(np.abs(xn[:, c] - ref).max()))
        rows.append((hh, err))
    slope = fit_slope([r[0] for r in rows], [r[1] for r in rows])
    return rows + [(hf, 0.0)], slope


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args):
    cfg = load_config(args.config)
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
    gap = np.abs(ocp.make_jacobian_fn(prob, retr)(fn, x) - fd_jacobian(fn, x))
    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[worst]), tuple(int(i) for i in worst)


def oracle_discrepancy(prob, retr, seed=0):
    """Compare assembled stationarity rows with the independent action
    gradient at a seeded random interior point."""
    path = ocp.scatter(prob, oracle_point(prob, retr, seed))
    b = prob.boundary
    path.g_nodes = discrete.reconstruct(
        path.xi_nodes, b.g0, prob.h, retr, prob.trivialization
    )
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
