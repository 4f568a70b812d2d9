"""Command-line interface tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geovar import cli, discrete, ocp
from geovar.retraction import make_retraction

CONFIG_DIR = Path(__file__).parent.parent / "configs"
SE2_CONFIG = str(CONFIG_DIR / "se2_vehicle.json")
BALL_CONFIG = str(CONFIG_DIR / "ball_plate.json")
FRB_CONFIG = str(CONFIG_DIR / "free_rigid_body.json")


def write_config(tmp_path, table, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(table))
    return str(p)


def base_se2_table():
    return json.loads(Path(SE2_CONFIG).read_text())


# -- config validation -------------------------------------------------------


def test_missing_step_size_is_a_config_error(tmp_path, capsys):
    table = base_se2_table()
    del table["h"]
    code = cli.main(["solve", write_config(tmp_path, table)])
    assert code == 1
    assert "h" in capsys.readouterr().err


def test_unknown_model_is_a_config_error(tmp_path, capsys):
    table = base_se2_table()
    table["model"] = "pendulum"
    code = cli.main(["solve", write_config(tmp_path, table)])
    assert code == 1
    assert "model" in capsys.readouterr().err


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    code = cli.main(["solve", str(tmp_path / "missing.json")])
    assert code == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("text, why", [("{bad", "invalid JSON"),
                                       ("[1, 2]", "top level must be a table")],
                         ids=["invalid_json", "list"])
def test_config_that_is_not_a_json_table_is_a_config_error(tmp_path, capsys, text, why):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code = cli.main(["solve", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config field 'config'" in err
    assert why in err
    assert not (tmp_path / "diagnostics.json").exists()


def test_too_few_nodes_rejected(tmp_path, capsys):
    table = base_se2_table()
    table["N"] = 4
    code = cli.main(["solve", write_config(tmp_path, table)])
    assert code == 1
    assert "N" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, tol",
    [("solve", SE2_CONFIG, "inf"), ("solve", SE2_CONFIG, "nan"),
     ("solve", FRB_CONFIG, "nan"), ("oracle", SE2_CONFIG, "nan")],
    ids=["inf", "nan", "free_rigid_body-nan", "oracle-nan"],
)
def test_non_finite_tolerance_is_a_config_error(tmp_path, capsys, command, config, tol):
    """Every command and model checks the solver settings, also those that
    do not use them."""
    out = tmp_path / "out"
    code = cli.main(
        [command, config, "--tol", tol, "--max-iters", "5", "--out-dir", str(out)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "config field 'solver'" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_bad_solver_table_is_a_config_error_for_the_rigid_body(tmp_path, capsys, command):
    table = json.loads(Path(FRB_CONFIG).read_text())
    table["solver"] = {"bogus": 1, "max_iters": True}
    out = tmp_path / "out"
    extra = ["--h-list", "0.08", "0.04", "0.02"] if command == "convergence" else []
    code = cli.main([command, write_config(tmp_path, table), "--out-dir", str(out), *extra])
    assert code == 1
    assert "config field 'solver'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "config", [SE2_CONFIG, FRB_CONFIG], ids=["se2_vehicle", "free_rigid_body"]
)
def test_non_finite_step_size_is_a_config_error(tmp_path, capsys, config, h):
    table = json.loads(Path(config).read_text())
    table["h"] = h
    code = cli.main(
        ["solve", write_config(tmp_path, table), "--out-dir", str(tmp_path)]
    )
    assert code == 1
    assert "config field 'h'" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.json").exists()


@pytest.mark.parametrize("max_iters", [80.5, True])
def test_non_integer_iteration_cap_is_a_config_error(tmp_path, capsys, max_iters):
    table = base_se2_table()
    table["solver"] = {"max_iters": max_iters}
    code = cli.main(
        ["solve", write_config(tmp_path, table), "--out-dir", str(tmp_path)]
    )
    assert code == 1
    assert "config field 'solver'" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.json").exists()


def base_table(config):
    return json.loads(Path(config).read_text())


def assert_config_error(tmp_path, capsys, table, field):
    """The run exits 1 naming ``field`` in its message, before any output."""
    code = cli.main(
        ["solve", write_config(tmp_path, table), "--out-dir", str(tmp_path)]
    )
    assert code == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.json").exists()


@pytest.mark.parametrize("h", [True, "0.1"])
def test_step_size_must_be_a_number(tmp_path, capsys, h):
    table = base_table(FRB_CONFIG)
    table["h"] = h
    assert_config_error(tmp_path, capsys, table, "config field 'h'")


def test_boolean_tolerance_is_a_config_error(tmp_path, capsys):
    table = base_se2_table()
    table["solver"]["tol_residual"] = True
    assert_config_error(tmp_path, capsys, table, "tol_residual")


@pytest.mark.parametrize(
    "config, field",
    [pytest.param(SE2_CONFIG, f, id=f"se2_vehicle-{f}")
     for f in ("m", "J1", "J2", "p", "rho1", "rho2")]
    + [pytest.param(BALL_CONFIG, f, id=f"ball_plate-{f}") for f in ("r", "k2")],
)
def test_boolean_model_parameter_is_a_config_error(tmp_path, capsys, config, field):
    table = base_table(config)
    table["params"][field] = True
    assert_config_error(tmp_path, capsys, table, f"config field '{field}'")


@pytest.mark.parametrize(
    "omega", ["fast", None, [1, 2], float("nan"), float("inf"), True]
)
def test_ball_plate_rate_must_be_a_finite_number(tmp_path, capsys, omega):
    table = base_table(BALL_CONFIG)
    table["params"]["omega"] = omega
    assert_config_error(tmp_path, capsys, table, "config field 'omega'")


def test_solver_table_cannot_set_the_jacobian(tmp_path, capsys):
    table = base_se2_table()
    table["solver"]["jacobian"] = "dense"
    assert_config_error(tmp_path, capsys, table, "config field 'solver': 'jacobian'")


@pytest.mark.parametrize(
    "config, where, field, index",
    [pytest.param(FRB_CONFIG, "boundary", "xi0", (0,), id="vector-xi0"),
     pytest.param(SE2_CONFIG, "boundary", "qT", (0,), id="vector-qT"),
     pytest.param(FRB_CONFIG, "boundary", "g0", (2, 2), id="matrix-g0"),
     pytest.param(FRB_CONFIG, "params", "inertia", (0,), id="params-inertia")],
)
def test_boolean_list_entry_is_a_config_error(tmp_path, capsys, config, where, field, index):
    """true inside a list of numbers is rejected, not read as 1."""
    table = base_table(config)
    entries = table[where][field]
    for i in index[:-1]:
        entries = entries[i]
    entries[index[-1]] = True
    assert_config_error(tmp_path, capsys, table, f"config field '{where}.{field}'")


def test_non_string_out_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = base_table(FRB_CONFIG)
    table["out_dir"] = 5
    code = cli.main(["solve", write_config(tmp_path, table)])
    assert code == 1
    assert "config field 'out_dir'" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.json").exists()


@pytest.mark.parametrize(
    "config, key, value",
    [pytest.param(SE2_CONFIG, "inertia_typo", [9, 9, 9], id="se2_vehicle"),
     pytest.param(BALL_CONFIG, "inertia_typo", [9, 9, 9], id="ball_plate"),
     pytest.param(FRB_CONFIG, "inertia_typo", [9, 9, 9], id="free_rigid_body"),
     pytest.param(BALL_CONFIG, "domega", 5.0, id="ball_plate-domega"),
     pytest.param(BALL_CONFIG, "ddomega", "nonsense", id="ball_plate-ddomega")],
)
def test_unknown_model_parameter_is_a_config_error(tmp_path, capsys, config, key, value):
    table = base_table(config)
    table["params"][key] = value
    assert_config_error(tmp_path, capsys, table, "config field 'params'")


# -- solve -------------------------------------------------------------------


def test_reflection_as_the_ball_terminal_rotation_is_a_config_error(tmp_path, capsys):
    table = base_table(BALL_CONFIG)
    table["boundary"]["gT"] = np.diag([1.0, 1.0, -1.0]).tolist()
    code = cli.main(["solve", write_config(tmp_path, table), "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config field 'boundary.gT'" in err
    assert "determinant != +1" in err
    assert not (tmp_path / "diagnostics.json").exists()


def test_ball_terminal_rotation_as_nine_row_major_numbers_solves_the_same(tmp_path):
    table = base_table(BALL_CONFIG)
    outs = []
    for name, gT in (("matrix", table["boundary"]["gT"]),
                     ("flat", np.ravel(table["boundary"]["gT"]).tolist())):
        table["boundary"]["gT"] = gT
        out = tmp_path / name
        assert cli.main(["solve", write_config(tmp_path, table, f"{name}.json"),
                         "--out-dir", str(out)]) == 0
        outs.append([(out / f).read_bytes() for f in ("trajectory.csv", "diagnostics.json")])
    assert outs[0] == outs[1]


def test_solve_vehicle_writes_outputs_and_converges(tmp_path):
    code = cli.main(["solve", SE2_CONFIG, "--out-dir", str(tmp_path)])
    assert code == 0
    traj = tmp_path / "trajectory.csv"
    diag_path = tmp_path / "diagnostics.json"
    assert traj.exists() and diag_path.exists()
    diag = json.loads(diag_path.read_text())
    assert diag["converged"] is True
    assert diag["counts"]["unknowns"] == diag["counts"]["equations"]
    assert diag["residual_inf_norm"] <= 1e-10
    assert diag["constraint_max_violation"] <= 1e-8
    assert diag["closure_inf_norm"] <= 1e-8
    # one row per node plus header; q1, three xi, two lam, nine g columns
    lines = traj.read_text().strip().split("\n")
    assert len(lines) == diag["N"] + 2
    header = lines[0].split(",")
    assert header == (
        ["t", "q1", "xi1", "xi2", "xi3", "lam1", "lam2"]
        + [f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    )
    # the final row carries no algebra node and no multiplier
    last = lines[-1].split(",")
    assert last[2:7] == [""] * 5


@pytest.mark.parametrize(
    "config", [SE2_CONFIG, BALL_CONFIG], ids=["se2_vehicle", "ball_plate"]
)
def test_diagnostics_read_the_final_residual(tmp_path, config):
    """The constraint and closure diagnostics are the max-abs of the
    residual's constraint and closure rows at the written iterate."""
    assert cli.main(["solve", config, "--out-dir", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    cfg = cli.load_config(config)
    prob, _ = cli.build_problem(cfg)
    retr = make_retraction(cfg.get("retraction", "cayley"), prob.group_tag)
    # %.17g round-trips every float, so the table holds the iterate exactly
    table = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)

    def nodes(prefix, k):
        return np.column_stack([table[f"{prefix}{c + 1}"] for c in range(k)])

    path = discrete.DiscretePath(
        q_nodes=nodes("q", prob.n), xi_nodes=nodes("xi", 3)[: prob.N], h=prob.h,
        lambda_nodes=nodes("lam", prob.m)[1 : prob.N],
    )
    r = ocp.full_residual(prob, ocp.assemble_unknowns(prob, path), retr)
    lay = ocp.layout(prob)
    assert diag["residual_inf_norm"] == float(np.abs(r).max())
    assert diag["constraint_max_violation"] == float(np.abs(r[lay.constraint_rows]).max())
    assert diag["closure_inf_norm"] == float(np.abs(r[lay.closure_rows]).max())


def test_ball_under_lu_reports_the_singular_jacobian(tmp_path, capsys):
    """The ball's multiplier gauge makes its Jacobian exactly singular, so
    LU refuses it at the first iteration (the fixture runs the
    pseudoinverse)."""
    table = json.loads(Path(BALL_CONFIG).read_text())
    table["solver"]["linear_solver"] = "lu"
    code = cli.main(["solve", write_config(tmp_path, table), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "singular Jacobian at iteration 0" in capsys.readouterr().err


def test_vehicle_under_pseudoinverse_is_a_config_error(tmp_path, capsys):
    """The vehicle declares no multiplier gauge, so ``"pseudoinverse"``
    has nothing to pin: the run exits 1 before it writes anything."""
    table = base_se2_table()
    table.setdefault("solver", {})["linear_solver"] = "pseudoinverse"
    code = cli.main(["solve", write_config(tmp_path, table), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "linear_solver" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "diagnostics.json").exists()


OCP_CONFIGS = sorted(
    p.name for p in CONFIG_DIR.glob("*.json")
    if json.loads(p.read_text())["model"] != "free_rigid_body"
)


@pytest.mark.parametrize("name", OCP_CONFIGS)
def test_shipped_config_pins_a_gauge_exactly_when_it_declares_one(name):
    """Each optimal-control config runs ``"pseudoinverse"`` exactly when its
    residual declares a multiplier gauge, so no shipped config is refused
    and none runs LU into its gauge's singular Jacobian."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    prob, _ = cli.build_problem(cfg)
    retr = make_retraction(cfg.get("retraction", "cayley"), prob.group_tag)
    gauge = ocp.make_residual_fn(prob, retr).gauge
    args = cli.make_parser().parse_args(["solve", str(CONFIG_DIR / name)])
    linear_solver = cli.solver_config(cfg, args).linear_solver
    assert (linear_solver == "pseudoinverse") == (gauge is not None)


@pytest.mark.parametrize("config", [SE2_CONFIG, BALL_CONFIG], ids=["vehicle", "ball"])
def test_solve_computes_no_svd(config, tmp_path, monkeypatch):
    """The LU Newton step factors the Jacobian and computes no SVD; at
    N = 320 the SVD of a condition number took several times the LU.
    The ball's Cayley inverse guards its singularity by the angle alone."""

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD computed on the LU path")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "cond", no_svd)
    assert cli.main(["solve", config, "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "diagnostics.json").read_text())["converged"] is True


def test_ball_solve_computes_no_lstsq(tmp_path, monkeypatch):
    """The ball runs the pseudoinverse setting with its declared gauge
    pinned, so its Newton steps are LU steps."""

    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq computed on the pinned-gauge path")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    assert cli.main(["solve", BALL_CONFIG, "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "diagnostics.json").read_text())["converged"] is True


def test_solve_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", SE2_CONFIG, "--out-dir", str(out1)]) == 0
    assert cli.main(["solve", SE2_CONFIG, "--out-dir", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (
        out2 / "trajectory.csv"
    ).read_bytes()


def test_solve_rigid_body_reports_conserved_quantities(tmp_path):
    code = cli.main(["solve", FRB_CONFIG, "--out-dir", str(tmp_path)])
    assert code == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["nonconverged_steps"] == 0
    assert diag["first_nonconverged_step"] is None
    assert diag["momentum_drift"] <= 1e-8
    assert diag["energy_drift_max"] <= 1e-3


def test_rigid_body_momentum_is_reported_below_the_pairing_floor(tmp_path):
    """``momentum_per_step`` is the closed-form spatial momentum at the
    nodes k < N-1, so its drift shows the flow's conservation (measured
    2.9e-15) rather than a central-difference floor (1.4e-10)."""
    assert cli.main(["solve", FRB_CONFIG, "--out-dir", str(tmp_path)]) == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert np.shape(diag["momentum_per_step"]) == (diag["N"] - 1, 3)
    assert diag["momentum_drift"] <= 1e-12


def test_overflowing_flow_writes_strict_json(tmp_path):
    """A flow that overflows exits 2, and its non-finite diagnostics are
    written as ``null``, not as the ``NaN`` and ``Infinity`` tokens that
    strict JSON readers reject."""
    table = base_table(FRB_CONFIG)
    table["boundary"]["xi0"] = [1e150, 0.2, 0.5]
    table["N"] = 20
    code = cli.main(["solve", write_config(tmp_path, table), "--out-dir", str(tmp_path)])
    assert code == 2

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (tmp_path / "diagnostics.json").read_text()
    diag = json.loads(text, parse_constant=reject)
    assert diag["converged"] is False
    assert diag["momentum_drift"] is None
    assert any(v is None for row in diag["momentum_per_step"] for v in row)


def trajectory_by_cells(t_nodes, q_nodes, xi_nodes, lam_nodes, g_nodes):
    """The trajectory CSV text built one cell at a time."""
    N = len(t_nodes) - 1
    n = 0 if q_nodes is None else q_nodes.shape[1]
    m = 0 if lam_nodes is None else lam_nodes.shape[1]
    header = (["t"] + [f"q{c + 1}" for c in range(n)]
              + [f"xi{c + 1}" for c in range(3)] + [f"lam{c + 1}" for c in range(m)]
              + [f"g{i}{j}" for i in range(1, 4) for j in range(1, 4)])
    lines = [",".join(header)]
    for i in range(N + 1):
        row = ["%.17g" % float(t_nodes[i])]
        row += ["%.17g" % float(v) for v in (q_nodes[i] if n else [])]
        row += ["%.17g" % float(v) for v in xi_nodes[i]] if i < N else [""] * 3
        if m:
            row += (["%.17g" % float(v) for v in lam_nodes[i - 1]] if 1 <= i <= N - 1
                    else [""] * m)
        row += ["%.17g" % float(v) for v in g_nodes[i].ravel()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("N", [0, 1, 2, 600])
@pytest.mark.parametrize("with_q", [False, True], ids=["no_q", "q_and_lam"])
def test_trajectory_equals_the_cell_by_cell_text(tmp_path, N, with_q):
    """Empty cells, signed zeros and non-finite text as the per-cell format
    writes them, over more rows than one formatting chunk."""
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0 / 3.0, -1e300]

    def draw(*shape):
        return rng.choice(special + list(rng.standard_normal(8)), size=shape)

    q = draw(N + 1, 2) if with_q else None
    lam = draw(max(N - 1, 0), 2) if with_q else None
    args = (np.arange(N + 1) * 0.01, q, draw(N, 3), lam, draw(N + 1, 3, 3))
    cli.write_trajectory(tmp_path / "trajectory.csv", *args)
    assert (tmp_path / "trajectory.csv").read_text() == trajectory_by_cells(*args)


def test_diagnostics_refuse_a_non_finite_number_they_cannot_convert(tmp_path):
    with pytest.raises(ValueError):
        cli.write_diagnostics(tmp_path / "diagnostics.json", {"x": (float("nan"),)})


def test_rigid_body_step_that_hits_its_cap_is_reported(tmp_path, monkeypatch):
    real_step = discrete.dep_step
    calls = []

    def fifth_step_never_converges(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            kwargs["tol"] = 0.0  # no residual falls below zero
        return real_step(*args, **kwargs)

    monkeypatch.setattr(discrete, "dep_step", fifth_step_never_converges)
    code = cli.main(["solve", FRB_CONFIG, "--out-dir", str(tmp_path)])
    assert code == 2
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["converged"] is False
    assert diag["nonconverged_steps"] == 1
    assert diag["first_nonconverged_step"] == 4
    assert diag["newton_iterations_per_step"][4] == discrete.DEP_MAX_ITER
    assert (tmp_path / "trajectory.csv").exists()


def test_rigid_body_convergence_rejects_a_capped_step(tmp_path, monkeypatch,
                                                     capsys):
    real_step = discrete.dep_step
    calls = []

    def third_step_never_converges(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            kwargs["tol"] = 0.0  # no residual falls below zero
        return real_step(*args, **kwargs)

    monkeypatch.setattr(discrete, "dep_step", third_step_never_converges)
    code = cli.main(
        ["convergence", FRB_CONFIG, "--out-dir", str(tmp_path),
         "--h-list", "0.08", "0.04", "0.02"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "inner solve failed at h = 0.08: step 2 hit the Newton cap" in err
    assert not (tmp_path / "convergence.csv").exists()


class _StopRun(Exception):
    pass


@pytest.mark.parametrize(
    "flags, expected", [([], 1e-8), (["--tol", "1e-10"], 1e-10)],
    ids=["flags0-None-1e-08", "flags1-None-1e-10"],
)
def test_convergence_floors_the_tolerance_unless_one_is_given(
    tmp_path, monkeypatch, flags, expected
):
    """The fixture asks for 1e-10; a refinement study floors it at 1e-8
    unless ``--tol`` sets it."""
    tols = []

    def first_rung_only(fn, x0, cfg):
        tols.append(cfg.tol_residual)
        raise _StopRun

    monkeypatch.setattr(cli, "solve", first_rung_only)
    with pytest.raises(_StopRun):
        cli.main(
            ["convergence", SE2_CONFIG, "--out-dir", str(tmp_path),
             "--h-list", "0.1", "0.05", "0.025", *flags]
        )
    assert tols == [expected]


# -- oracle ------------------------------------------------------------------


@pytest.mark.parametrize("config", [SE2_CONFIG, BALL_CONFIG])
def test_oracle_passes_for_both_models(config, capsys, tmp_path):
    code = cli.main(["oracle", config, "--seed", "42", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "FAIL" not in out
    assert "grouped vs dense Jacobian max |dJ| 0.000e+00" in out


def test_oracle_negative_control_flags_the_flipped_block(capsys, tmp_path,
                                                         monkeypatch):
    real = discrete.dlp_k_residual

    def flipped_group_block(*args, **kwargs):
        res_q, res_g, res_c = real(*args, **kwargs)
        return res_q, -res_g, res_c

    monkeypatch.setattr(discrete, "dlp_k_residual", flipped_group_block)
    code = cli.main(["oracle", SE2_CONFIG, "--seed", "42", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "group-stationarity" in capsys.readouterr().out


def test_oracle_flags_a_grouped_jacobian_that_misses_an_entry(
    capsys, tmp_path, monkeypatch
):
    full = ocp.jacobian_structure

    def missing_row(prob):
        colour, rows, cols = full(prob)
        kept = rows != 0
        return colour, rows[kept], cols[kept]

    monkeypatch.setattr(ocp, "jacobian_structure", missing_row)
    code = cli.main(["oracle", SE2_CONFIG, "--seed", "42", "--out-dir", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "oracle max discrepancy" in out and "-> pass" in out
    assert "at (row 0, col" in out and "-> FAIL" in out


def test_oracle_rejects_unconstrained_model(tmp_path, capsys):
    code = cli.main(["oracle", FRB_CONFIG, "--out-dir", str(tmp_path)])
    assert code == 1
    assert "model" in capsys.readouterr().err


# -- flags and the command line ---------------------------------------------


def test_max_iters_flag_caps_iterations(tmp_path):
    code = cli.main(["solve", SE2_CONFIG, "--out-dir", str(tmp_path), "--max-iters", "1"])
    assert code == 2
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["converged"] is False
    assert diag["iterations"] == 1
    # the best iterate is still written
    assert (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "flag, key, flag_value, file_value",
    [("--max-iters", "max_iters", 1, 80),
     ("--tol", "tol_residual", 1e-3, 1e-10),
     ("--retraction", "retraction", "exp4", "cayley")],
    ids=["max-iters", "tol", "retraction"],
)
def test_a_flag_wins_over_the_config_file(tmp_path, flag, key, flag_value, file_value):
    """A run given the flag writes what a run whose file holds the flag's
    value writes, and not what the file's own value writes."""

    def run(name, value, flags=()):
        table = base_se2_table()
        (table if key == "retraction" else table["solver"])[key] = value
        out = tmp_path / name
        code = cli.main(["solve", write_config(tmp_path, table, f"{name}.json"),
                         "--out-dir", str(out), *flags])
        return code, (out / "trajectory.csv").read_bytes(), \
            (out / "diagnostics.json").read_bytes()

    flagged = run("flagged", file_value, [flag, str(flag_value)])
    assert flagged == run("flag_in_file", flag_value)
    assert flagged != run("file_alone", file_value)


@pytest.mark.parametrize(
    "argv",
    [["solve", SE2_CONFIG, "--tol", "abc"], ["solve", SE2_CONFIG, "--bogus"],
     ["solve"], []],
    ids=["bad-value", "unknown-flag", "missing-config", "missing-command"],
)
def test_malformed_command_line_is_a_config_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: geovar")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: geovar solve")


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize(
    "command, flags",
    [("solve", []), ("convergence", ["--h-list", "0.1", "0.05", "0.025"])],
)
def test_unusable_out_dir_is_a_config_error(tmp_path, capsys, command, flags, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    code = cli.main([command, SE2_CONFIG, "--out-dir", str(out), *flags])
    assert code == 1
    assert "config field 'out_dir'" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


def test_negative_oracle_seed_is_a_config_error(tmp_path, capsys):
    code = cli.main(["oracle", SE2_CONFIG, "--seed", "-1", "--out-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "config field 'seed'" in captured.err
    assert captured.out == ""


# -- convergence -------------------------------------------------------------


def test_convergence_needs_three_geometric_steps(tmp_path, capsys):
    code = cli.main(
        ["convergence", FRB_CONFIG, "--out-dir", str(tmp_path),
         "--h-list", "0.1", "0.05"]
    )
    assert code == 1
    assert "h-list" in capsys.readouterr().err
    code = cli.main(
        ["convergence", FRB_CONFIG, "--out-dir", str(tmp_path),
         "--h-list", "0.1", "0.05", "0.03"]
    )
    assert code == 1
    assert "geometric" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config", [SE2_CONFIG, FRB_CONFIG], ids=["se2_vehicle", "free_rigid_body"]
)
@pytest.mark.parametrize(
    "h_list", [["-0.1", "-0.05", "-0.025"], ["0", "0", "0"]], ids=["negative", "zero"]
)
def test_convergence_rejects_non_positive_step_sizes(tmp_path, capsys, config, h_list):
    code = cli.main(
        ["convergence", config, "--out-dir", str(tmp_path), "--h-list", *h_list]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config field 'h-list'" in err
    assert "must be positive" in err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize(
    "config", [SE2_CONFIG, FRB_CONFIG], ids=["se2_vehicle", "free_rigid_body"]
)
def test_convergence_rejects_a_repeated_step_size(tmp_path, capsys, config):
    """Equal step sizes have ratio 1, a geometric sequence with no
    refinement; the run stops before any solve."""
    code = cli.main(
        ["convergence", config, "--out-dir", str(tmp_path),
         "--h-list", "0.1", "0.1", "0.1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config field 'h-list'" in err
    assert "must strictly decrease" in err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize(
    "config, h_list, low",
    [pytest.param(SE2_CONFIG, ["1", "0.5", "0.25"], 6, id="se2_vehicle"),
     pytest.param(FRB_CONFIG, ["2", "1", "0.5"], 2, id="free_rigid_body")],
)
def test_convergence_rejects_a_rung_below_the_step_minimum(
        tmp_path, capsys, config, h_list, low):
    """Both fixtures span T = 2, so the coarsest rung has N = 2 (vehicle)
    or N = 1 (rigid body); the run stops before any solve."""
    code = cli.main(
        ["convergence", config, "--out-dir", str(tmp_path), "--h-list", *h_list]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config field 'h-list'" in err
    assert f"need N >= {low}" in err
    assert not (tmp_path / "convergence.csv").exists()


def test_convergence_rejects_a_step_that_does_not_divide_the_horizon(tmp_path, capsys):
    code = cli.main(
        ["convergence", SE2_CONFIG, "--out-dir", str(tmp_path),
         "--h-list", "0.3", "0.15", "0.075"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config field 'h-list'" in err
    assert "T = 2.0 is not an integer multiple of h = 0.3" in err
    assert not (tmp_path / "convergence.csv").exists()


def test_convergence_stops_at_the_first_rung_that_does_not_converge(tmp_path, capsys):
    code = cli.main(
        ["convergence", SE2_CONFIG, "--out-dir", str(tmp_path),
         "--h-list", "0.1", "0.05", "0.025", "--max-iters", "1"]
    )
    assert code == 2
    assert "inner solve failed at h = 0.1: max iterations reached" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


def test_convergence_rigid_body_second_order(tmp_path, capsys):
    code = cli.main(
        ["convergence", FRB_CONFIG, "--out-dir", str(tmp_path),
         "--h-list", "0.08", "0.04", "0.02", "0.01"]
    )
    assert code == 0
    assert "fitted slope" in capsys.readouterr().out
    lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
    assert lines[0] == "h,error,slope"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    hs = [float(r[0]) for r in rows]
    assert hs == sorted(hs, reverse=True)
    slope = float(rows[0][2])
    assert abs(slope - 2.0) < 0.3
    # the finest run is its own reference
    assert float(rows[-1][1]) == 0.0
    # errors shrink monotonically over the compared runs
    errs = [float(r[1]) for r in rows[:-1]]
    assert errs == sorted(errs, reverse=True)


def test_ball_warm_ladder_converges_at_n96(tmp_path, capsys):
    """The warm ball ladder 12 -> 24 -> 48 -> 96; the N = 96 rung stalled
    while its steps came from ``lstsq``, whose rank cut dropped a
    near-null pair."""
    code = cli.main(
        ["convergence", BALL_CONFIG, "--out-dir", str(tmp_path),
         "--h-list", *(repr(1.0 / n) for n in (12, 24, 48, 96))]
    )
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert np.isfinite(float(rows[0][2]))
    assert "fitted slope" in capsys.readouterr().out


def test_convergence_vehicle_under_the_truncated_exponential(tmp_path, capsys):
    code = cli.main(
        ["convergence", SE2_CONFIG, "--retraction", "exp4",
         "--out-dir", str(tmp_path), "--h-list", "0.1", "0.05", "0.025"]
    )
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert abs(float(rows[0][2]) - 1.776769) < 1e-6


def test_module_entry_point_runs_without_a_runtime_warning():
    """``python -m geovar.cli`` must not find the module already imported
    by the package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "geovar.cli", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "config", [SE2_CONFIG, BALL_CONFIG, FRB_CONFIG],
    ids=["se2_vehicle", "ball_plate", "free_rigid_body"],
)
def test_solve_loads_no_scipy(tmp_path, config):
    """``geovar solve`` needs numpy only: a fresh interpreter that solves a
    shipped config has imported no ``scipy`` module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from geovar import cli\n"
        f"code = cli.main(['solve', {config!r}, '--out-dir', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
