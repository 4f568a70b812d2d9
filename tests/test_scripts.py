"""Smoke tests for the study scripts in ``scripts/`` and the benchmark
tracer in ``bench/``."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"
BENCH = Path(__file__).parent.parent / "bench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_energy_drift_writes_one_row_per_step(tmp_path, capsys):
    code = load_script("energy_drift").main(
        ["--steps", "50", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert "steps at the Newton cap: 0" in capsys.readouterr().out
    rows = np.loadtxt(tmp_path / "conservation.csv", delimiter=",", skiprows=1)
    assert rows.shape == (50, 5)
    assert np.abs(rows[:, 2:] - rows[0, 2:]).max() < 1e-12


def test_energy_drift_momentum_equals_the_cli_diagnostic(tmp_path):
    """The script's defaults are the rigid-body fixture, and both report the
    one closed-form spatial momentum: rows 0..N-2 agree exactly."""
    from geovar import cli

    config = Path(__file__).parent.parent / "configs" / "free_rigid_body.json"
    assert cli.main(["solve", str(config), "--out-dir", str(tmp_path / "cli")]) == 0
    diag = json.loads((tmp_path / "cli" / "diagnostics.json").read_text())
    code = load_script("energy_drift").main(
        ["--steps", str(diag["N"]), "--out-dir", str(tmp_path / "script")]
    )
    assert code == 0
    rows = np.loadtxt(tmp_path / "script" / "conservation.csv", delimiter=",",
                      skiprows=1)
    assert np.array_equal(rows[:-1, 2:], diag["momentum_per_step"])


def test_energy_drift_exits_2_when_a_step_hits_the_newton_cap(
    tmp_path, capsys, monkeypatch
):
    from geovar import discrete

    real_step = discrete.dep_step
    calls = []

    def seventh_step_never_converges(*args, **kwargs):
        calls.append(None)
        if len(calls) == 7:
            kwargs["tol"] = 0.0  # no residual falls below zero
        return real_step(*args, **kwargs)

    monkeypatch.setattr(discrete, "dep_step", seventh_step_never_converges)
    code = load_script("energy_drift").main(
        ["--steps", "50", "--out-dir", str(tmp_path)]
    )
    assert code == 2
    assert "steps at the Newton cap: 1" in capsys.readouterr().out
    assert (tmp_path / "conservation.csv").exists()


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--steps", "0"], "--steps"),
        (["--steps", "-3"], "--steps"),
        (["--steps", "1"], "--steps"),
        (["--h", "0"], "--h"),
        (["--h", "nan"], "--h"),
        (["--h", "inf"], "--h"),
        (["--h", "-0.01"], "--h"),
        (["--inertia", "0", "1", "1"], "--inertia"),
        (["--inertia", "nan", "1", "1"], "--inertia"),
        (["--xi0", "nan", "0", "0"], "--xi0"),
    ],
    ids=["steps0", "steps-3", "steps1", "h0", "hnan", "hinf", "hneg",
         "inertia0", "inertianan", "xi0nan"],
)
def test_energy_drift_rejects_a_bad_flag_with_exit_1(tmp_path, capsys, flags, flag):
    """A bad input is a usage error (exit 1, the flag named, no CSV), not a
    traceback and not the Newton-cap exit 2."""
    out = tmp_path / "out"
    code = load_script("energy_drift").main(flags + ["--out-dir", str(out)])
    assert code == 1
    assert f"error: {flag} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--steps", "abc"], ["--bogus"], ["--inertia", "1"]],
    ids=["bad-value", "unknown-flag", "too-few-values"],
)
def test_energy_drift_rejects_a_malformed_flag_with_exit_1(tmp_path, capsys, flags):
    """argparse's own usage error exits 1, as a bad value does, not 2."""
    out = tmp_path / "out"
    code = load_script("energy_drift").main(flags + ["--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage: ")
    assert not out.exists()


def test_energy_drift_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("energy_drift").main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_energy_drift_rejects_an_unusable_out_dir_before_integrating(
    tmp_path, capsys, monkeypatch, below
):
    script = load_script("energy_drift")

    def never(*args, **kwargs):
        raise AssertionError("integrated before checking --out-dir")

    monkeypatch.setattr(script, "dep_solve_path", never)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    assert script.main(["--steps", "50", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --out-dir ")
    assert taken.read_text() == "kept\n"


def test_energy_drift_runs_the_fewest_steps_it_accepts(tmp_path):
    code = load_script("energy_drift").main(
        ["--steps", "2", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    rows = np.loadtxt(tmp_path / "conservation.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 5)


def test_convergence_study_prints_the_slopes_the_readme_quotes(tmp_path, capsys):
    """README quotes the rigid body's and the vehicle's slopes as about
    2.2 and 2.3."""
    code = load_script("convergence_study").main(["--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("fitted slope:") == 2
    assert "fitted slope: 2.167" in out.split("== se2_vehicle")[0]
    assert "fitted slope: 2.281" in out.split("== se2_vehicle")[1]
    for name in ("free_rigid_body", "se2_vehicle"):
        lines = (tmp_path / name / "convergence.csv").read_text().splitlines()
        assert lines[0] == "h,error,slope"
        assert len(lines) == 5  # the four default step sizes


@pytest.mark.parametrize(
    "flags", [["--h-list", "abc"], ["--bogus"], ["--study", "pendulum"]],
    ids=["bad-value", "unknown-flag", "bad-choice"],
)
def test_convergence_study_rejects_a_malformed_flag_with_exit_1(tmp_path, capsys, flags):
    """Exit 2 is a failed inner solve; argparse's usage error exits 1."""
    out = tmp_path / "out"
    code = load_script("convergence_study").main(flags + ["--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage: ")
    assert not out.exists()


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    """The tracer looks every name it patches up through ``__dict__``, so a
    deleted or renamed geovar function fails here, not only in a traced run."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    import geovar
    from geovar import cli

    solve = cli.solve
    with Tracer().installed(geovar):
        assert cli.solve is not solve
    assert cli.solve is solve


@pytest.mark.parametrize("name", ["se2_vehicle.json", "ball_plate.json"])
def test_traced_residual_equals_the_untraced_one(monkeypatch, name):
    """Under the benchmark tracer each control model's residual, its stacked
    form and its grouped Jacobian equal the untraced ones bit for bit.  The
    problem is built under the tracer, so the model callbacks run through
    its wrappers and the discretized callbacks record their ``ocp.stencil``
    spans: a changed callback signature fails here, not only in a traced
    benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import SpanTable, Tracer

    import geovar
    from geovar import cli, ocp, solver
    from geovar.retraction import make_retraction

    config = json.loads((Path(__file__).parent.parent / "configs" / name).read_text())

    def problem():
        return cli.build_problem(config, N=10, h=config["N"] * config["h"] / 10)[0]

    retr = make_retraction("cayley", problem().group_tag)
    x = ocp.initial_guess(problem(), retr)
    X = x + 0.02 * np.random.default_rng(2).normal(size=(4, x.size))

    def evaluate():
        fn = ocp.make_residual_fn(problem(), retr)
        return fn(x), fn.stacked(X), solver.fd_jacobian(fn, x, solver.FD_STEP, fn.pattern)

    untraced = evaluate()
    tracer = Tracer()
    with tracer.installed(geovar):
        traced = evaluate()
    for got, want in zip(traced, untraced):
        assert np.array_equal(got, want)
    # one kernel call per assembly: single, stacked and the two Jacobian
    # stacks, each calling d_ltilde, d_phi and phi once
    spans = SpanTable(tracer)
    for span in ("ocp.stencil", "models.d_ltilde", "models.d_phi", "models.phi"):
        assert spans.count(span) == 4, span
