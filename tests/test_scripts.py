"""Smoke tests for the study scripts in ``scripts/`` and the benchmark
tracer in ``bench/``."""

import importlib.util
from pathlib import Path

import numpy as np

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
