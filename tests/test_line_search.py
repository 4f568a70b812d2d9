"""The Armijo line search of ``solver.solve`` and the stacked residual it
reads: trials tested as stacks give the steps of trying one length at a
time, bit for bit, with fewer residual calls."""

import json
from pathlib import Path

import numpy as np
import pytest

from geovar import cli, ocp, solver
from geovar.errors import SingularRetractionError
from geovar.retraction import make_retraction
from geovar.solver import FD_STEP, SolveResult, SolverConfig, fd_jacobian, solve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def fixture(name, N, retraction="cayley"):
    """A shipped fixture at N steps over its own horizon, its retraction and
    its solver settings."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    prob, _ = cli.build_problem(cfg, N=N, h=cfg["N"] * cfg["h"] / N)
    return prob, make_retraction(retraction, prob.group_tag), SolverConfig(**cfg["solver"])


def reference_solve(residual_fn, x0, cfg):
    """Damped Newton with the Armijo lengths 1, 1/2, ... tried one at a time,
    each by one call of ``residual_fn``: the line search before stacking."""
    gauge = getattr(residual_fn, "gauge", None) if cfg.linear_solver != "lu" else None
    x = np.array(x0, dtype=float)
    r = np.asarray(residual_fn(x))
    pattern = getattr(residual_fn, "pattern", None)
    history = [float(np.abs(r).max())]
    for it in range(cfg.max_iters):
        if history[-1] <= cfg.tol_residual:
            return SolveResult(x, r, True, it, history, "converged")
        J = fd_jacobian(residual_fn, x, FD_STEP, pattern)
        if gauge is not None:
            J[np.ix_(gauge, gauge)] += np.abs(J[:, gauge]).max() / gauge.size
        dx = np.linalg.solve(J, -r)
        f0 = 0.5 * float(r @ r)
        t = 1.0
        while t >= 2.0 ** -20:
            x_trial = x + t * dx
            r_trial = np.asarray(residual_fn(x_trial))
            if np.all(np.isfinite(r_trial)):
                f_trial = 0.5 * float(r_trial @ r_trial)
                if f_trial <= f0 - 1e-4 * t * 2.0 * f0:
                    break
            t *= 0.5
        else:
            return SolveResult(x, r, False, it, history,
                               "line search stalled (step below 2^-20)")
        x = x_trial
        r = r_trial
        history.append(float(np.abs(r).max()))
    converged = history[-1] <= cfg.tol_residual
    return SolveResult(x, r, converged, cfg.max_iters, history,
                       "converged" if converged else "max iterations reached")


ROW_FIXTURES = [("se2_vehicle.json", 20), ("se2_vehicle.json", 80),
                ("ball_plate.json", 12), ("ball_plate.json", 48)]


@pytest.mark.parametrize("size", [1, 2, 21])
@pytest.mark.parametrize("name,N,retraction", [
    *[pytest.param(name, N, "cayley", id=f"{name}-{N}") for name, N in ROW_FIXTURES],
    *[pytest.param(name, N, "exp4", id=f"{name}-{N}-exp4") for name, N in ROW_FIXTURES],
])
def test_stacked_residual_rows_equal_single_calls(name, N, retraction, size):
    """Under either retraction every member of a stack gets the rows it
    gets alone; the truncated exponential's inverse converges each member
    of its stack on its own."""
    prob, retr, _ = fixture(name, N, retraction)
    fn = ocp.make_residual_fn(prob, retr)
    x0 = ocp.initial_guess(prob, retr)
    rng = np.random.default_rng(N + size)
    X = x0 + 0.02 * rng.normal(size=(size, x0.size))
    R = fn.stacked(X)
    assert R.shape == X.shape
    for x, rows in zip(X, R):
        assert np.array_equal(rows, fn(x))


@pytest.mark.parametrize(
    "name,N,tol",
    [("se2_vehicle.json", 20, 1e-8), ("se2_vehicle.json", 10, None),
     ("ball_plate.json", 12, 1e-8), ("ball_plate.json", 12, None)],
)
def test_solve_equals_the_one_length_at_a_time_search(name, N, tol):
    """The cold vehicle rung backtracks as far as 2^-11; every iterate,
    residual and history entry is the reference loop's."""
    prob, retr, cfg = fixture(name, N)
    if tol is not None:
        cfg.tol_residual = tol
    x0 = ocp.initial_guess(prob, retr)
    fn = ocp.make_residual_fn(prob, retr)
    got = solve(fn, x0, cfg)
    want = reference_solve(fn, x0, cfg)
    assert got.converged and want.converged
    assert got.iterations == want.iterations
    assert got.residual_history == want.residual_history
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.residual, want.residual)


def test_cold_vehicle_rung_makes_at_most_two_line_search_calls_per_iteration(monkeypatch):
    """The grouped Jacobian never calls ``full_residual``, so every call
    after the first is the line search's.  The truncated exponential takes
    the stacked search too: one trial per call made 203 calls on this rung."""
    for retraction in ("cayley", "exp4"):
        prob, retr, cfg = fixture("se2_vehicle.json", 20, retraction)
        cfg.tol_residual = 1e-8  # as the refinement ladder solves it
        fn = ocp.make_residual_fn(prob, retr)
        calls = []
        full_residual = ocp.full_residual

        def counting(prob, x, *args):
            calls.append(x.shape)
            return full_residual(prob, x, *args)

        with monkeypatch.context() as patch:
            patch.setattr(ocp, "full_residual", counting)
            result = solve(fn, ocp.initial_guess(prob, retr), cfg)
        assert result.converged, retraction
        searches = len(calls) - 1
        assert searches <= 2 * result.iterations, retraction
        assert searches <= 54, retraction


def blocked_linear(k):
    """``x - 1`` from 0, with a non-finite residual beyond ``2^-k``: the
    first k Armijo lengths of the first step fail."""
    def residual(x):
        residual.calls += 1
        if x[0] > 2.0 ** -k * 1.0000001:
            return np.array([np.inf])
        return x - 1.0

    residual.calls = 0
    return residual


@pytest.mark.parametrize("k", [0, 1, 3, 11, 20, 21])
def test_a_plain_residual_is_called_as_often_as_one_length_at_a_time(k):
    cfg = SolverConfig(max_iters=1)
    got_fn, want_fn = blocked_linear(k), blocked_linear(k)
    got = solve(got_fn, np.zeros(1), cfg)
    want = reference_solve(want_fn, np.zeros(1), cfg)
    assert got_fn.calls == want_fn.calls
    assert got.message == want.message
    assert np.array_equal(got.x, want.x)
    if k <= 20:
        # the first call; the dense Jacobian's 2 points; then k + 1 trials
        assert got_fn.calls == 3 + k + 1


@pytest.mark.parametrize("x0", [5.0, -20.0])
def test_a_plain_residual_solve_is_the_one_length_at_a_time_solve(x0):
    """``3 arctan`` of a coupled linear map: Newton overshoots from far out
    and the search backtracks on several iterations; from -20 it stalls."""
    A = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, -0.4], [0.0, 0.5, 1.0]])

    def counted(x):
        counted.calls += 1
        return 3.0 * np.arctan(A @ x - 1.0)

    results = []
    for run in (solve, reference_solve):
        counted.calls = 0
        result = run(counted, np.full(3, x0), SolverConfig(max_iters=60))
        results.append((counted.calls, result))
    (got_calls, got), (want_calls, want) = results
    assert len(got.residual_history) > 3
    assert got.message == want.message
    assert got_calls == want_calls
    assert got.residual_history == want.residual_history
    assert np.array_equal(got.x, want.x)


def raising_on_short_steps(lo, hi):
    """``x - 1`` from 0 whose trial ``t = 1`` is non-finite and whose points
    in ``(lo, hi)`` raise.  ``stacked`` evaluates a stack point by point and
    so raises where any of its points does."""
    def value(x):
        if x[0] > 0.99:
            return np.array([np.inf])
        if lo < x[0] < hi:
            raise SingularRetractionError("trial point in the singular band")
        return x - 1.0

    def residual(x):
        residual.points.append(float(x[0]))
        return value(x)

    def stacked(X):
        residual.stacks.append(len(X))
        return np.stack([value(x) for x in X])

    residual.points, residual.stacks, residual.stacked = [], [], stacked
    return residual


def test_a_stack_that_raises_only_on_its_shortest_trial_still_accepts_the_longer_step():
    # t = 2^-20 puts the trial near 9.5e-7; the Jacobian's points are 1.5e-8 off
    fn = raising_on_short_steps(5e-7, 1.5e-6)
    result = solve(fn, np.zeros(1), SolverConfig(max_iters=1))
    assert result.message == "max iterations reached"
    assert fn.stacks == [1, 20]  # t = 1 alone, then t = 2^-1 .. 2^-20
    # the first call; the dense Jacobian's 2 points; then the stack again
    # point by point, stopping at its first trial t = 1/2
    assert len(fn.points) == 4
    assert fn.points[-1] == pytest.approx(0.5)
    assert result.x == pytest.approx([0.5])


def test_a_raising_trial_the_search_reaches_still_raises():
    fn = raising_on_short_steps(0.1, 0.99)
    with pytest.raises(SingularRetractionError):
        solve(fn, np.zeros(1), SolverConfig(max_iters=1))
    assert fn.stacks == [1, 20]
    assert fn.points[-1] == pytest.approx(0.5)


def test_a_search_from_the_shortest_length_tests_all_lengths_in_one_stack():
    """With ``last = 20`` the first stack holds all 21 lengths; when none
    passes there is no second stack and the search returns None."""
    def residual(x):
        raise AssertionError("a stacked residual is not called point by point")

    def stacked(X):
        residual.stacks.append(X.copy())
        return np.full((len(X), 1), np.inf)

    residual.stacks, residual.stacked = [], stacked
    assert solver._armijo(residual, np.zeros(1), np.ones(1), 0.5, 20) is None
    assert len(residual.stacks) == 1
    assert np.array_equal(residual.stacks[0][:, 0], 0.5 ** np.arange(21))
