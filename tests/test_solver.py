"""Damped Newton root-finder tests."""

import json
from pathlib import Path

import numpy as np
import pytest

from geovar import cli, ocp
from geovar.errors import ConfigError, DomainError, SingularSystemError
from geovar.retraction import make_retraction
from geovar.solver import (
    FD_STEP,
    ColumnGroups,
    SolveResult,
    SolverConfig,
    fd_jacobian,
    newton_stack,
    solve,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_linear_system_converges_in_one_iteration():
    c = np.array([1.0, -2.0, 3.5])
    result = solve(lambda x: x - c, np.zeros(3))
    assert result.converged
    assert result.iterations == 1
    assert np.allclose(result.x, c, atol=1e-12)


def test_scalar_quadratic_converges_with_quadratic_tail():
    result = solve(lambda x: x * x - 4.0, np.array([3.0]))
    assert result.converged
    assert abs(result.x[0] - 2.0) < 1e-10
    # quadratic local convergence: e_{n+1} / e_n^2 bounded.  The iterates
    # stay above the root, so each residual r = x^2 - 4 gives e = sqrt(4 + r) - 2.
    errs = [np.sqrt(4.0 + r) - 2.0 for r in result.residual_history]
    errs = [e for e in errs if e > 1e-12]
    ratios = [
        errs[i + 1] / errs[i] ** 2
        for i in range(len(errs) - 1)
        if errs[i] > 1e-5
    ]
    assert ratios and max(ratios) < 10.0


def test_fd_jacobian_exact_on_linear_residual():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    # a linear residual has zero truncation error, so a larger step only
    # reduces the rounding contribution
    J = fd_jacobian(lambda x: A @ x - b, rng.normal(size=4), step=1e-4)
    assert np.abs(J - A).max() < 1e-10


def band_pattern(n, b, mask=None, stacked=None):
    """The entries of ``mask`` (default: all) within bandwidth ``b`` of an
    ``(n, n)`` Jacobian, columns coloured ``j mod (2b + 1)``."""
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= b
    if mask is not None:
        band &= mask
    return ColumnGroups(np.arange(n) % (2 * b + 1), *np.nonzero(band), stacked=stacked)


def colouring_is_valid(pattern):
    """No entry row holds two columns of one colour."""
    row_colour = pattern.rows * (pattern.colour.max() + 1) + pattern.colour[pattern.cols]
    return np.unique(row_colour).size == row_colour.size


def test_grouped_fd_jacobian_matches_dense_on_a_banded_residual():
    """Columns of a tridiagonal residual fall into 3 groups; grouped
    differences reproduce the dense Jacobian exactly."""

    def residual(x):
        r = np.sin(x) * x
        r[1:] += np.exp(0.3 * x[:-1])
        r[:-1] -= x[1:] ** 3
        return r

    x = np.random.default_rng(5).normal(size=12)
    pattern = band_pattern(12, 1)
    assert colouring_is_valid(pattern)
    J = fd_jacobian(residual, x, pattern=pattern)
    assert np.array_equal(J, fd_jacobian(residual, x))


def test_stacked_evaluator_answers_each_stack_in_one_call():
    """A pattern's stacked evaluator sees two (groups, n) stacks, "+" then
    "-", and the Jacobian equals the one built point by point."""

    def residual(x):
        r = np.cos(x) * x
        r[1:] -= x[:-1] ** 2
        return r

    x = np.random.default_rng(6).normal(size=9)
    lower = np.tril(np.ones((9, 9), dtype=bool))
    stacks = []

    def stacked(X):
        stacks.append(X.copy())
        return np.stack([residual(p) for p in X])

    J = fd_jacobian(residual, x, pattern=band_pattern(9, 1, lower, stacked))
    assert np.array_equal(J, fd_jacobian(residual, x, pattern=band_pattern(9, 1, lower)))
    assert np.array_equal(J, fd_jacobian(residual, x))
    assert [X.shape for X in stacks] == [(3, 9)] * 2
    assert np.all(stacks[0] >= x) and np.all(stacks[1] <= x)


def test_fd_jacobian_agrees_with_model_supplied_path():
    """Dual-path check: the finite-difference Jacobian matches a hand-coded
    analytic Jacobian elementwise, and the solve over it finds the root."""

    def residual(x):
        return np.array(
            [
                np.sin(x[0]) + x[1] ** 2 - 0.3,
                x[0] * x[1] - 0.1 * np.cos(x[1]),
            ]
        )

    def jacobian(x):
        return np.array(
            [
                [np.cos(x[0]), 2.0 * x[1]],
                [x[1], x[0] + 0.1 * np.sin(x[1])],
            ]
        )

    x = np.array([0.4, -0.7])
    assert np.abs(fd_jacobian(residual, x) - jacobian(x)).max() < 1e-5
    assert solve(residual, x).converged


def test_singular_jacobian_reports_iteration():
    def residual(x):
        return np.array([x[0] - x[1], x[0] - x[1]])

    with pytest.raises(SingularSystemError) as exc:
        solve(residual, np.array([1.0, 0.0]))
    assert exc.value.iteration == 0


def test_badly_scaled_nonsingular_system_converges():
    """A row scaled by 1e-15 makes the 2-norm condition number 1e15 but
    leaves the LU step exact; the Newton step is taken, not refused."""

    def residual(x):
        return np.array([x[0] - 1.0, 1e-15 * (x[1] - 1.0)])

    result = solve(residual, np.zeros(2))
    assert result.converged
    assert result.iterations == 1
    assert np.allclose(result.x, 1.0, rtol=0.0, atol=1e-7)


def test_non_finite_lu_step_reports_iteration(monkeypatch):
    solve_real = np.linalg.solve
    calls = []

    def nan_on_second_call(J, b):
        calls.append(None)
        dx = solve_real(J, b)
        return dx if len(calls) == 1 else np.full_like(dx, np.nan)

    monkeypatch.setattr(np.linalg, "solve", nan_on_second_call)
    with pytest.raises(SingularSystemError, match="at iteration 1 ") as exc:
        solve(lambda x: x * x - 4.0, np.array([3.0]))
    assert exc.value.iteration == 1
    assert np.isfinite(exc.value.cond)


def column_write_jacobian(residual_fn, x, pattern):
    """:func:`fd_jacobian` written group by group over whole columns, each
    column masked by its entries: the reference for the entry write."""
    steps = FD_STEP * np.maximum(1.0, np.abs(x))
    groups = [np.flatnonzero(pattern.colour == g) for g in range(pattern.colour.max() + 1)]
    xp = np.tile(x, (len(groups), 1))
    xm = xp.copy()
    for g, cols in enumerate(groups):
        xp[g, cols] += steps[cols]
        xm[g, cols] -= steps[cols]
    stacked = pattern.stacked or (lambda X: np.stack([residual_fn(p) for p in X]))
    diff = stacked(xp) - stacked(xm)
    entries = np.zeros((diff.shape[1], x.size), dtype=bool)
    entries[pattern.rows, pattern.cols] = True
    J = np.zeros(entries.shape)
    for g, cols in enumerate(groups):
        J[:, cols] = np.where(entries[:, cols], diff[g][:, None] / (2.0 * steps[cols]), 0.0)
    if pattern.fill is not None:
        pattern.fill(x, steps, J)
    return J


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_entry_write_equals_column_write_on_a_random_pattern(seed):
    """A random sparse residual within a band: the Jacobian over its column
    groups equals the column-by-column write and the dense
    (``pattern=None``) one."""
    rng = np.random.default_rng(seed)
    n = 9
    pattern = band_pattern(n, 2, (rng.random((n, n)) < 0.5) | np.eye(n, dtype=bool))
    assert colouring_is_valid(pattern)
    A = np.zeros((n, n))
    A[pattern.rows, pattern.cols] = rng.normal(size=pattern.rows.size)

    def residual(x):
        return A @ np.sin(x) + 0.1 * (A != 0) @ x**3

    x = rng.normal(size=n)
    J = fd_jacobian(residual, x, pattern=pattern)
    assert np.array_equal(J, column_write_jacobian(residual, x, pattern))
    assert np.array_equal(J, fd_jacobian(residual, x))
    dense = ColumnGroups(np.arange(n), *np.nonzero(np.ones((n, n), dtype=bool)))
    assert np.array_equal(fd_jacobian(residual, x), column_write_jacobian(residual, x, dense))


def test_dense_fd_jacobian_makes_two_residual_calls_per_column():
    """Without a pattern, n = 5 unknowns cost exactly 10 residual calls:
    none is spent on counting the rows."""
    calls = []

    def residual(x):
        calls.append(x.copy())
        return np.array([x[0] * x[1], np.sin(x[2]), x[3] + x[4] ** 2])

    J = fd_jacobian(residual, np.arange(5.0))
    assert len(calls) == 10
    assert J.shape == (3, 5)


@pytest.mark.parametrize("retraction", ["cayley", "exp4"])
@pytest.mark.parametrize(
    "name,N",
    [("se2_vehicle.json", 10), ("se2_vehicle.json", 20),
     ("ball_plate.json", 8), ("ball_plate.json", 16)],
)
def test_entry_write_equals_column_write_on_the_fixtures(name, N, retraction):
    """Vehicle and ball, at the standard guess and at a perturbed point."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    prob, _ = cli.build_problem(cfg, N=N, h=cfg["N"] * cfg["h"] / N)
    retr = make_retraction(retraction, prob.group_tag)
    fn = ocp.make_residual_fn(prob, retr)
    x0 = ocp.initial_guess(prob, retr)
    x1 = x0 + 0.02 * np.random.default_rng(N).normal(size=x0.size)
    for x in (x0, x1):
        J = fd_jacobian(fn, x, pattern=fn.pattern)
        assert np.array_equal(J, column_write_jacobian(fn, x, fn.pattern))


def test_pseudoinverse_refuses_a_residual_without_a_gauge():
    """``"pseudoinverse"`` pins the gauge a residual declares; a residual
    that declares none is refused before it is evaluated."""
    calls = []

    def residual(x):
        calls.append(None)
        return x - 1.0

    with pytest.raises(ConfigError, match="gauge") as exc:
        solve(residual, np.zeros(3), SolverConfig(linear_solver="pseudoinverse"))
    assert exc.value.field == "linear_solver"
    assert calls == []


def test_non_finite_residual_names_index():
    def residual(x):
        out = x.copy()
        out[2] = np.nan
        return out

    with pytest.raises(DomainError, match="index 2"):
        solve(residual, np.ones(4))


def test_non_square_system_rejected():
    with pytest.raises(ValueError, match="not square"):
        solve(lambda x: np.concatenate([x, x]), np.ones(3))


def test_determinism_bitwise_identical_histories():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 5)) + 5 * np.eye(5)

    def residual(x):
        return A @ x + 0.1 * np.sin(x) - 1.0

    r1 = solve(residual, np.zeros(5))
    r2 = solve(residual, np.zeros(5))
    assert r1.residual_history == r2.residual_history
    assert np.array_equal(r1.x, r2.x)


def test_accepted_steps_never_increase_residual_norm():
    def residual(x):
        return np.array([np.arctan(x[0]) * 3.0])  # damping actually engages

    result = solve(residual, np.array([5.0]), SolverConfig(max_iters=50))
    hist = result.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-15 for i in range(len(hist) - 1))
    assert result.converged


def test_gradient_residual_jacobian_is_symmetric():
    """For a residual that is the gradient of a scalar action, the Jacobian
    is a Hessian; FD asymmetry stays small."""
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 6))

    def scalar(x):
        return float(np.sum(np.sin(a @ x)) + 0.5 * x @ x)

    def residual(x):
        return a.T @ np.cos(a @ x) + x

    x = rng.normal(size=6)
    # sanity: residual really is the gradient
    eps = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = eps
        fd = (scalar(x + e) - scalar(x - e)) / (2 * eps)
        assert abs(residual(x)[j] - fd) < 1e-8
    J = fd_jacobian(residual, x)
    assert np.abs(J - J.T).max() / np.abs(J).max() < 1e-4


def test_config_validation():
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=tol)
    for max_iters in (0, 80.5, True):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=max_iters)
    with pytest.raises(ValueError):
        SolverConfig(linear_solver="qr")


def test_no_convergence_report_keeps_best_iterate():
    result = solve(
        lambda x: x * x + 1.0, np.array([1.0]), SolverConfig(max_iters=5)
    )
    assert not result.converged
    assert isinstance(result, SolveResult)
    assert np.isfinite(result.x).all()
    assert result.message != "converged"


@pytest.mark.parametrize(
    "residual, x0, max_iters, message",
    [
        (lambda x: x * x - 4.0, 3.0, 200, "converged"),
        (lambda x: x * x - 4.0, 3.0, 1, "max iterations reached"),
        (lambda x: x * x + 1.0, 1.0, 200, "line search stalled (step below 2^-20)"),
    ],
    ids=["converged", "capped", "stalled"],
)
def test_result_residual_is_the_residual_at_its_iterate(residual, x0, max_iters, message):
    result = solve(residual, np.array([x0]), SolverConfig(max_iters=max_iters))
    assert result.message == message
    assert np.array_equal(result.residual, residual(result.x))


# -- newton_stack --------------------------------------------------------------


def cubic_system(c):
    """Independent nonlinear 3-dim systems ``x + 0.3 sin(roll(x)) + 0.1 x^3 = c``,
    one per row of ``c``; the residual takes the ``(..., 7, 3)`` candidate stack."""
    c = np.asarray(c)[..., None, :]

    def residual(X):
        return X + 0.3 * np.sin(np.roll(X, 1, axis=-1)) + 0.1 * X**3 - c

    return residual


def test_newton_stack_equals_solving_each_system_alone():
    c = np.random.default_rng(4).uniform(-3.0, 3.0, size=(2, 4, 3))
    c[0, 0] = 0.0  # solved at the start; the rest of the stack is not
    x, iters = newton_stack(cubic_system(c), np.zeros((2, 4, 3)), 1e-13, 50)
    assert x.shape == (2, 4, 3)
    assert iters < 50
    assert np.abs(cubic_system(c)(x[..., None, :])).max() < 1e-13
    for idx in np.ndindex(2, 4):
        alone, it = newton_stack(cubic_system(c[idx]), np.zeros(3), 1e-13, 50)
        assert it <= iters
        assert np.array_equal(x[idx], alone)


def test_a_stack_with_a_nan_member_reports_the_cap():
    """The NaN member never converges; each finite member is frozen at its
    own root."""
    c = np.random.default_rng(5).uniform(-3.0, 3.0, size=(3, 3))
    c[1, 2] = np.nan
    x, iters = newton_stack(cubic_system(c), np.zeros((3, 3)), 1e-13, 30)
    assert iters == 30
    for i in (0, 2):
        alone, it = newton_stack(cubic_system(c[i]), np.zeros(3), 1e-13, 30)
        assert it < 30
        assert np.array_equal(x[i], alone)


def test_a_converged_member_with_a_singular_jacobian_is_not_factored():
    """Member 0 is solved at the start and its Jacobian is zero there; the
    stack still returns member 1's own root."""
    c = np.array([[0.0] * 3, [1.0, -2.0, 0.5]])
    cubic = cubic_system(c)

    def residual(X):
        out = cubic(X)
        out[0] = X[0] ** 2  # a double root at 0: r = 0 and J = 0 there
        return out

    x, iters = newton_stack(residual, np.zeros((2, 3)), 1e-13, 50)
    alone, it = newton_stack(cubic_system(c[1]), np.zeros(3), 1e-13, 50)
    assert iters == it < 50
    assert np.array_equal(x[0], np.zeros(3))
    assert np.array_equal(x[1], alone)


def test_newton_stack_calls_the_residual_once_per_iteration():
    calls = []
    system = cubic_system(np.array([[1.0, -2.0, 0.5], [0.1, 0.2, 0.3]]))

    def residual(X):
        calls.append(X.shape)
        return system(X)

    x, iters = newton_stack(residual, np.zeros((2, 3)), 1e-13, 50)
    # one call per step plus the call that finds the stack converged
    assert len(calls) == iters + 1
    assert set(calls) == {(2, 7, 3)}


def test_newton_stack_with_zero_tolerance_reports_the_cap():
    calls = []
    system = cubic_system(np.array([1.0, -2.0, 0.5]))

    def residual(X):
        calls.append(None)
        return system(X)

    x, iters = newton_stack(residual, np.zeros(3), 0.0, 7)
    assert iters == 7
    assert len(calls) == 7
    assert np.abs(system(x[None])).max() < 1e-12
