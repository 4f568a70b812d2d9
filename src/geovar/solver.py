"""Newton root finders with finite-difference Jacobians.

:func:`solve` is the damped Newton iteration for the large square systems
of the optimal-control problems.  :func:`newton_stack` solves a stack of
small independent systems (the truncated-exponential inverse) with one
residual call per iteration, and freezes each member as it converges, so
every member gets the root it gets alone.  Its stack of points
(:func:`stack_points`) and its step (:func:`stack_step`) are public for
loops that evaluate their residual themselves, as the rigid-body step of
:func:`geovar.discrete.dep_step` does.

:func:`fd_jacobian` builds the Jacobian by central differences.  Dense, it
costs 2 residual calls per column.  Given a :class:`ColumnGroups` sparsity,
a colour per column and the list of entries, it perturbs each colour's
structurally orthogonal columns at once (Curtis, Powell & Reid 1974) and
returns the same matrix bit for bit.  The pattern brings its colouring;
this module colours nothing.  The "+" and the "-" perturbations of all
colours are evaluated as two stacks; a pattern with a stacked evaluator
answers each stack in one call.
:func:`solve` differences a residual function over the pattern it carries
as its ``pattern`` attribute, and densely when it carries none.  The
optimal-control residual (:func:`geovar.ocp.make_residual_fn`) carries one,
so its Jacobian is 2 stacked evaluations of the local rows plus, for the 3
terminal-closure rows, one walk of the 6 (N-2) perturbed steps up the
balanced product tree of all steps: ceil(log2 N) stacked products.

The Armijo line search of :func:`solve` tries the step lengths
``t = 1 .. 2^-20`` in at most two stacks: ``t = 1`` down to the length
accepted at the previous iteration, then, only if none passes, all the
shorter ones.  A residual function with a ``stacked`` attribute evaluates
each stack in one call (the optimal-control residual does); others are
called one trial at a time and only up to the accepted one.  Each trial is
tested on its own row, so the accepted step is that of trying the lengths
one at a time, bit for bit.

The ``"lu"`` step of :func:`solve` has no condition threshold.  An exactly
singular Jacobian (the LU factorization fails) or a non-finite step raises
:class:`SingularSystemError`; only then is the condition number computed,
for the message.  A near-singular Jacobian yields a step that the Armijo
line search must still accept: if no step length down to 2^-20 decreases
the residual, the solve ends "line search stalled".  LU with partial
pivoting is backward stable, so the line search and the ``|r|_inf <= tol``
test judge the step, not an SVD of every Jacobian.

The ``"pseudoinverse"`` setting is for Jacobians with a multiplier gauge:
a constant shift of one constraint's multipliers that moves no residual
row (``conserved`` in :class:`geovar.ocp.SecondOrderProblem`).  The
residual function declares those columns as its ``gauge`` attribute, and
each step is the LU step of ``J + c v v^T``, written into J in place:
``v`` is uniform on the gauge columns and ``c`` is the largest ``|J|`` in
them.  Read as row indices, the gauge columns are the conserved
constraint's rows, whose sum has zero gradient.  So the pinned matrix is
nonsingular, and on a consistent system its solution is the minimal-norm
step of J, which keeps the sum of the gauge entries fixed (Keller 1977,
bordering).  A residual without a ``gauge`` is refused.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import ConfigError, DomainError, GeovarError, SingularSystemError

FD_STEP = float(np.finfo(float).eps) ** 0.5

_ARMIJO_SLOPE = 1e-4
_STEP_LENGTHS = 0.5 ** np.arange(21)  # the Armijo trials t = 2^0 .. 2^-20
_STACK_FD_STEP = 1e-7  # relative central-difference step of newton_stack


@dataclass
class ColumnGroups:
    """Sparsity that lets :func:`fd_jacobian` perturb several columns at once.

    ``colour[j]`` is the group of column ``j``, and every group from 0 to
    ``colour.max()`` holds a column.  ``(rows, cols)`` lists, once each, the
    entries that may be nonzero.  No row holds entries of two columns of one colour,
    so one residual pair differences a whole group.  Rows with no entries
    (rows too dense to group) are written by ``fill(x, steps, J)`` from
    cheaper evaluations of its own.

    ``stacked(X)``, when given, returns the residual rows at every row of a
    ``(P, n)`` stack of points as a ``(P, rows)`` array, in place of one
    residual call per point; it may leave the rows ``fill`` writes at zero.
    """

    colour: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    fill: Optional[Callable] = None
    stacked: Optional[Callable] = None


def fd_jacobian(residual_fn, x, step=FD_STEP, pattern=None):
    """Central-difference Jacobian; column j uses ``step * max(1, |x_j|)``.

    Without a ``pattern`` every column is its own group and every entry is
    written: ``2 n`` residual calls for ``n`` unknowns.  With a
    :class:`ColumnGroups` pattern each colour costs 2 residual evaluations
    and each column's difference is written into its entries only, so the
    result equals the dense one exactly when the entries are complete.  The
    write touches the pattern's entries alone, so it is linear in their
    number.  The points of all colours are evaluated as two stacks, "+" and
    "-": by ``pattern.stacked`` in one call each, or else by
    ``residual_fn`` point by point.
    """
    x = np.asarray(x, dtype=float)
    colour = np.arange(x.size) if pattern is None else pattern.colour
    stacked = None if pattern is None else pattern.stacked
    if stacked is None:
        def stacked(X):
            return np.stack([np.asarray(residual_fn(p)) for p in X])

    steps = step * np.maximum(1.0, np.abs(x))
    # point g of each stack moves the columns of colour g
    every = np.arange(x.size)
    xp = np.tile(x, (colour.max() + 1, 1))
    xm = xp.copy()
    xp[colour, every] += steps
    xm[colour, every] -= steps
    diff = stacked(xp) - stacked(xm)
    if pattern is None:
        J = diff.T / (2.0 * steps)
    else:
        J = np.zeros((diff.shape[1], x.size))
        rows, cols = pattern.rows, pattern.cols
        J[rows, cols] = diff[colour[cols], rows] / (2.0 * steps[cols])
        if pattern.fill is not None:
            pattern.fill(x, steps, J)
    if not np.all(np.isfinite(J)):
        bad = np.argwhere(~np.isfinite(J))[0]
        raise DomainError(f"non-finite Jacobian entry at {tuple(bad)}")
    return J


@functools.lru_cache(maxsize=None)
def _stack_signs(d):
    """The read-only ``(2d+1, d)`` table ``[0; I; -I]`` that scales the
    :func:`newton_stack` offsets.  Row 0 and the zeros of ``-I`` are
    ``-0.0``: adding ``-0.0`` leaves every ``x``, ``-0.0`` included, as it
    is, so row 0 of ``x + dx * signs`` is ``x`` bit for bit and the rest
    are the floats of ``x + dx e_j`` and ``x - dx e_j``."""
    signs = np.concatenate([np.full((1, d), -0.0), np.eye(d), -np.eye(d)])
    signs.flags.writeable = False
    return signs


def stack_points(x):
    """The points :func:`newton_stack` evaluates at ``x`` of shape
    ``(..., d)``: returns the ``(..., 2d+1, d)`` stack
    ``[x, x + dx_j e_j, x - dx_j e_j]`` and ``dx = 1e-7 max(1, |x|)``.
    Row 0 is ``x`` bit for bit."""
    dx = _STACK_FD_STEP * np.maximum(1.0, np.abs(x))
    return x[..., None, :] + dx[..., None, :] * _stack_signs(x.shape[-1]), dx


def stack_step(rows, dx):
    """The Newton correction ``J^-1 r`` of each member (its ``x`` moves to
    ``x - J^-1 r``), from its residual rows ``(..., 2d+1, d)`` at the
    :func:`stack_points` stack and its offsets ``dx``: ``r`` is row 0 and
    ``J`` the central differences of the other rows."""
    d = rows.shape[-1]
    diff = rows[..., 1 : d + 1, :] - rows[..., d + 1 :, :]
    J = (diff / (2.0 * dx)[..., :, None]).swapaxes(-1, -2)
    return np.linalg.solve(J, rows[..., 0, :, None])[..., 0]


def newton_stack(residual_fn, x, tol, max_iter):
    """Undamped Newton iteration on a stack of small independent systems.

    ``x`` has shape ``(..., d)``.  Each iteration makes one call
    ``residual_fn(X)`` on the ``(..., 2d+1, d)`` stack
    ``[x, x + dx_j e_j, x - dx_j e_j]`` of :func:`stack_points`; the
    ``(..., 2d+1, d)`` result holds the residuals at ``x`` and the rows of
    the central-difference Jacobians.  Before each step every member is
    tested on its own: it has converged when ``max |r| < tol`` over its
    ``d`` entries (a NaN never has), and is then frozen, its Jacobian no
    longer factored and its ``x`` no longer updated.  So where a member's
    rows depend on that member alone, it gets its lone root bit for bit.
    Returns ``(x, iterations)``; ``iterations == max_iter`` exactly when
    some member never converged.
    """
    x = np.array(x, dtype=float)
    for it in range(max_iter):
        points, dx = stack_points(x)
        rows = residual_fn(points)
        r = rows[..., 0, :]
        if np.abs(r).max() < tol:  # every member has converged
            return x, it
        # a stack steps only its members not yet converged (NaN never has)
        live = ~(np.abs(r).max(axis=-1) < tol) if x.ndim > 1 else ...
        x[live] -= stack_step(rows[live], dx[live])
    return x, max_iter


@dataclass
class SolverConfig:
    """Newton iteration settings."""

    tol_residual: float = 1e-10
    max_iters: int = 200
    # "lu": dense LU, errors on singular systems.  "pseudoinverse": for
    # consistent systems with a multiplier gauge freedom (e.g. a
    # conservation-law constraint whose windows telescope): LU with the
    # residual's declared gauge pinned; a residual that declares no gauge
    # is refused.
    linear_solver: str = "lu"

    def __post_init__(self):
        if isinstance(self.tol_residual, bool) or not (
            np.isfinite(self.tol_residual) and self.tol_residual > 0
        ):
            raise ValueError(
                f"tol_residual must be finite and positive, got {self.tol_residual}"
            )
        if not (isinstance(self.max_iters, (int, np.integer))
                and not isinstance(self.max_iters, bool) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.linear_solver not in ("lu", "pseudoinverse"):
            raise ValueError(f"unknown linear_solver {self.linear_solver!r}")


@dataclass
class SolveResult:
    """The last iterate ``x`` and the residual vector ``residual`` at it."""

    x: np.ndarray
    residual: np.ndarray
    converged: bool
    iterations: int
    residual_history: List[float] = field(default_factory=list)
    message: str = ""


def solve(residual_fn, x0, cfg=None):
    """Damped Newton iteration on a square nonlinear system.

    The Jacobian is :func:`fd_jacobian` over ``residual_fn.pattern`` when
    the residual function carries one.  Backtracks with an Armijo condition
    on ``0.5 ||r||^2`` (:func:`_armijo`), evaluating the trials through
    ``residual_fn.stacked`` when the function carries one; accepted steps
    never increase the residual 2-norm.
    Raises :class:`SingularSystemError` when the LU fails or the step is
    not finite, and :class:`ConfigError` naming ``linear_solver``, before
    any residual evaluation, when ``"pseudoinverse"`` meets a residual
    function without a ``gauge``.  Deterministic for identical inputs.
    """
    if cfg is None:
        cfg = SolverConfig()
    gauge = getattr(residual_fn, "gauge", None)
    if cfg.linear_solver == "lu":
        gauge = None  # "lu" refuses the singular Jacobian of a gauge
    elif gauge is None:
        raise ConfigError("linear_solver", '"pseudoinverse" pins the residual\'s '
                          'multiplier gauge, and this residual declares none')
    x = np.array(x0, dtype=float)
    r = np.asarray(residual_fn(x))
    if r.size != x.size:
        raise ValueError(
            f"system is not square: {r.size} equations, {x.size} unknowns"
        )
    _check_finite(r)
    pattern = getattr(residual_fn, "pattern", None)
    history = [float(np.abs(r).max())]
    last = 0  # index in _STEP_LENGTHS of the step last accepted
    for it in range(cfg.max_iters):
        if history[-1] <= cfg.tol_residual:
            return SolveResult(x, r, True, it, history, "converged")
        J = fd_jacobian(residual_fn, x, FD_STEP, pattern)
        if gauge is not None:  # J + c v v^T, v uniform on the gauge columns
            J[np.ix_(gauge, gauge)] += np.abs(J[:, gauge]).max() / gauge.size
        try:
            dx = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            dx = None
        if dx is None or not np.all(np.isfinite(dx)):
            raise SingularSystemError(it, np.linalg.cond(J))
        accepted = _armijo(residual_fn, x, dx, 0.5 * float(r @ r), last)
        if accepted is None:
            return SolveResult(
                x, r, False, it, history,
                "line search stalled (step below 2^-20)",
            )
        last, x, r = accepted
        history.append(float(np.abs(r).max()))
    converged = history[-1] <= cfg.tol_residual
    msg = "converged" if converged else "max iterations reached"
    return SolveResult(x, r, converged, cfg.max_iters, history, msg)


def _armijo(residual_fn, x, dx, f0, last):
    """Armijo backtracking on ``f = 0.5 ||r||^2``, whose slope along ``dx``
    is ``-2 f0``: the first (longest) ``t`` of :data:`_STEP_LENGTHS` with
    a finite residual and ``f(x + t dx) <= f0 - 1e-4 t 2 f0``.

    Returns ``(k, x + t dx, r)`` for ``t = 2^-k``, or None when no trial
    passes.  The trials ``t = 1 .. 2^-last`` are evaluated as one stack,
    and only if none passes, the shorter ones as a second stack.  Each
    trial is tested on its own row, so the result is the one of trying the
    lengths one at a time.
    """
    for ks in (range(0, last + 1), range(last + 1, _STEP_LENGTHS.size)):
        if not ks:  # the first stack held every length
            break
        points = x + _STEP_LENGTHS[ks.start : ks.stop, None] * dx
        for k, x_t, r_t in zip(ks, points, _rows(residual_fn, points)):
            if np.all(np.isfinite(r_t)) and (
                0.5 * float(r_t @ r_t)
                <= f0 - _ARMIJO_SLOPE * _STEP_LENGTHS[k] * 2.0 * f0
            ):
                return k, x_t, r_t
    return None


def _rows(residual_fn, points):
    """The residual at each row of ``points``: one call of
    ``residual_fn.stacked`` when the function carries one, and otherwise,
    or when that call raises, one call per point, made as the rows are
    read.  A point by point pass raises only at the point that fails."""
    stacked = getattr(residual_fn, "stacked", None)
    if stacked is not None:
        try:
            return stacked(points)
        except GeovarError:
            pass
    return (np.asarray(residual_fn(p)) for p in points)


def _check_finite(r):
    if not np.all(np.isfinite(r)):
        idx = int(np.argwhere(~np.isfinite(np.asarray(r)))[0][0])
        raise DomainError(f"non-finite residual entry at index {idx}")
