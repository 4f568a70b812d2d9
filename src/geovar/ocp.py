"""Optimal control as a second-order constrained variational problem.

The pipeline mirrors the reduction used for underactuated systems on a
trivial bundle M x G:

1. A :class:`ControlledSystem` carries the controlled Euler-Lagrange rows
   (M rows first, then algebra rows) plus adapted bases of actuated and
   unactuated covectors.
2. :func:`reduce_to_variational` contracts the rows against the dual basis:
   the actuated combinations become the control expressions ``F_a`` feeding
   the cost (giving the second-order Lagrangian ``Ltilde``) and the
   unactuated combinations become the second-order constraints ``Phi``.
3. :func:`discretize` applies the symmetric midpoint-style stencils,
   producing a :class:`~geovar.discrete.DiscreteLagrangian` of order 2 and
   a :class:`~geovar.discrete.DiscreteConstraintSet`.  With analytic model
   gradients the constraint set carries the one-pass derivative of the
   augmented value ``L_d + lambda . Phi_d``: the slot derivatives and the
   constraint values of all windows from one stencil point, one call of
   each model callback and one :func:`stencil_chain`.
4. :func:`full_residual` assembles interior stationarity, the terminal
   algebra closure and the constraint windows into one square system whose
   unknowns are laid out as ``[q_2..q_{N-2} | xi_1..xi_{N-2} | lambda^0..
   lambda^{N-2}]``.
5. :func:`make_residual_fn` returns that system as a function carrying
   its Jacobian structure, over which :func:`geovar.solver.solve`
   differences it.  :func:`jacobian_structure` reads the entries and a
   closed-form column colouring off the three-node stencil.  The local rows
   at the perturbations of all colours come from 2 stacked evaluations of
   the same assembler (:func:`local_residual`).  The 3 closure rows read
   the balanced product of all group steps (:func:`closure_residual`); the
   ``6 (N-2)`` perturbed steps walk up its tree together, ``ceil(log2 N)``
   stacked products in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import discrete, groups, solver
from .discrete import LEFT, DiscreteConstraintSet, DiscreteLagrangian, DiscretePath
from .errors import IllPosedBasisError, SizeError

K_ORDER = 2  # the OCP reduction always yields a second-order problem


@dataclass
class BoundaryData:
    """Continuous boundary data for a second-order problem.

    ``q``/``dq`` are M-coordinates and velocities at t=0 and t=T; ``xi``
    are algebra velocities; ``g`` are group configurations.
    """

    q0: np.ndarray
    dq0: np.ndarray
    qT: np.ndarray
    dqT: np.ndarray
    xi0: np.ndarray
    xiT: np.ndarray
    g0: np.ndarray
    gT: np.ndarray
    # Optional algebra accelerations at the ends.  The first/last algebra
    # increments represent interval midpoints, so pinning them to the
    # endpoint values alone is only first-order consistent; supplying
    # d(xi)/dt at the ends upgrades the injection to second order.
    dxi0: Optional[np.ndarray] = None
    dxiT: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dxi0 is None:
            self.dxi0 = np.zeros(3)
        if self.dxiT is None:
            self.dxiT = np.zeros(3)
        for name in ("q0", "dq0", "qT", "dqT", "xi0", "xiT", "g0", "gT",
                     "dxi0", "dxiT"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"boundary field {name} is not finite")
            setattr(self, name, arr)


@dataclass
class SecondOrderProblem:
    """Second-order variational problem with second-order constraints.

    ``ltilde(q, dq, ddq, xi, dxi) -> (B,)`` and ``phi(...) -> (B, m)`` are
    autonomous and vectorized over evaluation points.

    ``conserved``, when set, is the index of a constraint that is a
    conservation law: the time derivative of a function of ``xi`` alone.
    Its rows over the windows then telescope to boundary data, so shifting
    all its multipliers by one constant moves no residual row (a gauge).
    """

    n: int
    group_tag: str
    m: int
    ltilde: Callable
    phi: Callable
    boundary: BoundaryData
    N: int
    h: float
    trivialization: str = LEFT
    # Optional analytic gradients w.r.t. (q, dq, ddq, xi, dxi):
    # d_ltilde(...) -> 5-tuple of (B, n)/(B, 3) arrays;
    # d_phi(...) -> 5-tuple with a leading constraint axis (B, m, .).
    # With both, discretize contracts the multipliers into them and chains
    # once; without either, the window-slot derivatives are differenced.
    d_ltilde: Optional[Callable] = None
    d_phi: Optional[Callable] = None
    conserved: Optional[int] = None

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError("h must be finite and positive")
        if self.N < 6:
            raise SizeError(f"need N >= 6, got {self.N}")


# ---------------------------------------------------------------------------
# Controlled system -> second-order problem
# ---------------------------------------------------------------------------


@dataclass
class ControlledSystem:
    """Controlled underactuated system on TM x g.

    ``raw_residual(q, dq, ddq, xi, dxi) -> (B, n+3)`` are the rows of
    the controlled Euler-Lagrange operator in coordinates (M components
    first, then algebra components in group coordinate order).

    The covector callbacks return stacked rows: ``actuated_covectors(q) ->
    (B, r, n+3)`` and ``unactuated_covectors(q) -> (B, m, n+3)``.  When
    ``direct_constraints`` is given it overrides the unactuated
    contraction (used for systems whose constraints are velocity-level
    rather than unactuated equation rows).
    """

    n: int
    group_tag: str
    r: int
    cost: Callable
    actuated_covectors: Callable
    unactuated_covectors: Callable
    raw_residual: Callable
    direct_constraints: Optional[Callable] = None

    @property
    def m(self):
        return self.n + 3 - self.r


def controlled_rows_from_lagrangian(L, q, dq, ddq, xi, dxi, group_tag,
                                    eps=1e-6):
    """Controlled Euler-Lagrange rows by nested central differences.

    ``L(q, dq, xi) -> (B,)`` is the reduced Lagrangian.  Returns the
    ``(B, n+3)`` rows ``[d/dt(dL/ddq) - dL/dq, d/dt(dL/dxi) - ad*_xi
    dL/dxi]``, with the total time derivative realized as a directional
    derivative along ``(dq, ddq, dxi)``.
    """
    n = q.shape[1]

    def grad(qq, dqq, xii):
        gq = np.empty_like(qq)
        gdq = np.empty_like(dqq)
        gxi = np.empty_like(xii)
        for c in range(n):
            e = np.zeros(n)
            e[c] = eps
            gq[:, c] = (L(qq + e, dqq, xii) - L(qq - e, dqq, xii)) / (2 * eps)
            gdq[:, c] = (L(qq, dqq + e, xii) - L(qq, dqq - e, xii)) / (2 * eps)
        for c in range(3):
            e = np.zeros(3)
            e[c] = eps
            gxi[:, c] = (L(qq, dqq, xii + e) - L(qq, dqq, xii - e)) / (2 * eps)
        return gq, gdq, gxi

    gq, gdq, gxi = grad(q, dq, xi)
    gq_p, gdq_p, gxi_p = grad(q + eps * dq, dq + eps * ddq, xi + eps * dxi)
    gq_m, gdq_m, gxi_m = grad(q - eps * dq, dq - eps * ddq, xi - eps * dxi)
    ddt_gdq = (gdq_p - gdq_m) / (2 * eps)
    ddt_gxi = (gxi_p - gxi_m) / (2 * eps)
    rows_M = ddt_gdq - gq
    ad_T = np.swapaxes(groups.ad_matrix(xi, group_tag), -1, -2)
    rows_alg = ddt_gxi - np.einsum("bij,bj->bi", ad_T, gxi)
    return np.concatenate([rows_M, rows_alg], axis=1)


def _dual_basis(sys, q):
    """Columns dual to the stacked covector basis rows; raises when rank deficient."""
    act = sys.actuated_covectors(q)
    unact = sys.unactuated_covectors(q)
    Bmat = np.concatenate([act, unact], axis=1)
    d = sys.n + 3
    if Bmat.shape[1] != d:
        raise IllPosedBasisError(
            f"covector basis has {Bmat.shape[1]} rows, expected {d}"
        )
    cond = np.max(np.linalg.cond(Bmat))
    if not np.isfinite(cond) or cond > 1e12:
        raise IllPosedBasisError(
            f"covector basis rank deficient (condition {cond:.3e})"
        )
    return np.linalg.inv(Bmat)  # (B, d, d); column i is dual to row i


def reduce_to_variational(sys, boundary, N, h, trivialization=LEFT):
    """Build the second-order problem ``(Ltilde, Phi)`` from a controlled system."""

    def F(q, dq, ddq, xi, dxi):
        E = sys.raw_residual(q, dq, ddq, xi, dxi)
        V = _dual_basis(sys, q)
        return np.einsum("bc,bca->ba", E, V[:, :, : sys.r])

    def ltilde(q, dq, ddq, xi, dxi):
        return sys.cost(q, dq, xi, F(q, dq, ddq, xi, dxi))

    if sys.direct_constraints is not None:
        phi = sys.direct_constraints
    else:
        def phi(q, dq, ddq, xi, dxi):
            E = sys.raw_residual(q, dq, ddq, xi, dxi)
            V = _dual_basis(sys, q)
            return np.einsum("bc,bca->ba", E, V[:, :, sys.r :])

    return SecondOrderProblem(
        n=sys.n,
        group_tag=sys.group_tag,
        m=sys.m,
        ltilde=ltilde,
        phi=phi,
        boundary=boundary,
        N=N,
        h=h,
        trivialization=trivialization,
    )


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------


def stencil_point(qs, xis, h):
    """Symmetric window stencils: mean position, central first/second
    difference for M, midpoint and forward difference for the algebra."""
    q0, q1, q2 = qs
    x0, x1 = xis
    q = (q0 + q1 + q2) / 3.0
    dq = (q2 - q0) / (2.0 * h)
    ddq = (q2 - 2.0 * q1 + q0) / (h * h)
    xi = (x0 + x1) / 2.0
    dxi = (x1 - x0) / h
    return q, dq, ddq, xi, dxi


def discretize(prob):
    """Discrete Lagrangian (scaled by h) and constraint set on the stencils.

    Windows of a stack of paths, ``(P, B, n)``, reach the model callbacks as
    ``P B`` rows.  When the problem carries both analytic gradients, the
    constraint set's ``d_eval(qs, xis, lambdas)`` is the one-pass kernel of
    the augmented value ``L_d + lambda . Phi_d``: one stencil point, one
    ``d_ltilde``, ``d_phi`` and ``phi`` call each, the multipliers
    contracted into the model gradients (``h grad ltilde + lambda . grad
    phi`` per stencil argument) and one stencil chain over the result.  It
    returns the slot derivatives and the constraint values of the windows.
    Without both gradients the slot derivatives are differenced.
    """
    h, m = prob.h, prob.m

    def rows(qs, xis):
        """Stencil point as ``(rows, .)`` arrays and the window shape."""
        point = stencil_point(qs, xis, h)
        lead = point[0].shape[:-1]
        return [a.reshape(-1, a.shape[-1]) for a in point], lead

    def ld(qs, xis):
        flat, lead = rows(qs, xis)
        return h * prob.ltilde(*flat).reshape(lead)

    def phid(qs, xis):
        flat, lead = rows(qs, xis)
        return prob.phi(*flat).reshape(lead + (m,))

    def d_augmented(qs, xis, lambdas):
        flat, lead = rows(qs, xis)
        lam = lambdas.reshape(-1, m)
        grads = [
            (h * gl + np.einsum("bm,bmn->bn", lam, gp)).reshape(lead + gl.shape[1:])
            for gl, gp in zip(prob.d_ltilde(*flat), prob.d_phi(*flat))
        ]
        Dq, Dxi = stencil_chain(*grads, h)
        return Dq, Dxi, prob.phi(*flat).reshape(lead + (m,))

    have_grads = prob.d_ltilde is not None and prob.d_phi is not None
    Ld = DiscreteLagrangian(order=K_ORDER, eval=ld)
    Phi = DiscreteConstraintSet(
        m=m, eval=phid, d_eval=d_augmented if have_grads else None
    )
    return Ld, Phi


def stencil_chain(gq, gdq, gddq, gxi, gdxi, h):
    """Window-slot derivatives of a function of the stencil point, from its
    gradients with respect to ``(q, dq, ddq, xi, dxi)``: ``([D_q0, D_q1,
    D_q2], [D_xi0, D_xi1])``, the transpose of :func:`stencil_point`."""
    mean = gq / 3.0
    first = gdq / (2.0 * h)
    second = gddq / (h * h)
    alg_mid = gxi / 2.0
    alg_diff = gdxi / h
    Dq = [mean - first + second, mean - 2.0 * second, mean + first + second]
    Dxi = [alg_mid - alg_diff, alg_mid + alg_diff]
    return Dq, Dxi


# ---------------------------------------------------------------------------
# Unknown layout, counting, boundary injection
# ---------------------------------------------------------------------------


@dataclass
class Layout:
    """Strides of the flat unknown vector ``[q | xi | lambda]`` and the row
    blocks of the residual ``[M-stationarity | G-stationarity | closure |
    constraints]``."""

    N: int
    n: int
    m: int

    @property
    def q_size(self):
        return (self.N - 3) * self.n

    @property
    def xi_size(self):
        return (self.N - 2) * 3

    @property
    def lam_size(self):
        return (self.N - 1) * self.m

    @property
    def total(self):
        return self.q_size + self.xi_size + self.lam_size

    @property
    def q_slice(self):
        return slice(0, self.q_size)

    @property
    def xi_slice(self):
        return slice(self.q_size, self.q_size + self.xi_size)

    @property
    def lam_slice(self):
        return slice(self.q_size + self.xi_size, self.total)

    def multiplier_columns(self, c):
        """Columns of constraint ``c``'s multipliers, one per window; as row
        indices they are the rows of that constraint."""
        return self.lam_slice.start + c + self.m * np.arange(self.N - 1)

    @property
    def closure_rows(self):
        start = (self.N - 3) * (self.n + 3)
        return slice(start, start + 3)

    @property
    def constraint_rows(self):
        return slice(self.closure_rows.stop, self.closure_rows.stop + self.lam_size)


def unknown_count(N, n, m):
    return Layout(N, n, m).total


def equation_count(N, n, m):
    return Layout(N, n, m).constraint_rows.stop


def layout(prob):
    return Layout(N=prob.N, n=prob.n, m=prob.m)


def boundary_nodes(prob):
    """Fixed node values implied by the continuous boundary data.

    The first and last two M/G nodes are data; velocities pin the second
    and second-to-last nodes (``q_1 = q_0 + h dq_0`` etc.) and the boundary
    algebra increments are the boundary algebra velocities.
    """
    b = prob.boundary
    h = prob.h
    q_first = np.stack([b.q0, b.q0 + h * b.dq0])
    q_last = np.stack([b.qT - h * b.dqT, b.qT])
    # first/last increments live at the interval midpoints t = h/2, T - h/2
    xi_first = b.xi0 + 0.5 * h * b.dxi0
    xi_last = b.xiT - 0.5 * h * b.dxiT
    return q_first, q_last, xi_first, xi_last


def scatter(prob, x):
    """Flat unknown vector -> DiscretePath with boundary nodes injected.

    A ``(P, total)`` stack of vectors gives a path whose node arrays carry
    the leading axis ``P``.
    """
    lay = layout(prob)
    if x.ndim not in (1, 2) or x.shape[-1] != lay.total:
        raise SizeError(f"expected flat vector of length {lay.total}, got {x.shape}")
    N, n, m = prob.N, prob.n, prob.m
    lead = x.shape[:-1]
    q_first, q_last, xi_first, xi_last = boundary_nodes(prob)
    q_nodes = np.empty(lead + (N + 1, n))
    q_nodes[..., 0:2, :] = q_first
    q_nodes[..., 2 : N - 1, :] = x[..., lay.q_slice].reshape(lead + (N - 3, n))
    q_nodes[..., N - 1 : N + 1, :] = q_last
    xi_nodes = np.empty(lead + (N, 3))
    xi_nodes[..., 0, :] = xi_first
    xi_nodes[..., 1 : N - 1, :] = x[..., lay.xi_slice].reshape(lead + (N - 2, 3))
    xi_nodes[..., N - 1, :] = xi_last
    lam = x[..., lay.lam_slice].reshape(lead + (N - 1, m))
    return DiscretePath(
        q_nodes=q_nodes, xi_nodes=xi_nodes, h=prob.h, lambda_nodes=lam
    )


def assemble_unknowns(prob, path):
    """DiscretePath -> flat unknown vector (inverse of :func:`scatter`)."""
    N = prob.N
    return np.concatenate(
        [
            path.q_nodes[2 : N - 1].ravel(),
            path.xi_nodes[1 : N - 1].ravel(),
            path.lambda_nodes.ravel(),
        ]
    )


def initial_guess(prob, retr):
    """Standard warm start: linear M-interpolation, constant algebra
    velocity toward the terminal group point, zero multipliers."""
    b = prob.boundary
    N, n, m = prob.N, prob.n, prob.m
    frac = np.linspace(0.0, 1.0, N + 1)[:, None]
    q_nodes = (1 - frac) * b.q0[None, :] + frac * b.qT[None, :]
    xi_const = _terminal_mismatch(prob, b.g0, retr) / (N * prob.h)
    xi_nodes = np.tile(xi_const, (N, 1))
    path = DiscretePath(
        q_nodes=q_nodes,
        xi_nodes=xi_nodes,
        h=prob.h,
        lambda_nodes=np.zeros((N - 1, m)),
    )
    return assemble_unknowns(prob, path)


# ---------------------------------------------------------------------------
# Full residual
# ---------------------------------------------------------------------------


def closure_residual(prob, xi_nodes, retr):
    """Terminal group boundary condition in algebra coordinates.

    Forms ``g_N = g_0 tau(h xi_0) ... tau(h xi_{N-1})`` (mirrored for the
    right-trivialized case) as ``g_0`` composed with the root of the
    balanced :func:`discrete.product_tree` of the steps, unrenormalized,
    and returns ``(tau^-1(g_N^-1 g(T)), g_N)``; the first is zero iff
    ``g_N`` matches ``g(T)``.  ``xi_nodes`` may carry a leading stack axis
    of paths, ``(P, N, 3)``; each member is then its lone call bit for bit.
    """
    triv = prob.trivialization
    tree = discrete.product_tree(retr.tau(prob.h * xi_nodes), triv)
    gN = discrete.compose(prob.boundary.g0, tree[-1][..., 0, :, :], triv)
    return _terminal_mismatch(prob, gN, retr), gN


def _terminal_mismatch(prob, gN, retr):
    """``tau^-1`` of the gap between ``g_N`` and ``g(T)``; ``gN`` may be stacked."""
    gN_inv = groups.inverse_matrix(gN, prob.group_tag)
    return retr.tau_inv(discrete.compose(gN_inv, prob.boundary.gT, prob.trivialization))


def full_residual(prob, x, retr, Ld=None, Phi=None):
    """Square residual vector: [M-stationarity | G-stationarity | closure | constraints],
    for each vector of a ``(P, total)`` stack ``x`` (or for one vector)."""
    if Ld is None or Phi is None:
        Ld, Phi = discretize(prob)
    path = scatter(prob, x)
    closure, _ = closure_residual(prob, path.xi_nodes, retr)
    return _assemble(prob, path, retr, Ld, Phi, closure)


def local_residual(prob, x, retr, Ld, Phi):
    """The rows of :func:`full_residual` with zeros in the 3 closure rows,
    for each vector of a ``(P, total)`` stack ``x`` (or for one vector).

    The closure rows see every ``xi`` through the product of all steps;
    the pattern of :func:`make_residual_fn` differences them separately.
    """
    return _assemble(
        prob, scatter(prob, x), retr, Ld, Phi, np.zeros(x.shape[:-1] + (3,))
    )


def _assemble(prob, path, retr, Ld, Phi, closure):
    """Residual rows of a (possibly stacked) path around the given closure rows."""
    res_q, res_g, res_phi = discrete.dlp_k_residual(
        Ld, Phi, path, retr, prob.trivialization
    )
    lead = closure.shape[:-1]
    return np.concatenate(
        [res_q.reshape(lead + (-1,)), res_g.reshape(lead + (-1,)), closure,
         res_phi.reshape(lead + (-1,))],
        axis=-1,
    )


def make_residual_fn(prob, retr):
    """:func:`full_residual` as a function of ``x``, the discretized
    callbacks captured once.  ``fn.stacked(X)`` returns the rows of
    :func:`full_residual` at every vector of a ``(P, total)`` stack in one
    assembly and one stacked closure product, each row equal to ``fn`` at
    that vector bit for bit under either retraction.

    The function carries its sparsity as ``fn.pattern``, a
    :class:`solver.ColumnGroups` of the colours and entries of
    :func:`jacobian_structure`.  Over it :func:`solver.fd_jacobian`
    reproduces the dense Jacobian bit for bit from 2 stacked
    :func:`local_residual` evaluations, one over the "+" and one over the
    "-" perturbations of every colour, plus one walk of the ``6 (N-2)``
    perturbed steps up the closure's product tree (:func:`_closure_fill`);
    ``fn`` itself is not called.

    When the problem declares a ``conserved`` constraint, ``fn.gauge`` holds
    the columns of its multipliers, the known null direction of every
    Jacobian (None otherwise).
    """
    Ld, Phi = discretize(prob)

    def fn(x):
        return full_residual(prob, x, retr, Ld, Phi)

    def local_rows(X):
        return local_residual(prob, X, retr, Ld, Phi)

    fn.pattern = solver.ColumnGroups(
        *jacobian_structure(prob), _closure_fill(prob, retr), local_rows
    )
    fn.stacked = fn  # full_residual evaluates a (P, total) stack as well
    fn.gauge = None
    if prob.conserved is not None:
        fn.gauge = layout(prob).multiplier_columns(prob.conserved)
    return fn


def jacobian_structure(prob):
    """``(colour, rows, cols)``: a colour per unknown and the ``(row, col)``
    residual entries an unknown can move, closure rows excluded, each entry
    once and sorted by row.

    Window ``w`` holds q nodes ``w..w+2``, xi nodes ``w, w+1`` and
    ``lambda^w``.  The stationarity rows of node ``i`` see windows
    ``i-2..i``; constraint row ``w`` sees the q and xi of window ``w``.  The
    3 closure rows see every xi and are differenced separately.

    The colouring is closed-form.  A q column of node ``a`` reaches the
    stationarity rows of nodes ``a-2..a+2``, a xi column of node ``a`` those
    of ``a-1..a+2``, and a multiplier column of window ``w`` those of
    ``w..w+2``; the constraint rows a column reaches lie in the windows
    behind these spans.  So two q, xi or multiplier columns share no row
    once their nodes differ by at least 5, 4 or 3, and the colour of a
    column is its block's offset plus ``(node mod period) * width +
    component``, with periods 5/4/3 and widths ``n``/3/``m``.  Colours no
    column takes (where the periods exceed the node counts) are dropped.
    """
    lay = layout(prob)
    N, n, m = prob.N, prob.n, prob.m
    # unknown and row indices per node; -1 marks boundary data
    q_col = np.full((N + 1, n), -1)
    q_col[2 : N - 1] = np.arange(lay.q_size).reshape(N - 3, n)
    xi_col = np.full((N, 3), -1)
    xi_col[1 : N - 1] = lay.q_size + np.arange(lay.xi_size).reshape(N - 2, 3)
    lam_col = lay.lam_slice.start + np.arange(lay.lam_size).reshape(N - 1, m)
    stat_row = np.full((N + 1, n + 3), -1)
    stat_row[2 : N - 1, :n] = np.arange(lay.q_size).reshape(N - 3, n)
    stat_row[2 : N - 1, n:] = lay.q_size + np.arange((N - 3) * 3).reshape(N - 3, 3)
    con_row = lay.constraint_rows.start + np.arange(lay.lam_size).reshape(N - 1, m)
    # per window: its stationarity rows, its q and xi columns
    w = np.arange(N - 1)[:, None]
    stat = stat_row[w + np.arange(3)].reshape(N - 1, -1)
    qxi = np.concatenate([q_col[w + np.arange(3)].reshape(N - 1, -1),
                          xi_col[w + np.arange(2)].reshape(N - 1, -1)], axis=1)
    keys = []
    for r, c in ((np.concatenate([stat, con_row], axis=1), qxi), (stat, lam_col)):
        r, c = np.broadcast_arrays(r[:, :, None], c[:, None, :])
        real = (r >= 0) & (c >= 0)
        keys.append(r[real] * lay.total + c[real])
    # a node's rows meet a column in up to 3 windows; sort, then keep each
    # entry once (np.unique hashes, which is several times slower here)
    keys = np.sort(np.concatenate(keys))
    rows, cols = np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], lay.total)

    colour = np.empty(lay.total, dtype=int)
    offset = 0
    for col, period in ((q_col, 5), (xi_col, 4), (lam_col, 3)):
        node, comp = np.nonzero(col >= 0)
        colour[col[node, comp]] = offset + (node % period) * col.shape[1] + comp
        offset += period * col.shape[1]
    return np.unique(colour, return_inverse=True)[1], rows, cols


def _closure_fill(prob, retr):
    """``fill(x, steps, J)`` writing the closure rows of the Jacobian.

    The closure is the root of the balanced product of the steps
    (:func:`closure_residual`), and a perturbed xi moves only its leaf's
    ancestors.  So the fill builds the tree of ``x`` once and walks the
    ``6 (N-2)`` perturbed leaves to the root together: at each level one
    stacked :func:`discrete.compose` with the sibling of the tree of ``x``,
    on the side the node's index parity says, carrying a node with no
    sibling up unchanged.  Every product is the one :func:`closure_residual`
    forms at the perturbed point, so the rows equal the dense differences
    bit for bit, after ``ceil(log2 N)`` stacked products.
    """
    lay = layout(prob)
    N, h, triv = prob.N, prob.h, prob.trivialization
    cols = np.arange(lay.xi_slice.start, lay.xi_slice.stop)
    # walker 2c (2c + 1) is column c stepped up (down); walkers sorted by node
    node = np.repeat(np.arange(1, N - 1), 6)
    comp = np.repeat(np.tile(np.arange(3), N - 2), 2)
    sign = np.tile([1.0, -1.0], cols.size)
    walker = np.arange(node.size)
    # per level below the root: each walker's sibling in the tree of x,
    # whether it has one, and whether the walker is the earlier of the pair
    walk = []
    at, size = node, N
    while size > 1:
        sibling = at ^ 1
        walk.append((np.minimum(sibling, size - 1),
                     (sibling < size)[:, None, None],
                     (at % 2 == 0)[:, None, None]))
        at, size = at // 2, (size + 1) // 2

    def fill(x, steps, J):
        xi = scatter(prob, x).xi_nodes
        tree = discrete.product_tree(retr.tau(h * xi), triv)
        xi_pm = xi[node]
        xi_pm[walker, comp] += sign * np.repeat(steps[cols], 2)
        up = retr.tau(h * xi_pm)
        for level, (sibling, paired, earlier) in zip(tree, walk):
            other = level[sibling]
            up = np.where(paired, discrete.compose(
                np.where(earlier, up, other), np.where(earlier, other, up), triv
            ), up)
        c = _terminal_mismatch(prob, discrete.compose(prob.boundary.g0, up, triv), retr)
        J[lay.closure_rows, cols] = (c[0::2] - c[1::2]).T / (2.0 * steps[cols])

    return fill


def refine_guess(prob_coarse, x_coarse, prob_fine):
    """Interpolate a coarse solution onto a finer grid as a warm start.

    Both problems must describe the same continuous data (same T = N h).
    Linear interpolation in node time for q, in interval-midpoint time for
    xi, and in window-center time for the multipliers.
    """
    path = scatter(prob_coarse, x_coarse)
    Nc, hc = prob_coarse.N, prob_coarse.h
    Nf, hf = prob_fine.N, prob_fine.h
    if abs(Nc * hc - Nf * hf) > 1e-12 * Nc * hc:
        raise SizeError("refine_guess requires matching horizons T = N h")
    q_nodes = interp_columns(
        np.arange(Nf + 1) * hf, np.arange(Nc + 1) * hc, path.q_nodes
    )
    xi_nodes = interp_columns(
        (np.arange(Nf) + 0.5) * hf, (np.arange(Nc) + 0.5) * hc, path.xi_nodes
    )
    lam = interp_columns(
        (np.arange(Nf - 1) + 1.0) * hf, (np.arange(Nc - 1) + 1.0) * hc,
        path.lambda_nodes,
    ) * (hf / hc)
    fine = DiscretePath(q_nodes=q_nodes, xi_nodes=xi_nodes, h=hf, lambda_nodes=lam)
    return assemble_unknowns(prob_fine, fine)


def interp_columns(t_new, t_old, table):
    """Each column of ``table``, sampled at ``t_old``, linearly
    interpolated to ``t_new``."""
    return np.stack([np.interp(t_new, t_old, col) for col in table.T], axis=1)


def solution_path(prob, x, retr):
    """Scatter a converged vector and attach reconstructed group nodes."""
    path = scatter(prob, x)
    path.g_nodes = discrete.reconstruct(
        path.xi_nodes, prob.boundary.g0, prob.h, retr, prob.trivialization
    )
    return path
