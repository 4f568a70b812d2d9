"""Residual assembly for discrete variational equations on M x G.

The central objects are discrete Lagrangians ``L_d`` of order ``k`` defined
on ``(k+1)`` copies of ``M x G``.  With the group increments encoded by a
retraction (``xi_i = tau^-1(g_i^-1 g_{i+1}) / h`` in the left-trivialized
convention), the discrete action is a function of M-nodes ``q_i``, algebra
nodes ``xi_i`` and (for constrained problems) multipliers ``lambda^w`` per
window.  Every residual assembled here is *exactly* the gradient of that
action under coordinate variations of interior ``q_i`` and trivialized
group variations at interior ``g_i``; the finite-difference gradient of the
action is the correctness oracle throughout the test suite.

Stationarity rows exist for nodes ``i = k .. N-k``; constraint rows for
windows ``i = 0 .. N-k``.  Boundary nodes (the first and last ``k`` of the
``q``/``g`` sequences, hence the first and last algebra nodes) are data.

Evaluation callbacks are vectorized over windows: ``eval(qs, xis)`` with
``qs`` a tuple of ``k+1`` arrays of shape ``(B, n)`` and ``xis`` a tuple of
``k`` arrays of shape ``(B, d)`` returns shape ``(B,)`` (or ``(B, m)`` for
constraint sets).

:func:`dlp_k_residual` also takes a stack of ``P`` paths at once (node
arrays with a leading axis, ``(P, N+1, n)``).  The callbacks then receive
windows of shape ``(P, B, n)`` and return ``(P, B)`` (or ``(P, B, m)``);
callbacks that evaluate each window on its own give every path of the
stack the residual it has alone.

:func:`dep_step` advances the left-trivialized discrete Euler-Poincare flow
by one node; its 3-dim root find iterates the stack and the step of
:func:`geovar.solver.newton_stack`.  :func:`dep_solve_path` starts each
root find from an extrapolation of the last three nodes, and carries the
pulled-back momenta each step evaluates into the next.
:func:`spatial_momentum` is the flow's conserved momentum in closed form;
the central-difference pairing :func:`discrete_momentum` is its
independent reference.

:func:`compose` is the one place here and in :mod:`geovar.ocp` that spells
the product order of a step, ``g tau`` (left) or ``tau g`` (right);
:func:`reconstruct` chains it node by node to rebuild group nodes from
increments, and :func:`product_tree` pairs it into the balanced product of
all increments that the terminal closure of :mod:`geovar.ocp` reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groups, solver
from .errors import SizeError, DomainError

FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
DEP_MAX_ITER = 50  # Newton iterations per dep_step

LEFT = "left"
RIGHT = "right"


@dataclass
class DiscreteLagrangian:
    """Discrete Lagrangian of order ``k`` on ``(k+1)(M x G)``.

    Parameters
    ----------
    order : int
        Stencil order ``k`` (number of algebra slots per window).
    eval : callable
        ``eval(qs, xis)``, vectorized over windows; returns shape ``(B,)``.
    group_invariant : bool
        Must be True (the default): only discrete Lagrangians that do not
        depend on the window base point in G are supported.
    d_eval : callable, optional
        Analytic derivatives ``d_eval(qs, xis) -> (Dq_list, Dxi_list)``
        with the same shapes the finite-difference path produces.
    """

    order: int
    eval: Callable
    group_invariant: bool = True
    d_eval: Optional[Callable] = None

    def __post_init__(self):
        if not self.group_invariant:
            raise ValueError("only group-invariant discrete Lagrangians are supported")


@dataclass
class DiscreteConstraintSet:
    """Vector of ``m`` discrete constraints with the same call signature.

    ``d_eval(qs, xis, lambdas) -> (Dq_list, Dxi_list, values)`` optionally
    supplies, in one pass over the windows, the slot derivatives of the
    augmented window value ``L_d + lambda . Phi_d`` of the pair it was built
    with, and the constraint values ``Phi_d`` at the same windows.
    ``lambdas`` has shape ``(B, m)``; ``Dq_list[j]`` has shape ``(B, n)``,
    ``Dxi_list[j]`` shape ``(B, d)`` (the shapes of the finite-difference
    path) and ``values`` shape ``(B, m)``.
    """

    m: int
    eval: Callable
    d_eval: Optional[Callable] = None


@dataclass
class DiscretePath:
    """Node data for a discrete trajectory.

    ``q_nodes``: (N+1, n); ``xi_nodes``: (N, d); ``lambda_nodes``:
    (N-k+1, m) or None; ``g_nodes``: (N+1, 3, 3) or None; ``h``: step size.
    The node arrays may share a leading stack axis of paths.
    """

    q_nodes: np.ndarray
    xi_nodes: np.ndarray
    h: float
    lambda_nodes: Optional[np.ndarray] = None
    g_nodes: Optional[np.ndarray] = None

    @property
    def N(self):
        return self.q_nodes.shape[-2] - 1


# ---------------------------------------------------------------------------
# Finite differences on window slots
# ---------------------------------------------------------------------------


def slot_derivative(f, arrays, slot):
    """Central-difference derivative of a batched function w.r.t. one slot.

    Parameters
    ----------
    f : callable
        Takes the full list of slot arrays, returns shape ``(B,)``.
    arrays : list of ndarray
        Slot arrays; ``arrays[slot]`` has shape ``(..., B, n)``.
    slot : int

    Returns
    -------
    ndarray, shape (..., B, n)
    """
    base = arrays[slot]
    out = np.empty(base.shape)
    for c in range(base.shape[-1]):
        step = FD_STEP * np.maximum(1.0, np.abs(base[..., c]))
        hi = list(arrays)
        lo = list(arrays)
        pert = base.copy()
        pert[..., c] = base[..., c] + step
        hi[slot] = pert
        pert = base.copy()
        pert[..., c] = base[..., c] - step
        lo[slot] = pert
        out[..., c] = (f(hi) - f(lo)) / (2.0 * step)
    return out


def window_views(q_nodes, xi_nodes, k):
    """The ``k + 1`` q slots and ``k`` xi slots of every window of a
    (possibly stacked) path, as views, and the window count ``B``."""
    N = q_nodes.shape[-2] - 1
    B = N - k + 1
    qs = [q_nodes[..., j : j + B, :] for j in range(k + 1)]
    xis = [xi_nodes[..., j : j + B, :] for j in range(k)]
    return qs, xis, B


def _augmented_eval(Ld, Phi, lambdas):
    """Build f(slot_arrays) -> (..., B) evaluating L_d + lambda . Phi_d."""
    k = Ld.order

    def f(arrays):
        qs = tuple(arrays[: k + 1])
        xis = tuple(arrays[k + 1 :])
        val = Ld.eval(qs, xis)
        if Phi is not None:
            val = val + np.einsum("...m,...m->...", lambdas, Phi.eval(qs, xis))
        return val

    return f


def _slot_gradients(Ld, Phi, lambdas, q_nodes, xi_nodes):
    """Per-slot derivatives of the augmented window value.

    A constraint set that carries ``d_eval`` answers in one call, with its
    constraint values; a lone Lagrangian (``Phi is None``) uses its own
    ``d_eval``.  Otherwise every slot is differenced centrally through
    :func:`_augmented_eval` and the constraint values are evaluated.

    Returns
    -------
    Dq : list of k+1 arrays (..., B, n)
    Dxi : list of k arrays (..., B, d)
    values : (..., B, m) constraint values, or None if ``Phi is None``
    """
    k = Ld.order
    qs, xis, _ = window_views(q_nodes, xi_nodes, k)
    if Phi is not None and Phi.d_eval is not None:
        return Phi.d_eval(tuple(qs), tuple(xis), lambdas)
    if Phi is None and Ld.d_eval is not None:
        return (*Ld.d_eval(tuple(qs), tuple(xis)), None)
    arrays = list(qs) + list(xis)
    f = _augmented_eval(Ld, Phi, lambdas)
    Dq = [slot_derivative(f, arrays, j) for j in range(k + 1)]
    Dxi = [slot_derivative(f, arrays, k + 1 + j) for j in range(k)]
    values = None if Phi is None else Phi.eval(tuple(qs), tuple(xis))
    return Dq, Dxi, values


def xi_slot_totals(Dxi, N, k):
    """Accumulate window-slot derivatives into per-node totals S_m.

    ``S[..., m, :]`` is the derivative of the action with respect to
    algebra node ``xi_m`` (each node appears in up to ``k`` windows).
    """
    B, d = Dxi[0].shape[-2:]
    S = np.zeros(Dxi[0].shape[:-2] + (N, d))
    for j in range(k):
        S[..., j : j + B, :] += Dxi[j]
    return S


def _transport(mu, hxi, retr):
    """Rows ``mu_m`` transported by ``Ad*_{W_m}``, ``W_m = tau(hxi_m)``; both
    of shape ``(M, d)``.  The left-trivialized balance transports the known
    node ``i-1``, the right-trivialized one the node ``i``."""
    AdW = groups.Ad_matrix(retr.tau(hxi), retr.group_tag)
    return np.einsum("mji,mj->mi", AdW, mu)


def group_chain_residual(S, xi_nodes, h, retr, trivialization, lo, hi):
    """Group-part stationarity rows for nodes ``i = lo .. hi`` (inclusive).

    Implements the transported-momentum balance

    left:   (1/h) [ Ad*_{W_{i-1}} (dtau^-1_{h xi_{i-1}})* S_{i-1}
                    - (dtau^-1_{h xi_i})* S_i ]
    right:  (1/h) [ (dtau^-1_{h xi_{i-1}})* S_{i-1}
                    - Ad*_{W_i} (dtau^-1_{h xi_i})* S_i ]

    with ``W_m = tau(h xi_m)``; equal to the gradient of the action under
    trivialized variations at node i.  Both terms are formed at every node:
    ``retr.dtau_inv_star`` pulls the momentum back and :func:`_transport`
    carries it by ``Ad*_{W_m}``.  Stacked nodes ``(..., M, d)`` are
    flattened to rows and restored.
    """
    d = xi_nodes.shape[-1]
    hxi = (h * xi_nodes).reshape(-1, d)
    mu = retr.dtau_inv_star(hxi, S.reshape(-1, d))
    carried = _transport(mu, hxi, retr).reshape(xi_nodes.shape)
    mu = mu.reshape(xi_nodes.shape)
    if trivialization == LEFT:
        res = (carried[..., lo - 1 : hi, :] - mu[..., lo : hi + 1, :]) / h
    elif trivialization == RIGHT:
        res = (mu[..., lo - 1 : hi, :] - carried[..., lo : hi + 1, :]) / h
    else:
        raise ValueError(f"unknown trivialization {trivialization!r}")
    return res


# ---------------------------------------------------------------------------
# Residual assemblers
# ---------------------------------------------------------------------------


def dlp_k_residual(Ld, Phi, path, retr, trivialization=LEFT):
    """Discrete k-th order Lagrange-Poincare residual with constraints.

    Returns
    -------
    res_q : (N-2k+1, n)   stationarity in M, nodes i = k..N-k
    res_g : (N-2k+1, d)   stationarity in the group, same nodes
    res_phi : (N-k+1, m)  constraint values per window (empty if Phi is None)

    A path whose node arrays carry a leading stack axis gives residuals
    with that axis.
    """
    k = Ld.order
    N = path.N
    if N <= 2 * k:
        raise SizeError(f"need N > 2k, got N={N}, k={k}")
    lambdas = path.lambda_nodes
    if Phi is not None:
        if lambdas is None or lambdas.shape[-2:] != (N - k + 1, Phi.m):
            got = None if lambdas is None else lambdas.shape
            raise SizeError(
                f"lambda_nodes must have shape {(N - k + 1, Phi.m)}, got {got}"
            )
    Dq, Dxi, res_phi = _slot_gradients(Ld, Phi, lambdas, path.q_nodes, path.xi_nodes)

    lead = path.q_nodes.shape[:-2]
    res_q = np.zeros(lead + (N - 2 * k + 1, path.q_nodes.shape[-1]))
    for j in range(k + 1):
        res_q += Dq[j][..., k - j : N - k - j + 1, :]

    S = xi_slot_totals(Dxi, N, k)
    res_g = group_chain_residual(
        S, path.xi_nodes, path.h, retr, trivialization, k, N - k
    )

    if Phi is None:
        res_phi = np.zeros(lead + (N - k + 1, 0))
    return res_q, res_g, res_phi


def dlp2_residual(Ld, path, retr, trivialization=LEFT):
    """Second-order (k=2) residual, written out as the three-term stencil.

    Direct transcription of the second-order stationarity conditions::

        0 = D1 L_d(q_i, q_{i+1}, q_{i+2}) + D2 L_d(q_{i-1}, q_i, q_{i+1})
            + D3 L_d(q_{i-2}, q_{i-1}, q_i)

    together with the transported group-momentum balance built from
    ``S_m = D4 L_d(window m) + D5 L_d(window m-1)`` (the two algebra slots).
    Kept separate from :func:`dlp_k_residual` as an independent code path;
    the two must agree exactly.
    """
    if Ld.order != 2:
        raise SizeError(f"dlp2_residual requires order 2, got {Ld.order}")
    N = path.N
    if N < 5:
        raise SizeError(f"need N >= 5, got N={N}")
    Dq, Dxi, _ = _slot_gradients(Ld, None, None, path.q_nodes, path.xi_nodes)
    # nodes i = 2..N-2
    res_q = Dq[0][2 : N - 1]
    res_q = res_q + Dq[1][1 : N - 2]
    res_q = res_q + Dq[2][0 : N - 3]

    S = np.zeros((N, path.xi_nodes.shape[1]))
    S[0 : N - 1] += Dxi[0]
    S[1:N] += Dxi[1]
    res_g = group_chain_residual(S, path.xi_nodes, path.h, retr, trivialization, 2, N - 2)
    return res_q, res_g


def dep_residual(lhat_grad, xi_nodes, h, retr, trivialization=LEFT):
    """First-order discrete Euler-Poincare residual on a Lie group.

    Parameters
    ----------
    lhat_grad : callable
        Gradient of the reduced discrete Lagrangian with respect to the
        algebra node: ``lhat_grad(xi) -> (B, d)`` for ``xi`` of shape (B, d).
    xi_nodes : (N, d)
        Algebra increments ``xi_m = tau^-1(g_m^-1 g_{m+1}) / h``.

    Returns
    -------
    (N-1, d) residual rows for nodes i = 1..N-1.
    """
    N = xi_nodes.shape[0]
    if N < 2:
        raise SizeError("need at least two group increments")
    S = lhat_grad(xi_nodes)
    return group_chain_residual(S, xi_nodes, h, retr, trivialization, 1, N - 1)


# ---------------------------------------------------------------------------
# Discrete momentum maps
# ---------------------------------------------------------------------------


def discrete_momentum(Ld_eval, pair, xi, side, retr, eps=1e-6):
    """Discrete momentum pairing J_d+/- for a first-order Lagrangian on M x G.

    The group acts by left multiplication on the G factor and trivially on
    the M factor.  ``pair = ((q0, g0), (q1, g1))`` with ``q`` possibly None.

    J+ pairs the second-slot derivative with the generator at the second
    point; J- pairs minus the first-slot derivative with the generator at
    the first point.  For invariant Lagrangians the two coincide.

    ``g0`` and ``g1`` may be stacked ``(B, 3, 3)`` arrays of pairs when
    ``Ld_eval`` accepts them (as :meth:`FreeRigidBody.pair_eval` does); the
    result is then a ``(B,)`` array.  One pair gives a float.
    """
    (q0, g0), (q1, g1) = pair
    flow_p = retr.tau(eps * xi)
    flow_m = retr.tau(-eps * xi)
    if side == "plus":
        val = (
            Ld_eval((q0, g0), (q1, flow_p @ g1))
            - Ld_eval((q0, g0), (q1, flow_m @ g1))
        ) / (2.0 * eps)
    elif side == "minus":
        val = -(
            Ld_eval((q0, flow_p @ g0), (q1, g1))
            - Ld_eval((q0, flow_m @ g0), (q1, g1))
        ) / (2.0 * eps)
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if not np.all(np.isfinite(val)):
        raise DomainError("non-finite momentum pairing")
    return float(val) if np.ndim(val) == 0 else val


def spatial_momentum(lhat_grad, xi_nodes, g_nodes, h, retr):
    """Spatial momentum ``Ad*_{g_k^-1} (dtau^-1_{h xi_k})* lhat_grad(xi_k) / h``
    of the left-trivialized flow of :func:`dep_solve_path`, one row per node
    ``xi_k`` (M, d) with its group node ``g_k`` (M, 3, 3).  Row k is, in
    closed form, the pairing :func:`discrete_momentum` takes on
    ``(g_k, g_{k+1})``, without its ``1e-16 / eps`` round-off floor."""
    tag = retr.group_tag
    AdT = np.swapaxes(groups.Ad_matrix(groups.inverse_matrix(g_nodes, tag), tag), -1, -2)
    mu = retr.dtau_inv_star(h * xi_nodes, lhat_grad(xi_nodes) / h)
    return (AdT @ mu[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Discrete Euler-Poincare stepping (used by the free rigid body)
# ---------------------------------------------------------------------------


def dep_step(lhat_grad, xi_prev, h, retr, tol=1e-13, max_iter=DEP_MAX_ITER,
             guess=None, carry=None, ahead=None):
    """Advance one step of the left-trivialized discrete Euler-Poincare
    equations.

    Solves the transported momentum balance (the single row of
    :func:`dep_residual` on ``(xi_prev, xi_next)``) for the next algebra node
    by the Newton iteration of :func:`geovar.solver.newton_stack`, starting
    from ``guess`` (``xi_prev`` when None).  The seed changes only where
    Newton starts: the residual, and so the root it converges to, depend on
    ``xi_prev`` alone.  The previous node's transported term is fixed during
    the step.  The unknown enters only through its pulled-back momentum
    ``mu(xi) = (dtau^-1_{h xi})* lhat_grad(xi)``, so a Newton residual makes
    no ``tau`` call.  Returns ``(xi_next, iterations)``; the iteration count
    equals ``max_iter`` exactly when the residual never fell below ``tol``.

    ``carry`` is a dict that a flow hands from step to step.  It holds the
    last momenta a step evaluated: ``mu`` at its last Newton point
    (``"node"``), and on the stack the next step starts from (``"start"``).
    A step reads a carried row only where it was evaluated at the same bits
    as the point the step needs.  So after a capped step, whose returned
    node was never evaluated, the next step evaluates afresh.  ``ahead(x)``
    is the next step's start should this step's root be ``x``; each
    evaluation also evaluates that start's stack, in the same call.
    Without ``ahead`` the next step starts from the root.  Carried or not,
    a step returns what it returns alone, bit for bit.
    """
    carry = {} if carry is None else carry

    def pull_back(xs):
        """``mu`` at each row of ``xs`` of shape (B, d)."""
        return retr.dtau_inv_star(h * xs, lhat_grad(xs))

    prev = xi_prev[None]
    held = carry.get("node")
    if held is not None and held[0] == prev.tobytes():
        mu_prev = held[1]
    else:
        mu_prev = pull_back(prev)
    fixed = _transport(mu_prev, h * prev, retr)
    x = np.array(xi_prev if guess is None else guess, dtype=float)
    for it in range(max_iter):
        held = carry.get("start")
        if held is not None and held[0] == x.tobytes():
            _, dx, mu = held
        else:
            points, dx = solver.stack_points(x)
            if ahead is None:
                seed, dx_next = x, dx
                mu = mu_next = pull_back(points)
            else:
                seed = ahead(x)
                nxt, dx_next = solver.stack_points(seed)
                both = pull_back(np.concatenate([points, nxt]))
                mu, mu_next = both[: len(points)], both[len(points) :]
            carry["start"] = (seed.tobytes(), dx_next, mu_next)
        carry["node"] = (x.tobytes(), mu[:1])
        rows = (fixed - mu) / h
        if np.abs(rows[0]).max() < tol:
            return x, it
        x -= solver.stack_step(rows, dx)
    return x, max_iter


def dep_solve_path(lhat_grad, xi0, N, h, retr, return_iterations=False):
    """Generate N algebra nodes of the discrete Euler-Poincare flow from xi0.

    Step ``k >= 3`` seeds its Newton solve with the quadratic extrapolation
    ``3 xi_{k-1} - 3 xi_{k-2} + xi_{k-3}`` of the last three nodes (a
    starting approximation; Hairer, Lubich & Wanner, *Geometric Numerical
    Integration*, VIII.6); steps 1 and 2 start from ``xi_{k-1}``.  On a
    smooth flow the seed is ``O(h^3)`` from the root where ``xi_{k-1}`` is
    ``O(h)``, so a step takes one Newton iteration where it took two.  Every
    step still solves to the same tolerance.

    The steps share one :func:`dep_step` carry, and each step evaluates the
    next step's seed as it goes: the pulled-back momentum of a converged
    node is not evaluated again, nor the first Newton stack of the next
    step.  A steady step, one Newton iteration, costs one transport, one
    stacked evaluation and one 3x3 solve, and the nodes are those of
    :func:`dep_step` calls without the carry, bit for bit.
    """
    out = np.empty((N, xi0.shape[0]))
    out[0] = xi0
    iters = []
    carry = {}
    for kk in range(1, N):
        guess = ahead = None
        if kk >= 3:
            guess = _extrapolate(out[kk - 1], out[kk - 2], out[kk - 3])
        if 2 <= kk < N - 1:  # step kk + 1 starts from an extrapolation
            ahead = functools.partial(_extrapolate, last=out[kk - 1], older=out[kk - 2])
        out[kk], it = dep_step(lhat_grad, out[kk - 1], h, retr, guess=guess,
                               carry=carry, ahead=ahead)
        iters.append(it)
    if return_iterations:
        return out, iters
    return out


def _extrapolate(x, last, older):
    """The seed ``3 (x - last) + older`` of the step after node ``x``."""
    return 3.0 * (x - last) + older


def capped_steps(iters):
    """Indices of the :func:`dep_step` calls, given their iteration counts,
    that hit the Newton cap: a step reports ``DEP_MAX_ITER`` exactly when
    it did not converge."""
    return [k for k, it in enumerate(iters) if it >= DEP_MAX_ITER]


def reconstruct(xi_nodes, g0, h, retr, trivialization=LEFT):
    """Recover group nodes from algebra increments.

    left:  ``g_{k+1} = g_k tau(h xi_k)``; right: ``g_{k+1} = tau(h xi_k) g_k``.
    ``xi_nodes`` may be a stack of paths ``(..., N, d)``; the nodes then
    carry the same leading axes.  SO(3) nodes are re-projected onto the
    group where their orthogonality drift exceeds the trigger of
    :func:`geovar.groups.renormalize`.  The products are formed node by
    node and the drift of all nodes is tested at once; where a node
    exceeds the trigger, it is projected and the nodes after it are formed
    again from it.  Each path equals, bit for bit, a loop that forms one
    product by :func:`compose` and renormalizes it before the next.
    """
    tag = retr.group_tag
    N = xi_nodes.shape[-2]
    steps = retr.tau(h * xi_nodes)
    out = np.empty(steps.shape[:-3] + (N + 1, 3, 3))
    out[..., 0, :, :] = g0
    done = 0  # nodes 0..done are final
    while done < N:
        for kk in range(done, N):
            out[..., kk + 1, :, :] = compose(
                out[..., kk, :, :], steps[..., kk, :, :], trivialization
            )
        if tag != groups.SO3:
            break
        far = groups.drifted(out[..., done + 1 :, :, :])
        far = far.reshape(-1, N - done).any(axis=0)
        if not far.any():
            break
        done += 1 + int(np.argmax(far))
        out[..., done, :, :] = groups.renormalize(out[..., done, :, :], tag)
    return out


def product_tree(steps, trivialization):
    """The levels of the balanced product of time-ordered steps.

    ``steps`` is a (possibly stacked) ``(..., N, 3, 3)`` array.  Level 0 is
    ``steps``; each next level holds ``compose(earlier, later)`` of the
    neighbouring pairs of the level below, in time order, and carries an
    unpaired last node up unchanged.  The last level holds one node, the
    product of all ``N`` steps: ``steps[0] ... steps[N-1]`` (left) or
    ``steps[N-1] ... steps[0]`` (right), associated pairwise so that its
    round-off grows as ``log N`` rather than ``N`` (Higham 2002, sec. 4.2).
    A leaf moves only its ``ceil(log2 N)`` ancestors.  Nothing is
    renormalized.
    """
    levels = [steps]
    while levels[-1].shape[-3] > 1:
        node = levels[-1]
        pairs = compose(node[..., 0:-1:2, :, :], node[..., 1::2, :, :], trivialization)
        if node.shape[-3] % 2:
            pairs = np.concatenate([pairs, node[..., -1:, :, :]], axis=-3)
        levels.append(pairs)
    return levels


def compose(g, step, trivialization):
    """The product of one reconstruction step: ``g step`` (left) or
    ``step g`` (right), without renormalizing.  Broadcasts over stacked
    ``g`` and ``step``; any other trivialization raises ``ValueError``."""
    if trivialization == LEFT:
        return g @ step
    if trivialization == RIGHT:
        return step @ g
    raise ValueError(f"unknown trivialization {trivialization!r}")
