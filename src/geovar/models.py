"""Closed-form model definitions.

Two optimal-control examples — a planar vehicle with a steerable thruster
on SE(2) x S^1 and a homogeneous ball on a uniformly rotating plate on
SO(3) x R^2 — plus a free rigid body used as a test model for the
unconstrained Euler-Poincare machinery.

Coordinate conventions
----------------------
The SE(2) algebra coordinates used by :mod:`geovar.groups` are
``(rotation, x-translation, y-translation)``.  The vehicle model's natural
velocity labels are ``(xi1, xi2)`` = body-frame translation and ``xi3`` =
rotation, i.e. ``xi1 = v[1]``, ``xi2 = v[2]``, ``xi3 = v[0]``.  All model
formulas below are written in the model labels; ``_se2_args`` maps the
stencil arguments to them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import groups
from .discrete import LEFT, RIGHT
from .errors import ConfigError
from .ocp import ControlledSystem, SecondOrderProblem


def _is_number(v):
    """True for a finite real number; a bool is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and bool(np.isfinite(v))


def _check_positive(params, names):
    for name in names:
        v = getattr(params, name)
        if not (_is_number(v) and v > 0):
            raise ConfigError(name, f"must be a positive number, got {v!r}")


# ---------------------------------------------------------------------------
# SE(2) vehicle
# ---------------------------------------------------------------------------


@dataclass
class Se2VehicleParams:
    """Planar vehicle with a steerable thruster at offset ``p`` from the
    center of mass; ``rho1, rho2`` weight the two control efforts."""

    m: float = 1.0
    J1: float = 1.0
    J2: float = 0.5
    p: float = 0.1
    rho1: float = 1.0
    rho2: float = 1.0

    def __post_init__(self):
        _check_positive(self, ("m", "J1", "J2", "p", "rho1", "rho2"))


def _se2_args(q, dq, ddq, xi, dxi):
    """Stencil arguments in model labels: ``(x1, x2, x3, dx1, dx2, dx3, g,
    dg, ddg, cos g, sin g)``, with ``g`` the thruster angle gamma."""
    g = q[:, 0]
    return (
        xi[:, 1], xi[:, 2], xi[:, 0],
        dxi[:, 1], dxi[:, 2], dxi[:, 0],
        g, dq[:, 0], ddq[:, 0], np.cos(g), np.sin(g),
    )


def _se2_u(P, args):
    x1, x2, x3, dx1, dx2, dx3, g, dg, ddg, cg, sg = args
    u1 = (
        P.m * (cg * dx1 + sg * (dx2 - x1 * x3))
        + (P.J1 + P.J2) * x1 * x3 * sg
        + P.J2 * x1 * dg * sg
    )
    u2 = P.J2 * (dx3 + ddg)
    return u1, u2


def _se2_phi1(P, args):
    """The first constraint, which is also ``d u1 / d gamma``."""
    x1, x2, x3, dx1, dx2, dx3, g, dg, ddg, cg, sg = args
    return (
        P.m * (cg * (dx2 - x1 * x3) - sg * dx1)
        + (P.J1 + P.J2) * x1 * x3 * cg
        + P.J2 * x1 * dg * cg
    )


def se2_controls(params, q, dq, ddq, xi, dxi):
    """Control expressions ``(u1, u2)`` recovered from the reduced state."""
    return _se2_u(params, _se2_args(q, dq, ddq, xi, dxi))


def se2_ltilde(params):
    """Second-order Lagrangian: the control cost ``rho1 u1^2 + rho2 u2^2``
    expressed through the reduced state."""

    def ltilde(q, dq, ddq, xi, dxi):
        u1, u2 = se2_controls(params, q, dq, ddq, xi, dxi)
        return params.rho1 * u1 * u1 + params.rho2 * u2 * u2

    return ltilde


def se2_phi(params):
    """The two unactuated-direction constraints of the vehicle."""
    P = params

    def phi(q, dq, ddq, xi, dxi):
        args = _se2_args(q, dq, ddq, xi, dxi)
        x1, x2, x3, dx1, dx2, dx3, g, dg, ddg, cg, sg = args
        phi2 = (
            (P.J1 + P.J2) / P.p * (dx3 + P.p * x1 * x3)
            + P.J2 / P.p * (ddg + P.p * x1 * dg)
            + P.m * (dx2 - x1 * x3 - (x2 * x1 + x3 * x2) / P.p)
        )
        return np.stack([_se2_phi1(P, args), phi2], axis=1)

    return phi


def se2_d_ltilde(params):
    """Analytic gradient of the vehicle's second-order Lagrangian."""
    P = params

    def d_ltilde(q, dq, ddq, xi, dxi):
        B = q.shape[0]
        args = _se2_args(q, dq, ddq, xi, dxi)
        x1, x2, x3, dx1, dx2, dx3, g, dg, ddg, cg, sg = args
        u1, u2 = _se2_u(P, args)
        a1 = 2.0 * P.rho1 * u1
        a2 = 2.0 * P.rho2 * u2
        # partials of u1; d u1 / d gamma is phi1
        du1_dg = P.J2 * x1 * sg
        du1_x1 = sg * ((P.J1 + P.J2 - P.m) * x3 + P.J2 * dg)
        du1_x3 = sg * x1 * (P.J1 + P.J2 - P.m)
        gq = (a1 * _se2_phi1(P, args))[:, None]
        gdq = (a1 * du1_dg)[:, None]
        gddq = (a2 * P.J2)[:, None]
        gxi = np.zeros((B, 3))
        gxi[:, 1] = a1 * du1_x1
        gxi[:, 0] = a1 * du1_x3
        gdxi = np.zeros((B, 3))
        gdxi[:, 1] = a1 * P.m * cg
        gdxi[:, 2] = a1 * P.m * sg
        gdxi[:, 0] = a2 * P.J2
        return gq, gdq, gddq, gxi, gdxi

    return d_ltilde


def se2_d_phi(params):
    """``lam . grad phi`` of the vehicle constraints, per stencil argument."""
    P = params

    def d_phi(q, dq, ddq, xi, dxi, lam):
        args = _se2_args(q, dq, ddq, xi, dxi)
        x1, x2, x3, dx1, dx2, dx3, g, dg, ddg, cg, sg = args
        u1, _ = _se2_u(P, args)
        l1, l2 = lam[:, 0], lam[:, 1]
        J12 = P.J1 + P.J2
        # phi1's gradient weighted by l1, then phi2's by l2
        gq = l1 * -u1
        gdq = l1 * (P.J2 * x1 * cg) + l2 * (P.J2 * x1)
        gddq = l2 * (P.J2 / P.p)
        rot = l1 * (cg * x1 * (J12 - P.m)) + l2 * (J12 * x1 - P.m * (x1 + x2 / P.p))
        tx = (l1 * (cg * ((J12 - P.m) * x3 + P.J2 * dg))
              + l2 * (J12 * x3 + P.J2 * dg - P.m * (x3 + x2 / P.p)))
        ty = l2 * (-P.m * (x1 + x3) / P.p)
        drot = l2 * (J12 / P.p)
        dtx = l1 * (-P.m * sg)
        dty = l1 * (P.m * cg) + l2 * P.m
        return (gq[:, None], gdq[:, None], gddq[:, None],
                np.stack([rot, tx, ty], axis=1), np.stack([drot, dtx, dty], axis=1))

    return d_phi


def se2_vehicle_problem(params, boundary, N, h, trivialization=LEFT):
    """Hand-coded second-order problem for the SE(2) vehicle."""
    return SecondOrderProblem(
        n=1,
        group_tag=groups.SE2,
        m=2,
        ltilde=se2_ltilde(params),
        phi=se2_phi(params),
        boundary=boundary,
        N=N,
        h=h,
        trivialization=trivialization,
        d_ltilde=se2_d_ltilde(params),
        d_phi=se2_d_phi(params),
    )


def se2_reduced_lagrangian(params):
    """Reduced mechanical Lagrangian l(gamma, dgamma, xi) of the vehicle."""
    P = params

    def ell(q, dq, xi):
        x1, x2, x3 = xi[:, 1], xi[:, 2], xi[:, 0]
        dg = dq[:, 0]
        return (
            0.5 * P.m * (x1 * x1 + x2 * x2)
            + 0.5 * (P.J1 + P.J2) * x3 * x3
            + P.J2 * x3 * dg
            + 0.5 * P.J2 * dg * dg
        )

    return ell


def se2_raw_rows(params):
    """Rows of the controlled reduced equations, order (gamma, rot, tx, ty).

    The right-hand control sides correspond to the actuated covectors of
    :func:`se2_covector_basis`; the rows themselves are the force-free
    left-hand sides.
    """
    P = params

    def rows(q, dq, ddq, xi, dxi):
        B = q.shape[0]
        x1, x2, x3, dx1, dx2, dx3, g, dg, ddg, cg, sg = _se2_args(q, dq, ddq, xi, dxi)
        E = np.empty((B, 4))
        E[:, 0] = P.J2 * (dx3 + ddg)
        E[:, 1] = (P.J1 + P.J2) * dx3 + P.J2 * ddg - P.m * x2 * (x1 + x3)
        E[:, 2] = P.m * dx1
        E[:, 3] = P.m * dx2 + (P.J1 + P.J2) * x1 * x3 + P.J2 * x1 * dg - P.m * x1 * x3
        return E

    return rows


def se2_covector_basis(params):
    """Adapted covector bases in coordinates (gamma, rot, tx, ty).

    Actuated rows: thrust direction (with its torque arm ``-p sin(gamma)``)
    and the steering angle itself.  Unactuated rows complete the basis.
    """
    P = params

    def actuated(q):
        B = q.shape[0]
        g = q[:, 0]
        cg, sg = np.cos(g), np.sin(g)
        rows = np.zeros((B, 2, 4))
        rows[:, 0, 1] = -P.p * sg
        rows[:, 0, 2] = cg
        rows[:, 0, 3] = sg
        rows[:, 1, 0] = 1.0
        return rows

    def unactuated(q):
        B = q.shape[0]
        g = q[:, 0]
        cg, sg = np.cos(g), np.sin(g)
        rows = np.zeros((B, 2, 4))
        rows[:, 0, 1] = -P.p * cg
        rows[:, 0, 2] = -sg
        rows[:, 0, 3] = cg
        rows[:, 1, 1] = P.p
        return rows

    return actuated, unactuated


def se2_controlled_system(params):
    """Generic-route description of the vehicle (used to cross-check the
    hand-coded ``Ltilde``/``Phi``)."""
    actuated, unactuated = se2_covector_basis(params)

    def cost(q, dq, xi, u):
        return params.rho1 * u[:, 0] ** 2 + params.rho2 * u[:, 1] ** 2

    return ControlledSystem(
        n=1,
        group_tag=groups.SE2,
        r=2,
        cost=cost,
        actuated_covectors=actuated,
        unactuated_covectors=unactuated,
        raw_residual=se2_raw_rows(params),
    )


# ---------------------------------------------------------------------------
# Ball on a rotating plate
# ---------------------------------------------------------------------------


@dataclass
class BallPlateParams:
    """Homogeneous ball of radius ``r`` and gyration radius squared ``k2``
    rolling on a plate rotating at the constant angular velocity
    ``omega``."""

    r: float = 0.1
    k2: float = 0.004
    omega: float = 1.0

    def __post_init__(self):
        _check_positive(self, ("r", "k2"))
        if not _is_number(self.omega):
            raise ConfigError("omega", f"must be a finite number, got {self.omega!r}")

    @property
    def coupling(self):
        """The coefficient c = k^2 Omega / (r^2 + k^2)."""
        return self.k2 * self.omega / (self.r**2 + self.k2)


def ball_controls(params, q, dq, ddq):
    c = params.coupling
    u1 = ddq[:, 0] + c * dq[:, 1]
    u2 = ddq[:, 1] - c * dq[:, 0]
    return u1, u2


def ball_ltilde(params):
    """Half the squared control effort of the rolling ball."""

    def ltilde(q, dq, ddq, xi, dxi):
        u1, u2 = ball_controls(params, q, dq, ddq)
        return 0.5 * (u1 * u1 + u2 * u2)

    return ltilde


def ball_phi(params):
    """Rolling constraints (velocity level) and conservation of the
    vertical angular velocity."""
    P = params

    def phi(q, dq, ddq, xi, dxi):
        phi1 = xi[:, 0] + dq[:, 1] / P.r - P.omega * q[:, 0] / P.r
        phi2 = xi[:, 1] - dq[:, 0] / P.r - P.omega * q[:, 1] / P.r
        phi3 = dxi[:, 2]
        return np.stack([phi1, phi2, phi3], axis=1)

    return phi


def ball_d_ltilde(params):
    def d_ltilde(q, dq, ddq, xi, dxi):
        B = q.shape[0]
        c = params.coupling
        u1, u2 = ball_controls(params, q, dq, ddq)
        gq = np.zeros((B, 2))
        gdq = np.stack([-c * u2, c * u1], axis=1)
        gddq = np.stack([u1, u2], axis=1)
        gxi = np.zeros((B, 3))
        gdxi = np.zeros((B, 3))
        return gq, gdq, gddq, gxi, gdxi

    return d_ltilde


def ball_d_phi(params):
    """``lam . grad phi`` of the ball; its constraint gradient is constant."""
    a, b = -params.omega / params.r, 1.0 / params.r

    def d_phi(q, dq, ddq, xi, dxi, lam):
        return (
            a * lam[:, :2],
            lam[:, 1::-1] * (-b, b),
            np.zeros_like(ddq),
            lam * (1.0, 1.0, 0.0),
            lam * (0.0, 0.0, 1.0),
        )

    return d_phi


def ball_plate_problem(params, boundary, N, h, trivialization=RIGHT):
    """Hand-coded second-order problem for the ball on the rotating plate.

    The ball's angular velocity is spatial (the group increments are
    composed on the left), hence the right-trivialized default.
    """
    return SecondOrderProblem(
        n=2,
        group_tag=groups.SO3,
        m=3,
        ltilde=ball_ltilde(params),
        phi=ball_phi(params),
        boundary=boundary,
        N=N,
        h=h,
        trivialization=trivialization,
        d_ltilde=ball_d_ltilde(params),
        d_phi=ball_d_phi(params),
        conserved=2,  # phi3 = d(xi_3)/dt
    )


def ball_controlled_system(params):
    """Generic-route description of the ball.

    The controls act directly on the contact-point coordinates, so the
    actuated covectors select the shape block and the dual-basis
    contraction reduces to reading off the controlled shape rows.  The
    rolling constraints are velocity-level data of the problem — they are
    not unactuated rows of the equation operator — so they are supplied
    directly.
    """

    def raw(q, dq, ddq, xi, dxi):
        B = q.shape[0]
        E = np.zeros((B, 5))
        u1, u2 = ball_controls(params, q, dq, ddq)
        E[:, 0] = u1
        E[:, 1] = u2
        return E

    def actuated(q):
        B = q.shape[0]
        rows = np.zeros((B, 2, 5))
        rows[:, 0, 0] = 1.0
        rows[:, 1, 1] = 1.0
        return rows

    def unactuated(q):
        B = q.shape[0]
        rows = np.zeros((B, 3, 5))
        rows[:, 0, 2] = 1.0
        rows[:, 1, 3] = 1.0
        rows[:, 2, 4] = 1.0
        return rows

    def cost(q, dq, xi, u):
        return 0.5 * (u[:, 0] ** 2 + u[:, 1] ** 2)

    return ControlledSystem(
        n=2,
        group_tag=groups.SO3,
        r=2,
        cost=cost,
        actuated_covectors=actuated,
        unactuated_covectors=unactuated,
        raw_residual=raw,
        direct_constraints=ball_phi(params),
    )


def ball_continuous_residual(x_derivs, y_derivs, w, dw, lam, dlam, params):
    """Residual of the eight continuous stationarity equations of the ball.

    Parameters
    ----------
    x_derivs, y_derivs : (5,) arrays
        Value and derivatives up to fourth order of the contact point.
    w, dw : (3,) arrays
        Spatial angular velocity and its derivative.
    lam, dlam : (3,) arrays
        Multipliers ``(lambda_1, lambda_2, nu)`` and their derivatives,
        where ``nu`` is the multiplier conjugate to the conservation-law
        constraint (minus the derivative of the raw third multiplier).

    Used only as a diagnostic on reconstructed continuous-limit data.
    """
    P = params
    x, dx, ddx, dddx, d4x = x_derivs
    y, dy, ddy, dddy, d4y = y_derivs
    Om = P.omega
    c = P.coupling
    w1, w2, w3 = w
    l1, l2, nu = lam
    dl1, dl2, dnu = dlam
    res = np.empty(8)
    res[0] = d4x + 2.0 * c * dddy - c * c * ddx - l1 * Om / P.r + dl2 / P.r
    res[1] = d4y - 2.0 * c * dddx - c * c * ddy - dl1 / P.r - l2 * Om / P.r
    res[2] = dl1 + l2 * w3 - nu * w2
    res[3] = dl2 - l1 * w3 + nu * w1
    res[4] = dnu + l1 * w2 - l2 * w1
    res[5] = w1 + dy / P.r - Om * x / P.r
    res[6] = w2 - dx / P.r - Om * y / P.r
    res[7] = dw[2]
    return res


def ball_continuous_diagnostic(path, params, trim=0.2, samples=121):
    """Worst continuous-equation residual of a spline-reconstructed solution.

    Reconstructs smooth functions from a converged discrete ball solution
    and returns the max absolute value of
    :func:`ball_continuous_residual` over the sampled interior.

    The discrete stationarity system tolerates an alternating component in
    the window multipliers (and, at much smaller amplitude, in the nodes)
    that has no continuous counterpart; adjacent averaging removes it
    before differentiating, so the spline derivatives see only the smooth
    part.  The base coordinates use quintic splines (fourth derivatives
    are needed); the angular velocity and multipliers use cubics.  The
    third raw multiplier enters the continuous equations through minus its
    time derivative.  Sampling skips a ``trim`` fraction at each end where
    the boundary stencils pollute the reconstruction.
    """
    from scipy.interpolate import make_interp_spline

    N, h = path.N, path.h
    T = N * h
    t_nodes = np.arange(N + 1) * h
    q = path.q_nodes
    q_smooth = (q[:-2] + 2.0 * q[1:-1] + q[2:]) / 4.0
    sx = make_interp_spline(t_nodes[1:-1], q_smooth[:, 0], k=5)
    sy = make_interp_spline(t_nodes[1:-1], q_smooth[:, 1], k=5)
    t_mid = (np.arange(N) + 0.5) * h
    xi = path.xi_nodes
    xi_smooth = (xi[:-2] + 2.0 * xi[1:-1] + xi[2:]) / 4.0
    sw = make_interp_spline(t_mid[1:-1], xi_smooth, k=3, axis=0)
    lam = path.lambda_nodes / h
    lam_smooth = 0.5 * (lam[:-1] + lam[1:])
    t_win = (np.arange(lam_smooth.shape[0]) + 1.5) * h
    sl = make_interp_spline(t_win, lam_smooth, k=3, axis=0)
    worst = 0.0
    for t in np.linspace(trim * T, (1.0 - trim) * T, samples):
        xd = np.array([sx.derivative(d)(t) if d else sx(t) for d in range(5)])
        yd = np.array([sy.derivative(d)(t) if d else sy(t) for d in range(5)])
        lv = sl(t)
        dlv = sl.derivative(1)(t)
        ddlv = sl.derivative(2)(t)
        res = ball_continuous_residual(
            xd, yd, sw(t), sw.derivative(1)(t),
            np.array([lv[0], lv[1], -dlv[2]]),
            np.array([dlv[0], dlv[1], -ddlv[2]]),
            params,
        )
        worst = max(worst, float(np.abs(res).max()))
    return worst


# ---------------------------------------------------------------------------
# Free rigid body (test model)
# ---------------------------------------------------------------------------


@dataclass
class FreeRigidBody:
    """Reduced free rigid body with diagonal inertia."""

    inertia: np.ndarray

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float)
        if self.inertia.shape != (3,) or not np.all(
            np.isfinite(self.inertia) & (self.inertia > 0)
        ):
            raise ConfigError(
                "inertia", f"need three finite positive entries, got {self.inertia!r}"
            )

    def lhat_grad(self, h):
        """Gradient of the discrete reduced Lagrangian (h/2) xi^T I xi."""

        def grad(xi):
            return h * xi * self.inertia[None, :]

        return grad

    def energy(self, xi):
        """Kinetic energy (1/2) xi^T I xi per node."""
        return 0.5 * np.sum(xi * xi * self.inertia[None, :], axis=-1)

    def pair_eval(self, h, retr):
        """First-order discrete Lagrangian on adjacent group nodes, for the
        discrete momentum pairings.  ``g0``, ``g1`` may be stacked
        ``(B, 3, 3)`` arrays; one value per pair is returned."""

        def Ld_eval(first, second):
            _, g0 = first
            _, g1 = second
            xi = retr.tau_inv(np.linalg.solve(g0, g1)) / h
            # a batched matmul rounds each quadratic form like xi @ (I xi)
            quad = xi[..., None, :] @ (self.inertia * xi)[..., :, None]
            return 0.5 * h * quad[..., 0, 0]

        return Ld_eval


def free_rigid_body_model(inertia):
    return FreeRigidBody(inertia=np.asarray(inertia, dtype=float))
