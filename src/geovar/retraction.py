"""Retraction maps tau: g -> G with right-trivialized tangents.

A retraction maps a neighbourhood of 0 in the algebra to a neighbourhood of
the identity and encodes group increments as algebra vectors,
``g_{k+1} = g_k tau(h xi_k)``.  The right-trivialized tangent ``dtau_xi``
is the linear map satisfying ``d/dxi tau(xi) eta = hat(dtau_xi eta) tau(xi)``;
its inverse transpose is what enters the discrete group-part stationarity
residuals.

Two families are provided, each applying its tangent matrices through
:class:`Retraction`:

* Cayley (default): ``cay(xi) = (e - hat(xi)/2)^-1 (e + hat(xi)/2)`` in
  closed form for SE(2) and SO(3), with closed-form inverses and tangent
  matrices.
* Truncated exponential ``exp_s(xi) = sum_{i<=s} hat(xi)^i / i!`` for
  cross-checks.  Truncation leaves the group at order ``||xi||^{s+1}``, so
  it is not used for production trajectories.  Its inverse has no closed
  form: it is one :func:`geovar.solver.newton_stack` solve over the input
  stack, which converges each matrix on its own.

All operations accept stacked inputs (``(..., 3)`` vectors, ``(..., 3, 3)``
matrices) and give each member of a stack the result it gets alone, bit
for bit, so a stacked residual answers for each of its points
(:func:`geovar.ocp.make_residual_fn`).  A stack raises where any of its
members would.
"""

from __future__ import annotations

import numpy as np

from . import groups, solver
from .errors import ConfigError, SingularRetractionError

_ANGLE_GUARD = 1e-6
_EXP_INV_TOL = 1e-12  # residual tolerance of the truncated-exponential inverse
_EXP_INV_MAX_ITER = 50  # its Newton iteration cap


class Retraction:
    """The tangent maps ``dtau``, ``dtau_inv`` and ``dtau_inv_star`` of a
    subclass that defines ``tau``, ``tau_inv``, ``dtau_matrix`` and
    ``dtau_inv_matrix``."""

    group_tag: str

    def dtau(self, xi, eta):
        return np.einsum("...ij,...j->...i", self.dtau_matrix(xi), eta)

    def dtau_inv(self, xi, eta):
        return np.einsum("...ij,...j->...i", self.dtau_inv_matrix(xi), eta)

    def dtau_inv_star(self, xi, mu):
        """Transpose of dtau_inv applied to a covector."""
        return np.einsum("...ji,...j->...i", self.dtau_inv_matrix(xi), mu)


class CayleyRetraction(Retraction):
    """Cayley map in closed form for SE(2) or SO(3)."""

    def __init__(self, group_tag):
        groups.check_tag(group_tag)
        self.group_tag = group_tag

    # -- tau -------------------------------------------------------------
    def tau(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.group_tag == groups.SO3:
            w = groups.hat(xi, groups.SO3)
            n2 = np.sum(xi * xi, axis=-1)[..., None, None]
            return groups.EYE3 + 4.0 / (4.0 + n2) * (w + 0.5 * (w @ w))
        v1 = xi[..., 0]
        v2 = xi[..., 1]
        v3 = xi[..., 2]
        den = 4.0 + v1 * v1
        g = np.zeros(xi.shape[:-1] + (3, 3))
        g[..., 0, 0] = (4.0 - v1 * v1) / den
        g[..., 0, 1] = -4.0 * v1 / den
        g[..., 0, 2] = (-2.0 * v1 * v3 + 4.0 * v2) / den
        g[..., 1, 0] = 4.0 * v1 / den
        g[..., 1, 1] = (4.0 - v1 * v1) / den
        g[..., 1, 2] = (2.0 * v1 * v2 + 4.0 * v3) / den
        g[..., 2, 2] = 1.0
        return g

    # -- tau_inv ---------------------------------------------------------
    def tau_inv(self, g):
        g = np.asarray(g, dtype=float)
        self._guard(g)
        if self.group_tag == groups.SO3:
            gp = g + groups.EYE3
            # X = 2 (g - I)(g + I)^-1, solved without forming the inverse
            Xt = np.linalg.solve(
                np.swapaxes(gp, -1, -2),
                np.swapaxes(2.0 * (g - groups.EYE3), -1, -2),
            )
            X = np.swapaxes(Xt, -1, -2)
            X = 0.5 * (X - np.swapaxes(X, -1, -2))  # kill round-off
            return groups.vee(X, groups.SO3, tol=np.inf)
        theta = np.arctan2(g[..., 1, 0], g[..., 0, 0])
        v1 = 2.0 * np.tan(0.5 * theta)
        t1 = g[..., 0, 2]
        t2 = g[..., 1, 2]
        out = np.empty(g.shape[:-2] + (3,))
        out[..., 0] = v1
        out[..., 1] = t1 + 0.5 * v1 * t2
        out[..., 2] = -0.5 * v1 * t1 + t2
        return out

    def _guard(self, g):
        """Reject inputs within ``_ANGLE_GUARD`` of rotation angle pi,
        where the Cayley inverse is singular.

        The angle is the only test either group needs.  The SE(2) inverse
        is closed-form.  The SO(3) inverse solves with ``e + g``, whose
        singular values are 2 and ``2 cos(theta/2)`` (twice): their ratio
        ``1/cos(theta/2)`` is at most 2.0e6 below the angle bound, so the
        solve is well posed wherever the guard passes.
        """
        if self.group_tag == groups.SO3:
            cos_theta = 0.5 * (np.einsum("...ii->...", g) - 1.0)
            theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
        else:
            theta = np.arctan2(g[..., 1, 0], g[..., 0, 0])
        worst = float(np.max(np.abs(theta)))
        if worst > np.pi - _ANGLE_GUARD:
            raise SingularRetractionError(
                f"rotation angle {worst:.6f} within {_ANGLE_GUARD:g} of pi; "
                "the Cayley inverse is singular there -- use a smaller step h"
            )

    # -- tangents --------------------------------------------------------
    def dtau_matrix(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.group_tag == groups.SO3:
            n2 = np.sum(xi * xi, axis=-1)[..., None, None]
            w = groups.hat(xi, groups.SO3)
            return 2.0 / (4.0 + n2) * (2.0 * groups.EYE3 + w)
        return np.linalg.inv(self.dtau_inv_matrix(xi))

    def dtau_inv_matrix(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.group_tag == groups.SO3:
            w = groups.hat(xi, groups.SO3)
            outer = xi[..., :, None] * xi[..., None, :]
            return groups.EYE3 - 0.5 * w + 0.25 * outer
        M = groups.EYE3 - 0.5 * groups.ad_matrix(xi, groups.SE2)
        M[..., :, 0] += 0.25 * xi[..., 0, None] * xi
        return M


class TruncExpRetraction(Retraction):
    """Exponential map truncated at a given polynomial order (cross-check tool)."""

    def __init__(self, group_tag, order):
        groups.check_tag(group_tag)
        if int(order) < 1:
            raise ConfigError("retraction", f"TruncExp order must be >= 1, got {order}")
        self.group_tag = group_tag
        self.order = int(order)

    def tau(self, xi):
        xi = np.asarray(xi, dtype=float)
        X = groups.hat(xi, self.group_tag)
        out = np.broadcast_to(groups.EYE3, X.shape).copy()
        term = np.broadcast_to(groups.EYE3, X.shape).copy()
        for i in range(1, self.order + 1):
            term = term @ X / i
            out = out + term
        return out

    def tau_inv(self, g):
        """Invert the truncated polynomial on algebra coordinates.

        Poses ``tau(xi) = g`` as the 3-dim root find ``P(tau(xi)) = P(g)``
        in the linear coordinates ``P`` of :meth:`_project`, seeded with
        ``P(g)`` (first order in ``xi``), and solves the whole input stack
        with one :func:`geovar.solver.newton_stack` call.  That call freezes
        each matrix as it converges, so each gets its lone result bit for
        bit; the stack raises if any matrix does not converge.
        """
        target = self._project(np.asarray(g, dtype=float))

        def res(xs):
            return self._project(self.tau(xs)) - target[..., None, :]

        x, iters = solver.newton_stack(res, target, _EXP_INV_TOL, _EXP_INV_MAX_ITER)
        if iters == _EXP_INV_MAX_ITER:
            raise SingularRetractionError(
                "truncated-exponential inverse did not converge; "
                "use a smaller step h"
            )
        return x

    def _project(self, M):
        """Linear coordinates used to pose the inversion as a 3-dim root find."""
        if self.group_tag == groups.SO3:
            skew = 0.5 * (M - np.swapaxes(M, -1, -2))
            return groups.vee(skew, groups.SO3, tol=np.inf)
        return np.stack(
            [0.5 * (M[..., 1, 0] - M[..., 0, 1]), M[..., 0, 2], M[..., 1, 2]], axis=-1
        )

    def dtau_matrix(self, xi):
        """Series for the right-trivialized tangent of exp, truncated consistently."""
        xi = np.asarray(xi, dtype=float)
        A = groups.ad_matrix(xi, self.group_tag)
        out = np.broadcast_to(groups.EYE3, A.shape).copy()
        term = np.broadcast_to(groups.EYE3, A.shape).copy()
        for j in range(1, self.order):
            term = term @ A / (j + 1)
            out = out + term
        return out

    def dtau_inv_matrix(self, xi):
        return np.linalg.inv(self.dtau_matrix(xi))


def make_retraction(kind, group_tag):
    """Build a retraction from a config string: ``"cayley"`` or ``"expN"`` (e.g. ``"exp2"``)."""
    if kind == "cayley":
        return CayleyRetraction(group_tag)
    if kind.startswith("exp"):
        tail = kind[3:]
        if not tail.isdigit():
            raise ConfigError(
                "retraction", f"expected 'cayley' or 'expN' with integer N, got {kind!r}"
            )
        return TruncExpRetraction(group_tag, int(tail))
    raise ConfigError(
        "retraction", f"expected 'cayley' or 'expN', got {kind!r}"
    )
