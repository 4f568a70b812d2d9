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
  matrices.  The two covector maps of the discrete equations, the
  pull-back ``(dtau^-1_xi)* mu`` and the transport ``Ad*_{tau(xi)} mu``,
  are applied in closed form too, with no ``(..., 3, 3)`` stack
  (Bou-Rabee & Marsden, *Hamilton-Pontryagin integrators on Lie groups*,
  FoCM 2009; Kobilarov & Marsden, *Discrete geometric optimal control on
  Lie groups*, IEEE T-RO 2011).
* Truncated exponential ``exp_s(xi) = sum_{i<=s} hat(xi)^i / i!`` for
  cross-checks.  Truncation leaves the group at order ``||xi||^{s+1}``, so
  it is not used for production trajectories.  Its inverse has no closed
  form: it is one :func:`geovar.solver.newton_stack` solve over the input
  stack, which converges each matrix on its own.  Its tangents are those
  of that inverse, exactly.

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
    """The tangent maps ``dtau``, ``dtau_inv``, ``dtau_inv_star`` and the
    transport of a subclass that defines ``tau``, ``tau_inv``,
    ``dtau_matrix`` and ``dtau_inv_matrix``."""

    group_tag: str

    def dtau(self, xi, eta):
        return np.einsum("...ij,...j->...i", self.dtau_matrix(xi), eta)

    def dtau_inv(self, xi, eta):
        return np.einsum("...ij,...j->...i", self.dtau_inv_matrix(xi), eta)

    def dtau_inv_star(self, xi, mu):
        """Transpose of dtau_inv applied to a covector."""
        return np.einsum("...ji,...j->...i", self.dtau_inv_matrix(xi), mu)

    def transport(self, xi, mu):
        """The covector ``mu`` carried by ``Ad*_{tau(xi)}``, the transpose of
        ``Ad_{tau(xi)}``."""
        Ad = groups.Ad_matrix(self.tau(xi), self.group_tag)
        return np.einsum("...ji,...j->...i", Ad, mu)


# (a x b)_i = t_{i+1} with t_k = a_k b_{k+1} - a_{k+1} b_k, gathered by
# ``take``; the index is in range, and mode="clip" skips a bounds check that
# makes a gather of thousands of rows several times slower
_NEXT = np.array([1, 2, 0])


def _cross(a, b):
    """``a x b`` of (..., 3) stacks."""
    t = a * b.take(_NEXT, -1, mode="clip") - a.take(_NEXT, -1, mode="clip") * b
    return t.take(_NEXT, -1, mode="clip")


def _dot(a, b):
    """``a . b`` of (..., 3) stacks, as (..., 1).  Adding the three columns
    gives the bits of ``sum(-1)``, which is several times slower on
    thousands of rows."""
    p = a * b
    return (p[..., 0] + p[..., 1] + p[..., 2])[..., None]


def _columns(c1, c2, c3):
    """The ``(..., 3)`` stack of three equally shaped coordinate arrays."""
    out = np.empty(np.shape(c1) + (3,))
    out[..., 0] = c1
    out[..., 1] = c2
    out[..., 2] = c3
    return out


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

    # -- covector maps ---------------------------------------------------
    # Both are written out from the matrices above.  The SE(2) forms add
    # the same products in the order of the base class's einsum, so they
    # give its bits; the SO(3) forms agree with it to round-off.
    def dtau_inv_star(self, xi, mu):
        """``dtau_inv_matrix(xi)^T mu``: for SO(3),
        ``mu + xi x mu / 2 + xi (xi . mu) / 4``."""
        xi = np.asarray(xi, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if self.group_tag == groups.SO3:
            return mu + 0.5 * _cross(xi, mu) + 0.25 * xi * _dot(xi, mu)
        v1, v2, v3 = xi[..., 0], xi[..., 1], xi[..., 2]
        m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
        q = 0.25 * v1
        half = 0.5 * v1
        return _columns(
            (1.0 + q * v1) * m1 + (q * v2 - 0.5 * v3) * m2 + (0.5 * v2 + q * v3) * m3,
            m2 - half * m3,
            half * m2 + m3,
        )

    def transport(self, xi, mu):
        """``Ad*_{tau(xi)} mu``: for SO(3), ``tau(xi)^T mu``, that is
        ``mu - c xi x mu + c (xi (xi . mu) - |xi|^2 mu) / 2`` with
        ``c = 4 / (4 + |xi|^2)``."""
        xi = np.asarray(xi, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if self.group_tag == groups.SO3:
            n2 = _dot(xi, xi)
            c = 4.0 / (4.0 + n2)
            return mu - c * _cross(xi, mu) + 0.5 * c * (xi * _dot(xi, mu) - n2 * mu)
        # the entries of tau(xi), formed as tau forms them
        v1, v2, v3 = xi[..., 0], xi[..., 1], xi[..., 2]
        m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2]
        den = 4.0 + v1 * v1
        cos = (4.0 - v1 * v1) / den
        sin = 4.0 * v1 / den
        t1 = (-2.0 * v1 * v3 + 4.0 * v2) / den
        t2 = (2.0 * v1 * v2 + 4.0 * v3) / den
        return _columns(m1 + t2 * m2 - t1 * m3, cos * m2 + sin * m3, cos * m3 - sin * m2)


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
        return np.linalg.inv(self.dtau_inv_matrix(xi))

    def dtau_inv_matrix(self, xi):
        """The tangent of the inverse :meth:`tau_inv` solves.

        ``tau_inv`` finds ``x`` with ``P(tau(x)) = P(g)``, ``P`` the linear
        coordinates of :meth:`_project`.  Moving ``g = tau(xi)`` to
        ``(e + s hat(eta)) g`` moves ``x`` at the rate
        ``(d_xi P(tau(xi)))^-1 P(hat(eta) tau(xi))``, so column ``j`` is
        that rate for ``eta = e_j``.  The derivative of the polynomial
        ``tau`` is formed term by term alongside it, exactly.
        """
        xi = np.asarray(xi, dtype=float)
        X = groups.hat(xi, self.group_tag)
        E = groups.hat(groups.EYE3, self.group_tag)  # E[k] = hat(e_k)
        term = np.broadcast_to(groups.EYE3, X.shape).copy()
        value = term.copy()
        dterm = np.zeros(xi.shape[:-1] + (3, 3, 3))  # d term / d xi_k at [..., k]
        dtau = dterm.copy()
        for i in range(1, self.order + 1):
            dterm = (dterm @ X[..., None, :, :] + term[..., None, :, :] @ E) / i
            term = term @ X / i
            value = value + term
            dtau = dtau + dterm
        # columns: the k-th of d_xi P(tau), the j-th of P(hat(e_j) tau)
        jac = np.swapaxes(self._project(dtau), -1, -2)
        moved = np.swapaxes(self._project(E @ value[..., None, :, :]), -1, -2)
        return np.linalg.solve(jac, moved)


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
