"""Matrix kernels for SE(2) and SO(3).

Both groups are represented by dense 3x3 matrices: SO(3) as orthogonal
matrices with unit determinant, SE(2) as homogeneous matrices with a 2x2
rotation block, a translation column and bottom row (0, 0, 1).

Algebra coordinate order
------------------------
se(2) coordinates are ``v = (v1, v2, v3)`` with ``v1`` the *rotation* rate
and ``(v2, v3)`` the translation rates::

    hat(v) = [[0, -v1, v2],
              [v1,  0, v3],
              [0,   0,  0]]

Note this differs from the common ``(x, y, theta)`` ordering.  so(3) uses
the standard ``omega = (w1, w2, w3)`` with ``hat(omega) x = omega x x``.

All functions accept stacked inputs: vectors of shape ``(..., 3)``
and matrices of shape ``(..., 3, 3)``.
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraShapeError, GroupInvariantError, TagMismatchError

SE2 = "SE2"
SO3 = "SO3"

_ORTHO_TOL = 1e-10
_POLAR_TRIGGER = 1e-9

# the 3x3 identity shared by the kernels here and in geovar.retraction;
# read-only, so an in-place update raises instead of corrupting every call
EYE3 = np.eye(3)
EYE3.flags.writeable = False


def check_tag(tag):
    """Raise ``TagMismatchError`` unless ``tag`` is ``SE2`` or ``SO3``."""
    if tag not in (SE2, SO3):
        raise TagMismatchError(f"unknown group tag {tag!r}")


# hat(v) gathered from (v1, v2, v3, -v1, -v2, -v3, 0): each entry is the
# index of its source.  ``take`` returns a new C-ordered array.
_HAT_ENTRIES = {
    SO3: np.array([[6, 5, 1], [2, 6, 3], [4, 0, 6]]),
    SE2: np.array([[6, 3, 1], [0, 6, 2], [6, 6, 6]]),
}


def hat(v, tag):
    """Map algebra coordinates to matrix form.

    Parameters
    ----------
    v : array, shape (..., 3)
    tag : {"SE2", "SO3"}

    Returns
    -------
    array, shape (..., 3, 3)
    """
    check_tag(tag)
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise AlgebraShapeError(f"expected trailing dimension 3, got {v.shape}")
    src = np.concatenate([v, -v, np.zeros(v.shape[:-1] + (1,))], axis=-1)
    return src.take(_HAT_ENTRIES[tag], axis=-1)


def vee(X, tag, tol=_ORTHO_TOL):
    """Inverse of :func:`hat`; rejects matrices outside the algebra image."""
    check_tag(tag)
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != (3, 3):
        raise AlgebraShapeError(f"expected trailing shape (3, 3), got {X.shape}")
    v = np.empty(X.shape[:-2] + (3,))
    if tag == SO3:
        defect = np.abs(X + np.swapaxes(X, -1, -2)).max()
        if defect > tol:
            raise AlgebraShapeError(
                f"matrix not antisymmetric (defect {defect:.3e})"
            )
        v[..., 0] = X[..., 2, 1]
        v[..., 1] = X[..., 0, 2]
        v[..., 2] = X[..., 1, 0]
    else:
        defect = max(
            np.abs(X[..., 2, :]).max(),
            np.abs(X[..., 0, 0]).max(),
            np.abs(X[..., 1, 1]).max(),
            np.abs(X[..., 0, 1] + X[..., 1, 0]).max(),
        )
        if defect > tol:
            raise AlgebraShapeError(
                f"matrix not in the se(2) image of hat (defect {defect:.3e})"
            )
        v[..., 0] = X[..., 1, 0]
        v[..., 1] = X[..., 0, 2]
        v[..., 2] = X[..., 1, 2]
    return v


def identity(tag):
    check_tag(tag)
    return np.eye(3)


def check_matrix(g, tag, tol=_ORTHO_TOL):
    """Raise :class:`GroupInvariantError` if g violates the group invariants."""
    check_tag(tag)
    g = np.asarray(g, dtype=float)
    if g.shape[-2:] != (3, 3):
        raise GroupInvariantError(f"expected trailing shape (3, 3), got {g.shape}")
    if tag == SO3:
        R, what = g, "SO(3) matrix"
    else:
        if np.abs(g[..., 2, :] - np.array([0.0, 0.0, 1.0])).max() > 0.0:
            raise GroupInvariantError("SE(2) bottom row must be exactly (0, 0, 1)")
        R, what = g[..., :2, :2], "SE(2) rotation block"
    defect = orthogonality_defect(g, tag)
    if defect > tol:
        raise GroupInvariantError(f"{what} not orthogonal (defect {defect:.3e})")
    if np.abs(np.linalg.det(R) - 1.0).max() > tol:
        raise GroupInvariantError(f"{what} has determinant != +1")


def inverse_matrix(g, tag):
    """Group inverse in closed form (transpose-based; no linear solves)."""
    check_tag(tag)
    g = np.asarray(g, dtype=float)
    if tag == SO3:
        return np.swapaxes(g, -1, -2).copy()
    out = np.zeros_like(g)
    Rt = np.swapaxes(g[..., :2, :2], -1, -2)
    out[..., :2, :2] = Rt
    out[..., :2, 2] = -np.einsum("...ij,...j->...i", Rt, g[..., :2, 2])
    out[..., 2, 2] = 1.0
    return out


def ad_matrix(v, tag):
    """Matrix of ad_v acting on algebra coordinates."""
    check_tag(tag)
    v = np.asarray(v, dtype=float)
    if tag == SO3:
        return hat(v, SO3)
    A = np.zeros(v.shape[:-1] + (3, 3))
    A[..., 1, 0] = v[..., 2]
    A[..., 1, 2] = -v[..., 0]
    A[..., 2, 0] = -v[..., 1]
    A[..., 2, 1] = v[..., 0]
    return A


def Ad_matrix(g, tag):
    """Matrix of Ad_g acting on algebra coordinates: Ad_g eta = vee(g hat(eta) g^-1)."""
    check_tag(tag)
    g = np.asarray(g, dtype=float)
    if tag == SO3:
        return g.copy()
    A = np.zeros_like(g)
    A[..., 0, 0] = 1.0
    A[..., 1, 0] = g[..., 1, 2]
    A[..., 2, 0] = -g[..., 0, 2]
    A[..., 1:, 1:] = g[..., :2, :2]
    return A


def so3_polar_project(g):
    """Closest rotation matrix (polar factor), used to curb orthogonality drift."""
    U, _, Vt = np.linalg.svd(g)
    R = U @ Vt
    # enforce det +1 by flipping the smallest singular direction if needed
    flip = np.linalg.det(R) < 0
    if np.any(flip):
        U[flip, :, -1] *= -1.0
        R = U @ Vt
    return R


def _so3_drift(g):
    """``max |g^T g - e|`` of each matrix of a ``(..., 3, 3)`` stack."""
    return np.abs(np.swapaxes(g, -1, -2) @ g - EYE3).max(axis=(-2, -1))


def orthogonality_defect(g, tag):
    """Max deviation of the rotation part from orthogonality."""
    g = np.asarray(g, dtype=float)
    if tag == SO3:
        return _so3_drift(g).max()
    R = g[..., :2, :2]
    return np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(2)).max()


def drifted(g):
    """Mask of the SO(3) matrices of a ``(..., 3, 3)`` stack whose drift
    ``max |g^T g - e|`` exceeds 1e-9: the ones :func:`renormalize`
    projects.  Each matrix is tested on its own."""
    return _so3_drift(g) > _POLAR_TRIGGER


def renormalize(g, tag):
    """Re-project onto the group where drift exceeds 1e-9 (SO(3) only).

    Stacked inputs are checked (:func:`drifted`) and projected matrix by
    matrix.
    """
    if tag != SO3:
        return g
    far = drifted(g)
    if not np.any(far):
        return g
    out = g.copy()
    out[far] = so3_polar_project(g[far])
    return out

