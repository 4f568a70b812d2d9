"""Independent finite-difference gradient of the discrete augmented action.

This module never touches the transported-momentum chain used by the
residual assemblers.  It evaluates the augmented action as a plain scalar
function of the M-nodes and the *group* nodes (algebra increments are
recomputed from the group nodes through ``tau^-1`` at every evaluation) and
differentiates it by central differences.  Agreement between these
gradients and the assembled residuals is the central correctness property
of the package.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .discrete import LEFT, RIGHT, window_views


def xi_from_group(g_nodes, h, retr, trivialization=LEFT):
    """Algebra increments from group nodes.

    left: ``tau^-1(g_m^-1 g_{m+1}) / h``; right: ``tau^-1(g_{m+1} g_m^-1) / h``.
    """
    tag = retr.group_tag
    gi = groups.inverse_matrix(g_nodes, tag)
    if trivialization == LEFT:
        W = gi[:-1] @ g_nodes[1:]
    elif trivialization == RIGHT:
        W = g_nodes[1:] @ gi[:-1]
    else:
        raise ValueError(f"unknown trivialization {trivialization!r}")
    return retr.tau_inv(W) / h


def augmented_action(Ld, Phi, lambdas, q_nodes, g_nodes, h, retr,
                     trivialization=LEFT):
    """Sum over windows of ``L_d + lambda . Phi_d`` as a function of group nodes."""
    k = Ld.order
    xi_nodes = xi_from_group(g_nodes, h, retr, trivialization)
    qs, xis, _ = window_views(q_nodes, xi_nodes, k)
    vals = Ld.eval(tuple(qs), tuple(xis))
    if Phi is not None:
        vals = vals + np.einsum("bm,bm->b", lambdas, Phi.eval(tuple(qs), tuple(xis)))
    return float(np.sum(vals))


def action_gradient_fd(Ld, Phi, path, retr, trivialization=LEFT, eps=1e-5):
    """Central-difference gradient of the augmented action at interior nodes.

    Group variations are trivialized: node ``g_i`` is perturbed to
    ``g_i tau(eps e_j)`` (left) or ``tau(eps e_j) g_i`` (right).

    Returns
    -------
    grad_q : (N-2k+1, n)  gradient w.r.t. q_i, i = k..N-k
    grad_g : (N-2k+1, 3)  gradient w.r.t. trivialized g_i, same nodes
    """
    k = Ld.order
    N = path.N
    if path.g_nodes is None:
        raise ValueError("oracle requires group nodes on the path")
    q_nodes = path.q_nodes
    g_nodes = path.g_nodes
    lambdas = path.lambda_nodes
    h = path.h

    def A(qn, gn):
        return augmented_action(Ld, Phi, lambdas, qn, gn, h, retr, trivialization)

    n = q_nodes.shape[1]
    rows = N - 2 * k + 1
    grad_q = np.empty((rows, n))
    grad_g = np.empty((rows, 3))
    for r, i in enumerate(range(k, N - k + 1)):
        for c in range(n):
            qp = q_nodes.copy()
            qm = q_nodes.copy()
            qp[i, c] += eps
            qm[i, c] -= eps
            grad_q[r, c] = (A(qp, g_nodes) - A(qm, g_nodes)) / (2.0 * eps)
        for j in range(3):
            ej = np.zeros(3)
            ej[j] = 1.0
            gp = g_nodes.copy()
            gm = g_nodes.copy()
            if trivialization == LEFT:
                gp[i] = g_nodes[i] @ retr.tau(eps * ej)
                gm[i] = g_nodes[i] @ retr.tau(-eps * ej)
            else:
                gp[i] = retr.tau(eps * ej) @ g_nodes[i]
                gm[i] = retr.tau(-eps * ej) @ g_nodes[i]
            grad_g[r, j] = (A(q_nodes, gp) - A(q_nodes, gm)) / (2.0 * eps)
    return grad_q, grad_g
