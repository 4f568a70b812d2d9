"""Residual-assembler tests: discrete Euler-Poincare, second/k-th order
stationarity, momentum maps, reconstruction."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from geovar import cli, discrete, groups, ocp, oracle
from geovar.discrete import (
    LEFT,
    RIGHT,
    DiscreteConstraintSet,
    DiscreteLagrangian,
    DiscretePath,
    DEP_MAX_ITER,
    capped_steps,
    dep_residual,
    dep_solve_path,
    dep_step,
    discrete_momentum,
    dlp2_residual,
    dlp_k_residual,
    reconstruct,
    spatial_momentum,
)
from geovar.errors import SizeError
from geovar.models import FreeRigidBody
from geovar.retraction import CayleyRetraction, make_retraction


def rot_x(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])


def synthetic_pair(seed, n=2, m=2, k=2):
    """Random smooth (L_d, Phi_d) with bounded derivatives."""
    rng = np.random.default_rng(seed)
    slots = (k + 1) * n + k * 3
    aL = rng.normal(size=(3, slots))

    def ld(qs, xis):
        z = np.concatenate(list(qs) + list(xis), axis=1)
        return np.sum(np.sin(z @ aL.T), axis=1)

    aP = rng.normal(size=(m, slots))
    bP = rng.normal(size=(m, slots))

    def phid(qs, xis):
        z = np.concatenate(list(qs) + list(xis), axis=1)
        return np.cos(z @ aP.T) + 0.3 * np.sin(z @ bP.T)

    Ld = DiscreteLagrangian(order=k, eval=ld, group_invariant=True)
    Phi = DiscreteConstraintSet(m=m, eval=phid)
    return Ld, Phi


def random_path(seed, N, n=2, m=2, k=2, tag=groups.SE2, h=0.1,
                trivialization=LEFT):
    rng = np.random.default_rng(seed)
    retr = CayleyRetraction(tag)
    q_nodes = rng.normal(size=(N + 1, n))
    xi_nodes = rng.uniform(-1.0, 1.0, size=(N, 3))
    lam = rng.normal(size=(N - k + 1, m)) if m else None
    g_nodes = reconstruct(xi_nodes, np.eye(3), h, retr, trivialization)
    return DiscretePath(
        q_nodes=q_nodes, xi_nodes=xi_nodes, h=h, lambda_nodes=lam,
        g_nodes=g_nodes,
    ), retr


# -- discrete Euler-Poincare -------------------------------------------------


def identity_inertia_grad(h):
    def grad(xi):
        return h * xi

    return grad


def test_constant_increment_solves_euler_poincare_identity_inertia():
    retr = CayleyRetraction(groups.SO3)
    xi = np.tile(np.array([0.4, -0.1, 0.3]), (10, 1))
    res = dep_residual(identity_inertia_grad(0.1), xi, 0.1, retr)
    assert np.abs(res).max() < 1e-13


def test_euler_poincare_residual_equals_action_derivative():
    """Rows match the central difference of the action sum under
    trivialized perturbations of the group nodes."""
    h, eps = 0.1, 1e-5
    rng = np.random.default_rng(1)
    retr = CayleyRetraction(groups.SO3)
    inertia = np.array([1.0, 2.0, 3.0])

    def lhat_grad(xi):
        return h * xi * inertia[None, :]

    def action(g_nodes):
        xi = oracle.xi_from_group(g_nodes, h, retr)
        return float(np.sum(0.5 * h * np.sum(xi * xi * inertia, axis=1)))

    xi_nodes = rng.uniform(-0.5, 0.5, size=(6, 3))
    g_nodes = reconstruct(xi_nodes, np.eye(3), h, retr)
    res = dep_residual(lhat_grad, xi_nodes, h, retr)
    for r, i in enumerate(range(1, 6)):
        for j, ej in enumerate(np.eye(3)):
            gp, gm = g_nodes.copy(), g_nodes.copy()
            gp[i] = g_nodes[i] @ retr.tau(eps * ej)
            gm[i] = g_nodes[i] @ retr.tau(-eps * ej)
            fd = (action(gp) - action(gm)) / (2 * eps)
            assert abs(res[r, j] - fd) < 1e-6


def test_dep_solve_path_conserves_body_momentum_transport():
    """The transported quantity Ad*_{tau(h xi_k)} (dtau^-1)* (h I xi_k)
    is constant along the generated flow."""
    h = 0.05
    retr = CayleyRetraction(groups.SO3)
    inertia = np.array([1.0, 2.0, 3.0])
    xi = dep_solve_path(
        lambda x: h * x * inertia[None, :], np.array([0.3, 0.2, 0.5]),
        50, h, retr,
    )
    res = dep_residual(lambda x: h * x * inertia[None, :], xi, h, retr)
    assert np.abs(res).max() < 1e-11


# dep_step and dep_solve_path run the left-trivialized balance alone.  Their
# tests take the trivialization as a parameter for the general residual
# they are checked against, dep_residual, which keeps both.
STEPPED = [LEFT]


def dep_step_column_loop(lhat_grad, xi_prev, h, retr, trivialization,
                         tol=1e-13, max_iter=DEP_MAX_ITER):
    """Reference Newton step: a full dep_residual call per residual and per
    perturbed point, the Jacobian built one column at a time."""
    d = xi_prev.shape[0]

    def res(xi_next):
        pair = np.stack([xi_prev, xi_next])
        return dep_residual(lhat_grad, pair, h, retr, trivialization)[0]

    x = xi_prev.copy()
    iters = max_iter
    for it in range(max_iter):
        r = res(x)
        if np.abs(r).max() < tol:
            iters = it
            break
        J = np.empty((d, d))
        for j in range(d):
            dx = np.zeros(d)
            dx[j] = 1e-7 * max(1.0, abs(x[j]))
            J[:, j] = (res(x + dx) - res(x - dx)) / (2.0 * dx[j])
        x = x - np.linalg.solve(J, r)
    return x, iters


@pytest.mark.parametrize("trivialization", STEPPED)
@pytest.mark.parametrize("inertia", [[1.0, 2.0, 3.0], [0.4, 2.5, 7.0]])
def test_dep_step_equals_the_column_loop(trivialization, inertia):
    h = 0.05
    retr = CayleyRetraction(groups.SO3)
    grad = FreeRigidBody(inertia).lhat_grad(h)
    rng = np.random.default_rng(7)
    for xi_prev in rng.uniform(-2.0, 2.0, size=(20, 3)):
        got = dep_step(grad, xi_prev, h, retr)
        want = dep_step_column_loop(grad, xi_prev, h, retr, trivialization)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


def dep_path_seeded_by_previous_node(lhat_grad, xi0, N, h, retr):
    """Reference flow: every step starts Newton from the previous node (a
    ``dep_step`` call with no ``guess``); returns nodes and iterations."""
    out = np.empty((N, 3))
    out[0] = xi0
    iters = []
    for kk in range(1, N):
        out[kk], it = dep_step(lhat_grad, out[kk - 1], h, retr)
        iters.append(it)
    return out, np.array(iters)


def seeded_and_reference(xi0, N, h, trivialization=LEFT):
    """The seeded flow and its previous-node reference; the seeded flow is
    first checked to solve ``dep_residual``'s balance in ``trivialization``."""
    grad = FreeRigidBody([1.0, 2.0, 3.0]).lhat_grad(h)
    retr = CayleyRetraction(groups.SO3)
    xi, iters = dep_solve_path(grad, np.asarray(xi0), N, h, retr,
                               return_iterations=True)
    assert np.abs(dep_residual(grad, xi, h, retr, trivialization)).max() <= 1e-12
    ref, ref_iters = dep_path_seeded_by_previous_node(
        grad, np.asarray(xi0), N, h, retr
    )
    return xi, np.array(iters), ref, ref_iters


@pytest.mark.parametrize("trivialization", STEPPED)
@pytest.mark.parametrize("h", [0.08, 0.04, 0.02, 0.01])
def test_seeded_flow_agrees_with_previous_node_seeding(trivialization, h):
    """The extrapolated seed moves where Newton starts, not the root: over
    T = 2 the nodes agree to solver tolerance, and no step takes more
    iterations than from the previous node."""
    xi, iters, ref, ref_iters = seeded_and_reference(
        [0.3, 0.2, 0.5], round(2.0 / h), h, trivialization
    )
    assert np.abs(xi - ref).max() <= 1e-12
    assert np.all(iters <= ref_iters)
    assert np.array_equal(iters[:2], ref_iters[:2])


def test_seeded_fixture_flow_takes_one_iteration_per_step():
    """The shipped rigid body (N = 2000, h = 0.01): from step 3 on, the
    quadratic seed converges in one Newton iteration where the previous
    node takes two."""
    xi, iters, ref, ref_iters = seeded_and_reference([0.3, 0.2, 0.5], 2000, 0.01)
    assert np.abs(xi - ref).max() <= 1e-12
    assert np.all(iters <= ref_iters)
    assert list(iters[:2]) == [2, 2]
    assert np.all(iters[2:] == 1)


@pytest.mark.parametrize("trivialization", STEPPED)
def test_seeded_fast_body_takes_at_most_two_iterations_per_step(trivialization):
    """A fast body, |xi0| about 6: from step 3 on every seeded step takes at
    most two iterations (most take three from the previous node)."""
    xi, iters, ref, ref_iters = seeded_and_reference([3.0, 2.0, 5.0], 200, 0.01,
                                                     trivialization)
    assert np.abs(xi - ref).max() <= 1e-11
    assert np.all(iters <= ref_iters)
    assert np.all(iters[2:] <= 2)


@pytest.mark.parametrize("trivialization", STEPPED)
def test_dep_step_guess_moves_the_start_not_the_root(trivialization):
    h = 0.05
    retr = CayleyRetraction(groups.SO3)
    grad = FreeRigidBody([1.0, 2.0, 3.0]).lhat_grad(h)
    xi_prev = np.array([0.3, 0.2, 0.5])
    root, _ = dep_step(grad, xi_prev, h, retr)
    pair = np.stack([xi_prev, root])
    assert np.abs(dep_residual(grad, pair, h, retr, trivialization)).max() <= 1e-12
    same, _ = dep_step(grad, xi_prev, h, retr, guess=xi_prev)
    assert np.array_equal(same, root)
    far, far_iters = dep_step(grad, xi_prev, h, retr, guess=xi_prev + 0.3)
    assert 0 < far_iters < DEP_MAX_ITER
    assert np.abs(far - root).max() <= 1e-12
    _, at_root = dep_step(grad, xi_prev, h, retr, guess=root)
    assert at_root <= 1


class CountingCayley(CayleyRetraction):
    """Cayley retraction that counts its ``tau`` and ``dtau_inv_matrix`` calls."""

    def __init__(self, group_tag):
        super().__init__(group_tag)
        self.tau_calls = 0
        self.dtau_inv_calls = 0

    def tau(self, xi):
        self.tau_calls += 1
        return super().tau(xi)

    def dtau_inv_matrix(self, xi):
        self.dtau_inv_calls += 1
        return super().dtau_inv_matrix(xi)


@pytest.mark.parametrize("trivialization", STEPPED)
def test_dep_step_transports_only_the_term_its_trivialization_reads(trivialization):
    """Left trivialized, only the fixed previous node is transported: one
    tau call per step.  The step pulls back the fixed node once and the
    unknown once per residual, and solves ``dep_residual``'s balance."""
    h = 0.05
    retr = CountingCayley(groups.SO3)
    grad = FreeRigidBody([1.0, 2.0, 3.0]).lhat_grad(h)
    rng = np.random.default_rng(3)
    for xi_prev in rng.uniform(-2.0, 2.0, size=(5, 3)):
        retr.tau_calls = retr.dtau_inv_calls = 0
        xi_next, iterations = dep_step(grad, xi_prev, h, retr)
        assert 0 < iterations < DEP_MAX_ITER
        assert retr.tau_calls == 1
        assert retr.dtau_inv_calls == iterations + 2
        pair = np.stack([xi_prev, xi_next])
        assert np.abs(dep_residual(grad, pair, h, retr, trivialization)).max() <= 1e-12


def flow_of_lone_steps(lhat_grad, xi0, N, h, retr, capped=None):
    """Reference flow: one ``dep_step`` per node with ``dep_solve_path``'s
    seeds and no carry; step ``capped`` (1-based) runs at ``tol = 0``."""
    out = np.empty((N, 3))
    out[0] = xi0
    iters = []
    for kk in range(1, N):
        guess = None
        if kk >= 3:
            guess = 3.0 * (out[kk - 1] - out[kk - 2]) + out[kk - 3]
        tol = 0.0 if kk == capped else 1e-13
        out[kk], it = dep_step(lhat_grad, out[kk - 1], h, retr, tol=tol, guess=guess)
        iters.append(it)
    return out, iters


def cap_one_call(monkeypatch, capped):
    """Make the ``capped``-th ``discrete.dep_step`` call run at ``tol = 0``."""
    real_step = discrete.dep_step
    calls = []

    def step(*args, **kwargs):
        calls.append(None)
        if len(calls) == capped:
            kwargs["tol"] = 0.0  # no residual falls below zero
        return real_step(*args, **kwargs)

    monkeypatch.setattr(discrete, "dep_step", step)


@pytest.mark.parametrize("kind", ["cayley", "exp4"])
@pytest.mark.parametrize("capped", [None, 1, 2, 3, 7], ids=lambda c: f"capped{c}")
def test_carried_flow_equals_a_loop_of_lone_steps(monkeypatch, kind, capped):
    """The carried momenta and the look-ahead change no node and no
    iteration count, also at and after a step that hits its cap (whose
    returned node was never evaluated)."""
    h, N = 0.01, 60
    retr = make_retraction(kind, groups.SO3)
    grad = FreeRigidBody([1.0, 2.0, 3.0]).lhat_grad(h)
    xi0 = np.array([0.3, 0.2, 0.5])
    want, want_iters = flow_of_lone_steps(grad, xi0, N, h, retr, capped)
    if capped is not None:
        cap_one_call(monkeypatch, capped)
    got, got_iters = dep_solve_path(grad, xi0, N, h, retr, return_iterations=True)
    assert np.array_equal(got, want)
    assert got_iters == want_iters
    assert capped_steps(got_iters) == ([] if capped is None else [capped - 1])


def test_carried_flow_pulls_back_once_per_newton_iteration():
    """Over an N-node flow each Newton iteration evaluates one stack, and
    each step transports once.  Step 1 pulls back its fixed node and its
    first stack on their own; every later step reads both from the carry.
    The lone steps pull back about three times per step."""
    h, N = 0.01, 200
    retr = CountingCayley(groups.SO3)
    grad = FreeRigidBody([1.0, 2.0, 3.0]).lhat_grad(h)
    xi, iters = dep_solve_path(grad, np.array([0.3, 0.2, 0.5]), N, h, retr,
                               return_iterations=True)
    assert iters[:2] == [2, 2] and set(iters[2:]) == {1}
    assert retr.dtau_inv_calls == sum(iters) + 2 == N + 3
    assert retr.tau_calls == N - 1
    retr.tau_calls = retr.dtau_inv_calls = 0
    flow_of_lone_steps(grad, xi[0], N, h, retr)
    assert retr.dtau_inv_calls == sum(iters) + 2 * (N - 1) == 3 * N - 1


def test_capped_steps_are_the_steps_that_report_the_cap():
    assert capped_steps([]) == []
    assert capped_steps([3, DEP_MAX_ITER, 4, DEP_MAX_ITER - 1, DEP_MAX_ITER]) == [1, 4]
    # a step that cannot converge (no residual falls below 0) reports the cap
    h = 0.05
    grad = FreeRigidBody([1.0, 2.0, 3.0]).lhat_grad(h)
    retr = CayleyRetraction(groups.SO3)
    xi_prev = np.array([0.3, 0.2, 0.5])
    _, converged = dep_step(grad, xi_prev, h, retr)
    _, stuck = dep_step(grad, xi_prev, h, retr, tol=0.0)
    assert capped_steps([converged, stuck]) == [1]


# -- discrete momentum map ---------------------------------------------------


def test_momentum_pairing_zero_generator():
    retr = CayleyRetraction(groups.SO3)

    def ld(a, b):
        return float(np.trace(a[1] @ b[1].T))

    pair = ((None, rot_x(0.3)), (None, rot_x(0.5)))
    assert discrete_momentum(ld, pair, np.zeros(3), "plus", retr) == 0.0


def test_invariant_lagrangian_has_equal_plus_minus_momentum():
    h = 0.1
    retr = CayleyRetraction(groups.SO3)
    inertia = np.array([1.0, 2.0, 3.0])

    def ld(first, second):
        _, g0 = first
        _, g1 = second
        xi = retr.tau_inv(np.linalg.solve(g0, g1)) / h
        return 0.5 * h * float(xi @ (inertia * xi))

    rng = np.random.default_rng(2)
    for _ in range(10):
        g0 = retr.tau(rng.uniform(-1, 1, size=3))
        g1 = g0 @ retr.tau(rng.uniform(-0.1, 0.1, size=3))
        xi = rng.uniform(-0.5, 0.5, size=3)
        jp = discrete_momentum(ld, ((None, g0), (None, g1)), xi, "plus", retr,
                               eps=1e-5)
        jm = discrete_momentum(ld, ((None, g0), (None, g1)), xi, "minus", retr,
                               eps=1e-5)
        assert abs(jp - jm) < 1e-10


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_stacked_momentum_equals_per_pair_calls(side):
    h = 0.1
    retr = CayleyRetraction(groups.SO3)
    inertia = np.array([1.0, 2.0, 3.0])

    def ld_one_pair(first, second):
        xi = retr.tau_inv(np.linalg.solve(first[1], second[1])) / h
        return 0.5 * h * float(xi @ (inertia * xi))

    ld = FreeRigidBody(inertia).pair_eval(h, retr)
    rng = np.random.default_rng(4)
    g0 = retr.tau(rng.uniform(-1, 1, size=(12, 3)))
    g1 = g0 @ retr.tau(rng.uniform(-0.2, 0.2, size=(12, 3)))
    for xi in np.eye(3):
        stacked = discrete_momentum(ld, ((None, g0), (None, g1)), xi, side, retr)
        single = [
            discrete_momentum(ld_one_pair, ((None, a), (None, b)), xi, side, retr)
            for a, b in zip(g0, g1)
        ]
        assert isinstance(single[0], float)
        assert stacked.shape == (12,)
        assert np.array_equal(stacked, single)


def test_momentum_invalid_side_rejected():
    retr = CayleyRetraction(groups.SO3)
    with pytest.raises(ValueError):
        discrete_momentum(
            lambda a, b: 0.0, ((None, np.eye(3)), (None, np.eye(3))),
            np.ones(3), "sideways", retr,
        )


def fixture_flow(N=200, h=0.01):
    """The body, retraction and (xi, g) nodes of the shipped rigid-body
    fixture (``configs/free_rigid_body.json``)."""
    retr = CayleyRetraction(groups.SO3)
    body = FreeRigidBody([1.0, 2.0, 3.0])
    xi = dep_solve_path(body.lhat_grad(h), np.array([0.3, 0.2, 0.5]), N, h, retr)
    return body, retr, xi, reconstruct(xi, np.eye(3), h, retr)


def test_spatial_momentum_matches_the_pairing_on_the_fixture_flow():
    """Row k is the central-difference pairing on (g_k, g_k+1), up to the
    pairing's own round-off floor (measured 1.4e-10)."""
    h = 0.01
    body, retr, xi, g = fixture_flow(h=h)
    pi = spatial_momentum(body.lhat_grad(h), xi[:-1], g[:-2], h, retr)
    ld = body.pair_eval(h, retr)
    pairs = ((None, g[:-2]), (None, g[1:-1]))
    ref = np.stack(
        [discrete_momentum(ld, pairs, e, "plus", retr) for e in np.eye(3)], axis=1
    )
    assert pi.shape == (199, 3)
    assert np.abs(pi - ref).max() <= 1e-9


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_spatial_momentum_matches_both_pairings_on_any_pair(side):
    """The identity holds pair by pair, not only along the flow: with
    ``xi = tau^-1(g0^-1 g1) / h`` the closed form is the pairing on
    (g0, g1), and the invariant Lagrangian's two pairings coincide."""
    h = 0.1
    retr = CayleyRetraction(groups.SO3)
    body = FreeRigidBody([0.4, 2.5, 7.0])
    rng = np.random.default_rng(5)
    g0 = retr.tau(rng.uniform(-1, 1, size=(20, 3)))
    g1 = g0 @ retr.tau(rng.uniform(-0.2, 0.2, size=(20, 3)))
    xi = retr.tau_inv(np.swapaxes(g0, -1, -2) @ g1) / h
    pi = spatial_momentum(body.lhat_grad(h), xi, g0, h, retr)
    ld = body.pair_eval(h, retr)
    ref = np.stack(
        [discrete_momentum(ld, ((None, g0), (None, g1)), e, side, retr)
         for e in np.eye(3)],
        axis=1,
    )
    assert np.abs(pi - ref).max() <= 1e-8


def test_spatial_momentum_is_constant_below_the_pairing_floor():
    """The fixture flow conserves the closed form to round-off (measured
    2.9e-15), far below the 1e-10 a central-difference pairing can show."""
    h = 0.01
    body, retr, xi, g = fixture_flow(N=2000, h=h)
    pi = spatial_momentum(body.lhat_grad(h), xi, g[:-1], h, retr)
    assert np.abs(pi - pi[0]).max() <= 1e-13


# -- second and k-th order ---------------------------------------------------


def test_base_only_lagrangian_has_zero_group_residual():
    def ld(qs, xis):
        q0, q1, q2 = qs
        return np.sum((q2 - 2 * q1 + q0) ** 2, axis=1)

    Ld = DiscreteLagrangian(order=2, eval=ld)
    path, retr = random_path(3, N=8, m=0)
    path.lambda_nodes = None
    res_q, res_g, res_phi = dlp_k_residual(Ld, None, path, retr)
    assert np.abs(res_g).max() < 1e-9
    assert res_phi.shape == (7, 0)


def test_dlp2_and_dlp_k_agree_exactly():
    Ld, _ = synthetic_pair(4)
    path, retr = random_path(5, N=9, m=0)
    path.lambda_nodes = None
    q2, g2 = dlp2_residual(Ld, path, retr)
    qk, gk, _ = dlp_k_residual(Ld, None, path, retr)
    assert np.array_equal(q2, qk)
    assert np.array_equal(g2, gk)


@pytest.mark.parametrize("tag,trivialization", [
    (groups.SE2, LEFT), (groups.SE2, RIGHT),
    (groups.SO3, LEFT), (groups.SO3, RIGHT),
])
def test_constrained_residual_equals_augmented_action_gradient(tag, trivialization):
    Ld, Phi = synthetic_pair(6)
    path, retr = random_path(7, N=7, tag=tag, trivialization=trivialization)
    res_q, res_g, _ = dlp_k_residual(Ld, Phi, path, retr, trivialization)
    grad_q, grad_g = oracle.action_gradient_fd(Ld, Phi, path, retr, trivialization)
    assert np.abs(res_q - grad_q).max() < 1e-6
    assert np.abs(res_g - grad_g).max() < 1e-6


def test_first_order_group_only_specializes_to_euler_poincare():
    h = 0.1
    inertia = np.array([1.0, 2.0, 3.0])

    def lhat_grad(xi):
        return h * xi * inertia[None, :]

    def ld(qs, xis):
        (x0,) = xis
        return 0.5 * h * np.sum(x0 * x0 * inertia, axis=1)

    def d_ld(qs, xis):
        (x0,) = xis
        return [np.zeros_like(qs[0]), np.zeros_like(qs[1])], [lhat_grad(x0)]

    Ld = DiscreteLagrangian(order=1, eval=ld, d_eval=d_ld)
    path, retr = random_path(8, N=8, tag=groups.SO3, m=0, k=1)
    path.lambda_nodes = None
    _, res_g, _ = dlp_k_residual(Ld, None, path, retr)
    dep = dep_residual(lhat_grad, path.xi_nodes, path.h, retr)
    assert np.array_equal(res_g, dep)


def test_size_and_shape_validation():
    Ld, Phi = synthetic_pair(9)
    path, retr = random_path(10, N=4)  # N <= 2k
    with pytest.raises(SizeError):
        dlp_k_residual(Ld, Phi, path, retr)
    path, retr = random_path(11, N=8)
    path.lambda_nodes = path.lambda_nodes[:-1]  # wrong window count
    with pytest.raises(SizeError):
        dlp_k_residual(Ld, Phi, path, retr)
    with pytest.raises(SizeError):
        dlp2_residual(synthetic_pair(12, k=1)[0], path, retr)


def test_non_invariant_lagrangian_is_rejected():
    with pytest.raises(ValueError, match="only group-invariant"):
        DiscreteLagrangian(order=2, eval=lambda qs, xis: 0.0, group_invariant=False)


# -- reconstruction ----------------------------------------------------------


def test_reconstruct_zero_increments_is_constant():
    retr = CayleyRetraction(groups.SE2)
    g0 = np.array([[0.0, -1.0, 0.5], [1.0, 0.0, -0.2], [0, 0, 1.0]])
    out = reconstruct(np.zeros((5, 3)), g0, 0.1, retr)
    assert np.abs(out - g0[None]).max() == 0.0


def test_reconstruct_repeated_quarter_turns():
    h = 0.5
    retr = CayleyRetraction(groups.SO3)
    xi = np.tile(np.array([2.0 / h, 0, 0]), (4, 1))
    out = reconstruct(xi, np.eye(3), h, retr)
    for k in range(5):
        assert np.abs(out[k] - rot_x(k * np.pi / 2)).max() < 1e-12


def test_reconstruct_right_composition():
    retr = CayleyRetraction(groups.SO3)
    rng = np.random.default_rng(13)
    xi = rng.uniform(-1, 1, size=(4, 3))
    g0 = retr.tau(rng.uniform(-1, 1, size=3))
    out = reconstruct(xi, g0, 0.1, retr, RIGHT)
    g = g0.copy()
    for k in range(4):
        g = retr.tau(0.1 * xi[k]) @ g
        assert np.abs(out[k + 1] - g).max() < 1e-12


# -- stacked reconstruction and its drift test -------------------------------


def advance_loop(xi_nodes, g0, h, retr, trivialization=LEFT):
    """Reconstruction one node at a time: multiply, then project the node
    onto SO(3) when its drift ``max |g^T g - e|`` exceeds 1e-9.  Returns the
    nodes and the indices of the projected ones."""
    N = xi_nodes.shape[0]
    steps = retr.tau(h * xi_nodes)
    out = np.empty((N + 1, 3, 3))
    out[0] = g0
    projected = []
    for k in range(N):
        g = out[k] @ steps[k] if trivialization == LEFT else steps[k] @ out[k]
        if retr.group_tag == groups.SO3:
            if np.abs(np.swapaxes(g, -1, -2) @ g - np.eye(3)).max() > 1e-9:
                g = groups.so3_polar_project(g[None])[0]
                projected.append(k + 1)
        out[k + 1] = g
    return out, projected


class DriftingCayley(CayleyRetraction):
    """SO(3) Cayley steps scaled by ``1 + rate |xi_1|``: each step leaves the
    group by about ``rate |xi_1|``, so the drift of a product grows."""

    def __init__(self, rate):
        super().__init__(groups.SO3)
        self.rate = rate

    def tau(self, xi):
        return super().tau(xi) * (1.0 + self.rate * np.abs(xi[..., :1, None]))


def ball_xi_nodes(N, seed):
    """Algebra nodes of the ball fixture near its standard guess."""
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "ball_plate.json").read_text())
    prob, _ = cli.build_problem(cfg, N=N, h=cfg["N"] * cfg["h"] / N)
    retr = CayleyRetraction(groups.SO3)
    x0 = ocp.initial_guess(prob, retr)
    x = x0 + 0.02 * np.random.default_rng(seed).normal(size=x0.size)
    return ocp.scatter(prob, x).xi_nodes, prob, retr


def test_clean_ball_path_is_never_projected_and_equals_the_loop():
    xi, prob, retr = ball_xi_nodes(48, 0)
    want, projected = advance_loop(xi, prob.boundary.g0, prob.h, retr, prob.trivialization)
    assert projected == []
    got = reconstruct(xi, prob.boundary.g0, prob.h, retr, prob.trivialization)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("trivialization", [LEFT, RIGHT])
def test_a_path_whose_drift_crosses_the_trigger_equals_the_loop(trivialization):
    xi = np.random.default_rng(5).uniform(-1.0, 1.0, size=(30, 3))
    xi[:, 0] = 1.0
    retr = DriftingCayley(3.3e-10)
    want, projected = advance_loop(xi, np.eye(3), 0.1, retr, trivialization)
    assert projected and 5 < projected[0] < 25
    assert np.array_equal(reconstruct(xi, np.eye(3), 0.1, retr, trivialization), want)


@pytest.mark.parametrize("trivialization", [LEFT, RIGHT])
def test_a_stack_whose_paths_cross_at_different_nodes_equals_the_loop(trivialization):
    rng = np.random.default_rng(8)
    xi = rng.uniform(-1.0, 1.0, size=(3, 60, 3))
    xi[:, :, 0] = np.array([1.0, 0.6, 0.35])[:, None]
    g0 = CayleyRetraction(groups.SO3).tau(rng.uniform(-1.0, 1.0, size=3))
    retr = DriftingCayley(3.3e-10)
    got = reconstruct(xi, g0, 0.1, retr, trivialization)
    assert got.shape == (3, 61, 3, 3)
    firsts = set()
    for path, nodes in zip(xi, got):
        want, projected = advance_loop(path, g0, 0.1, retr, trivialization)
        assert np.array_equal(nodes, want)
        assert np.array_equal(reconstruct(path, g0, 0.1, retr, trivialization), want)
        firsts.add(projected[0])
    assert len(firsts) == 3


@pytest.mark.parametrize("tag,trivialization", [(groups.SE2, LEFT), (groups.SO3, RIGHT),
                                                (groups.SO3, LEFT)])
def test_stacked_reconstruction_equals_each_path_alone(tag, trivialization):
    rng = np.random.default_rng(21)
    retr = CayleyRetraction(tag)
    g0 = retr.tau(rng.uniform(-1.0, 1.0, size=3))
    xi = rng.uniform(-2.0, 2.0, size=(21, 40, 3))
    got = reconstruct(xi, g0, 0.1, retr, trivialization)
    for path, nodes in zip(xi, got):
        assert np.array_equal(nodes, reconstruct(path, g0, 0.1, retr, trivialization))
        assert np.array_equal(nodes, advance_loop(path, g0, 0.1, retr, trivialization)[0])


def test_drifted_is_the_renormalize_trigger():
    g = np.stack([np.eye(3), np.eye(3) * (1.0 + 4e-10), np.eye(3) * (1.0 + 6e-10)])
    assert groups.drifted(g).tolist() == [False, False, True]
    out = groups.renormalize(g, groups.SO3)
    assert np.array_equal(out[:2], g[:2])
    assert not np.array_equal(out[2], g[2])


# -- the checked product order -----------------------------------------------


@pytest.mark.parametrize("trivialization", [LEFT, RIGHT])
def test_composing_and_renormalizing_node_by_node_equals_the_loop(trivialization):
    """``compose`` spells the product order the reference loop spells for
    itself; renormalized node by node, the two agree bit for bit on a path
    that drifts past the projection trigger."""
    xi = np.random.default_rng(5).uniform(-1.0, 1.0, size=(30, 3))
    xi[:, 0] = 1.0
    retr = DriftingCayley(3.3e-10)
    want, projected = advance_loop(xi, np.eye(3), 0.1, retr, trivialization)
    assert projected
    steps = retr.tau(0.1 * xi)
    g = np.eye(3)
    for k in range(30):
        g = groups.renormalize(discrete.compose(g, steps[k], trivialization), groups.SO3)
        assert np.array_equal(g, want[k + 1])


@pytest.mark.parametrize("trivialization", ["Left", "RIGHT", "", None])
def test_an_unknown_trivialization_is_refused_where_the_product_is_formed(trivialization):
    """A misspelt trivialization used to give the right-trivialized
    products without complaint."""
    xi, prob, retr = ball_xi_nodes(12, 0)
    named = re.escape(repr(trivialization))
    with pytest.raises(ValueError, match=named):
        reconstruct(xi, prob.boundary.g0, prob.h, retr, trivialization)
    with pytest.raises(ValueError, match=named):
        ocp.initial_guess(dataclasses.replace(prob, trivialization=trivialization), retr)
    with pytest.raises(ValueError, match=named):
        discrete.compose(np.eye(3), retr.tau(xi[0]), trivialization)
