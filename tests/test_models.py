"""Model tests: planar vehicle, rolling ball, free rigid body."""

import numpy as np
import pytest

from geovar import groups, models, ocp
from geovar.errors import ConfigError
from geovar.models import (
    BallPlateParams,
    FreeRigidBody,
    Se2VehicleParams,
    ball_continuous_residual,
    ball_controlled_system,
    ball_phi,
    ball_plate_problem,
    free_rigid_body_model,
    se2_controlled_system,
    se2_covector_basis,
    se2_raw_rows,
    se2_reduced_lagrangian,
    se2_vehicle_problem,
)
from geovar.ocp import BoundaryData, reduce_to_variational


def se2_boundary():
    return BoundaryData(
        q0=np.zeros(1), dq0=np.zeros(1), qT=np.zeros(1), dqT=np.zeros(1),
        xi0=np.zeros(3), xiT=np.zeros(3), g0=np.eye(3), gT=np.eye(3),
    )


def ball_boundary():
    return BoundaryData(
        q0=np.zeros(2), dq0=np.zeros(2), qT=np.zeros(2), dqT=np.zeros(2),
        xi0=np.zeros(3), xiT=np.zeros(3), g0=np.eye(3), gT=np.eye(3),
    )


def random_args(rng, B, n):
    return (
        rng.normal(size=(B, n)), rng.normal(size=(B, n)),
        rng.normal(size=(B, n)), rng.normal(size=(B, 3)),
        rng.normal(size=(B, 3)),
    )


# -- parameter validation ----------------------------------------------------


def test_vehicle_params_validated():
    with pytest.raises(ConfigError, match="p"):
        Se2VehicleParams(p=0.0)
    with pytest.raises(ConfigError, match="J1"):
        Se2VehicleParams(J1=-1.0)


def test_ball_params_validated():
    with pytest.raises(ConfigError, match="r"):
        BallPlateParams(r=0.0)
    with pytest.raises(ConfigError, match="k2"):
        BallPlateParams(k2=-0.1)


def test_rigid_body_inertia_validated():
    with pytest.raises(ConfigError, match="inertia"):
        FreeRigidBody(inertia=np.array([1.0, -2.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_rigid_body_inertia_must_be_finite(bad):
    """A NaN entry passes an ``inertia <= 0`` test; it and inf must not build."""
    with pytest.raises(ConfigError, match="inertia"):
        FreeRigidBody(inertia=np.array([1.0, bad, 3.0]))


# -- vehicle closed forms ----------------------------------------------------


def test_vehicle_rest_state_is_trivial():
    prob = se2_vehicle_problem(Se2VehicleParams(), se2_boundary(), 8, 0.1)
    z1, z3 = np.zeros((1, 1)), np.zeros((1, 3))
    assert np.abs(prob.phi(z1, z1, z1, z3, z3)).max() == 0.0
    assert prob.ltilde(z1, z1, z1, z3, z3)[0] == 0.0


def test_vehicle_first_constraint_spot_value():
    P = Se2VehicleParams()
    prob = se2_vehicle_problem(P, se2_boundary(), 8, 0.1)
    xi = np.zeros((1, 3))
    xi[0, 1] = 1.0  # model label xi1 (body-frame forward rate)
    xi[0, 0] = 1.0  # model label xi3 (rotation rate)
    z1, z3 = np.zeros((1, 1)), np.zeros((1, 3))
    out = prob.phi(z1, z1, z1, xi, z3)
    assert abs(out[0, 0] - (-P.m + P.J1 + P.J2)) < 1e-14


def test_vehicle_cost_spot_value():
    P = Se2VehicleParams(rho2=0.7)
    prob = se2_vehicle_problem(P, se2_boundary(), 8, 0.1)
    a, b = 0.9, -0.4
    dxi = np.zeros((1, 3))
    dxi[0, 0] = a  # model label dxi3
    ddq = np.array([[b]])
    z1, z3 = np.zeros((1, 1)), np.zeros((1, 3))
    out = prob.ltilde(z1, z1, ddq, z3, dxi)
    assert abs(out[0] - P.rho2 * P.J2**2 * (a + b) ** 2) < 1e-14


def test_vehicle_hand_coded_matches_generic_route():
    P = Se2VehicleParams()
    hand = se2_vehicle_problem(P, se2_boundary(), 8, 0.1)
    generic = reduce_to_variational(se2_controlled_system(P), se2_boundary(), 8, 0.1)
    rng = np.random.default_rng(0)
    args = random_args(rng, 100, 1)
    assert np.abs(hand.ltilde(*args) - generic.ltilde(*args)).max() < 1e-10
    assert np.abs(hand.phi(*args) - generic.phi(*args)).max() < 1e-10


def test_vehicle_elimination_identities():
    """Contracting the closed-form equation rows with the adapted covector
    basis reproduces the hand-coded constraints and control expressions."""
    P = Se2VehicleParams()
    rng = np.random.default_rng(1)
    q, dq, ddq, xi, dxi = random_args(rng, 50, 1)
    E = se2_raw_rows(P)(q, dq, ddq, xi, dxi)  # columns (gamma, rot, tx, ty)
    g = q[:, 0]
    cg, sg = np.cos(g), np.sin(g)
    prob = se2_vehicle_problem(P, se2_boundary(), 8, 0.1)
    phi = prob.phi(q, dq, ddq, xi, dxi)
    assert np.abs(phi[:, 0] - (cg * E[:, 3] - sg * E[:, 2])).max() < 1e-9
    assert np.abs(phi[:, 1] - (E[:, 1] / P.p + E[:, 3])).max() < 1e-9
    u1, u2 = models.se2_controls(P, q, dq, ddq, xi, dxi)
    assert np.abs(u1 - (cg * E[:, 2] + sg * E[:, 3])).max() < 1e-9
    assert np.abs(u2 - E[:, 0]).max() < 1e-9


def test_vehicle_covector_basis_is_dual_consistent():
    P = Se2VehicleParams()
    actuated, unactuated = se2_covector_basis(P)
    rng = np.random.default_rng(2)
    q = rng.normal(size=(30, 1))
    B = np.concatenate([actuated(q), unactuated(q)], axis=1)
    assert np.all(np.linalg.cond(B) < 1e3)


def _zero_control_power(rows, ell, q, dq, xi):
    """``dE/dt = dl/d(dgamma) . ddgamma + dl/dxi . dxi`` along the free
    motion ``rows(q, dq, ddq, xi, dxi) = 0`` of the kinetic Lagrangian
    ``ell`` (no ``gamma`` dependence, so ``E = l``).

    The rows are affine in ``(ddq, dxi)``: 5 evaluations give the 4x4
    system for the accelerations.  ``l`` is quadratic, so a central
    difference along them is its exact directional derivative.
    """
    B = q.shape[0]

    def at(a):
        return rows(q, dq, np.tile(a[:1], (B, 1)), xi, np.tile(a[1:], (B, 1)))

    r0 = at(np.zeros(4))
    A = np.stack([at(e) - r0 for e in np.eye(4)], axis=-1)
    acc = np.linalg.solve(A, -r0[..., None])[..., 0]
    ddq, dxi = acc[:, :1], acc[:, 1:]
    eps = 1e-3
    return (ell(q, dq + eps * ddq, xi + eps * dxi)
            - ell(q, dq - eps * ddq, xi - eps * dxi)) / (2 * eps)


def test_vehicle_closed_form_rows_do_not_conserve_energy():
    """With zero control the Euler-Poincare rows of the reduced Lagrangian
    keep its energy (to the nested-difference error, 6e-3 worst case); the
    shipped closed-form rows differ in three coupling terms and do not
    (14.9 worst case)."""
    P = Se2VehicleParams()
    ell = se2_reduced_lagrangian(P)
    rng = np.random.default_rng(0)
    q, dq, xi = (rng.standard_normal((50, d)) for d in (1, 1, 3))
    closed = _zero_control_power(se2_raw_rows(P), ell, q, dq, xi)

    def derived_rows(*args):
        return ocp.controlled_rows_from_lagrangian(ell, *args, groups.SE2)

    derived = _zero_control_power(derived_rows, ell, q, dq, xi)
    assert np.abs(closed).max() > 1.0
    assert np.abs(derived).max() < 0.05


def test_vehicle_analytic_gradients_match_finite_differences():
    P = Se2VehicleParams()
    prob = se2_vehicle_problem(P, se2_boundary(), 8, 0.1)
    _check_gradients(prob, n=1, seed=3)


# -- ball closed forms -------------------------------------------------------


def test_ball_rest_state_is_trivial():
    prob = ball_plate_problem(BallPlateParams(), ball_boundary(), 8, 0.1)
    z2, z3 = np.zeros((1, 2)), np.zeros((1, 3))
    assert np.abs(prob.phi(z2, z2, z2, z3, z3)).max() == 0.0
    assert prob.ltilde(z2, z2, z2, z3, z3)[0] == 0.0


def test_ball_first_constraint_spot_value():
    P = BallPlateParams(omega=0.0)
    phi = ball_phi(P)
    q = np.zeros((1, 2))
    dq = np.array([[0.0, P.r]])  # dy = r
    out = phi(q, dq, np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 3)))
    assert abs(out[0, 0] - 1.0) < 1e-14


def test_ball_cost_spot_value():
    prob = ball_plate_problem(BallPlateParams(), ball_boundary(), 8, 0.1)
    ddq = np.array([[1.0, 0.0]])
    z2, z3 = np.zeros((1, 2)), np.zeros((1, 3))
    out = prob.ltilde(z2, z2, ddq, z3, z3)
    assert abs(out[0] - 0.5) < 1e-14


def test_ball_hand_coded_matches_generic_route():
    P = BallPlateParams()
    hand = ball_plate_problem(P, ball_boundary(), 8, 0.1)
    generic = reduce_to_variational(
        ball_controlled_system(P), ball_boundary(), 8, 0.1,
        trivialization="right",
    )
    rng = np.random.default_rng(4)
    args = random_args(rng, 100, 2)
    assert np.abs(hand.ltilde(*args) - generic.ltilde(*args)).max() < 1e-10
    assert np.abs(hand.phi(*args) - generic.phi(*args)).max() < 1e-10


def test_ball_analytic_gradients_match_finite_differences():
    prob = ball_plate_problem(BallPlateParams(omega=1.3), ball_boundary(), 8, 0.1)
    _check_gradients(prob, n=2, seed=5)


def test_ball_uses_right_trivialization_by_default():
    prob = ball_plate_problem(BallPlateParams(), ball_boundary(), 8, 0.1)
    assert prob.trivialization == "right"


# -- ball continuous reference equations -------------------------------------


def test_ball_continuous_residual_zero_state():
    P = BallPlateParams(omega=0.0)
    res = ball_continuous_residual(
        np.zeros(5), np.zeros(5), np.zeros(3), np.zeros(3),
        np.zeros(3), np.zeros(3), P,
    )
    assert np.abs(res).max() == 0.0


def test_ball_vertical_spin_row_matches_discrete_constraint():
    """The last continuous row and the third discrete constraint both read
    the time derivative of the vertical angular velocity."""
    P = BallPlateParams()
    rng = np.random.default_rng(7)
    domega = rng.normal(size=3)
    res = ball_continuous_residual(
        rng.normal(size=5), rng.normal(size=5), rng.normal(size=3),
        domega, rng.normal(size=3), rng.normal(size=3), P,
    )
    assert res[7] == domega[2]
    phi = ball_phi(P)
    out = phi(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)),
              np.zeros((1, 3)), domega[None, :])
    assert out[0, 2] == domega[2]


def test_ball_rolling_constraint_rows_match_discrete_constraints():
    P = BallPlateParams(omega=0.6)
    rng = np.random.default_rng(8)
    x, dx = rng.normal(size=2)
    y, dy = rng.normal(size=2)
    w = rng.normal(size=3)
    res = ball_continuous_residual(
        np.array([x, dx, 0, 0, 0]), np.array([y, dy, 0, 0, 0]),
        w, np.zeros(3), np.zeros(3), np.zeros(3), P,
    )
    phi = ball_phi(P)
    out = phi(np.array([[x, y]]), np.array([[dx, dy]]), np.zeros((1, 2)),
              w[None, :], np.zeros((1, 3)))
    assert abs(res[5] - out[0, 0]) < 1e-14
    assert abs(res[6] - out[0, 1]) < 1e-14


# -- free rigid body ---------------------------------------------------------


def test_identity_inertia_constant_path_is_a_solution():
    from geovar.discrete import dep_residual
    from geovar.retraction import CayleyRetraction

    body = free_rigid_body_model([1.0, 1.0, 1.0])
    retr = CayleyRetraction(groups.SO3)
    h = 0.05
    xi = np.tile(np.array([0.2, -0.4, 0.1]), (12, 1))
    res = dep_residual(body.lhat_grad(h), xi, h, retr)
    assert np.abs(res).max() < 1e-13


def test_rigid_body_energy_quadratic_form():
    body = free_rigid_body_model([1.0, 2.0, 3.0])
    xi = np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 0.0]])
    assert np.allclose(body.energy(xi), [3.0, 4.0])


# -- shared gradient checker -------------------------------------------------


def _check_gradients(prob, n, seed, tol=1e-6):
    rng = np.random.default_rng(seed)
    B = 10
    args = list(random_args(rng, B, n))
    gl = prob.d_ltilde(*args)
    gp = prob.d_phi(*args)
    eps = 1e-7
    for slot in range(5):
        width = args[slot].shape[1]
        for c in range(width):
            hi = [a.copy() for a in args]
            lo = [a.copy() for a in args]
            hi[slot][:, c] += eps
            lo[slot][:, c] -= eps
            fd_l = (prob.ltilde(*hi) - prob.ltilde(*lo)) / (2 * eps)
            assert np.abs(gl[slot][:, c] - fd_l).max() < tol
            fd_p = (prob.phi(*hi) - prob.phi(*lo)) / (2 * eps)
            assert np.abs(gp[slot][:, :, c] - fd_p).max() < tol
