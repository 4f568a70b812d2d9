"""Retraction map tests: Cayley closed forms and the truncated exponential."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geovar import groups, retraction, solver
from geovar.errors import ConfigError, SingularRetractionError
from geovar.retraction import (
    CayleyRetraction,
    TruncExpRetraction,
    make_retraction,
)

TAGS = (groups.SE2, groups.SO3)

unit_ball3 = st.lists(
    st.floats(-0.57, 0.57, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)


def rot_x(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])


# -- tau ---------------------------------------------------------------------


def test_tau_at_zero_is_identity():
    for tag in TAGS:
        assert np.array_equal(CayleyRetraction(tag).tau(np.zeros(3)), np.eye(3))
        assert np.array_equal(
            TruncExpRetraction(tag, 3).tau(np.zeros(3)), np.eye(3)
        )


@settings(max_examples=50, deadline=None)
@given(xi=unit_ball3, tag=st.sampled_from(TAGS))
def test_tau_of_minus_xi_is_the_inverse(xi, tag):
    retr = CayleyRetraction(tag)
    xi = np.asarray(xi)
    assert np.abs(retr.tau(xi) @ retr.tau(-xi) - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["one", "stack"])
def test_kernels_return_fresh_arrays_over_a_read_only_identity(tag, shape):
    """The kernels add to ``groups.EYE3``, which rejects writes; what they
    return is a new array the caller may update in place."""
    retr = CayleyRetraction(tag)
    with pytest.raises(ValueError):
        retraction.groups.EYE3 += 1.0
    xi = np.random.default_rng(5).uniform(-0.5, 0.5, size=shape)
    for out in (retr.tau(xi), retr.dtau_matrix(xi), retr.dtau_inv_matrix(xi),
                retr.tau(np.zeros(shape)), TruncExpRetraction(tag, 3).tau(xi)):
        assert out.flags.writeable
        out += 1.0
    assert np.array_equal(retr.tau(np.zeros(3)), np.eye(3))


def test_so3_cayley_of_2e1_is_quarter_turn():
    # rotation angle 2 arctan(|omega| / 2) = pi/2 for |omega| = 2
    g = CayleyRetraction(groups.SO3).tau(np.array([2.0, 0, 0]))
    assert np.allclose(g, rot_x(np.pi / 2), atol=1e-14)


def test_se2_cayley_closed_form_entries():
    rng = np.random.default_rng(0)
    retr = CayleyRetraction(groups.SE2)
    for _ in range(20):
        v1, v2, v3 = rng.uniform(-2, 2, size=3)
        den = 4.0 + v1 * v1
        expected = np.array(
            [
                [(4 - v1 * v1) / den, -4 * v1 / den, (-2 * v1 * v3 + 4 * v2) / den],
                [4 * v1 / den, (4 - v1 * v1) / den, (2 * v1 * v2 + 4 * v3) / den],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(retr.tau(np.array([v1, v2, v3])), expected, atol=1e-15)


def test_cayley_so3_output_is_orthogonal_for_all_inputs():
    rng = np.random.default_rng(1)
    retr = CayleyRetraction(groups.SO3)
    for scale in (0.1, 1.0, 10.0, 1000.0):
        g = retr.tau(scale * rng.normal(size=(50, 3)))
        assert np.abs(np.swapaxes(g, -1, -2) @ g - np.eye(3)).max() < 1e-12
        assert np.abs(np.linalg.det(g) - 1.0).max() < 1e-12


# -- tau_inv -----------------------------------------------------------------


def test_tau_inv_identity_is_zero():
    for tag in TAGS:
        assert np.allclose(CayleyRetraction(tag).tau_inv(np.eye(3)), np.zeros(3))


def test_tau_inv_round_trip_random():
    rng = np.random.default_rng(2)
    for tag in TAGS:
        retr = CayleyRetraction(tag)
        xi = rng.uniform(-1, 1, size=(100, 3))
        xi *= (rng.uniform(0, 1, size=(100, 1)) / np.linalg.norm(xi, axis=1, keepdims=True))
        assert np.abs(retr.tau_inv(retr.tau(xi)) - xi).max() < 1e-10
        assert np.abs(retr.tau(retr.tau_inv(retr.tau(xi))) - retr.tau(xi)).max() < 1e-10
    # SO(3) rotations just inside the guard's angle bound, where
    # cond(e + g) = 1/cos(theta/2) is about 1e6, still invert accurately
    retr = CayleyRetraction(groups.SO3)
    axes = rng.standard_normal((100, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    xi = 2.0 * np.tan(0.5 * (np.pi - 2e-6)) * axes
    assert np.abs(retr.tau_inv(retr.tau(xi)) - xi).max() <= 1e-9 * np.abs(xi).max()


def test_so3_tau_inv_of_quarter_turn():
    out = CayleyRetraction(groups.SO3).tau_inv(rot_x(np.pi / 2))
    assert np.allclose(out, [2.0, 0, 0], atol=1e-12)


def test_tau_inv_singularity_guard_names_step_size():
    for tag, g in (
        (groups.SO3, rot_x(np.pi - 1e-8)),
        (groups.SE2, np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]])),
        # one rotation past the bound rejects the whole stack
        (groups.SO3, np.stack([np.eye(3), rot_x(1.0), rot_x(np.pi - 1e-8)])),
    ):
        with pytest.raises(SingularRetractionError, match="smaller step h"):
            CayleyRetraction(tag).tau_inv(g)


def test_se2_tau_inv_round_trip_far_from_the_identity():
    # cond(e + g) grows like |t|^2 / 4 in SE(2), but the inverse is
    # closed-form: a large translation is no singularity
    retr = CayleyRetraction(groups.SE2)
    for xi in ([0.0, 1e5, 0.0], [0.7, -1e5, 3e4]):
        xi = np.array(xi)
        back = retr.tau_inv(retr.tau(xi))
        assert np.abs(back - xi).max() <= 1e-12 * np.abs(xi).max()


def test_trunc_exp_inverse_round_trip():
    rng = np.random.default_rng(3)
    for tag in TAGS:
        retr = TruncExpRetraction(tag, 4)
        for _ in range(10):
            xi = 0.3 * rng.normal(size=3)
            assert np.abs(retr.tau_inv(retr.tau(xi)) - xi).max() < 1e-10


TRUNC_EXP_CASES = [(tag, order) for tag in TAGS for order in (2, 4, 6)]


@pytest.mark.parametrize("tag,order", TRUNC_EXP_CASES)
def test_trunc_exp_inverse_of_a_stack_equals_per_element_calls(tag, order):
    retr = TruncExpRetraction(tag, order)
    xi = 0.4 * np.random.default_rng(order).normal(size=(2, 5, 3))
    g = retr.tau(xi)
    stacked = retr.tau_inv(g)
    assert stacked.shape == (2, 5, 3)
    for idx in np.ndindex(2, 5):
        one = retr.tau_inv(g[idx])
        assert one.shape == (3,)
        assert np.array_equal(stacked[idx], one)


@pytest.mark.parametrize("tag,order", TRUNC_EXP_CASES)
def test_trunc_exp_inverse_calls_tau_once_per_iteration(tag, order, monkeypatch):
    retr = TruncExpRetraction(tag, order)
    g = retr.tau(0.4 * np.random.default_rng(0).normal(size=(2, 5, 3)))
    real_newton, real_tau = solver.newton_stack, retr.tau
    iterations, tau_calls = [], []

    def newton(*args):
        x, it = real_newton(*args)
        iterations.append(it)
        return x, it

    def tau(xi):
        tau_calls.append(xi.shape)
        return real_tau(xi)

    monkeypatch.setattr(solver, "newton_stack", newton)
    monkeypatch.setattr(retr, "tau", tau)
    retr.tau_inv(g)
    assert len(iterations) == 1
    # one call per Newton step plus the call that finds the stack converged
    assert len(tau_calls) == iterations[0] + 1
    assert set(tau_calls) == {(2, 5, 7, 3)}


@pytest.mark.parametrize("tag,order", TRUNC_EXP_CASES)
def test_trunc_exp_inverse_that_does_not_converge_raises(tag, order):
    retr = TruncExpRetraction(tag, order)
    g = retr.tau(0.4 * np.random.default_rng(1).normal(size=(4, 3)))
    g[2, 1, 0] = np.nan  # its residual never falls below the tolerance
    with pytest.raises(SingularRetractionError, match="did not converge"):
        retr.tau_inv(g)


# -- tangent maps ------------------------------------------------------------


def test_dtau_at_zero_is_identity():
    eta = np.array([0.3, -0.2, 0.9])
    for tag in TAGS:
        assert np.allclose(CayleyRetraction(tag).dtau(np.zeros(3), eta), eta)


def test_dtau_and_dtau_inv_are_mutually_inverse():
    rng = np.random.default_rng(4)
    for tag in TAGS:
        for retr in (CayleyRetraction(tag), TruncExpRetraction(tag, 4)):
            for _ in range(30):
                xi, eta = rng.normal(size=(2, 3))
                out = retr.dtau_inv(xi, retr.dtau(xi, eta))
                assert np.abs(out - eta).max() < 1e-12


def test_so3_dtau_inv_closed_form_example():
    out = CayleyRetraction(groups.SO3).dtau_inv(
        np.array([2.0, 0, 0]), np.array([0.0, 1.0, 0])
    )
    assert np.allclose(out, [0.0, 1.0, -1.0], atol=1e-14)


def _fd_tangent_defect(retr, xi, eta, eps=1e-5):
    """Defect of d/ds tau(xi + s eta) = hat(dtau_xi eta) tau(xi)."""
    lhs = (retr.tau(xi + eps * eta) - retr.tau(xi - eps * eta)) / (2 * eps)
    rhs = groups.hat(retr.dtau(xi, eta), retr.group_tag) @ retr.tau(xi)
    return np.abs(lhs - rhs).max()


def test_dtau_matches_finite_difference_directional_derivative():
    rng = np.random.default_rng(5)
    for tag in TAGS:
        retr = CayleyRetraction(tag)
        for _ in range(50):
            xi, eta = rng.uniform(-1, 1, size=(2, 3))
            assert _fd_tangent_defect(retr, xi, eta) < 1e-6 * max(
                1.0, np.linalg.norm(eta)
            )


def test_dtau_inv_matches_finite_difference_of_tau_inv():
    """d/ds tau^-1(tau(xi) exp-step) pulled back: dtau_inv equals the FD
    derivative of tau^-1 along the curve s -> hat(s eta)-perturbed endpoint."""
    eps = 1e-5
    rng = np.random.default_rng(6)
    for tag in TAGS:
        retr = CayleyRetraction(tag)
        for _ in range(30):
            xi = rng.uniform(-1, 1, size=3)
            g = retr.tau(xi)
            # FD Jacobian of tau^-1 along trivialized directions
            J_fd = np.empty((3, 3))
            for j, ej in enumerate(np.eye(3)):
                hp = groups.hat(retr.dtau(xi, ej), tag)
                gp = (np.eye(3) + eps * hp) @ g
                gm = (np.eye(3) - eps * hp) @ g
                # re-orthogonalize only through tau_inv's own tolerance
                J_fd[:, j] = (retr.tau_inv(gp) - retr.tau_inv(gm)) / (2 * eps)
            # J_fd maps eta -> d tau^-1, which must be the identity when
            # composed with dtau; equivalently J_fd ~= dtau_inv . dtau = I
            assert np.abs(J_fd - np.eye(3)).max() < 1e-4


def test_dtau_inv_star_pairing_identity():
    rng = np.random.default_rng(7)
    for tag in TAGS:
        retr = CayleyRetraction(tag)
        for _ in range(100):
            xi, mu, eta = rng.normal(size=(3, 3))
            lhs = float(retr.dtau_inv_star(xi, mu) @ eta)
            rhs = float(mu @ retr.dtau_inv(xi, eta))
            assert abs(lhs - rhs) < 1e-12


def test_so3_dtau_inv_star_is_matrix_transpose():
    rng = np.random.default_rng(8)
    retr = CayleyRetraction(groups.SO3)
    for _ in range(20):
        xi, mu = rng.normal(size=(2, 3))
        M = retr.dtau_inv_matrix(xi)
        assert np.allclose(retr.dtau_inv_star(xi, mu), M.T @ mu, atol=1e-15)


def _project(M, tag):
    """The linear coordinates the truncated-exponential inverse solves in."""
    return TruncExpRetraction(tag, 1)._project(M)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("order", [2, 4, 6])
def test_trunc_exp_dtau_inv_is_the_tangent_of_its_inverse(tag, order):
    """Column j is the rate at which ``tau_inv`` moves when ``tau(xi)`` moves
    along ``hat(e_j) tau(xi)``, differenced centrally."""
    eps = 1e-5
    retr = TruncExpRetraction(tag, order)
    for xi in np.random.default_rng(order).uniform(-0.5, 0.5, size=(10, 3)):
        g = retr.tau(xi)
        J_fd = np.empty((3, 3))
        for j, ej in enumerate(np.eye(3)):
            hp = groups.hat(ej, tag)
            J_fd[:, j] = (
                retr.tau_inv((np.eye(3) + eps * hp) @ g)
                - retr.tau_inv((np.eye(3) - eps * hp) @ g)
            ) / (2 * eps)
        assert np.abs(J_fd - retr.dtau_inv_matrix(xi)).max() < 1e-6


@pytest.mark.parametrize("tag", TAGS)
def test_dtau_matrix_matches_a_central_difference_of_tau(tag):
    """``P(d/ds tau(xi + s eta)) = P(hat(dtau_xi eta) tau(xi))`` in the
    coordinates ``P`` of the inverse, for both retractions.  (Cayley meets
    it unprojected too; the truncated exponential leaves the group.)"""
    eps = 1e-5
    rng = np.random.default_rng(12)
    for retr in (CayleyRetraction(tag), TruncExpRetraction(tag, 4)):
        for xi, eta in rng.uniform(-0.8, 0.8, size=(20, 2, 3)):
            diff = (retr.tau(xi + eps * eta) - retr.tau(xi - eps * eta)) / (2 * eps)
            rhs = groups.hat(retr.dtau(xi, eta), tag) @ retr.tau(xi)
            assert np.abs(_project(diff, tag) - _project(rhs, tag)).max() < 1e-9


# -- covector maps -----------------------------------------------------------


def _covector_cases(tag, shape, seed):
    """Random ``(xi, mu)`` stacks, ``|xi|`` spread from 1e-3 to 30."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** rng.uniform(-3.0, 1.5, size=shape[:-1] + (1,))
    return size * rng.standard_normal(shape), rng.standard_normal(shape)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("shape", [(200, 3), (4, 50, 3)], ids=["rows", "stack"])
def test_cayley_covector_maps_equal_their_matrix_forms(tag, shape):
    """The closed-form pull-back and transport apply ``dtau_inv_matrix^T``
    and ``Ad_matrix(tau)^T`` to round-off, row by row.  The SE(2) forms add
    the same products in the same order, so they give the matrix form's
    bits."""
    retr = CayleyRetraction(tag)
    xi, mu = _covector_cases(tag, shape, 13)
    for closed, M in ((retr.dtau_inv_star, retr.dtau_inv_matrix(xi)),
                      (retr.transport, groups.Ad_matrix(retr.tau(xi), tag))):
        want = np.einsum("...ji,...j->...i", M, mu)
        got = closed(xi, mu)
        assert got.shape == shape
        if tag == groups.SE2:
            assert np.array_equal(got, want)
        scale = np.abs(M).max(axis=(-2, -1)) * np.abs(mu).sum(axis=-1)
        assert np.all(np.abs(got - want).max(axis=-1) <= 1e-15 * scale)


@pytest.mark.parametrize("tag", TAGS)
def test_covector_maps_of_a_stack_equal_lone_calls(tag):
    xi, mu = _covector_cases(tag, (3, 7, 3), 14)
    for retr in (CayleyRetraction(tag), TruncExpRetraction(tag, 4)):
        xs = 0.1 * xi if isinstance(retr, TruncExpRetraction) else xi
        for fn in (retr.dtau_inv_star, retr.transport):
            stacked = fn(xs, mu)
            for idx in np.ndindex(3, 7):
                one = fn(xs[idx], mu[idx])
                assert one.shape == (3,)
                assert np.array_equal(stacked[idx], one)


@pytest.mark.parametrize("tag", TAGS)
def test_cayley_transport_of_a_pull_back_is_the_pull_back_at_minus_xi(tag):
    """``Ad*_{cay(xi)} (dcay^-1_xi)* S = (dcay^-1_{-xi})* S``: the transport
    checked against the pull-back alone, with no Ad matrix."""
    retr = CayleyRetraction(tag)
    xi, S = _covector_cases(tag, (500, 3), 15)
    lhs = retr.transport(xi, retr.dtau_inv_star(xi, S))
    rhs = retr.dtau_inv_star(-xi, S)
    scale = np.abs(retr.dtau_inv_matrix(xi)).max(axis=(-2, -1)) * np.abs(S).sum(axis=-1)
    assert np.all(np.abs(lhs - rhs).max(axis=-1) <= 2e-15 * scale)


def test_base_transport_applies_the_ad_matrix_of_tau():
    """A retraction without a closed form transports through ``Ad_matrix``."""
    rng = np.random.default_rng(16)
    for tag in TAGS:
        retr = TruncExpRetraction(tag, 4)
        xi, mu = 0.3 * rng.standard_normal((2, 5, 3))
        Ad = groups.Ad_matrix(retr.tau(xi), tag)
        want = np.stack([Ad[b].T @ mu[b] for b in range(5)])
        assert np.allclose(retr.transport(xi, mu), want, rtol=0, atol=1e-15)


# -- construction ------------------------------------------------------------


def test_trunc_exp_rejects_nonpositive_order():
    with pytest.raises(ConfigError):
        TruncExpRetraction(groups.SO3, 0)


def test_make_retraction_parsing():
    assert isinstance(make_retraction("cayley", groups.SE2), CayleyRetraction)
    r = make_retraction("exp3", groups.SO3)
    assert isinstance(r, TruncExpRetraction) and r.order == 3
    with pytest.raises(ConfigError):
        make_retraction("expfoo", groups.SO3)
    with pytest.raises(ConfigError):
        make_retraction("polar", groups.SO3)


def test_trunc_exp_agrees_with_cayley_to_second_order():
    # both maps share the expansion e + X + X^2/2 + O(X^3)
    rng = np.random.default_rng(9)
    for tag in TAGS:
        cay = CayleyRetraction(tag)
        texp = TruncExpRetraction(tag, 6)
        for scale in (1e-1, 1e-2):
            xi = scale * rng.normal(size=3)
            diff = np.abs(cay.tau(xi) - texp.tau(xi)).max()
            assert diff < 2.0 * scale**3
