"""Group/algebra kernel tests for SE(2) and SO(3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geovar import groups
from geovar.errors import AlgebraShapeError, GroupInvariantError, TagMismatchError
from geovar.groups import Ad_matrix, ad_matrix, check_matrix, hat, inverse_matrix, vee
from geovar.retraction import CayleyRetraction

TAGS = (groups.SE2, groups.SO3)

coord3 = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
)


def rot_x(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def se2_element(theta, x, y):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, x], [s, c, y], [0, 0, 1.0]])


def random_element(rng, tag):
    retr = CayleyRetraction(tag)
    return retr.tau(rng.uniform(-1.0, 1.0, size=3))


# -- hat / vee ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(v=coord3, tag=st.sampled_from(TAGS))
def test_vee_hat_round_trip_is_exact(v, tag):
    v = np.asarray(v)
    assert np.array_equal(vee(hat(v, tag), tag), v)


@settings(max_examples=50, deadline=None)
@given(u=coord3, v=coord3, a=st.floats(-5, 5), b=st.floats(-5, 5),
       tag=st.sampled_from(TAGS))
def test_hat_is_linear(u, v, a, b, tag):
    u, v = np.asarray(u), np.asarray(v)
    lhs = hat(a * u + b * v, tag)
    rhs = a * hat(u, tag) + b * hat(v, tag)
    assert np.allclose(lhs, rhs, atol=1e-12)


def hat_by_entries(v, tag):
    """hat written entry by entry: the six SO(3) and four SE(2) entries."""
    X = np.zeros(v.shape[:-1] + (3, 3))
    if tag == groups.SO3:
        X[..., 0, 1] = -v[..., 2]
        X[..., 0, 2] = v[..., 1]
        X[..., 1, 0] = v[..., 2]
        X[..., 1, 2] = -v[..., 0]
        X[..., 2, 0] = -v[..., 1]
        X[..., 2, 1] = v[..., 0]
    else:
        X[..., 0, 1] = -v[..., 0]
        X[..., 0, 2] = v[..., 1]
        X[..., 1, 0] = v[..., 0]
        X[..., 1, 2] = v[..., 2]
    return X


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("shape", [(3,), (1, 3), (7, 3), (2, 5, 3), (0, 3)])
def test_hat_equals_its_entries_bit_for_bit(tag, shape):
    """Signed zeros, infinities and NaNs included; the result is a new
    C-ordered array of its own."""
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1e308]
    v = rng.choice(special + list(rng.standard_normal(8)), size=shape)
    got = hat(v, tag)
    want = hat_by_entries(v, tag)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous and got.flags.owndata


def test_hat_rejects_a_wrong_trailing_dimension():
    with pytest.raises(AlgebraShapeError):
        hat(np.zeros((2, 4)), groups.SO3)


def test_se2_hat_layout():
    v = np.array([1.0, 2.0, 3.0])  # (rotation, tx, ty)
    expected = np.array([[0, -1, 2], [1, 0, 3], [0, 0, 0]], dtype=float)
    assert np.array_equal(hat(v, groups.SE2), expected)


def test_so3_hat_basis_element():
    expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.array_equal(hat(np.array([1.0, 0, 0]), groups.SO3), expected)


def test_vee_rejects_matrix_outside_algebra():
    with pytest.raises(AlgebraShapeError):
        vee(np.eye(3), groups.SO3)
    bad = np.zeros((3, 3))
    bad[2, 0] = 1.0  # nonzero bottom row
    with pytest.raises(AlgebraShapeError):
        vee(bad, groups.SE2)


# -- inverse / validation ----------------------------------------------------


def test_compose_identity_and_inverse_cases():
    for tag in TAGS:
        g = random_element(np.random.default_rng(0), tag)
        assert np.allclose(g @ inverse_matrix(g, tag), np.eye(3), atol=1e-12)
        assert np.allclose(inverse_matrix(g, tag) @ g, np.eye(3), atol=1e-12)


def test_so3_inverse_is_transpose():
    assert np.allclose(inverse_matrix(rot_x(0.7), groups.SO3), rot_x(-0.7), atol=1e-14)


def test_se2_closed_form_inverse():
    g = se2_element(0.0, 1.0, 2.0)
    assert np.allclose(
        inverse_matrix(g, groups.SE2), se2_element(0.0, -1.0, -2.0), atol=1e-14
    )


def test_unknown_group_tag_is_rejected():
    with pytest.raises(TagMismatchError):
        hat(np.zeros(3), "SE3")


def test_group_element_validation():
    with pytest.raises(GroupInvariantError):
        check_matrix(2.0 * np.eye(3), groups.SO3)
    bad = np.eye(3)
    bad[2, 0] = 0.5
    with pytest.raises(GroupInvariantError):
        check_matrix(bad, groups.SE2)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (5, 2, 2)])
def test_a_matrix_of_the_wrong_shape_is_refused_naming_the_shape(tag, shape):
    with pytest.raises(GroupInvariantError, match=r"expected trailing shape \(3, 3\)"):
        check_matrix(np.ones(shape), tag)


# -- bracket structure -------------------------------------------------------


def bracket(u, v, tag):
    return vee(hat(u, tag) @ hat(v, tag) - hat(v, tag) @ hat(u, tag), tag)


def test_se2_structure_constants():
    e = np.eye(3)
    assert np.allclose(bracket(e[0], e[1], groups.SE2), e[2])
    assert np.allclose(bracket(e[0], e[2], groups.SE2), -e[1])
    assert np.allclose(bracket(e[1], e[2], groups.SE2), np.zeros(3))


def test_so3_bracket_is_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(bracket(u, v, groups.SO3), np.cross(u, v), atol=1e-12)


def test_jacobi_identity_both_algebras():
    rng = np.random.default_rng(2)
    for tag in TAGS:
        for _ in range(20):
            u, v, w = rng.normal(size=(3, 3))
            total = (
                bracket(u, bracket(v, w, tag), tag)
                + bracket(v, bracket(w, u, tag), tag)
                + bracket(w, bracket(u, v, tag), tag)
            )
            assert np.abs(total).max() < 1e-12


def test_ad_matrix_matches_bracket():
    rng = np.random.default_rng(3)
    for tag in TAGS:
        for _ in range(20):
            u, v = rng.normal(size=(2, 3))
            assert np.allclose(ad_matrix(u, tag) @ v, bracket(u, v, tag), atol=1e-12)


# -- adjoint and coadjoint actions -------------------------------------------
# The coadjoint action Ad*_g is the transpose of Ad_matrix(g).


def test_Ad_star_identity_and_group_property():
    rng = np.random.default_rng(5)
    for tag in TAGS:
        assert np.array_equal(Ad_matrix(np.eye(3), tag), np.eye(3))
        g = random_element(rng, tag)
        round_trip = Ad_matrix(g, tag) @ Ad_matrix(inverse_matrix(g, tag), tag)
        assert np.allclose(round_trip, np.eye(3), atol=1e-12)


def test_Ad_star_pairing_identity_randomized():
    """Ad_g eta = vee(g hat(eta) g^-1), hence <Ad*_g mu, eta> = <mu, Ad_g eta>."""
    rng = np.random.default_rng(6)
    for tag in TAGS:
        for _ in range(100):
            g = random_element(rng, tag)
            mu, eta = rng.normal(size=(2, 3))
            Ad_eta = vee(g @ hat(eta, tag) @ inverse_matrix(g, tag), tag, tol=1e-8)
            assert np.allclose(Ad_matrix(g, tag) @ eta, Ad_eta, atol=1e-12)
            assert abs((Ad_matrix(g, tag).T @ mu) @ eta - mu @ Ad_eta) < 1e-12


def test_so3_Ad_star_conjugation_oracle():
    g = rot_z(np.pi / 2)
    mu = np.array([1.0, 0.0, 0.0])
    # build the Ad matrix by conjugating basis elements
    Ad = np.stack(
        [vee(g @ hat(e, groups.SO3) @ g.T, groups.SO3, tol=1e-8) for e in np.eye(3)],
        axis=1,
    )
    assert np.allclose(Ad, Ad_matrix(g, groups.SO3), atol=1e-12)
    assert np.allclose(Ad_matrix(g, groups.SO3).T @ mu, Ad.T @ mu, atol=1e-12)


# -- renormalization ---------------------------------------------------------


def test_polar_projection_restores_orthogonality():
    rng = np.random.default_rng(9)
    g = random_element(rng, groups.SO3)
    drifted = g + 1e-6 * rng.normal(size=(3, 3))
    fixed = groups.renormalize(drifted, groups.SO3)
    assert groups.orthogonality_defect(fixed, groups.SO3) < 1e-12
    assert np.abs(fixed - g).max() < 1e-5


def test_a_near_reflection_is_projected_onto_the_rotations():
    """The polar factor of a matrix near ``diag(1, 1, -1)`` is a reflection;
    the projection flips its smallest singular direction to give the
    closest rotation ``U diag(1, 1, -1) V^T``.  A drifted rotation in the
    same stack is projected without the flip."""
    rng = np.random.default_rng(11)
    near = np.diag([1.0, 1.0, -1.0]) + 1e-3 * rng.normal(size=(3, 3))
    rotation = random_element(rng, groups.SO3) + 1e-6 * rng.normal(size=(3, 3))
    fixed = groups.renormalize(np.stack([near, rotation]), groups.SO3)
    U, _, Vt = np.linalg.svd(near)
    assert np.linalg.det(U @ Vt) < 0
    assert np.abs(fixed[0] - U @ np.diag([1.0, 1.0, -1.0]) @ Vt).max() < 1e-12
    U, _, Vt = np.linalg.svd(rotation)
    assert np.abs(fixed[1] - U @ Vt).max() < 1e-12
    for R in fixed:
        assert np.linalg.det(R) > 0
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_the_shared_identity_is_read_only():
    """``groups.EYE3`` is read by every renormalization and Cayley call; an
    in-place update raises instead of corrupting them all."""
    with pytest.raises(ValueError):
        groups.EYE3[0, 0] = 2.0
    with pytest.raises(ValueError):
        groups.EYE3 += 1.0
    assert np.array_equal(groups.EYE3, np.eye(3))
    drifted = rot_x(0.3) + 1e-6
    assert groups.renormalize(drifted, groups.SO3).flags.writeable
