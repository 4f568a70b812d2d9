"""Optimal-control layer tests: reduction, stencils, layout, residual."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geovar import cli, discrete, groups, models, ocp, solver
from geovar.errors import IllPosedBasisError, SizeError
from geovar.ocp import (
    BoundaryData,
    ControlledSystem,
    assemble_unknowns,
    boundary_nodes,
    discretize,
    equation_count,
    initial_guess,
    layout,
    reduce_to_variational,
    refine_guess,
    scatter,
    stencil_point,
    unknown_count,
)
from geovar.retraction import CayleyRetraction, make_retraction
from geovar.solver import SolverConfig, fd_jacobian, solve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def se2_boundary(**overrides):
    base = dict(
        q0=np.zeros(1), dq0=np.zeros(1), qT=np.array([0.1]), dqT=np.zeros(1),
        xi0=np.zeros(3), xiT=np.zeros(3),
        g0=np.eye(3),
        gT=np.array([[1.0, 0, 0.2], [0, 1.0, 0.05], [0, 0, 1.0]]),
    )
    base.update(overrides)
    return BoundaryData(**base)


def se2_problem(N=8, h=0.1):
    return models.se2_vehicle_problem(
        models.Se2VehicleParams(), se2_boundary(), N, h
    )


# -- counting ----------------------------------------------------------------


@pytest.mark.parametrize("N", [6, 10, 20, 50])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 3)])
def test_unknown_and_equation_counts_close(N, n, m):
    assert unknown_count(N, n, m) == equation_count(N, n, m)


def test_planar_vehicle_count_example():
    N = 10
    assert unknown_count(N, 1, 2) == 7 + 24 + 18 == 49
    assert equation_count(N, 1, 2) == 7 + 21 + 3 + 18 == 49
    # general formula: (N-3) n + 3 (N-2) + m (N-1)
    for N in (6, 10, 20, 50):
        assert unknown_count(N, 1, 2) == (N - 3) + 3 * (N - 2) + 2 * (N - 1)


def test_layout_slices_partition_the_vector():
    lay = layout(se2_problem(N=10))
    assert lay.q_slice.stop == lay.xi_slice.start
    assert lay.xi_slice.stop == lay.lam_slice.start
    assert lay.lam_slice.stop == lay.total == unknown_count(10, 1, 2)


def test_layout_row_blocks_hold_the_closure_and_the_constraints():
    """The closure rows of the residual are the terminal closure and the
    constraint rows are the discrete constraints on every window, bit for
    bit; the constraint rows end the residual."""
    prob = se2_problem(N=10)
    retr = CayleyRetraction(prob.group_tag)
    lay = layout(prob)
    rng = np.random.default_rng(4)
    x = initial_guess(prob, retr) + 0.05 * rng.normal(size=lay.total)
    r = ocp.full_residual(prob, x, retr)
    path = scatter(prob, x)
    _, Phi = discretize(prob)
    qs, xis, _ = discrete.window_views(path.q_nodes, path.xi_nodes, 2)
    closure, _ = ocp.closure_residual(prob, path.xi_nodes, retr)
    assert np.array_equal(r[lay.closure_rows], closure)
    assert np.array_equal(r[lay.constraint_rows], Phi.eval(tuple(qs), tuple(xis)).ravel())
    assert lay.constraint_rows.stop == r.size == equation_count(10, 1, 2)


# -- scatter / assemble ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_scatter_assemble_round_trip_exact(seed):
    prob = se2_problem(N=9)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=layout(prob).total)
    assert np.array_equal(assemble_unknowns(prob, scatter(prob, x)), x)


def test_scatter_injects_boundary_nodes():
    h = 0.1
    b = se2_boundary(
        dq0=np.array([0.5]), dqT=np.array([-0.25]),
        xi0=np.array([0.1, 0.2, 0.3]), xiT=np.array([0.0, 0.4, 0.0]),
        dxi0=np.array([1.0, 0.0, 0.0]), dxiT=np.array([0.0, 2.0, 0.0]),
    )
    prob = models.se2_vehicle_problem(models.Se2VehicleParams(), b, 8, h)
    path = scatter(prob, np.zeros(layout(prob).total))
    assert np.array_equal(path.q_nodes[0], b.q0)
    assert np.array_equal(path.q_nodes[1], b.q0 + h * b.dq0)
    assert np.array_equal(path.q_nodes[-2], b.qT - h * b.dqT)
    assert np.array_equal(path.q_nodes[-1], b.qT)
    # boundary algebra increments live at the interval midpoints
    assert np.array_equal(path.xi_nodes[0], b.xi0 + 0.5 * h * b.dxi0)
    assert np.array_equal(path.xi_nodes[-1], b.xiT - 0.5 * h * b.dxiT)


def test_scatter_rejects_wrong_length():
    prob = se2_problem()
    with pytest.raises(SizeError):
        scatter(prob, np.zeros(layout(prob).total + 1))


def test_boundary_data_rejects_non_finite():
    with pytest.raises(ValueError, match="xi0"):
        se2_boundary(xi0=np.array([np.nan, 0, 0]))


@pytest.mark.parametrize("h", [np.nan, np.inf], ids=["nan", "inf"])
def test_problem_rejects_a_non_finite_step(h):
    """``nan <= 0`` is False, so a sign test alone builds a problem with
    ``T = nan``."""
    with pytest.raises(ValueError, match="h must be finite and positive"):
        se2_problem(N=10, h=h)


@pytest.mark.parametrize("missing", ["d_ltilde", "d_phi"])
def test_problem_refuses_half_a_gradient_pair(missing):
    """With one gradient alone, discretize would drop it and difference
    both; the problem names the one that is missing instead."""
    with pytest.raises(ValueError, match=f"{missing} is missing"):
        dataclasses.replace(se2_problem(N=10), **{missing: None})


# -- stencils ----------------------------------------------------------------


def test_stencils_vanish_on_constant_data():
    h = 0.1
    q = np.ones((4, 2))
    xi = np.zeros((4, 3))
    _, dq, ddq, xbar, dxi = stencil_point((q, q, q), (xi, xi), h)
    assert np.abs(dq).max() == 0 and np.abs(ddq).max() == 0
    assert np.abs(xbar).max() == 0 and np.abs(dxi).max() == 0


def test_second_difference_exact_on_quadratics():
    h = 0.05
    t = np.arange(6) * h
    q = (t**2)[:, None]
    qs = (q[0:4], q[1:5], q[2:6])
    _, dq, ddq, _, _ = stencil_point(qs, (np.zeros((4, 3)),) * 2, h)
    assert np.abs(ddq - 2.0).max() < 1e-10
    # the symmetric first difference is exact on quadratics at the center
    t_center = t[1:5]
    assert np.abs(dq[:, 0] - 2.0 * t_center).max() < 1e-10


def test_second_difference_converges_at_second_order():
    errs = []
    hs = [0.1, 0.05, 0.025]
    t0 = 0.7
    for h in hs:
        t = t0 + np.array([-h, 0.0, h])
        q = np.sin(t)[:, None]
        _, _, ddq, _, _ = stencil_point(
            (q[0:1], q[1:2], q[2:3]), (np.zeros((1, 3)),) * 2, h
        )
        errs.append(abs(ddq[0, 0] - (-np.sin(t0))))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1


# -- reduction ---------------------------------------------------------------


def test_reduction_cost_is_a_sum_of_squares():
    rng = np.random.default_rng(0)
    for prob in (
        se2_problem(),
        models.ball_plate_problem(
            models.BallPlateParams(), ball_boundary(), 8, 0.1
        ),
    ):
        vals = prob.ltilde(
            rng.normal(size=(20, prob.n)), rng.normal(size=(20, prob.n)),
            rng.normal(size=(20, prob.n)), rng.normal(size=(20, 3)),
            rng.normal(size=(20, 3)),
        )
        assert np.all(vals >= 0.0)


def test_zero_controls_make_cost_and_constraints_vanish():
    # vehicle at rest: all constraint rows and the cost vanish
    prob = se2_problem()
    z1, z3 = np.zeros((1, 1)), np.zeros((1, 3))
    assert np.abs(prob.phi(z1, z1, z1, z3, z3)).max() == 0.0
    assert prob.ltilde(z1, z1, z1, z3, z3)[0] == 0.0


def test_rank_deficient_covector_basis_rejected():
    def degenerate(q):
        rows = np.zeros((q.shape[0], 2, 4))
        rows[:, 0, 0] = 1.0
        rows[:, 1, 0] = 1.0  # same direction twice
        return rows

    sys = ControlledSystem(
        n=1, group_tag=groups.SE2, r=2,
        cost=lambda q, dq, xi, u: np.sum(u * u, axis=1),
        actuated_covectors=degenerate,
        unactuated_covectors=models.se2_covector_basis(
            models.Se2VehicleParams()
        )[1],
        raw_residual=models.se2_raw_rows(models.Se2VehicleParams()),
    )
    prob = reduce_to_variational(sys, se2_boundary(), 8, 0.1)
    with pytest.raises(IllPosedBasisError):
        prob.ltilde(
            np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
            np.zeros((1, 3)), np.zeros((1, 3)),
        )


# -- residual assembly -------------------------------------------------------


def test_full_residual_matches_action_gradient_oracle():
    prob = se2_problem(N=7)
    retr = CayleyRetraction(prob.group_tag)
    worst, _ = cli.oracle_discrepancy(prob, retr, seed=3)
    assert worst < 1e-6


def test_closure_vanishes_for_consistent_increments():
    prob = se2_problem(N=8)
    retr = CayleyRetraction(prob.group_tag)
    rng = np.random.default_rng(1)
    xi = rng.uniform(-0.5, 0.5, size=(8, 3))
    g = prob.boundary.g0.copy()
    for k in range(8):
        g = g @ retr.tau(prob.h * xi[k])
    prob.boundary.gT = g
    closure, gN = ocp.closure_residual(prob, xi, retr)
    assert np.abs(closure).max() < 1e-10
    assert np.abs(gN - g).max() < 1e-12


def test_boundary_perturbation_is_local_to_its_stencil_footprint():
    """Boundary nodes enter only the first/last two windows, so stationarity
    rows away from the ends and the mid-path constraint rows are bitwise
    unchanged when a boundary value moves."""
    N = 12
    retr = CayleyRetraction(groups.SE2)
    prob_a = se2_problem(N=N)
    prob_b = models.se2_vehicle_problem(
        models.Se2VehicleParams(),
        se2_boundary(q0=np.array([1e-3]), dq0=np.array([2e-3])),
        N, 0.1,
    )
    rng = np.random.default_rng(2)
    x = 0.01 * rng.normal(size=layout(prob_a).total)
    ra = ocp.full_residual(prob_a, x, retr)
    rb = ocp.full_residual(prob_b, x, retr)
    nq = N - 3  # base-stationarity rows, nodes i = 2..N-2
    # q0/q1 sit in windows 0 and 1 -> rows for nodes i >= 4 are untouched
    assert np.array_equal(ra[2:nq], rb[2:nq])
    # group rows gather slot derivatives from windows i-2..i, so they are
    # untouched for i >= 4 as well; closure never sees the base coordinates
    ng = 3 * (N - 3)
    assert np.array_equal(ra[nq + 6 : nq + ng + 3], rb[nq + 6 : nq + ng + 3])
    # constraint windows 2..N-2 do not contain q0/q1
    phi = ra[nq + ng + 3 :].reshape(N - 1, 2)
    phi_b = rb[nq + ng + 3 :].reshape(N - 1, 2)
    assert np.array_equal(phi[2:], phi_b[2:])
    assert not np.array_equal(ra, rb)


def test_stationarity_jacobian_base_block_is_symmetric():
    """The base-stationarity rows are gradients of the augmented action, so
    their Jacobian block with respect to the base unknowns is a Hessian."""
    prob = se2_problem(N=8)
    retr = CayleyRetraction(prob.group_tag)
    fn = ocp.make_residual_fn(prob, retr)
    rng = np.random.default_rng(3)
    x = initial_guess(prob, retr) + 0.02 * rng.normal(size=layout(prob).total)
    J = fd_jacobian(fn, x)
    nq = layout(prob).q_size
    block = J[:nq, :nq]
    assert np.abs(block - block.T).max() / max(np.abs(block).max(), 1.0) < 1e-4


def test_constraint_rows_are_transposes_of_multiplier_columns():
    """d(stationarity)/d(lambda) must equal d(constraints)/d(unknowns)
    transposed — both are derivatives of the same coupling term."""
    prob = se2_problem(N=7)
    retr = CayleyRetraction(prob.group_tag)
    fn = ocp.make_residual_fn(prob, retr)
    rng = np.random.default_rng(4)
    lay = layout(prob)
    x = initial_guess(prob, retr) + 0.02 * rng.normal(size=lay.total)
    J = fd_jacobian(fn, x)
    n_stat = lay.q_size + lay.xi_size - 2 * 3  # q rows + interior g rows
    n_stat = (prob.N - 3) * (prob.n + 3)
    phi_rows = slice(n_stat + 3, None)
    qxi_cols = slice(0, lay.q_size + lay.xi_size)
    A = J[:n_stat, lay.lam_slice]
    B = J[phi_rows, qxi_cols]
    # rows of A correspond to (q, g) stationarity; columns of B cover the
    # same unknowns except that g-variations act through xi differently,
    # so compare only the q part, which is shared exactly.
    nq = lay.q_size
    assert np.abs(A[:nq] - B[:, :nq].T).max() < 1e-4


# -- warm starts -------------------------------------------------------------


def test_initial_guess_reproduces_boundary_and_zero_multipliers():
    prob = se2_problem(N=10)
    retr = CayleyRetraction(prob.group_tag)
    path = scatter(prob, initial_guess(prob, retr))
    assert np.abs(path.lambda_nodes).max() == 0.0
    # interior algebra nodes carry the constant guess toward gT
    b = prob.boundary
    rel = np.linalg.solve(b.g0, b.gT)
    xi_const = retr.tau_inv(rel) / (prob.N * prob.h)
    assert np.abs(path.xi_nodes[1:-1] - xi_const[None, :]).max() < 1e-12
    # interior base nodes interpolate the boundary values linearly
    frac = np.arange(2, prob.N - 1) / prob.N
    expected_q = (1 - frac)[:, None] * b.q0 + frac[:, None] * b.qT
    assert np.abs(path.q_nodes[2 : prob.N - 1] - expected_q).max() < 1e-12


def test_refine_guess_requires_matching_horizon():
    prob_c = se2_problem(N=8, h=0.1)
    prob_f = se2_problem(N=20, h=0.05)  # T = 1.0 vs 0.8
    x = np.zeros(layout(prob_c).total)
    with pytest.raises(SizeError):
        refine_guess(prob_c, x, prob_f)


def test_refine_guess_preserves_a_linear_trajectory():
    prob_c = se2_problem(N=8, h=0.1)
    prob_f = se2_problem(N=16, h=0.05)
    retr = CayleyRetraction(groups.SE2)
    path = scatter(prob_c, np.zeros(layout(prob_c).total))
    # linear-in-time values on every series
    path.q_nodes[:] = (np.arange(9) * 0.1)[:, None]
    path.xi_nodes[:] = ((np.arange(8) + 0.5) * 0.1)[:, None] * np.ones(3)
    path.lambda_nodes[:] = ((np.arange(7) + 1.0) * 0.1)[:, None] * np.ones(2)
    x_f = refine_guess(prob_c, assemble_unknowns(prob_c, path), prob_f)
    fine = scatter(prob_f, x_f)
    # compare only fine nodes whose time falls inside the coarse *interior*
    # (scatter re-injects boundary data, so the coarse ends are not linear)
    assert np.abs(fine.q_nodes[4:13, 0] - np.arange(4, 13) * 0.05).max() < 1e-12
    assert np.abs(
        fine.xi_nodes[3:13, 0] - (np.arange(3, 13) + 0.5) * 0.05
    ).max() < 1e-12
    # multipliers carry the per-window action weight h; compare only windows
    # whose center time lies inside the coarse window range (interpolation
    # clamps at the ends)
    assert np.abs(
        fine.lambda_nodes[1:14, 0] - (np.arange(2, 15) * 0.05) * 0.5
    ).max() < 1e-12


# -- time reversal -----------------------------------------------------------


def _solve_cost(prob, retr, tol=1e-11):
    fn = ocp.make_residual_fn(prob, retr)
    result = solve(fn, initial_guess(prob, retr),
                   SolverConfig(tol_residual=tol, max_iters=80))
    assert result.converged, result.message
    path = scatter(prob, result.x)
    Ld, _ = discretize(prob)
    from geovar.discrete import window_views

    qs, xis, _ = window_views(path.q_nodes, path.xi_nodes, 2)
    return float(np.sum(Ld.eval(tuple(qs), tuple(xis))))


def test_time_reversed_vehicle_problem_has_identical_cost():
    cfg = json.loads((CONFIG_DIR / "se2_vehicle.json").read_text())
    prob, _ = cli.build_problem(cfg)
    b = prob.boundary
    reversed_b = BoundaryData(
        q0=b.qT, dq0=-b.dqT, qT=b.q0, dqT=-b.dq0,
        xi0=-b.xiT, xiT=-b.xi0, g0=b.gT, gT=b.g0,
        dxi0=b.dxiT, dxiT=b.dxi0,
    )
    prob_rev = models.se2_vehicle_problem(
        models.Se2VehicleParams(), reversed_b, prob.N, prob.h
    )
    retr = CayleyRetraction(groups.SE2)
    c_fwd = _solve_cost(prob, retr)
    c_rev = _solve_cost(prob_rev, retr)
    assert abs(c_fwd - c_rev) < 1e-6


# -- column-grouped Jacobian -------------------------------------------------


def fixture_problem(name, N, retraction="cayley"):
    """A shipped fixture at N steps over its own horizon T = N h."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    prob, _ = cli.build_problem(cfg, N=N, h=cfg["N"] * cfg["h"] / N)
    return prob, make_retraction(retraction, prob.group_tag)


@pytest.mark.parametrize("retraction", ["cayley", "exp4"])
@pytest.mark.parametrize(
    "name,N",
    [("se2_vehicle.json", 6), ("se2_vehicle.json", 7), ("se2_vehicle.json", 10),
     ("se2_vehicle.json", 20), ("ball_plate.json", 6), ("ball_plate.json", 7),
     ("ball_plate.json", 8), ("ball_plate.json", 16)],
)
def test_grouped_jacobian_equals_dense_bit_for_bit(name, N, retraction):
    """Vehicle (left trivialization) and ball (right): the grouped Jacobian is
    the dense one exactly, and every dense nonzero lies in the declared
    entries or the closure block.  At N = 6 and 7 the colour periods exceed
    the node counts."""
    prob, retr = fixture_problem(name, N, retraction)
    fn = ocp.make_residual_fn(prob, retr)
    lay = layout(prob)
    rng = np.random.default_rng(N)
    x = initial_guess(prob, retr) + 0.02 * rng.normal(size=lay.total)
    J_dense = fd_jacobian(fn, x)
    assert np.array_equal(fd_jacobian(fn, x, pattern=fn.pattern), J_dense)
    _, rows, cols = ocp.jacobian_structure(prob)
    undeclared = J_dense.copy()
    undeclared[rows, cols] = 0.0
    undeclared[lay.closure_rows, lay.xi_slice] = 0.0
    assert not np.any(undeclared)


@pytest.mark.parametrize("retraction", ["cayley", "exp4"])
@pytest.mark.parametrize("name", ["se2_vehicle.json", "ball_plate.json"])
@pytest.mark.parametrize("N", [9, 11, 15, 17, 18, 33])
def test_closure_block_equals_dense_at_the_tree_edge_sizes(name, N, retraction):
    """One step above a power of two (9, 17, 33), one below (15), odd N;
    at 11 and 18 the ancestors of perturbed leaves have no sibling on
    levels 2 (11) and 1 to 3 (18).  The closure walk carries such a node up
    as the product tree does, so the grouped Jacobian is still the dense
    one exactly."""
    prob, retr = fixture_problem(name, N, retraction)
    fn = ocp.make_residual_fn(prob, retr)
    rng = np.random.default_rng(N)
    x = initial_guess(prob, retr) + 0.02 * rng.normal(size=layout(prob).total)
    assert np.array_equal(fd_jacobian(fn, x, pattern=fn.pattern), fd_jacobian(fn, x))


class ClosureBlock:
    """Stands in for the Jacobian: keeps the one block a closure fill writes."""

    def __setitem__(self, key, value):
        self.key, self.value = key, value


@pytest.mark.parametrize("N", [20, 640])
def test_one_closure_fill_makes_logarithmically_many_products(monkeypatch, N):
    """The fill builds the product tree of ``x`` (one stacked product per
    level) and walks all 6 (N-2) perturbed leaves to the root together (one
    more per level), then composes with ``g_0`` and forms the mismatch: the
    count grows as log N, where a chain walk took a product per node."""
    prob, retr = fixture_problem("se2_vehicle.json", N)
    lay = layout(prob)
    fill = ocp._closure_fill(prob, retr)
    x = initial_guess(prob, retr)
    products = []
    compose_real = discrete.compose

    def counting(g, step, trivialization):
        products.append(np.broadcast_shapes(np.shape(g), np.shape(step))[:-2])
        return compose_real(g, step, trivialization)

    monkeypatch.setattr(discrete, "compose", counting)
    J = ClosureBlock()
    fill(x, solver.FD_STEP * np.maximum(1.0, np.abs(x)), J)
    levels = int(np.ceil(np.log2(N)))
    assert len(products) == 2 * levels + 2
    assert products.count((6 * (N - 2),)) == levels + 2
    rows, cols = J.key
    assert rows == lay.closure_rows
    assert np.array_equal(cols, np.arange(lay.xi_slice.start, lay.xi_slice.stop))
    assert J.value.shape == (3, lay.xi_size) and np.all(np.isfinite(J.value))


@pytest.mark.parametrize("retraction", ["cayley", "exp4"])
@pytest.mark.parametrize("name", ["se2_vehicle.json", "ball_plate.json"])
def test_stacked_closure_equals_each_lone_call(name, retraction):
    prob, retr = fixture_problem(name, 17, retraction)
    rng = np.random.default_rng(7)
    X = initial_guess(prob, retr) + 0.02 * rng.normal(size=(5, layout(prob).total))
    xi = scatter(prob, X).xi_nodes
    closure, gN = ocp.closure_residual(prob, xi, retr)
    assert closure.shape == (5, 3) and gN.shape == (5, 3, 3)
    for k in range(5):
        lone_closure, lone_gN = ocp.closure_residual(prob, xi[k], retr)
        assert np.array_equal(closure[k], lone_closure)
        assert np.array_equal(gN[k], lone_gN)


def test_closure_product_agrees_with_the_reconstructed_terminal_node():
    """The closure's unrenormalized balanced product and the last node of
    the sequential, renormalizing reconstruction differ by round-off only."""
    prob, retr = fixture_problem("ball_plate.json", 384)
    rng = np.random.default_rng(3)
    x = initial_guess(prob, retr) + 0.02 * rng.normal(size=layout(prob).total)
    xi = scatter(prob, x).xi_nodes
    _, gN = ocp.closure_residual(prob, xi, retr)
    g_nodes = discrete.reconstruct(xi, prob.boundary.g0, prob.h, retr, prob.trivialization)
    assert np.abs(gN - g_nodes[-1]).max() < 1e-12


def colour_count(prob):
    return int(ocp.jacobian_structure(prob)[0].max()) + 1


@pytest.mark.parametrize("name", ["se2_vehicle.json", "ball_plate.json"])
def test_column_group_count_does_not_grow_with_N(name):
    counts = [colour_count(fixture_problem(name, N)[0]) for N in (20, 80)]
    assert counts[0] == counts[1]
    assert counts[0] < layout(fixture_problem(name, 20)[0]).total / 2


def greedy_colour_count(name, N):
    """The colour count of the greedy colouring the closed form replaced."""
    counts = {"se2_vehicle.json": (21, 22, 23), "ball_plate.json": (27, 29, 31)}
    return counts[name][min(N, 8) - 6]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["se2_vehicle.json", "ball_plate.json"]),
       N=st.integers(6, 300))
@example(name="se2_vehicle.json", N=6)
@example(name="se2_vehicle.json", N=7)
@example(name="ball_plate.json", N=6)
@example(name="ball_plate.json", N=7)
def test_stencil_colouring_is_valid_and_complete(name, N):
    """No entry row holds two columns of one colour, every colour is used,
    and the count is the greedy colouring's: (n, m) = (1, 2) and (2, 3)."""
    prob = fixture_problem(name, N)[0]
    colour, rows, cols = ocp.jacobian_structure(prob)
    assert colour.shape == (layout(prob).total,)
    count = int(colour.max()) + 1
    row_colour = rows * count + colour[cols]
    assert np.unique(row_colour).size == row_colour.size
    assert np.array_equal(np.unique(colour), np.arange(count))
    assert count == greedy_colour_count(name, N)


def fast_plate_ball(N, h, trivialization):
    """Ball problem on a plate spinning at a rate other than the default,
    so the plate-rate terms of every window's rows are exercised."""
    params = models.BallPlateParams(omega=1.5)
    return models.ball_plate_problem(params, ball_boundary(), N, h, trivialization)


@pytest.mark.parametrize("retraction", ["cayley", "exp4"])
@pytest.mark.parametrize("case", ["ball-right", "ball-left", "vehicle"])
def test_stacked_local_rows_equal_full_residual_rows(case, retraction):
    """Each row of a stacked local evaluation is the full residual at that
    point with its 3 closure rows zeroed, bit for bit."""
    if case == "vehicle":
        prob = se2_problem(N=12)
    else:
        prob = fast_plate_ball(12, 0.25, case.split("-")[1])
    retr = make_retraction(retraction, prob.group_tag)
    Ld, Phi = discretize(prob)
    rng = np.random.default_rng(3)
    X = initial_guess(prob, retr) + 0.05 * rng.normal(size=(5, layout(prob).total))
    R = ocp.local_residual(prob, X, retr, Ld, Phi)
    assert R.shape == X.shape
    for x, rows in zip(X, R):
        full = ocp.full_residual(prob, x, retr)
        full[layout(prob).closure_rows] = 0.0
        assert np.array_equal(rows, full)


@pytest.mark.parametrize("N", [20, 80])
def test_one_jacobian_is_two_stacked_evaluations(monkeypatch, N):
    """The grouped Jacobian of a solve never calls the residual function:
    it evaluates the "+" and the "-" perturbations of all column groups as
    one stack each, and each stack is one assembly."""
    prob, retr = fixture_problem("se2_vehicle.json", N)
    fn_calls, stacks, assemblies = [], [], []
    in_jacobian = []
    fd_jacobian_real = solver.fd_jacobian
    dlp_k_real = discrete.dlp_k_residual
    ocp_fn = ocp.make_residual_fn(prob, retr)

    def fn(x):
        if in_jacobian:
            fn_calls.append(x)
        return ocp_fn(x)

    fn.pattern = ocp_fn.pattern

    def counting_assembly(*args):
        if in_jacobian:
            assemblies.append(args[2].q_nodes.shape)
        return dlp_k_real(*args)

    def counting(residual_fn, x, step, pattern):
        def stacked(X):
            stacks.append(X.shape)
            return pattern.stacked(X)

        in_jacobian.append(x)
        try:
            return fd_jacobian_real(
                residual_fn, x, step, dataclasses.replace(pattern, stacked=stacked)
            )
        finally:
            in_jacobian.clear()

    monkeypatch.setattr(solver, "fd_jacobian", counting)
    monkeypatch.setattr(discrete, "dlp_k_residual", counting_assembly)
    solve(fn, initial_guess(prob, retr), SolverConfig(max_iters=1))
    groups_count = colour_count(prob)
    assert fn_calls == []
    assert stacks == [(groups_count, layout(prob).total)] * 2
    assert assemblies == [(groups_count, N + 1, prob.n)] * 2


def test_ball_solve_is_identical_with_grouped_and_dense_jacobians():
    prob, retr = fixture_problem("ball_plate.json", 12)
    fn = ocp.make_residual_fn(prob, retr)
    x0 = initial_guess(prob, retr)
    cfg = SolverConfig(tol_residual=1e-10, max_iters=80, linear_solver="pseudoinverse")

    def dense_fn(x):
        return fn(x)

    dense_fn.gauge = fn.gauge  # the same pinned step, no pattern
    dense = solve(dense_fn, x0, cfg)
    grouped = solve(fn, x0, cfg)
    assert dense.converged and grouped.converged
    assert np.array_equal(grouped.x, dense.x)
    assert grouped.residual_history == dense.residual_history


# -- the augmented window kernel ---------------------------------------------


def kernel_case(case):
    """A problem with analytic gradients, a random stack of 3 paths on it
    and its windows: ``(prob, Ld, Phi, qs, xis, lambdas)``."""
    if case == "vehicle":
        prob, _ = fixture_problem("se2_vehicle.json", 12)
    else:
        prob = fast_plate_ball(12, 0.25, case.split("-")[1])
    retr = make_retraction("cayley", prob.group_tag)
    rng = np.random.default_rng(11)
    X = initial_guess(prob, retr) + 0.05 * rng.normal(size=(3, layout(prob).total))
    X[:, layout(prob).lam_slice] = rng.normal(size=(3, layout(prob).lam_size))
    path = scatter(prob, X)
    qs, xis, _ = discrete.window_views(path.q_nodes, path.xi_nodes, 2)
    Ld, Phi = discretize(prob)
    return prob, Ld, Phi, tuple(qs), tuple(xis), path.lambda_nodes


def two_callback_slots(prob, qs, xis, lambdas):
    """Slot derivatives the way they were formed with one chain per
    callback: each model gradient through its own stencil chain (the
    Lagrangian's scaled by h after the chain), then the two added."""
    h = prob.h
    point = stencil_point(qs, xis, h)
    lead = point[0].shape[:-1]
    flat = [a.reshape(-1, a.shape[-1]) for a in point]

    def chain(grads, scale):
        gq, gdq, gddq, gxi, gdxi = [g.reshape(lead + g.shape[1:]) for g in grads]
        return [
            scale * (gq / 3.0 - gdq / (2.0 * h) + gddq / (h * h)),
            scale * (gq / 3.0 - 2.0 * gddq / (h * h)),
            scale * (gq / 3.0 + gdq / (2.0 * h) + gddq / (h * h)),
            scale * (gxi / 2.0 - gdxi / h),
            scale * (gxi / 2.0 + gdxi / h),
        ]

    lagrangian = chain(prob.d_ltilde(*flat), h)
    constraints = chain(prob.d_phi(*flat, lambdas.reshape(-1, prob.m)), 1.0)
    return [DL + DP for DL, DP in zip(lagrangian, constraints)]


def relative_gap(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1.0))


@pytest.mark.parametrize("case", ["vehicle", "ball-right", "ball-left"])
def test_augmented_kernel_matches_the_differenced_augmented_value(case):
    """At random stacked points the kernel's slot derivatives are central
    differences of ``L_d + lambda . Phi_d``, and its constraint values are
    the constraint set's own, bit for bit."""
    prob, Ld, Phi, qs, xis, lambdas = kernel_case(case)
    Dq, Dxi, values = Phi.d_eval(qs, xis, lambdas)
    f = discrete._augmented_eval(Ld, Phi, lambdas)
    arrays = list(qs) + list(xis)
    for j, got in enumerate(Dq + Dxi):
        want = discrete.slot_derivative(f, arrays, j)
        assert got.shape == want.shape
        assert relative_gap(got, want) < 1e-6, (case, j)
    assert np.array_equal(values, Phi.eval(qs, xis))


@pytest.mark.parametrize("case", ["vehicle", "ball-right", "ball-left"])
def test_augmented_kernel_matches_the_two_callback_formula(case):
    """One chain over the contracted gradients equals a chain per callback
    followed by the contraction, up to re-association."""
    prob, _, Phi, qs, xis, lambdas = kernel_case(case)
    Dq, Dxi, _ = Phi.d_eval(qs, xis, lambdas)
    for j, (got, want) in enumerate(zip(Dq + Dxi, two_callback_slots(prob, qs, xis, lambdas))):
        assert relative_gap(got, want) < 1e-12, (case, j)


@pytest.mark.parametrize("case", ["vehicle", "ball-right", "ball-left"])
def test_augmented_kernel_without_multipliers_is_the_lagrangian_chain(case):
    """At lambda = 0 the constraint gradients add nothing: the slots are
    the stencil chain of ``h grad ltilde`` bit for bit, and the
    Lagrangian-only two-callback formula to round-off."""
    prob, _, Phi, qs, xis, lambdas = kernel_case(case)
    zero = np.zeros_like(lambdas)
    Dq, Dxi, _ = Phi.d_eval(qs, xis, zero)
    point = stencil_point(qs, xis, prob.h)
    lead = point[0].shape[:-1]
    grads = prob.d_ltilde(*[a.reshape(-1, a.shape[-1]) for a in point])
    want_q, want_xi = ocp.stencil_chain(*[prob.h * g for g in grads], prob.h)
    for got, want in zip(Dq + Dxi, want_q + want_xi):
        assert np.array_equal(got, want.reshape(got.shape))
    for got, want in zip(Dq + Dxi, two_callback_slots(prob, qs, xis, zero)):
        assert relative_gap(got, want) < 1e-12
    assert lead == Dq[0].shape[:-1]


@pytest.mark.parametrize("name", ["se2_vehicle.json", "ball_plate.json"])
def test_one_assembly_makes_one_pass_over_the_stencil_point(monkeypatch, name):
    """An assembly of one path, or of a stack of as many paths as the
    Jacobian has colours, forms the stencil point once and calls each of
    ``d_ltilde``, ``d_phi`` and ``phi`` once, and ``ltilde`` never."""
    prob, retr = fixture_problem(name, 20)
    calls = []

    def counting(label, fn):
        def counted(*args):
            calls.append(label)
            return fn(*args)

        return counted

    monkeypatch.setattr(ocp, "stencil_point", counting("stencil_point", ocp.stencil_point))
    for attr in ("ltilde", "d_ltilde", "d_phi", "phi"):
        monkeypatch.setattr(prob, attr, counting(attr, getattr(prob, attr)))
    Ld, Phi = discretize(prob)
    rng = np.random.default_rng(5)
    x = initial_guess(prob, retr)
    for X in (x, x + 0.02 * rng.normal(size=(colour_count(prob), x.size))):
        calls.clear()
        discrete.dlp_k_residual(Ld, Phi, scatter(prob, X), retr, prob.trivialization)
        assert sorted(calls) == ["d_ltilde", "d_phi", "phi", "stencil_point"]


# -- the ball's multiplier gauge ---------------------------------------------


def test_the_ball_declares_its_conserved_multipliers_as_the_gauge():
    """The gauge is the columns of the conservation law's multipliers, one
    per window; the vehicle declares none."""
    prob, retr = fixture_problem("ball_plate.json", 12)
    lay = layout(prob)
    gauge = ocp.make_residual_fn(prob, retr).gauge
    assert np.array_equal(gauge, lay.lam_slice.start + 2 + 3 * np.arange(11))
    # as row indices the same numbers are that constraint's rows
    assert np.array_equal(gauge - lay.constraint_rows.start, 2 + 3 * np.arange(11))
    vehicle, retr = fixture_problem("se2_vehicle.json", 12)
    assert ocp.make_residual_fn(vehicle, retr).gauge is None


@pytest.mark.parametrize("N", [12, 24])
def test_shifting_the_ball_gauge_leaves_the_residual_unchanged(N):
    prob, retr = fixture_problem("ball_plate.json", N)
    fn = ocp.make_residual_fn(prob, retr)
    x0 = initial_guess(prob, retr)
    x1 = x0 + 0.02 * np.random.default_rng(N).normal(size=x0.size)
    for x in (x0, x1):
        r = fn(x)
        shifted = x.copy()
        shifted[fn.gauge] += 1.0
        assert np.abs(fn(shifted) - r).max() <= 1e-12 * max(1.0, np.abs(r).max())


@pytest.mark.parametrize("N", [12, 24])
def test_pinned_ball_step_is_the_minimal_norm_step(N, monkeypatch):
    """The LU step of the pinned Jacobian is the ``lstsq`` step of the
    Jacobian itself."""
    prob, retr = fixture_problem("ball_plate.json", N)
    fn = ocp.make_residual_fn(prob, retr)
    x0 = initial_guess(prob, retr)
    n = x0.size
    steps = []
    lu = np.linalg.solve

    def recording(A, b):
        out = lu(A, b)
        if A.shape == (n, n):
            steps.append(out)
        return out

    monkeypatch.setattr(np.linalg, "solve", recording)
    solve(fn, x0, SolverConfig(max_iters=1, linear_solver="pseudoinverse"))
    J = fd_jacobian(fn, x0, pattern=fn.pattern)
    minimal = np.linalg.lstsq(J, -fn(x0), rcond=1e-12)[0]
    assert len(steps) == 1
    assert np.abs(minimal).max() > 0.1
    assert np.abs(steps[0] - minimal).max() <= 1e-8


def test_pinned_ball_solve_keeps_the_gauge_sum():
    """The pinned steps never move the sum of the gauge entries."""
    prob, retr = fixture_problem("ball_plate.json", 12)
    fn = ocp.make_residual_fn(prob, retr)
    x0 = initial_guess(prob, retr)
    cfg = SolverConfig(tol_residual=1e-10, max_iters=80, linear_solver="pseudoinverse")
    pinned = solve(fn, x0, cfg)
    assert pinned.converged
    g = fn.gauge
    assert abs(pinned.x[g].sum() - x0[g].sum()) <= 1e-12


def test_default_solve_of_the_ocp_residual_never_differences_the_residual(monkeypatch):
    """``solve(make_residual_fn(prob, retr), x0)`` with the default config
    takes the function's own column groups: no residual evaluation happens
    inside a Jacobian."""
    prob, retr = fixture_problem("se2_vehicle.json", 20)
    in_jacobian = []
    full_real = ocp.full_residual

    def recording(*args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "fd_jacobian":
            frame = frame.f_back
        in_jacobian.append(frame is not None)
        return full_real(*args)

    monkeypatch.setattr(ocp, "full_residual", recording)
    result = solve(ocp.make_residual_fn(prob, retr), initial_guess(prob, retr))
    assert result.converged
    assert in_jacobian and not any(in_jacobian)


# -- helpers -----------------------------------------------------------------


def ball_boundary():
    return BoundaryData(
        q0=np.zeros(2), dq0=np.zeros(2), qT=np.array([0.05, 0.03]),
        dqT=np.zeros(2), xi0=np.zeros(3), xiT=np.array([0.5, 0.3, 0.0]),
        g0=np.eye(3), gT=np.eye(3),
    )
