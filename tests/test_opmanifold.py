import numpy as np
import pytest

from oblique import (
    BallError,
    MembershipError,
    TransversalityError,
    alpha_operator_family,
    chart_d,
    chart_d_star,
    cofinal_member,
    coordinate_operator,
    fixed_rank_chart_check,
    Subspace,
    moore_penrose,
    mx_basis,
    op_norm,
    operator_context,
    operator_family,
    perturbed_gi,
    rank_of,
    subspace_distance,
    tangency_fixed_rank,
)
from oblique.builtins import sec4_context
from oblique.config import DEFAULTS
from oblique.geninv import _admit, _probe_directions, c_op, trial_rng
from oblique.opmanifold import (
    _curve_coordinates,
    _curve_velocities,
    _slice_defect,
    membership_residual,
    sample_fixed_rank_near,
    unvec,
    vec,
)
from oblique.suites import random_gi
from oblique.suites import random_rank_matrix

A2 = np.diag([1.0, 0.0])


def brute_force_mx_dim(x, tol=1e-10):
    """Count T with T N(X) in R(X) by stacking the linear constraints."""
    m, n = x.shape
    u, s, vh = np.linalg.svd(x)
    r = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    ker = vh[r:].T
    left_null = u[:, r:]
    # constraints: left_null^T T ker = 0, one row per (i, j) pair
    rows = []
    for i in range(left_null.shape[1]):
        for j in range(ker.shape[1]):
            rows.append(np.outer(left_null[:, i], ker[:, j]).reshape(-1))
    if not rows:
        return m * n
    c = np.vstack(rows)
    return m * n - np.linalg.matrix_rank(c)


# ---------------------------------------------------------------------------
# context and the tangent slice


def test_context_dimensions_2x2_example():
    ctx = sec4_context()
    assert ctx.m0.dim == 3
    assert ctx.estar.dim == 1
    # complement is exactly the (2,2) matrix-unit line
    e22 = np.zeros(4)
    e22[3] = 1.0
    assert abs(abs(ctx.estar.basis[:, 0] @ e22) - 1.0) <= 1e-12
    # slice elements have a free upper-left 2x2 corner except the (2,2) slot
    for col in ctx.m0.basis.T:
        assert abs(col[3]) <= 1e-12


def test_mx_basis_matches_constraint_counting(rng):
    for trial in range(20):
        m, n = (int(v) for v in rng.integers(2, 5, size=2))
        r = int(rng.integers(1, min(m, n) + 1))
        x = random_rank_matrix(rng, m, n, r)
        ctx = operator_context(x)
        basis = mx_basis(ctx, x, ctx.ainv)
        assert basis.dim == brute_force_mx_dim(x)
        assert basis.dim == m * n - (m - r) * (n - r)


def test_mx_basis_full_space_for_invertible():
    x = np.array([[2.0, 1.0], [0.0, 1.0]])
    ctx = operator_context(x)
    assert mx_basis(ctx, x, ctx.ainv).dim == 4


def test_complement_characterization(rng):
    # every element of the complement maps into N(A+) and kills R(A+)
    for _ in range(10):
        m, n = (int(v) for v in rng.integers(2, 5, size=2))
        r = int(rng.integers(1, min(m, n)))
        a = random_rank_matrix(rng, m, n, r)
        ctx = operator_context(a)
        for col in ctx.estar.basis.T:
            t = unvec(col, m, n)
            assert op_norm(ctx.p_ra @ t) <= 1e-10
            assert op_norm(t @ ctx.p_ra_plus) <= 1e-10


def test_ill_conditioned_oblique_inverses_meet_the_characterization_check():
    # 4x8 rank 3 with singular values 1, 1e-4, 1e-8: the projectors of an
    # oblique inverse round like eps ||A|| ||A+||, which passes the absolute
    # tol_num at these condition numbers, so the check must scale with it
    for seed in range(120):
        rng = np.random.default_rng(seed)
        u, v = np.linalg.qr(rng.standard_normal((4, 3)))[0], np.linalg.qr(rng.standard_normal((8, 3)))[0]
        a = (u * np.logspace(0.0, -8.0, 3)) @ v.T
        assert operator_context(a, random_gi(rng, a)).rank == 3


def test_three_part_decomposition(rng):
    ctx = sec4_context()
    for _ in range(20):
        t = rng.standard_normal((2, 2))
        p1 = ctx.p_ra @ t
        p2 = ctx.p_na_plus @ t @ ctx.p_ra_plus
        p3 = ctx.p_na_plus @ t @ ctx.p_na
        np.testing.assert_allclose(p1 + p2 + p3, t, atol=1e-12)
        assert membership_residual(ctx, p1) <= 1e-10
        assert membership_residual(ctx, p2) <= 1e-10
        proj = ctx.estar.basis @ (ctx.estar.basis.T @ vec(p3))
        assert np.linalg.norm(vec(p3) - proj) <= 1e-10


# ---------------------------------------------------------------------------
# the family over operator space and its transversal set


def test_operator_family_cofinal_fails_at_diagonal_perturbations():
    ctx = sec4_context()
    fam = operator_family(ctx, rank_tol=1e-4)
    assert cofinal_member(fam, vec(A2))
    for eps in (0.5, -0.5, 0.1, -0.1, 0.01, -0.01):
        assert not cofinal_member(fam, vec(np.diag([1.0, eps])))
    assert fam.eval(vec(np.diag([1.0, 0.5]))).dim == 4


def test_operator_family_tracks_slice_dimension(rng):
    ctx = sec4_context()
    fam = operator_family(ctx, rank_tol=1e-6)
    x = sample_fixed_rank_near(ctx, rng)
    assert fam.eval(vec(x)).dim == 3
    assert cofinal_member(fam, vec(x))


def test_operator_family_refuses_a_rank_cut_other_than_the_contexts():
    # A = diag(1, 1e-6, 0) has rank 2 at the default cut; 1e-4 cuts it at 1
    ctx = operator_context(np.diag([1.0, 1e-6, 0.0]))
    assert ctx.rank == 2
    with pytest.raises(ValueError, match="does not evaluate to the base subspace"):
        operator_family(ctx, rank_tol=1e-4)
    fam = operator_family(ctx, rank_tol=1e-8)
    assert fam.base_subspace is ctx.m0 and fam.complement is ctx.estar and fam.source_map is None
    assert subspace_distance(fam.eval(fam.base_point), ctx.m0) <= DEFAULTS.tol_num
    assert fam.base_point.tobytes() == vec(ctx.a).tobytes() and not fam.base_point.flags.writeable


# ---------------------------------------------------------------------------
# charts


def test_chart_fixes_the_base():
    ctx = sec4_context()
    np.testing.assert_allclose(chart_d(ctx, A2), A2, atol=1e-14)
    np.testing.assert_allclose(chart_d_star(ctx, A2), A2, atol=1e-14)


def test_chart_on_diagonal_perturbation():
    # (X - A) P[R(A+)] vanishes and C = I, so D is the identity there
    ctx = sec4_context()
    x = np.diag([1.0, 0.25])
    c = c_op(ctx.a, ctx.ainv, x)
    np.testing.assert_allclose(c, np.eye(2), atol=1e-15)
    np.testing.assert_allclose((x - ctx.a) @ ctx.p_ra_plus, np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(chart_d(ctx, x), x, atol=1e-14)


def test_chart_round_trips_random(rng):
    for trial in range(25):
        m, n = (int(v) for v in rng.integers(2, 5, size=2))
        r = int(rng.integers(1, min(m, n) + 1))
        ctx = operator_context(random_rank_matrix(rng, m, n, r))
        x = sample_fixed_rank_near(ctx, rng)
        t = chart_d(ctx, x)
        np.testing.assert_allclose(chart_d_star(ctx, t), x, atol=1e-10 * (1 + op_norm(x)))
        t2 = ctx.a + 0.2 * ctx.ball_radius * unvec(ctx.m0.basis @ _unit(rng, ctx.m0.dim), m, n)
        np.testing.assert_allclose(chart_d(ctx, chart_d_star(ctx, t2)), t2, atol=1e-10 * (1 + op_norm(t2)))


def _unit(rng, k):
    v = rng.standard_normal(k)
    return v / np.linalg.norm(v)


def test_chart_ball_guard():
    ctx = sec4_context()
    with pytest.raises(BallError):
        chart_d(ctx, np.array([[1.0, 0.0], [1.5, 0.0]]))


def test_chart_region_verdict_is_the_spectral_norm(rng):
    # ||(X - A) A+|| placed around 1 and within ulps of it, for rank-one gaps
    # (whose computed Frobenius norm can fall below 1 while the spectral norm
    # does not) and higher-rank ones (Frobenius norm well above it)
    ctx = operator_context(random_rank_matrix(rng, 5, 4, 3))
    near_one = [1.0 + k * np.finfo(float).eps for k in range(-8, 9)]
    for rank in (1,) * 10 + (5,):
        g = rng.standard_normal((5, rank)) @ rng.standard_normal((rank, 5))
        e = g @ ctx.a
        e /= op_norm(e @ ctx.ainv.inverse)
        for t in [0.3, 1.0 - 2e-8, 1.0 - 5e-9, *near_one, 1.0 + 1e-12, 1.5]:
            x = ctx.a + t * e
            outside = op_norm((x - ctx.a) @ ctx.ainv.inverse) >= 1.0
            try:
                chart_d_star(ctx, x)
            except BallError:
                assert outside
            else:
                assert not outside


def test_fixed_rank_sampler_fails_loudly(rng):
    ctx = sec4_context()
    with pytest.raises(BallError):
        sample_fixed_rank_near(ctx, rng, ball_fraction=0.0)


def two_test_sample(ctx, rng, scale=0.1, ball_fraction=0.4):
    """The fixed-rank sampler with its former second test: each halving also
    asked for ||(X - A) A+|| < ball_fraction."""
    g_left = rng.standard_normal((ctx.m, ctx.m))
    g_right = rng.standard_normal((ctx.n, ctx.n))
    eps = scale
    for _ in range(60):
        x = (np.eye(ctx.m) + eps * g_left) @ ctx.a @ (np.eye(ctx.n) + eps * g_right)
        gap = op_norm(x - ctx.a)
        v1_gap = op_norm((x - ctx.a) @ ctx.ainv.inverse)
        if gap < ball_fraction * ctx.ball_radius and v1_gap < ball_fraction:
            return x
        eps *= 0.5
    raise BallError("no sample after 60 halvings")


@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
def test_fixed_rank_sampler_matches_two_test_reference(kappa):
    for seed in range(12):
        rng = np.random.default_rng([seed, round(np.log10(kappa))])
        m, n = (int(v) for v in rng.integers(2, 9, size=2))
        k = int(rng.integers(1, min(m, n) + 1))
        s = np.logspace(0.0, -np.log10(kappa), k)
        u, v = np.linalg.qr(rng.standard_normal((m, k)))[0], np.linalg.qr(rng.standard_normal((n, k)))[0]
        a = (u * s) @ v.T
        for ctx in (operator_context(a), operator_context(a, random_gi(rng, a))):
            for j in range(5):
                for scale, fraction in ((0.1, 0.4), (1.0, 0.05)):
                    got = sample_fixed_rank_near(ctx, np.random.default_rng([seed, j]), scale, fraction)
                    want = two_test_sample(ctx, np.random.default_rng([seed, j]), scale, fraction)
                    np.testing.assert_array_equal(got, want)


def test_chart_straightens_rank_and_preserves_it():
    ctx = sec4_context()
    rep = fixed_rank_chart_check(ctx, samples=50, seed=11)
    assert rep.membership_failures == 0
    assert rep.rank_failures == 0
    assert rep.round_trip_max <= 1e-10
    assert rep.m0_dim == 3


def test_chart_d_star_of_slice_element_has_base_rank(rng):
    ctx = sec4_context()
    for _ in range(20):
        dt = unvec(ctx.m0.basis @ _unit(rng, 3), 2, 2)
        x = chart_d_star(ctx, ctx.a + 0.3 * dt)
        assert rank_of(x, 1e-9) == 1


def test_two_chart_compatibility(rng):
    # the transition between charts at two nearby base operators is the
    # identity on the overlap in the straightened coordinates
    a = random_rank_matrix(rng, 3, 3, 1)
    ctx_a = operator_context(a)
    b = sample_fixed_rank_near(ctx_a, rng, scale=0.02)
    ctx_b = operator_context(b)
    for _ in range(10):
        x = sample_fixed_rank_near(ctx_a, rng, scale=0.02)
        if op_norm((x - b) @ ctx_b.ainv.inverse) >= 1.0:
            continue
        t_a = chart_d(ctx_a, x)
        t_b = chart_d(ctx_b, x)
        assert membership_residual(ctx_a, t_a) <= 1e-8
        assert membership_residual(ctx_b, t_b) <= 1e-8
        np.testing.assert_allclose(chart_d_star(ctx_b, t_b), chart_d_star(ctx_a, t_a), atol=1e-9)


# ---------------------------------------------------------------------------
# coordinate operator in closed form


def test_alpha_zero_at_base(rng):
    ctx = sec4_context()
    for _ in range(10):
        dx = unvec(ctx.m0.basis @ _unit(rng, 3), 2, 2)
        np.testing.assert_allclose(alpha_operator_family(ctx, ctx.a, dx), np.zeros((2, 2)), atol=1e-12)


def test_alpha_rejects_directions_off_the_slice():
    ctx = sec4_context()
    with pytest.raises(MembershipError):
        alpha_operator_family(ctx, ctx.a, np.diag([0.0, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e160, 1e300])
def test_alpha_judges_membership_relative_to_the_direction(scale):
    # M(diag(1, 0)) is {T : T22 = 0}: the corner E22 is outside at every
    # scale, the other matrix units and their sum inside
    ctx = operator_context(np.diag([1.0, 0.0]))
    with pytest.raises(MembershipError):
        alpha_operator_family(ctx, ctx.a, scale * np.diag([0.0, 1.0]))
    for dx in (np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, -2.0], [3.0, 0.0]])):
        value = alpha_operator_family(ctx, ctx.a, scale * dx)
        np.testing.assert_array_equal(value, np.zeros((2, 2)))
    np.testing.assert_array_equal(alpha_operator_family(ctx, ctx.a, np.zeros((2, 2))), np.zeros((2, 2)))


def test_alpha_requires_transversal_x():
    ctx = sec4_context()
    dx = unvec(ctx.m0.basis[:, 0], 2, 2)
    with pytest.raises(TransversalityError):
        alpha_operator_family(ctx, np.diag([1.0, 0.3]), dx)


def test_alpha_specific_2x2_direction():
    # X = [[1, 0], [0.1, 0]] has kernel e2 and range span{(1, 0.1)}; for the
    # direction E12, membership (E12 + a)(e2) in span{(1, 0.1)} forces the
    # graph value a = 0.1 E22.
    ctx = sec4_context()
    x = ctx.a + 0.1 * np.array([[0.0, 0.0], [1.0, 0.0]])
    dx = np.array([[0.0, 1.0], [0.0, 0.0]])
    value = alpha_operator_family(ctx, x, dx)
    np.testing.assert_allclose(value, [[0.0, 0.0], [0.0, 0.1]], atol=1e-12)
    fam = operator_family(ctx, rank_tol=1e-8)
    generic = coordinate_operator(ctx.m0, ctx.estar, fam.eval(vec(x)))
    via_generic = ctx.estar.basis @ (generic.alpha @ (ctx.m0.basis.T @ vec(dx)))
    np.testing.assert_allclose(vec(value), via_generic, atol=1e-12)


def test_alpha_matches_generic_coordinate_operator(rng):
    for (m, n, k) in ((2, 2, 1), (3, 3, 2)):
        ctx = operator_context(random_rank_matrix(rng, m, n, k))
        fam = operator_family(ctx, rank_tol=1e-8)
        for _ in range(10):
            x = sample_fixed_rank_near(ctx, rng)
            dx = unvec(ctx.m0.basis @ _unit(rng, ctx.m0.dim), m, n)
            value = alpha_operator_family(ctx, x, dx)
            generic = coordinate_operator(ctx.m0, ctx.estar, fam.eval(vec(x)))
            via_generic = ctx.estar.basis @ (generic.alpha @ (ctx.m0.basis.T @ vec(dx)))
            assert float(np.max(np.abs(vec(value) - via_generic))) <= 1e-7


def test_alpha_matches_chart_derivative(rng):
    for (m, n, k) in ((2, 2, 1), (3, 3, 2)):
        ctx = operator_context(random_rank_matrix(rng, m, n, k))
        for _ in range(10):
            x = sample_fixed_rank_near(ctx, rng)
            dx = unvec(ctx.m0.basis @ _unit(rng, ctx.m0.dim), m, n)
            value = alpha_operator_family(ctx, x, dx)
            h = 1e-6 / (1.0 + op_norm(dx))
            fd = (chart_d(ctx, x + h * dx) - chart_d(ctx, x - h * dx)) / (2 * h)
            via_fd = ctx.p_na_plus @ (-fd) @ ctx.p_na
            assert float(np.max(np.abs(value - via_fd))) <= 1e-5


# ---------------------------------------------------------------------------
# tangency of the fixed-rank manifold


def test_tangency_fixed_rank_at_base_operator():
    ctx = sec4_context()
    rep = tangency_fixed_rank(ctx, A2, curves=9, seed=5)
    assert rep.max_residual <= 1e-6
    assert rep.tangent_span_dim == rep.expected_dim == 3


def test_tangency_fixed_rank_off_base(rng):
    ctx = operator_context(random_rank_matrix(rng, 3, 3, 1))
    x = sample_fixed_rank_near(ctx, rng)
    rep = tangency_fixed_rank(ctx, x, curves=ctx.m0.dim + 6, seed=5)
    assert rep.max_residual <= 1e-6
    assert rep.tangent_span_dim == rep.expected_dim == 9 - 4


def _velocity_span_reference(ctx, x, curves, seed):
    """``tangency_fixed_rank``'s max residual, span and coordinates from each
    curve's exact velocity V = dT R + C0 dT P[N(A)] (R = P[R(A+)] + A+ T0
    P[N(A)], C0 = C(A+, T0), T0 = D(X)) formed densely, dT drawn through the
    (mn) x dim basis: the residual of every moving V, ``rank_of`` of their
    mn x moving matrix, and their coordinates (U^T V, U_perp^T V V_row) in
    X's factors, (moving, dim)."""
    f = _admit(ctx.a, ctx.ainv, x, DEFAULTS).factors
    t0 = chart_d(ctx, x)
    c0 = c_op(ctx.a, ctx.ainv, t0)
    r = ctx.p_ra_plus + ctx.ainv.inverse @ t0 @ ctx.p_na
    worst, velocities, coords = 0.0, [], []
    for g in _probe_directions(seed, range(curves), ctx.dim):
        dt = unvec(ctx.m0.basis @ g, ctx.m, ctx.n)
        v = dt @ r + c0 @ dt @ ctx.p_na
        speed = np.linalg.norm(v)
        if speed == 0.0:
            continue
        worst = max(worst, float(_slice_defect(f, v) / speed))
        velocities.append(v.ravel())
        coords.append(np.concatenate([(f.range.basis.T @ v).ravel(), (f.cokernel.basis.T @ v @ f.row.basis).ravel()]))
    span = rank_of(np.array(velocities).T, 1e-6) if velocities else 0
    return worst, span, np.array(coords).reshape(len(coords), ctx.dim)


def _curve_velocities_at(ctx, x):
    """``tangency_fixed_rank``'s velocity map at X."""
    return _curve_velocities(ctx, _admit(ctx.a, ctx.ainv, x, DEFAULTS).factors, chart_d(ctx, x))


def _survey_points():
    """The context and point of each ``scripts/chart_survey.py`` shape at seed
    0, and of ``oblique chart --builtin sec4_2x2``."""
    for m, n, k in [(m, n, k) for m in (2, 3, 4) for n in (2, 3, 5) for k in range(1, min(m, n) + 1)]:
        rng = trial_rng(0, m, n, k)
        ctx = operator_context(random_rank_matrix(rng, m, n, k))
        yield ctx, sample_fixed_rank_near(ctx, rng)
    ctx = sec4_context()
    yield ctx, sample_fixed_rank_near(ctx, trial_rng(0, 999))


def test_tangent_coordinates_span_as_the_velocities_do():
    for ctx, x in _survey_points():
        for curves in (ctx.dim + 6, ctx.dim - 1):
            rep = tangency_fixed_rank(ctx, x, curves=curves, seed=0)
            worst, span, want = _velocity_span_reference(ctx, x, curves, 0)
            assert rep.tangent_span_dim == span == min(curves, ctx.dim), (ctx.a.shape, ctx.rank, curves)
            assert abs(rep.max_residual - worst) <= 1e-12
            got = _curve_coordinates(ctx, _curve_velocities_at(ctx, x), curves, 0)[1]
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12


def test_exact_velocities_are_the_central_difference_of_d_star():
    # D* is quadratic, so the central difference of the curve at step h is
    # its velocity up to rounding of order eps / h
    for ctx, x in _survey_points():
        f = _admit(ctx.a, ctx.ainv, x, DEFAULTS).factors
        t0 = chart_d(ctx, x)
        h = 1e-6 * (1.0 + op_norm(t0))
        g = np.array(_probe_directions(0, range(ctx.dim + 6), ctx.dim))
        along, across = _curve_velocities_at(ctx, x)(g)
        s = np.concatenate([f.row.basis, f.kernel.basis], axis=1)
        for row, got_along, got_across in zip(g, along, across):
            dt = unvec(ctx.m0.basis @ row, ctx.m, ctx.n)
            fd = (chart_d_star(ctx, t0 + h * dt) - chart_d_star(ctx, t0 - h * dt)) / (2.0 * h)
            miss = np.hypot(np.linalg.norm(got_along - f.range.basis.T @ fd),
                            np.linalg.norm(got_across - f.cokernel.basis.T @ fd @ s))
            assert miss <= 1e-8 * np.linalg.norm(fd), (ctx.a.shape, ctx.rank)


def test_key_ball_identities(rng):
    # C^{-1} T P[R(A+)] = A and C^{-1} P[N(A+)] = P[N(A+)] inside the ball
    from oblique.suites import sample_inside

    for _ in range(20):
        m, n = (int(v) for v in rng.integers(2, 5, size=2))
        r = int(rng.integers(1, min(m, n) + 1))
        a = random_rank_matrix(rng, m, n, r)
        ctx = operator_context(a)
        t = sample_inside(rng, a, ctx.ainv)
        c = c_op(a, ctx.ainv, t)
        assert op_norm(np.linalg.solve(c, t @ ctx.p_ra_plus) - a) <= 1e-10
        assert op_norm(np.linalg.solve(c, ctx.p_na_plus) - ctx.p_na_plus) <= 1e-10


def test_slice_projector_idempotent(rng):
    ctx = sec4_context()
    for _ in range(10):
        x = sample_fixed_rank_near(ctx, rng)
        gi_x = perturbed_gi(ctx.a, ctx.ainv, x)
        p_range = x @ gi_x.inverse
        p_co = gi_x.inverse @ x
        big = np.kron(p_range, np.eye(2)) + np.kron(np.eye(2) - p_range, p_co.T)
        assert op_norm(big @ big - big) <= 1e-10


# ---------------------------------------------------------------------------
# factored tangent slice against brute-force Kronecker/constraint references


def _image(big, tol=1e-10):
    u, s, _ = np.linalg.svd(big)
    r = int(np.sum(s > tol * s[0])) if s.size and s[0] > tol else 0
    return Subspace(u[:, :r])


def kron_slice_reference(x, xinv):
    """M(X) as the image of T -> X X+ T + (I - X X+) T X+ X, assembled as an
    (mn)x(mn) Kronecker matrix."""
    m, n = x.shape
    p_range = x @ xinv.inverse
    p_co = xinv.inverse @ x
    return _image(np.kron(p_range, np.eye(n)) + np.kron(np.eye(m) - p_range, p_co.T))


def constraint_slice_reference(x, tol=1e-10):
    """M(X) as the null space of the stacked constraints c_i^T T k_j = 0, with
    c_i spanning R(X)^perp and k_j spanning N(X)."""
    m, n = x.shape
    u, s, vh = np.linalg.svd(x)
    r = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    rows = [np.kron(u[:, i], vh[j]) for i in range(r, m) for j in range(r, n)]
    if not rows:
        return Subspace.full(m * n)
    _, sc, vhc = np.linalg.svd(np.vstack(rows))
    return Subspace(vhc[int(np.sum(sc > tol * sc[0])):].T)


def _contexts(rng):
    for (m, n, k) in ((4, 5, 2), (10, 10, 3), (5, 3, 1), (3, 4, 3)):
        a = random_rank_matrix(rng, m, n, k)
        yield k, operator_context(a)
        yield k, operator_context(a, random_gi(rng, a))


def test_factored_slice_matches_kronecker_reference(rng):
    for k, ctx in _contexts(rng):
        m, n = ctx.m, ctx.n
        assert subspace_distance(ctx.m0, kron_slice_reference(ctx.a, ctx.ainv)) <= 1e-10
        assert ctx.m0.dim == m * n - (m - k) * (n - k)
        fam = operator_family(ctx)
        x = sample_fixed_rank_near(ctx, rng)
        gi_x = perturbed_gi(ctx.a, ctx.ainv, x)
        assert subspace_distance(mx_basis(ctx, x, gi_x), kron_slice_reference(x, gi_x)) <= 1e-10
        assert subspace_distance(fam.eval(vec(x)), constraint_slice_reference(x)) <= 1e-10
        # rank-deficient and full-rank points away from the base rank
        for r in range(min(m, n) + 1):
            y = random_rank_matrix(rng, m, n, r)
            ref = constraint_slice_reference(y)
            assert subspace_distance(fam.eval(vec(y)), ref) <= 1e-10
            gi_y = moore_penrose(y)
            assert subspace_distance(mx_basis(ctx, y, gi_y), kron_slice_reference(y, gi_y)) <= 1e-10


def test_estar_meets_its_characterization(rng):
    for k, ctx in _contexts(rng):
        m, n = ctx.m, ctx.n
        assert ctx.estar.dim == (m - k) * (n - k)
        for col in ctx.estar.basis.T:
            t = unvec(col, m, n)
            assert op_norm(ctx.p_ra @ t) <= 1e-10
            assert op_norm(t @ ctx.p_ra_plus) <= 1e-10
        ref = _image(np.kron(ctx.p_na_plus, ctx.p_na.T))
        assert subspace_distance(ctx.estar, ref) <= 1e-10


def test_membership_residual_matches_projection_defect(rng):
    for _, ctx in _contexts(rng):
        q = kron_slice_reference(ctx.a, ctx.ainv).basis
        for scale in (1e-3, 1.0, 1e3):
            for t in (rng.standard_normal((ctx.m, ctx.n)), ctx.p_ra @ rng.standard_normal((ctx.m, ctx.n))):
                v = vec(scale * t)
                defect = np.linalg.norm(v - q @ (q.T @ v)) / np.linalg.norm(v)
                assert abs(membership_residual(ctx, scale * t) - defect) <= 1e-12


def test_context_dimension_40x40_rank4(rng):
    ctx = operator_context(random_rank_matrix(rng, 40, 40, 4))
    assert ctx.m0.dim == 40 * 40 - 36 * 36
    assert ctx.estar.dim == 36 * 36
