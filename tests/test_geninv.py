import math

import numpy as np
import pytest

from oblique import (
    BallError,
    ComplementError,
    CoordinateOperator,
    Subspace,
    TransversalityError,
    c_op,
    d_op,
    gi_from_complements,
    integrate,
    kernel_of,
    locally_fine_probe,
    moore_penrose,
    oblique_projector,
    op_norm,
    perturbed_gi,
    range_of,
    rank_class_preserved,
    rank_of,
    seven_conditions,
    subspace_distance,
)
from oblique.builtins import builtin_family, sec4_context
from oblique.geninv import trial_rng
from oblique.suites import random_gi, random_rank_matrix, sample_inside, sample_outside

A2 = np.diag([1.0, 0.0])


def normal_equations_pinv(a):
    """Left/right inverse oracle for full-rank a (tall or wide)."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] >= a.shape[1]:
        return np.linalg.inv(a.T @ a) @ a.T
    return a.T @ np.linalg.inv(a @ a.T)


def gi_axiom_residuals(a, b):
    return op_norm(a @ b @ a - a) / (1 + op_norm(a)), op_norm(b @ a @ b - b) / (1 + op_norm(b))


# ---------------------------------------------------------------------------
# pseudoinverse


def test_moore_penrose_symmetric_idempotent():
    gi = moore_penrose(A2)
    np.testing.assert_allclose(gi.inverse, A2, atol=1e-14)


def test_moore_penrose_inverts_invertible(rng):
    a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    np.testing.assert_allclose(moore_penrose(a).inverse, np.linalg.inv(a), atol=1e-10)


def test_moore_penrose_tall_column():
    a = np.array([[1.0], [1.0]])
    expected = normal_equations_pinv(a)
    np.testing.assert_allclose(expected, [[0.5, 0.5]], atol=1e-15)
    np.testing.assert_allclose(moore_penrose(a).inverse, expected, atol=1e-12)


def test_moore_penrose_zero_matrix():
    gi = moore_penrose(np.zeros((3, 2)))
    assert gi.inverse.shape == (2, 3)
    assert gi.range_complement.dim == 0
    assert gi.kernel_complement.dim == 3
    assert math.isinf(gi.ball_radius)


# ---------------------------------------------------------------------------
# prescribed complements


def test_gi_from_complements_2x2_example():
    gi = gi_from_complements(A2, Subspace.span([1.0, 0.0]), Subspace.span([0.0, 1.0]))
    np.testing.assert_allclose(gi.inverse, A2, atol=1e-14)


def test_gi_from_complements_inverts_invertible(rng):
    a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    gi = gi_from_complements(a, Subspace.full(3), Subspace.trivial(3))
    np.testing.assert_allclose(gi.inverse, np.linalg.inv(a), atol=1e-10)


def test_gi_from_complements_oblique_example():
    # oracle: the inverse must send (1,0) -> (1,1) and (0,1) -> 0
    gi = gi_from_complements(A2, Subspace.span([1.0, 1.0]), Subspace.span([0.0, 1.0]))
    np.testing.assert_allclose(gi.inverse, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)
    r1, r2 = gi_axiom_residuals(A2, gi.inverse)
    assert max(r1, r2) <= 1e-12


def test_gi_from_complements_rejects_bad_splitting():
    with pytest.raises(ComplementError):
        gi_from_complements(A2, Subspace.span([0.0, 1.0]), Subspace.span([0.0, 1.0]))


def test_gi_randomized_axioms_and_projectors(rng):
    for trial in range(40):
        m, n = rng.integers(2, 6, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_rank_matrix(rng, int(m), int(n), r)
        gi = random_gi(rng, a)
        r1, r2 = gi_axiom_residuals(a, gi.inverse)
        assert max(r1, r2) <= 1e-8
        # B A and A B are the obliques onto the prescribed complements
        ba = gi.inverse @ a
        assert op_norm(ba @ ba - ba) <= 1e-8
        if r:
            assert subspace_distance(range_of(ba), gi.range_complement) <= 1e-8
            assert subspace_distance(range_of(a @ gi.inverse), range_of(a)) <= 1e-8
        assert subspace_distance(kernel_of(ba), kernel_of(a)) <= 1e-8


# ---------------------------------------------------------------------------
# perturbation factors


def test_c_d_identity_at_base():
    gi = moore_penrose(A2)
    np.testing.assert_allclose(c_op(A2, gi, A2), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(d_op(A2, gi, A2), np.eye(2), atol=1e-15)


def test_c_op_examples():
    gi = moore_penrose(A2)
    # perturbation within the kernel complement never shows up in C
    np.testing.assert_allclose(c_op(A2, gi, np.diag([1.0, 0.3])), np.eye(2), atol=1e-15)
    delta = 0.2
    np.testing.assert_allclose(
        c_op(A2, gi, np.array([[1 + delta, 0.0], [0.0, 0.0]])), np.diag([1 + delta, 1.0]), atol=1e-15
    )


def test_perturbed_gi_base_case():
    gi = moore_penrose(A2)
    out = perturbed_gi(A2, gi, A2)
    np.testing.assert_allclose(out.inverse, gi.inverse, atol=1e-14)


def test_perturbed_gi_in_ball_keeps_complements():
    gi = moore_penrose(A2)
    t = np.array([[1.0, 0.1], [0.0, 0.0]])
    out = perturbed_gi(A2, gi, t)
    np.testing.assert_allclose(out.inverse, A2, atol=1e-12)
    r1, r2 = gi_axiom_residuals(t, out.inverse)
    assert max(r1, r2) <= 1e-12
    # the domain-side route gives the same candidate
    d = d_op(A2, gi, t)
    np.testing.assert_allclose(out.inverse, np.linalg.solve(d, gi.inverse), atol=1e-12)


def test_perturbed_gi_detects_lost_transversality():
    gi = moore_penrose(A2)
    for eps in (0.5, -0.1, 0.01):
        with pytest.raises(TransversalityError):
            perturbed_gi(A2, gi, np.diag([1.0, eps]))


def test_perturbed_gi_ball_guard():
    gi = moore_penrose(A2)
    with pytest.raises(BallError):
        perturbed_gi(A2, gi, np.array([[1.0, 1.5], [0.0, 0.0]]))


def test_formula_residual_identity(rng):
    # T B T - T = -(I - A A+) C^{-1} T for every T in the ball
    for trial in range(200):
        m, n = (int(v) for v in rng.integers(2, 6, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_rank_matrix(rng, m, n, r)
        gi = moore_penrose(a) if trial % 2 else random_gi(rng, a)
        t = sample_outside(rng, a, gi) if trial % 3 == 0 else sample_inside(rng, a, gi)
        if t is None:
            t = sample_inside(rng, a, gi)
        c = c_op(a, gi, t)
        b = gi.inverse @ np.linalg.inv(c)
        lhs = t @ b @ t - t
        rhs = -(np.eye(m) - a @ gi.inverse) @ np.linalg.solve(c, t)
        assert op_norm(lhs - rhs) <= 1e-8 * (1 + op_norm(t))
        # and B T B = B always holds in the ball
        assert op_norm(b @ t @ b - b) <= 1e-8 * (1 + op_norm(b))


# ---------------------------------------------------------------------------
# the seven conditions


def test_seven_conditions_all_true_at_base():
    rep = seven_conditions(A2, moore_penrose(A2), A2)
    assert rep.all_true and rep.agree


@pytest.mark.parametrize("eps", [0.5, -0.5, 0.1, -0.1, 0.01, -0.01])
def test_seven_conditions_all_false_on_diagonal_escape(eps):
    rep = seven_conditions(A2, moore_penrose(A2), np.diag([1.0, eps]))
    assert rep.all_false and rep.agree


def test_seven_conditions_randomized_agreement(rng):
    decisive_bar = 1e-7
    checked = 0
    for trial in range(150):
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_rank_matrix(rng, m, n, r)
        gi = moore_penrose(a) if trial % 2 else random_gi(rng, a)
        want_outside = trial % 4 >= 2
        t = sample_outside(rng, a, gi) if want_outside else None
        expected = t is None
        if t is None:
            t = sample_inside(rng, a, gi)
        rep = seven_conditions(a, gi, t)
        if rep.decisive(decisive_bar):
            checked += 1
            assert rep.agree, (trial, rep.margins)
            assert rep.all_true == expected
    assert checked >= 140


# ---------------------------------------------------------------------------
# rank classes


def test_rank_class_preserved_examples():
    gi = moore_penrose(A2)
    assert rank_class_preserved(A2, gi, A2)
    assert not rank_class_preserved(A2, gi, np.diag([1.0, 0.5]))


def test_rank_class_matches_condition_i(rng):
    for trial in range(100):
        m, n = (int(v) for v in rng.integers(2, 6, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_rank_matrix(rng, m, n, r)
        gi = moore_penrose(a)
        t = sample_outside(rng, a, gi) if trial % 2 else sample_inside(rng, a, gi)
        if t is None:
            t = sample_inside(rng, a, gi)
        assert rank_class_preserved(a, gi, t) == (rank_of(t) == rank_of(a))
        assert rank_class_preserved(a, gi, t) == seven_conditions(a, gi, t).holds["i"]


def test_transversality_is_inverse_independent(rng):
    # within the radius min(1/||A+||, 1/||A+ A A#||), a transversal range for
    # one inverse is transversal for any other
    from oblique.linalg import intersection_margin

    for trial in range(60):
        m, n = (int(v) for v in rng.integers(2, 6, size=2))
        r = int(rng.integers(1, min(m, n) + 1))
        a = random_rank_matrix(rng, m, n, r)
        gi1 = random_gi(rng, a)
        gi2 = random_gi(rng, a)
        bridge = gi1.inverse @ a @ gi2.inverse
        delta = min(gi1.ball_radius, 1.0 / max(op_norm(bridge), 1e-300))
        t = sample_inside(rng, a, gi1, fraction=0.3 * min(1.0, delta / gi1.ball_radius))
        if op_norm(t - a) >= delta:
            continue
        m1 = intersection_margin(range_of(t), gi1.kernel_complement)
        m2 = intersection_margin(range_of(t), gi2.kernel_complement)
        if m1 > 1e-7:
            assert m2 > 0.0


# ---------------------------------------------------------------------------
# continuity probe


def test_probe_constant_family_passes():
    t0 = np.diag([1.0, 0.0])
    gi = moore_penrose(t0)
    rep = locally_fine_probe(lambda x: t0, np.zeros(2), gi, [0.4, 0.2, 0.1], samples=5, seed=1)
    assert rep.all_pass
    assert all(o.max_deviation == 0.0 for o in rep.outcomes)


def test_probe_rank_jump_family_fails_everywhere():
    from oblique.builtins import rank_jump_family

    fam = rank_jump_family()
    gi = moore_penrose(fam(np.zeros(2)))
    rep = locally_fine_probe(fam, np.zeros(2), gi, [0.4, 0.2, 0.1], samples=6, seed=1)
    assert all(len(o.failures) == 6 for o in rep.outcomes)


def test_probe_jacobian_family_linear_deviation():
    # 1x2 Jacobian of x^2 + y^2 at (0, 1): inverse gap shrinks with the radius
    def jac(p):
        return np.array([[2 * p[0], 2 * p[1]]])

    x0 = np.array([0.0, 1.0])
    gi = moore_penrose(jac(x0))
    radii = [0.2, 0.1, 0.05, 0.025]
    rep = locally_fine_probe(jac, x0, gi, radii, samples=8, seed=2)
    assert rep.all_pass
    devs = [o.max_deviation for o in rep.outcomes]
    for prev, cur in zip(devs, devs[1:]):
        assert cur <= 0.7 * prev  # same rays, so halving the radius halves the gap


def test_probe_deterministic_for_seed():
    def jac(p):
        return np.array([[2 * p[0], 2 * p[1]]])

    gi = moore_penrose(jac(np.array([0.0, 1.0])))
    r1 = locally_fine_probe(jac, [0.0, 1.0], gi, [0.1, 0.05], 7, seed=9)
    r2 = locally_fine_probe(jac, [0.0, 1.0], gi, [0.1, 0.05], 7, seed=9)
    assert r1 == r2


def test_trial_rng_is_order_independent():
    a = trial_rng(5, 3).standard_normal(4)
    trial_rng(5, 2).standard_normal(10)
    b = trial_rng(5, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)


def test_array_holding_values_compare_and_hash_by_identity():
    # values that hold arrays compare and hash as themselves: two equal
    # builds are different values, and neither comparing nor hashing them
    # raises (a field-by-field comparison would ask an array for its truth)
    sub = Subspace.span([1.0, 0.0])
    builders = {
        "Subspace": lambda: Subspace.span([1.0, 0.0]),
        "Projector": lambda: oblique_projector(sub, sub.orthogonal_complement()),
        "GenInverse": lambda: moore_penrose(np.diag([1.0, 0.5])),
        "ConditionReport": lambda: seven_conditions(A2, moore_penrose(A2), A2),
        "CoordinateOperator": lambda: CoordinateOperator(np.eye(2)),
        "SubspaceFamily": lambda: builtin_family("sphere_2d"),
        "IntegralPatch": lambda: integrate(builtin_family("sphere_2d"), 0.05, 1e-2),
        "OperatorFamilyContext": lambda: sec4_context(),
    }
    for name, build in builders.items():
        x, y = build(), build()
        assert type(x).__name__ == name
        assert x == x and not x != x, name
        assert x != y and not x == y, name
        assert len({x, y, x}) == 2, name
