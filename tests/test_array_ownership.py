"""One ownership rule for every value that holds an array: an array from a
caller is checked and copied once into read-only storage, so a later edit of
the caller's array reaches neither the value nor what is computed from it,
and an array the toolkit built is frozen and handed over, not copied again."""

import numpy as np
import pytest

from oblique import (
    CoordinateOperator,
    OperatorFamilyContext,
    Projector,
    Subspace,
    coordinate_operator,
    direct_sum_check,
    fixed_rank_chart_check,
    gi_from_complements,
    graph_subspace,
    integrate,
    kernel_family,
    moore_penrose,
    oblique_projector,
    operator_context,
    perturbed_gi,
)
from oblique.builtins import builtin_map
from oblique.config import DEFAULTS
from oblique.geninv import _admit, trial_rng
from oblique.linalg import svd_factors
from oblique.suites import random_rank_matrix


def _refuses_writes(arr):
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 9.0


def test_subspace_owns_its_basis():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    sub = Subspace(basis)
    line = Subspace.span([0.0, 0.0, 1.0])
    basis[:] = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]  # now it would contain the line
    assert sub.basis.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    assert direct_sum_check(sub, line)
    _refuses_writes(sub.basis)
    for built in (*svd_factors(np.diag([1.0, 0.0])), Subspace.full(2), line):
        _refuses_writes(built.basis)


def test_subspace_keeps_its_orthogonal_complement():
    sub = Subspace.span([1.0, 1.0, 0.0])
    perp = sub.orthogonal_complement()
    assert perp is sub.orthogonal_complement() and perp.dim == 2
    assert Subspace.trivial(3).orthogonal_complement().dim == 3
    # a projector along a subspace reads the complement it keeps, but keeps
    # none it takes itself: a caller's subspace stays as small as it was
    plane, fresh = Subspace.span([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), Subspace.span([1.0, 1.0, 0.0])
    along_fresh = oblique_projector(plane, fresh).matrix
    assert "_complement" not in fresh.__dict__
    assert oblique_projector(plane, sub).matrix.tobytes() == along_fresh.tobytes()


def test_projector_owns_its_matrix():
    matrix = np.array([[1.0, 1.0], [0.0, 0.0]])
    proj = Projector(matrix)
    matrix[0, 1] = 5.0
    assert proj.matrix.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    _refuses_writes(proj.matrix)
    _refuses_writes(oblique_projector(Subspace.span([1.0, 0.0]), Subspace.span([1.0, -1.0])).matrix)
    with pytest.raises(ValueError, match="non-finite"):
        Projector(np.array([[np.nan]]))


def test_coordinate_operator_owns_its_alpha():
    m0, estar = Subspace.span([1.0, 0.0]), Subspace.span([0.0, 1.0])
    alpha = np.array([[0.5]])
    op = CoordinateOperator(alpha)
    alpha[0, 0] = -2.0
    assert op.alpha.tolist() == [[0.5]]
    assert graph_subspace(m0, estar, op).basis.T @ np.array([-0.5, 1.0]) == pytest.approx([0.0])
    _refuses_writes(op.alpha)
    _refuses_writes(coordinate_operator(m0, estar, graph_subspace(m0, estar, op)).alpha)
    with pytest.raises(ValueError, match="2-dimensional"):
        CoordinateOperator(np.ones(2))


def test_kernel_family_keeps_its_base_point():
    # an edit of x0 once moved the family's base to (0, -1), where the
    # pinned bases belong to no kernel: 100 of 101 nodes went unfilled
    f, _ = builtin_map("sphere_2d")
    x0 = np.array([0.0, 1.0])
    fam = kernel_family(f, x0)
    x0[:] = [0.0, -1.0]
    patch = integrate(fam, 0.5, 1e-2)
    assert patch.filled.size == 101 and patch.filled.all() and not patch.diagnostics.breached
    assert fam.base_point.tolist() == [0.0, 1.0]
    _refuses_writes(fam.base_point)


def test_operator_context_keeps_its_base_operator():
    # an edit of a once reached the chart through ctx.a: 5 of 5 samples
    # failed membership and rank
    a = np.diag([1.0, 0.5, 0.0])
    ctx = operator_context(a)
    a[0, 0] = 3.0
    report = fixed_rank_chart_check(ctx, 5)
    assert (report.membership_failures, report.rank_failures) == (0, 0)
    assert ctx.a is ctx.ainv.forward
    for arr in (ctx.a, ctx.p_ra, ctx.p_na_plus, ctx.p_ra_plus, ctx.p_na, ctx.factors.range.basis):
        _refuses_writes(arr)


def test_operator_context_has_one_builder():
    # a hand-built context once kept the caller's arrays writable and aliased
    ctx = operator_context(np.diag([1.0, 0.0]))
    with pytest.raises(TypeError):
        OperatorFamilyContext(ctx.a, ctx.ainv, ctx.factors, np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))


def test_builders_hand_over_what_they_built():
    a = random_rank_matrix(trial_rng(19, 0), 4, 3, 2)
    ainv = moore_penrose(a)
    g1, g2 = trial_rng(19, 1).standard_normal((4, 4)), trial_rng(19, 2).standard_normal((3, 3))
    t = (np.eye(4) + 1e-3 * g1) @ a @ (np.eye(3) + 1e-3 * g2)  # A's rank, inside the ball
    gi = perturbed_gi(a, ainv, t)
    record = _admit(a, ainv, t, DEFAULTS)
    assert gi.forward is record.t and gi.inverse is record.b
    assert gi.range_complement is ainv.range_complement and gi.kernel_complement is ainv.kernel_complement
    r_plus, n_plus = ainv.range_complement, ainv.kernel_complement
    oblique = gi_from_complements(a, r_plus, n_plus)
    assert oblique.range_complement is r_plus and oblique.kernel_complement is n_plus
    for inv in (ainv, oblique, gi):
        _refuses_writes(inv.forward)
        _refuses_writes(inv.inverse)
    a[0, 0] += 1.0  # the caller's array, copied once by each builder
    assert not np.array_equal(ainv.forward, a) and not np.array_equal(oblique.forward, a)
