import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oblique import (
    ComplementError,
    Subspace,
    direct_sum_check,
    kernel_of,
    oblique_projector,
    op_norm,
    range_of,
    rank_of,
    subspace_distance,
)
from oblique.config import DEFAULTS
from oblique.linalg import _kernel_batch, _kernel_svd, _op_norm_pair
from oblique.linalg import intersection_margin, splitting_margin

# ---------------------------------------------------------------------------
# independent oracles


def spectral_norm_oracle(a):
    """Largest singular value via the eigenvalues of A^T A."""
    eigs = np.linalg.eigvalsh(np.asarray(a).T @ np.asarray(a))
    return math.sqrt(max(float(eigs.max(initial=0.0)), 0.0))


def rank_oracle(a, tol):
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def projector_from_constraints(images, preimages):
    """Solve P @ [preimages] = [images] column by column (square system)."""
    pre = np.column_stack(preimages)
    img = np.column_stack(images)
    return img @ np.linalg.inv(pre)


def small_matrices(max_dim=5):
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(
        lambda mn: st.lists(
            st.floats(-10, 10, allow_nan=False, width=32),
            min_size=mn[0] * mn[1],
            max_size=mn[0] * mn[1],
        ).map(lambda vals: np.array(vals, dtype=float).reshape(mn))
    )


# ---------------------------------------------------------------------------
# operator norm and rank


def test_op_norm_identity_and_zero():
    assert op_norm(np.eye(3)) == pytest.approx(1.0)
    assert op_norm(np.zeros((2, 4))) == 0.0


def test_op_norm_matches_eigenvalue_oracle():
    a = np.diag([3.0, 1.0])
    assert spectral_norm_oracle(a) == pytest.approx(3.0)
    assert op_norm(a) == pytest.approx(spectral_norm_oracle(a))


def test_rank_of_examples():
    assert rank_of(np.diag([1.0, 0.0]), 1e-10) == 1
    for n in (1, 2, 5):
        assert rank_of(np.eye(n)) == n
    a = np.diag([1.0, 1e-14])
    assert rank_of(a, 1e-10) == rank_oracle(a, 1e-10) == 1


def test_kernel_and_range_of_diag10():
    a = np.diag([1.0, 0.0])
    ker = kernel_of(a)
    rng_ = range_of(a)
    assert subspace_distance(ker, Subspace.span([0.0, 1.0])) <= 1e-12
    assert subspace_distance(rng_, Subspace.span([1.0, 0.0])) <= 1e-12
    assert kernel_of(np.eye(3)).dim == 0


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(a):
    assert rank_of(a) + kernel_of(a).dim == a.shape[1]


@pytest.mark.parametrize("shape", [(1, 3), (2, 4), (3, 3), (4, 2), (0, 3), (2, 0)])
@pytest.mark.parametrize("tol", [None, 1e-6])
def test_kernels_of_is_kernel_of_per_matrix(rng, shape, tol):
    # the kernels of a stack as ``_KernelFamily.eval_batch`` takes them, one
    # stacked SVD: matrices at scales far from 1 whose trailing singular
    # values are shrunk by 1e-7, kept by the default relative cut, dropped by
    # the cut at 1e-6
    m, n = shape
    stack, ranks = [np.zeros((m, n))], [0]
    for j in range(24):
        u, s, vh = np.linalg.svd(rng.standard_normal((m, n)), full_matrices=False)
        s *= 10.0 ** rng.integers(-9, 9)
        r = 1 + j % len(s) if len(s) else 0
        s[r:] *= 1e-7
        stack.append((u * s) @ vh)
        ranks.append(len(s) if tol is None else r)
    stacked = list(_kernel_batch(*_kernel_svd(np.array(stack), tol)))
    assert [ker.dim for ker in stacked] == [n - r for r in ranks]
    for a, ker in zip(stack, stacked):
        single = kernel_of(a, tol)
        assert ker.basis.shape == single.basis.shape
        assert ker.basis.tobytes() == single.basis.tobytes()
    assert list(_kernel_batch(*_kernel_svd(np.empty((0, m, n)), tol))) == []


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_trivial_subspace_is_first_class():
    triv = Subspace.trivial(3)
    assert triv.dim == 0
    assert triv.orthogonal_complement().dim == 3
    assert subspace_distance(triv, Subspace.trivial(3)) == 0.0


def test_span_orthonormalizes_dependent_vectors():
    sub = Subspace.span([1.0, 1.0, 0.0], [2.0, 2.0, 0.0])
    assert sub.dim == 1
    v = np.array([3.0, 3.0, 0.0])
    assert np.linalg.norm(v - sub.orthogonal_projector() @ v) <= 1e-12


# ---------------------------------------------------------------------------
# oblique projectors


def test_oblique_projector_orthogonal_cases():
    p = oblique_projector(Subspace.span([1.0, 0.0]), Subspace.span([0.0, 1.0]))
    np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-14)
    p = oblique_projector(Subspace.span([0.0, 1.0]), Subspace.span([1.0, 0.0]))
    np.testing.assert_allclose(p.matrix, np.diag([0.0, 1.0]), atol=1e-14)


def test_oblique_projector_tilted_case():
    # oracle: P fixes (1,1) and kills (0,1)
    expected = projector_from_constraints(
        images=[np.array([1.0, 1.0]), np.zeros(2)],
        preimages=[np.array([1.0, 1.0]), np.array([0.0, 1.0])],
    )
    np.testing.assert_allclose(expected, np.array([[1.0, 0.0], [1.0, 0.0]]), atol=1e-14)
    p = oblique_projector(Subspace.span([1.0, 1.0]), Subspace.span([0.0, 1.0]))
    np.testing.assert_allclose(p.matrix, expected, atol=1e-12)


def test_oblique_projector_rejects_overlap():
    with pytest.raises(ComplementError):
        oblique_projector(Subspace.span([1.0, 0.0]), Subspace.span([1.0, 0.0]))
    with pytest.raises(ComplementError):
        oblique_projector(
            Subspace.span([1.0, 0.0, 0.0]),
            Subspace.span([0.0, 1.0, 0.0]),
        )


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_oblique_projector_properties(n, k, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sub = Subspace(q[:, :k])
    shear = rng.uniform(-1, 1, size=(k, n - k))
    comp_basis = q[:, k:] + q[:, :k] @ shear
    comp = Subspace.span(*comp_basis.T) if n - k else Subspace.trivial(n)
    p = oblique_projector(sub, comp)
    norm = op_norm(p.matrix)
    assert op_norm(p.matrix @ p.matrix - p.matrix) <= 1e-8 * (1.0 + norm**2)
    # projector fixes its range and kills its nullspace
    assert op_norm(p.matrix @ sub.basis - sub.basis) <= 1e-8 * (1 + norm)
    assert op_norm(p.matrix @ comp.basis) <= 1e-8 * (1 + norm)
    # extracting range/nullspace from the matrix returns the inputs
    assert subspace_distance(range_of(p.matrix), sub) <= 1e-8 if k else True
    assert subspace_distance(kernel_of(p.matrix), comp) <= 1e-8


# ---------------------------------------------------------------------------
# subspace distance and direct sums


def test_subspace_distance_examples():
    u = Subspace.span([1.0, 0.0])
    assert subspace_distance(u, u) == 0.0
    assert subspace_distance(u, Subspace.span([0.0, 1.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 1.4])
def test_subspace_distance_closed_form_angle(theta):
    u = Subspace.span([1.0, 0.0])
    v = Subspace.span([math.cos(theta), math.sin(theta)])
    assert subspace_distance(u, v) == pytest.approx(abs(math.sin(theta)), abs=1e-12)


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_subspace_distance_metric_properties(n, seed):
    rng = np.random.default_rng(seed)
    subs = []
    for _ in range(3):
        k = int(rng.integers(0, n + 1))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        subs.append(Subspace(q[:, :k]))
    a, b, c = subs
    assert subspace_distance(a, b) == pytest.approx(subspace_distance(b, a), abs=1e-12)
    assert subspace_distance(a, c) <= subspace_distance(a, b) + subspace_distance(b, c) + 1e-12


def test_direct_sum_check_examples():
    assert direct_sum_check(Subspace.span([1.0, 0.0]), Subspace.span([0.0, 1.0]))
    assert not direct_sum_check(Subspace.span([1.0, 0.0]), Subspace.span([1.0, 0.0]))
    # dimension excess: a full plane plus a line cannot split R^2
    assert not direct_sum_check(Subspace.full(2), Subspace.span([0.0, 1.0]))


SPLIT_FREE = 1.0 - DEFAULTS.tol_split  # margin of an orthonormal (or empty) stack


@pytest.mark.parametrize(
    "u, v, splitting, intersection",
    [
        # empty stacked basis: independent, and a splitting only of R^0
        (Subspace.trivial(0), Subspace.trivial(0), SPLIT_FREE, SPLIT_FREE),
        (Subspace.trivial(3), Subspace.trivial(3), -1.0, SPLIT_FREE),
        # independent lines too few to split R^3
        (Subspace.span([1.0, 0.0, 0.0]), Subspace.span([0.0, 1.0, 0.0]), -1.0, SPLIT_FREE),
        # dimension count too big: the stack has more columns than rows
        (Subspace.full(2), Subspace.span([0.0, 1.0]), -1.0, -1.0),
        (Subspace.full(3), Subspace.full(3), -1.0, -1.0),
    ],
)
def test_margins_on_degenerate_dimension_counts(u, v, splitting, intersection):
    assert splitting_margin(u, v) == pytest.approx(splitting, abs=1e-15)
    assert intersection_margin(u, v) == pytest.approx(intersection, abs=1e-15)


def test_margins_reject_mixed_ambient_spaces():
    for margin in (splitting_margin, intersection_margin):
        with pytest.raises(ValueError):
            margin(Subspace.trivial(2), Subspace.trivial(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 7), n=st.integers(1, 7), exponent=st.integers(-200, 200))
def test_stacked_norm_pair_is_two_op_norms_bit_for_bit(seed, m, n, exponent):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n)) * 10.0**exponent
    y = rng.standard_normal((m, n))
    assert np.array(_op_norm_pair(x, y)).tobytes() == np.array([op_norm(x), op_norm(y)]).tobytes()
    assert _op_norm_pair(np.zeros((0, n)), np.zeros((0, n))) == (0.0, 0.0)
