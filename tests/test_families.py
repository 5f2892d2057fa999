import dataclasses

import numpy as np
import pytest

from oblique import (
    ComplementError,
    CoordinateOperator,
    DifferentiableMap,
    DimensionError,
    EvalError,
    Subspace,
    SubspaceFamily,
    cofinal_member,
    coordinate_operator,
    generalized_regular_probe,
    graph_subspace,
    grp_alpha,
    kernel_family,
    kernel_of,
    locally_fine_probe,
    moore_penrose,
    subspace_distance,
)
from oblique.builtins import builtin_family, builtin_map, polynomial_map
from oblique.config import DEFAULTS
from oblique.families import _jacobian_stack
from oblique.geninv import trial_rng
from oblique.suites import random_complement, random_subspace


def circle_map():
    return DifferentiableMap(
        2, 1, lambda p: np.array([p[0] ** 2 + p[1] ** 2]), lambda p: np.array([[2 * p[0], 2 * p[1]]])
    )


def sphere_map():
    return DifferentiableMap(3, 1, lambda p: np.array([p @ p]), lambda p: 2 * p.reshape(1, -1))


# ---------------------------------------------------------------------------
# differentiable maps


def test_fd_jacobian_matches_analytic():
    f = circle_map()
    for p in ([0.3, 0.7], [-1.0, 2.0]):
        gap = np.max(np.abs(f.jacobian(np.array(p)) - f.fd_jacobian(np.array(p))))
        assert gap <= 1e-4
    f.check_jacobian([[0.3, 0.7], [0.0, 1.0]])


def test_bad_analytic_jacobian_is_caught():
    f = DifferentiableMap(2, 1, lambda p: np.array([p[0] ** 2]), lambda p: np.array([[1.0, 0.0]]))
    with pytest.raises(EvalError):
        f.check_jacobian([[2.0, 0.0]])


def scaled_cubic(scale, off_entry=None):
    """f = scale (x^3 + y^3 + x y) with its analytic Jacobian, one entry of
    which is 10 % off when ``off_entry`` is given."""

    def jac(p):
        out = scale * np.array([[3.0 * p[0] ** 2 + p[1], 3.0 * p[1] ** 2 + p[0]]])
        if off_entry is not None:
            out[0, off_entry] *= 1.1
        return out

    return DifferentiableMap(2, 1, lambda p: scale * np.array([p[0] ** 3 + p[1] ** 3 + p[0] * p[1]]), jac)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e8, 1e10])
def test_check_jacobian_is_relative_to_the_map_scale(rng, scale):
    # the gap of a correct Jacobian grows with the map's scale; at 1e6 the
    # absolute fd_tol rejected most of these points
    points = rng.uniform(0.2, 3.0, size=(50, 2))
    scaled_cubic(scale).check_jacobian(points)
    for p in points[:10]:
        for entry in (0, 1):
            with pytest.raises(EvalError):
                scaled_cubic(scale, entry).check_jacobian([p])


def test_fd_fallback_without_analytic():
    f = DifferentiableMap(2, 2, lambda p: np.array([p[0] * p[1], p[0] + p[1]]))
    j = f.jacobian(np.array([2.0, 3.0]))
    np.testing.assert_allclose(j, [[3.0, 2.0], [1.0, 1.0]], atol=1e-7)


# ---------------------------------------------------------------------------
# coordinate operators and graphs


def test_coordinate_operator_zero_for_same_subspace():
    m0 = Subspace.span([1.0, 0.0])
    estar = Subspace.span([0.0, 1.0])
    a = coordinate_operator(m0, estar, m0)
    np.testing.assert_allclose(a.alpha, [[0.0]], atol=1e-14)


@pytest.mark.parametrize("x,y", [(0.3, 0.8), (-0.5, 1.2), (0.0, 1.0)])
def test_coordinate_operator_circle_slope(x, y):
    m0 = Subspace(np.array([[1.0], [0.0]]))
    estar = Subspace(np.array([[0.0], [1.0]]))
    mx = Subspace.span([y, -x])
    a = coordinate_operator(m0, estar, mx)
    assert a.alpha[0, 0] == pytest.approx(-x / y, abs=1e-12)


def test_coordinate_operator_graph_reading_r3():
    m0 = Subspace(np.eye(3)[:, :2])
    estar = Subspace(np.eye(3)[:, 2:])
    a_val, b_val = 0.7, -1.3
    mx = Subspace.span([1.0, 0.0, a_val], [0.0, 1.0, b_val])
    a = coordinate_operator(m0, estar, mx)
    np.testing.assert_allclose(a.alpha, [[a_val, b_val]], atol=1e-12)


def test_coordinate_operator_dimension_mismatch():
    m0 = Subspace(np.eye(3)[:, :2])
    estar = Subspace(np.eye(3)[:, 2:])
    with pytest.raises(DimensionError):
        coordinate_operator(m0, estar, Subspace.span([1.0, 0.0, 0.0]))


def test_graph_subspace_zero_map_returns_base():
    m0 = Subspace(np.eye(3)[:, :2])
    estar = Subspace(np.eye(3)[:, 2:])
    g = graph_subspace(m0, estar, CoordinateOperator(np.zeros((1, 2))))
    assert subspace_distance(g, m0) <= 1e-14


@pytest.mark.parametrize("x,y", [(0.3, 0.8), (-0.5, 1.2)])
def test_graph_subspace_circle_slope(x, y):
    # the graph of the slope -x/y over span{e1} is the line span{(y, -x)}
    m0 = Subspace(np.array([[1.0], [0.0]]))
    estar = Subspace(np.array([[0.0], [1.0]]))
    g = graph_subspace(m0, estar, CoordinateOperator(np.array([[-x / y]])))
    assert subspace_distance(g, Subspace.span([y, -x])) <= 1e-12


def test_graph_roundtrips_random(rng):
    for _ in range(60):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, n + 1))
        m0 = random_subspace(rng, n, k)
        estar = random_complement(rng, m0)
        alpha = CoordinateOperator(rng.uniform(-3, 3, size=(estar.dim, m0.dim)))
        mx = graph_subspace(m0, estar, alpha)
        recovered = coordinate_operator(m0, estar, mx)
        assert np.max(np.abs(recovered.alpha - alpha.alpha), initial=0.0) <= 1e-8
        assert subspace_distance(graph_subspace(m0, estar, recovered), mx) <= 1e-8


def test_graph_uniqueness_random(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        m0 = random_subspace(rng, n, k)
        estar = random_complement(rng, m0)
        alpha = CoordinateOperator(rng.uniform(-3, 3, size=(estar.dim, m0.dim)))
        mx = graph_subspace(m0, estar, alpha)
        bump = np.zeros_like(alpha.alpha)
        bump[0, 0] = 1e-6
        other = graph_subspace(m0, estar, CoordinateOperator(alpha.alpha + bump))
        assert subspace_distance(other, mx) > 1e-8


# ---------------------------------------------------------------------------
# kernel families


def test_kernel_family_circle_base_data():
    fam = kernel_family(circle_map(), [0.0, 1.0])
    assert subspace_distance(fam.base_subspace, Subspace.span([1.0, 0.0])) <= 1e-12
    assert subspace_distance(fam.complement, Subspace.span([0.0, 1.0])) <= 1e-12
    assert cofinal_member(fam, [0.3, 0.8])
    assert cofinal_member(fam, fam.base_point)


def test_kernel_family_affine_map_is_constant():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    f = DifferentiableMap(3, 2, lambda p: a @ p, lambda p: a)
    fam = kernel_family(f, [0.2, -0.4, 1.0])
    for point in ([0.0, 0.0, 0.0], [5.0, 1.0, -2.0]):
        assert subspace_distance(fam.eval(point), fam.base_subspace) <= 1e-12


def test_kernel_family_sphere_3d_base():
    fam = kernel_family(sphere_map(), [0.0, 0.0, 1.0])
    expected = Subspace(np.eye(3)[:, :2])
    assert subspace_distance(fam.base_subspace, expected) <= 1e-12


# a 1e-8 second row that rank_tol 1e-6 cuts: the kernel at (0, 0, 1) is a plane
_FAINT_SPEC = {"dom_dim": 3, "components": [[[1.0, [2, 0, 0]], [1.0, [0, 2, 0]], [1.0, [0, 0, 2]]],
                                            [[1e-8, [1, 0, 0]]]]}


@pytest.mark.parametrize("case", ["sphere_2d", "sphere_3d", "rank_tol", "rank_one", "zero"])
def test_kernel_family_base_kernel_is_its_value_at_the_base(case):
    # the base kernel is cut from the SVD that the family's own evaluation
    # takes at x0, so it is that evaluation, bit for bit
    rank_tol = None
    if case in ("sphere_2d", "sphere_3d"):
        f, x0 = builtin_map(case)
    elif case == "rank_tol":
        f, x0, rank_tol = polynomial_map(_FAINT_SPEC), np.array([0.0, 0.0, 1.0]), 1e-6
    else:  # (|x|^2, 0) has rank 1 into R^2; |x|^2 at the origin has rank 0
        f = DifferentiableMap(3, 2, lambda p: np.array([p @ p, 0.0]), lambda p: np.vstack([2.0 * p, np.zeros(3)]))
        x0 = np.array([0.0, 0.0, 1.0]) if case == "rank_one" else np.zeros(3)
    fam = kernel_family(f, x0, rank_tol=rank_tol)
    at_base = fam.eval(x0).basis
    assert fam.base_subspace.basis.shape == at_base.shape
    assert fam.base_subspace.basis.tobytes() == at_base.tobytes()
    assert fam.base_subspace.dim == {"sphere_2d": 1, "sphere_3d": 2, "rank_tol": 2, "rank_one": 2, "zero": 3}[case]


def test_kernel_family_checks_a_callers_complement():
    f, x0 = builtin_map("sphere_3d")  # base kernel: the plane x3 = 0
    with pytest.raises(ComplementError, match="do not split the ambient space"):
        kernel_family(f, x0, estar=Subspace.span([1.0, 1.0, 0.0]))
    tilted = kernel_family(f, x0, estar=Subspace.span([0.3, -0.2, 1.0]))
    assert tilted.complement.basis.tolist() == Subspace.span([0.3, -0.2, 1.0]).basis.tolist()


def test_cofinal_failure_on_kernel_dimension_drift():
    # Jacobian [[2x, 0], [0, 1]] has kernel dim 1 at the base, 0 elsewhere
    f = DifferentiableMap(
        2, 2, lambda p: np.array([p[0] ** 2, p[1]]), lambda p: np.array([[2 * p[0], 0.0], [0.0, 1.0]])
    )
    fam = kernel_family(f, [0.0, 0.0])
    assert cofinal_member(fam, [0.0, 0.0])
    assert not cofinal_member(fam, [0.3, 0.0])  # dimension drift, not an exception


def misbehaving_sphere_map(calls=None, analytic=True):
    """|x|^2 on R^3 whose Jacobian raises for x0 > 1.5, is NaN for x1 < -1.5
    and vanishes at the origin (where the kernel jumps to all of R^3).
    Jacobian calls are counted in ``calls[0]`` when a list is given."""

    def jac(p):
        if calls is not None:
            calls[0] += 1
        if p[0] > 1.5:
            raise ArithmeticError("outside the chart")
        if p[1] < -1.5:
            return np.full((1, 3), np.nan)
        return 2 * p.reshape(1, -1)

    def func(p):
        if p[0] > 1.5:
            raise ArithmeticError("outside the chart")
        return np.array([p @ p if p[1] >= -1.5 else np.nan])

    return DifferentiableMap(3, 1, func, jac if analytic else None)


def eval_or_none(fam, point):
    try:
        return fam.eval(point)
    except EvalError:
        return None


@pytest.mark.parametrize("analytic", [True, False])
def test_kernel_family_eval_batch_matches_eval(rng, analytic):
    calls = [0]
    fam = kernel_family(misbehaving_sphere_map(calls, analytic), [0.0, 0.0, 1.0])
    points = list(rng.uniform(-2.0, 2.0, size=(40, 3)))
    points += [np.zeros(3), np.array([1.0, -0.3, 0.2]), np.zeros(2), np.zeros(4)]
    rng.shuffle(points)
    calls[0] = 0
    single = [eval_or_none(fam, p) for p in points]
    single_calls = calls[0]
    calls[0] = 0
    batched = list(fam.eval_batch(points))
    assert calls[0] == single_calls
    assert [s is None for s in batched] == [s is None for s in single]
    for b, s in zip(batched, single):
        if s is not None:
            assert b.basis.tobytes() == s.basis.tobytes() and b.basis.shape == s.basis.shape
    dims = {s.dim for s in single if s is not None}
    assert None in single and dims == {2, 3}
    if analytic:
        # wrong sizes, a raising Jacobian and a NaN Jacobian all give None
        assert sum(s is None for s in single) >= 4
    assert list(fam.eval_batch([])) == []


def unruly_sphere_map(kind, calls):
    """|x|^2 on R^3 whose Jacobian, where x1 > 0, raises, has the wrong
    shape, is a list, an int array, NaN or inf, as ``kind`` says; "fd" has
    no analytic Jacobian.  Jacobian (or, for "fd", map) calls are counted in
    ``calls[0]``."""

    def jac(p):
        calls[0] += 1
        out = 2.0 * p.reshape(1, -1)
        if p[1] <= 0.0:
            return out
        if kind == "raises":
            raise ArithmeticError("outside the chart")
        if kind == "shape":
            return out.ravel()
        if kind == "list":
            return out.tolist()
        if kind == "int":
            return np.rint(10.0 * out).astype(int)
        if kind in ("nan", "inf"):
            out[0, 2] = np.nan if kind == "nan" else np.inf
        return out

    def func(p):
        calls[0] += kind == "fd"
        return np.array([p @ p])

    return DifferentiableMap(3, 1, func, None if kind == "fd" else jac)


def jacobian_loop(f, points):
    """The indices and Jacobians ``_jacobian_stack`` must give, point by point
    through ``f.jacobian``."""
    rows, jacs = [], []
    for i, u in enumerate(points):
        point = np.asarray(u, dtype=float).ravel()
        if point.size != f.dom_dim:
            continue
        try:
            jac = f.jacobian(point)
        except Exception:  # noqa: BLE001 - any failure drops the point
            continue
        if np.isfinite(jac).all():
            rows.append(i)
            jacs.append(jac)
    return rows, np.array(jacs).reshape(-1, f.cod_dim, f.dom_dim)


@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("kind", ["clean", "raises", "shape", "list", "int", "nan", "inf", "fd"])
def test_jacobian_stack_matches_the_point_by_point_loop(rng, kind, ragged):
    calls = [0]
    f = unruly_sphere_map(kind, calls)
    fam = kernel_family(f, [0.0, 0.0, 1.0])
    points = rng.uniform(-1.0, 1.0, size=(24, 3))
    # the whole batch, and the points where a misbehaving Jacobian misbehaves
    # everywhere (so the stack as a whole has the wrong shape or dtype)
    for batch in (points, points[points[:, 1] > 0.0]):
        if ragged:
            batch = list(batch) + [np.zeros(2), np.array([[0.1, 0.2, 0.3]]), np.zeros(4)]
        calls[0] = 0
        want_rows, want = jacobian_loop(f, batch)
        loop_calls, calls[0] = calls[0], 0
        want_dims = np.full(len(batch), -1)
        want_dims[want_rows] = [kernel_of(j).dim for j in want]
        # a point array takes the stacked route, a ragged list eval_batch's
        # point-by-point loop: the same dims from the same Jacobian calls
        assert fam.eval_batch(batch).dims.tolist() == want_dims.tolist()
        assert calls[0] == loop_calls > 0
        if ragged:
            continue
        calls[0] = 0
        rows, stack = _jacobian_stack(f, DEFAULTS, batch)
        assert calls[0] == loop_calls
        assert rows.tolist() == want_rows
        assert stack.dtype == np.float64 and stack.shape == want.shape and stack.tobytes() == want.tobytes()
    # a point array of the wrong width calls nothing
    calls[0] = 0
    assert fam.eval_batch(np.zeros((3, 4))).dims.tolist() == [-1, -1, -1]
    assert calls[0] == 0


def test_generic_eval_batch_maps_eval_errors_to_none():
    fam = kernel_family(misbehaving_sphere_map(), [0.0, 0.0, 1.0])
    generic = SubspaceFamily(
        eval_fn=fam.eval_fn, base_point=fam.base_point, base_subspace=fam.base_subspace, complement=fam.complement
    )
    # a kernel family whose eval_fn is replaced evaluates through the new one
    flat = dataclasses.replace(fam, eval_fn=lambda x: fam.eval_fn(x) if x[0] < 1.0 else Subspace.full(3))
    points = [np.array([0.1, 0.2, 0.9]), np.array([2.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0]), np.zeros(2)]
    subs = list(generic.eval_batch(points))
    assert [s is None for s in subs] == [False, True, True, True]
    assert subs[0].basis.tobytes() == next(iter(fam.eval_batch(points))).basis.tobytes()
    assert flat.eval_batch(points).dims.tolist() == [2, 3, -1, -1]


# ---------------------------------------------------------------------------
# closed-form coordinate operator of a Jacobian-kernel family


@pytest.mark.parametrize("point", [(0.3, 0.8), (-0.4, 1.1), (0.05, 0.999)])
def test_grp_alpha_circle_closed_form(point):
    f = circle_map()
    gi0 = moore_penrose(f.jacobian(np.array([0.0, 1.0])))
    a = grp_alpha(f, gi0, np.array(point))
    fam = kernel_family(f, [0.0, 1.0])
    generic = coordinate_operator(fam.base_subspace, fam.complement, fam.eval(np.array(point)))
    # the stored bases may differ in sign from the canonical ones
    assert abs(a.alpha[0, 0]) == pytest.approx(abs(point[0] / point[1]), abs=1e-10)
    np.testing.assert_allclose(a.alpha, generic.alpha, atol=1e-10)


def test_grp_alpha_zero_at_base():
    f = sphere_map()
    x0 = np.array([0.0, 0.0, 1.0])
    gi0 = moore_penrose(f.jacobian(x0))
    a = grp_alpha(f, gi0, x0)
    np.testing.assert_allclose(a.alpha, np.zeros((1, 2)), atol=1e-14)


def test_grp_alpha_matches_generic_on_random_maps(rng):
    # random quadratic R^3 -> R with nonvanishing gradient at the base
    for _ in range(15):
        q = rng.standard_normal((3, 3))
        q = q + q.T
        b = rng.standard_normal(3) + np.array([0.0, 0.0, 3.0])
        f = DifferentiableMap(
            3, 1,
            lambda p, q=q, b=b: np.array([0.5 * p @ q @ p + b @ p]),
            lambda p, q=q, b=b: (q @ p + b).reshape(1, -1),
        )
        x0 = rng.uniform(-0.2, 0.2, size=3)
        fam = kernel_family(f, x0)
        gi0 = moore_penrose(f.jacobian(x0))
        x = x0 + rng.uniform(-0.05, 0.05, size=3)
        closed = grp_alpha(f, gi0, x)
        generic = coordinate_operator(fam.base_subspace, fam.complement, fam.eval(x))
        np.testing.assert_allclose(closed.alpha, generic.alpha, atol=1e-8)


# ---------------------------------------------------------------------------
# probes


def test_generalized_regular_probe_affine():
    a = np.array([[1.0, 0.0, 2.0]])
    f = DifferentiableMap(3, 1, lambda p: a @ p, lambda p: a)
    rep = generalized_regular_probe(f, [0.0, 0.0, 0.0], [0.2, 0.1], samples=4, seed=0)
    assert rep.all_pass
    assert all(m == pytest.approx(0.0, abs=1e-12) for m in rep.alpha_modulus)


def test_generalized_regular_probe_circle_modulus_shrinks():
    rep = generalized_regular_probe(circle_map(), [0.0, 1.0], [0.2, 0.1, 0.05, 0.025], 8, seed=4)
    assert rep.all_pass
    mods = rep.alpha_modulus
    for prev, cur in zip(mods, mods[1:]):
        assert cur <= 0.7 * prev


def test_generalized_regular_probe_rank_jump_fails():
    f = DifferentiableMap(
        2, 2, lambda p: np.array([p[0] ** 2, p[1]]), lambda p: np.array([[2 * p[0], 0.0], [0.0, 1.0]])
    )
    rep = generalized_regular_probe(f, [0.0, 0.0], [0.2, 0.1], samples=5, seed=0)
    assert not rep.all_pass
    assert all(not o.all_pass for o in rep.outcomes)


def _inline_directions(seed, samples, dim):
    """The probes' ray directions as each probe generated them inline."""
    directions = []
    for j in range(samples):
        d = trial_rng(seed, j).standard_normal(dim)
        directions.append(d / np.linalg.norm(d))
    return directions


@pytest.mark.parametrize("seed", [0, 4, 11])
def test_probes_use_the_inline_ray_directions(seed):
    f = sphere_map()
    points = []

    def jac(p):
        points.append(np.array(p))
        return f.jac(p)

    base, radii, samples = np.array([0.3, -0.2, 0.9]), [0.2, 0.05], 6
    expected = [base + r * d for r in radii for d in _inline_directions(seed, samples, base.size)]
    recorder = DifferentiableMap(3, 1, f.func, jac)
    gi0 = moore_penrose(f.jac(base))

    locally_fine_probe(recorder.jac, base, gi0, radii, samples, seed)
    assert len(points) == 1 + len(expected)
    for got, want in zip(points[1:], expected):
        np.testing.assert_array_equal(got, want)

    points.clear()
    generalized_regular_probe(recorder, base, radii, samples, seed)
    # the base point twice (gi0, then the continuity probe), the continuity
    # probe's rays, then the alpha-modulus rays
    assert len(points) == 2 + 2 * len(expected)
    for got, want in zip(points[2:], expected + expected):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# stacked batches: SubspaceFamily.eval_batch


def batch_families():
    """Kernel families (analytic and finite-difference Jacobians), the generic
    loop around the same eval_fn, a kernel family whose eval_fn was
    replaced by one that mixes dimensions 2 and 3, and ``sec4_2x2``'s
    operator family over 2x2 matrices."""
    kernels = kernel_family(misbehaving_sphere_map(), [0.0, 0.0, 1.0])
    generic = SubspaceFamily(
        eval_fn=kernels.eval_fn,
        base_point=kernels.base_point,
        base_subspace=kernels.base_subspace,
        complement=kernels.complement,
    )
    replaced = dataclasses.replace(kernels, eval_fn=lambda x: kernels.eval_fn(x) if x[2] > 0.5 else Subspace.full(3))
    return {
        "kernel": kernels,
        "kernel_fd": kernel_family(misbehaving_sphere_map(analytic=False), [0.0, 0.0, 1.0]),
        "generic": generic,
        "replaced": replaced,
        "operator": builtin_family("sec4_2x2"),
    }


def batch_points(kind, rng):
    """A shuffled list of points for ``batch_families()[kind]`` and the
    dimensions it must reach (-1 for a failed evaluation).  For the operator
    family: ranks 0, 1 and 2 (dimensions 0, 3 and 4), a point of the wrong
    size, one shaped (2, 2) and one with an inf entry."""
    if kind == "operator":
        points = [np.outer(*rng.standard_normal((2, 2))).ravel() for _ in range(12)]
        points += list(rng.standard_normal((12, 4))) + [np.zeros(4)]
        points += [np.zeros(3), np.eye(2), np.array([1.0, 0.0, 0.0, np.inf])]
        dims = {-1, 0, 3, 4}
    else:
        points = list(rng.uniform(-2.0, 2.0, size=(40, 3)))
        points += [np.zeros(3), np.array([1.9, 0.1, 0.2]), np.array([0.1, -1.9, 0.2]), np.zeros(2), np.zeros(4)]
        dims = {-1, 2, 3}
    rng.shuffle(points)
    return points, dims


@pytest.mark.parametrize("kind", ["kernel", "kernel_fd", "generic", "replaced", "operator"])
def test_eval_batch_matches_eval_point_by_point(rng, kind):
    fam = batch_families()[kind]
    points, dims = batch_points(kind, rng)
    n = fam.ambient_dim
    # the ragged list, which goes point by point, and its finite points of
    # the right size as one array, which an eval_fn with ``_batch`` takes
    stacked = np.array([p.ravel() for p in points if p.size == fam.param_dim and np.isfinite(p).all()])
    for pts in (points, stacked):
        single = [eval_or_none(fam, p) for p in pts]
        batch = fam.eval_batch(pts)
        assert batch.ambient_dim == n
        assert batch.dims.tolist() == [-1 if s is None else s.dim for s in single]
        assert dims - {-1} <= set(batch.dims.tolist())
        for k in range(n + 1):
            mask, bases = batch.of_dim(k)
            assert mask.tolist() == [s is not None and s.dim == k for s in single]
            members = [s.basis for s in single if s is not None and s.dim == k]
            if not members:
                assert bases.shape == (0, n, k)
                continue
            ref = np.stack(members)
            # equal bytes and the same per-basis memory layout, so that products
            # with the stack round exactly as products with the single bases
            assert bases.shape == ref.shape and bases.tobytes() == ref.tobytes()
            assert bases.strides[1:] == ref.strides[1:]
        for b, s in zip(batch, single):
            assert (b is None) == (s is None)
            if s is not None:
                assert b.basis.tobytes() == s.basis.tobytes() and b.basis.shape == s.basis.shape
    assert set(fam.eval_batch(points).dims.tolist()) == dims
    empty = fam.eval_batch([])
    assert len(empty.dims) == 0 and list(empty) == []


def test_eval_batch_falls_back_when_the_stacked_svd_fails(rng, monkeypatch):
    families = batch_families()
    cases = [
        (families["kernel"], list(rng.uniform(-2.0, 2.0, size=(12, 3))) + [np.zeros(3)]),
        # ranks 0, 1 and 2 of 2x2 matrices
        (families["operator"], [np.zeros(4), np.array([1.0, 2.0, 0.5, 1.0])] + list(rng.standard_normal((6, 4)))),
    ]
    expected = [fam.eval_batch(points) for fam, points in cases]
    assert set(expected[1].dims.tolist()) == {0, 3, 4}
    svd, stacked_calls = np.linalg.svd, [0]

    def failing_svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacked_calls[0] += 1
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    for (fam, points), want in zip(cases, expected):
        stacked_calls[0] = 0
        batch = fam.eval_batch(points)
        assert stacked_calls[0] == 1
        assert batch.dims.tolist() == want.dims.tolist()
        for k in set(want.dims.tolist()) - {-1}:
            assert batch.of_dim(k)[1].tobytes() == want.of_dim(k)[1].tobytes()
            mask, bases = fam.eval_batch(points).of_dim(k)
            assert mask.tolist() == (want.dims == k).tolist()
            assert bases.tobytes() == want.of_dim(k)[1].tobytes()
        assert stacked_calls[0] == 1 + len(set(want.dims.tolist()) - {-1})
