"""Malformed and inconsistent inputs are ValidationError (CLI exit code 2),
and a kernel family cut at its own rank tolerance splits with its default
complement."""

import json
import math

import numpy as np
import pytest

from oblique import (
    DifferentiableMap,
    GenInverse,
    Subspace,
    SubspaceFamily,
    coordinate_operator,
    gi_from_complements,
    integrate,
    kernel_family,
    locally_fine_probe,
    moore_penrose,
    operator_context,
    perturbed_gi,
    rank_class_preserved,
    seven_conditions,
    tangency_check,
)
from oblique.builtins import builtin_map, family_from_manifest
from oblique.frobenius import explicit_patch, explicit_psi
from oblique.cli import main
from oblique.errors import CofinalBreach, ComplementError, ValidationError
from oblique.matio import matrix_to_dict

A2 = np.diag([1.0, 0.0])
T2 = np.array([[1.0, 0.05], [0.0, 0.0]])


def write_matrix(path, a):
    path.write_text(json.dumps(matrix_to_dict(np.asarray(a, dtype=float))))
    return str(path)


# ---------------------------------------------------------------------------
# shapes at the CLI


def _conditions_shape_mismatch(tmp_path):
    a = write_matrix(tmp_path / "a.json", A2)
    t = write_matrix(tmp_path / "t.json", np.eye(3))
    return ["conditions", "--a", a, "--t", t], ("(3, 3)", "(2, 2)")


def _conditions_inverse_shape(tmp_path):
    a = write_matrix(tmp_path / "a.json", A2)
    ap = write_matrix(tmp_path / "ap.json", np.eye(3))
    return ["conditions", "--a", a, "--ainv", ap, "--t", a], ("(3, 3)", "(2, 2)")


def _gi_complement_ambient(tmp_path):
    a = write_matrix(tmp_path / "a.json", A2)
    r = write_matrix(tmp_path / "r.json", [[1.0], [0.0], [0.0]])
    return ["gi", "--a", a, "--r-plus", r, "--n-plus", r], ("R^3", "R^2")


def _integrate_extent_count(tmp_path):
    return ["integrate", "--builtin", "sphere_3d", "--extent", "0.1", "0.2", "0.3"], ("3 values", "dimension 2")


@pytest.mark.parametrize(
    "case", [_conditions_shape_mismatch, _conditions_inverse_shape, _gi_complement_ambient, _integrate_extent_count]
)
def test_cli_malformed_shapes_exit_2(tmp_path, capsys, case):
    argv, shapes = case(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for shape in shapes:
        assert shape in err


def test_shape_errors_keep_the_value_error_contract():
    with pytest.raises(ValueError) as exc:
        GenInverse(A2, np.eye(3), Subspace.trivial(2), Subspace.full(2))
    assert isinstance(exc.value, ValidationError)


def test_integrate_rejects_grid_count_above_base_dimension():
    f = DifferentiableMap(2, 1, lambda p: np.array([p @ p]), lambda p: 2 * p.reshape(1, -1))
    fam = kernel_family(f, [0.0, 1.0])
    with pytest.raises(ValidationError, match="grid_points has 2 values"):
        integrate(fam, 0.1, 1e-2, grid_points=[5, 5])


def _full_after_first_call():
    """A family of lines of R^2 that is the base line at its first call, the
    construction's check, and R^2 from then on."""
    base, calls = Subspace.span([1.0, 0.0]), [0]

    def eval_fn(x):
        calls[0] += 1
        return base if calls[0] == 1 else Subspace.full(2)

    return SubspaceFamily(eval_fn, np.array([0.0, 5.0]), base, Subspace.span([0.0, 1.0]))


@pytest.mark.parametrize(
    "family, extent, grid, error, message",
    [
        (lambda: SubspaceFamily(lambda p: Subspace(np.eye(3)[:, :2]), np.zeros(2), Subspace(np.eye(3)[:, :2]),
                                Subspace.span([0.0, 0.0, 1.0])),
         0.1, None, ValidationError, "family parameters must be ambient points"),
        (lambda: SubspaceFamily(lambda p: Subspace.trivial(2), np.zeros(2), Subspace.trivial(2), Subspace.full(2)),
         0.1, None, ValidationError, "base subspace is trivial"),
        (lambda: kernel_family(*builtin_map("sphere_2d")), 0.0, None, ValidationError, "extents must be positive"),
        (lambda: kernel_family(*builtin_map("sphere_3d")), (0.1, -0.1), None, ValidationError,
         "extents must be positive"),
        (lambda: kernel_family(*builtin_map("sphere_2d")), 0.1, 4, ValidationError,
         r"grid_points must be odd and >= 3, got 4"),
        (_full_after_first_call, 0.1, None, CofinalBreach,
         r"no splitting at the base point \(subspace of dim 2, expected dim 1\)"),
        (lambda: kernel_family(*builtin_map("sphere_3d")), (0.5, math.nan), None, ValidationError,
         r"extents must be finite, got \[0\.5, nan\]"),
        (lambda: kernel_family(*builtin_map("sphere_2d")), math.inf, None, ValidationError,
         r"extents must be finite, got \[inf\]"),
        (lambda: kernel_family(*builtin_map("sphere_2d")), 0.1, 7.9, ValidationError,
         r"grid_points must be whole numbers, got \[7\.9\]"),
        (lambda: kernel_family(*builtin_map("sphere_3d")), 0.1, (7, math.nan), ValidationError,
         r"grid_points must be whole numbers, got \[7\.0, nan\]"),
    ],
)
def test_integrate_rejects_inputs_it_cannot_integrate(family, extent, grid, error, message):
    with pytest.raises(error, match=message):
        integrate(family(), extent, 1e-2, grid_points=grid)


# ---------------------------------------------------------------------------
# inverses and probes check their spaces and arguments


@pytest.mark.parametrize(
    "range_complement, kernel_complement, message",
    [
        (Subspace.full(2), Subspace.full(2), r"range complement in R\^2, domain is R\^3"),
        (Subspace.full(3), Subspace.full(3), r"kernel complement in R\^3, codomain is R\^2"),
    ],
)
def test_gen_inverse_rejects_complements_in_the_wrong_space(range_complement, kernel_complement, message):
    # A maps R^3 to R^2: R(A+) lives in the domain, N(A+) in the codomain
    with pytest.raises(ValidationError, match=message):
        GenInverse(np.eye(2, 3), np.eye(3, 2), range_complement, kernel_complement)


def test_cli_conditions_rejects_an_inverse_that_breaks_the_axioms(tmp_path, capsys):
    # 2 A+ of A = diag(1, 0): A B A = 2 A, so B is not a {1,2}-inverse
    argv = ["conditions", "--a", write_matrix(tmp_path / "a.json", A2),
            "--ainv", write_matrix(tmp_path / "ai.json", 2.0 * A2), "--t", write_matrix(tmp_path / "t.json", T2)]
    assert main(argv) == 3
    assert "inverse axioms violated" in capsys.readouterr().err


def test_gi_from_complements_rejects_a_kernel_complement_that_meets_the_range():
    # R(A) = span(e1) = N+: the two do not add up to R^2
    with pytest.raises(ComplementError, match="supplied kernel complement is not transversal to the range"):
        gi_from_complements(A2, Subspace.span([1.0, 0.0]), Subspace.span([1.0, 0.0]))
    assert gi_from_complements(A2, Subspace.span([1.0, 0.0]), Subspace.span([1.0, 1.0])).residuals()["aba"] == 0.0


@pytest.mark.parametrize("radius", [0.0, -0.1])
def test_locally_fine_probe_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radii must be positive"):
        locally_fine_probe(lambda x: A2 + x[0] * T2, [0.0], moore_penrose(A2), [0.1, radius], samples=2)


# ---------------------------------------------------------------------------
# an inverse of a different operator


def test_operator_context_rejects_inverse_of_another_operator():
    with pytest.raises(ValidationError):
        operator_context(A2, moore_penrose(np.diag([2.0, 0.0])))
    assert operator_context(A2, moore_penrose(A2)).rank == 1


@pytest.mark.parametrize("fn", [seven_conditions, perturbed_gi, rank_class_preserved])
def test_perturbation_functions_reject_inverse_of_another_operator(fn):
    with pytest.raises(ValidationError):
        fn(A2, moore_penrose(np.diag([2.0, 0.0])), T2)
    fn(A2, moore_penrose(A2), T2)


# ---------------------------------------------------------------------------
# a kernel family cut at its own rank tolerance

# f(x) = (x1 + x3^2 / 2, 1e-10 x2): the Jacobian at the origin has singular
# values (1, 1e-10), so at rank_tol 1e-6 its kernel is 2-dimensional.
NEAR_SINGULAR = {
    "dom_dim": 3,
    "components": [[[1.0, [1, 0, 0]], [0.5, [0, 0, 2]]], [[1e-10, [0, 1, 0]]]],
}


def _near_singular_map():
    return DifferentiableMap(
        3,
        2,
        lambda p: np.array([p[0] + 0.5 * p[2] ** 2, 1e-10 * p[1]]),
        lambda p: np.array([[1.0, 0.0, p[2]], [0.0, 1e-10, 0.0]]),
    )


@pytest.mark.parametrize("route", ["function", "manifest"])
def test_near_singular_kernel_family_splits(route):
    if route == "function":
        fam = kernel_family(_near_singular_map(), np.zeros(3), rank_tol=1e-6)
    else:
        fam = family_from_manifest({"kind": "kernel", "map": NEAR_SINGULAR, "x0": [0.0, 0.0, 0.0], "rank_tol": 1e-6})
    assert (fam.base_subspace.dim, fam.complement.dim) == (2, 1)
    points = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [0.0, 0.5, -0.4]])
    assert fam.eval_batch(points).dims.tolist() == [2, 2, 2]
    # the kernel at x is spanned by e2 and (-x3, 0, 1): its graph over M0
    alpha = coordinate_operator(fam.base_subspace, fam.complement, fam.eval(points[1])).alpha
    assert alpha.shape == (1, 2)
    assert np.max(np.abs(np.abs(alpha) - [0.0, 0.3])) <= 1e-12


# ---------------------------------------------------------------------------
# the explicit graph map checks its vectors once, at the boundary


def _circle_graph():
    f, x0 = builtin_map("sphere_2d")
    return f, x0, moore_penrose(f.jacobian(x0))


@pytest.mark.parametrize(
    "z, x0, w0, message",
    [
        ([0.1, 0.2], None, None, "z has 2 coordinates, expected 1"),
        ([np.nan], None, None, "z has non-finite entries"),
        ([0.1], [0.0, 1.0, 0.0], None, "x0 has 3 coordinates, expected 2"),
        ([0.1], [np.inf, 1.0], None, "x0 has non-finite entries"),
        ([0.1], None, [1.0, 0.0], "w0 has 2 coordinates, expected 1"),
        ([0.1], None, [np.nan], "w0 has non-finite entries"),
    ],
)
def test_explicit_psi_rejects_malformed_vectors(z, x0, w0, message):
    f, base, gi0 = _circle_graph()
    with pytest.raises(ValidationError, match=message):
        explicit_psi(f, gi0, z, x0=base if x0 is None else x0, w0=w0)
    explicit_psi(f, gi0, [0.1], x0=base, w0=explicit_psi(f, gi0, [0.0], x0=base))


def test_explicit_patch_rejects_patch_of_another_dimension():
    f, x0, gi0 = _circle_graph()
    g, y0 = builtin_map("sphere_3d")
    patch = integrate(kernel_family(g, y0), 0.1, 1e-2, grid_points=3)
    with pytest.raises(ValidationError, match=r"\(dim M0, dim E\*\) = \(2, 1\)"):
        explicit_patch(f, gi0, patch, x0=x0)


def test_tangency_check_rejects_a_family_of_other_points():
    # a family of planes of R^3 over points of R^2: no node of a sphere_3d
    # patch is one of its points, which would leave nothing to measure
    f, x0 = builtin_map("sphere_3d")
    patch = integrate(kernel_family(f, x0), 0.1, 1e-2, grid_points=3)
    plane = Subspace(np.eye(3)[:, :2])
    family = SubspaceFamily(lambda p: plane, np.zeros(2), plane, Subspace.span([0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError, match=r"maps R\^2 into R\^3, patch is in R\^3"):
        tangency_check(patch, family)
