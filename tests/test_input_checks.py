"""Malformed and inconsistent inputs are ValidationError (CLI exit code 2),
and a kernel family cut at its own rank tolerance splits with its default
complement."""

import json

import numpy as np
import pytest

from oblique import (
    DifferentiableMap,
    GenInverse,
    Subspace,
    coordinate_operator,
    integrate,
    kernel_family,
    moore_penrose,
    operator_context,
    perturbed_gi,
    rank_class_preserved,
    seven_conditions,
)
from oblique.builtins import builtin_map, family_from_manifest
from oblique.frobenius import explicit_patch, explicit_psi
from oblique.cli import main
from oblique.errors import ValidationError
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
